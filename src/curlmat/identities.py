"""Machine verification of the operator identities, as exact equalities.

Every check happens at operator (matrix) level: the identities are linear in
the tensor field they act on, so structural equality of the composed
matrices is equivalent to the field-level statement.  A report is
"exact-pass" only when the difference matrix is structurally zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .builders import (build_cartesian_curls, build_curl_cg, build_div,
                       build_grad, cartesian_div, cartesian_grad)
from .diffop import CARTESIAN, DegreeCapError, OpMatrix, degree_cap, spherical_tag
from .exactnum import I, ONE, imag

EXACT_PASS = "exact-pass"
FAIL = "fail"


@dataclass
class IdentityReport:
    """Outcome of one identity check.

    ``l_range`` lists the ranks covered; for power-law and series reports the
    integers are the exponents / truncation order instead.
    """

    identity_id: str
    l_range: list[int]
    status: str
    witness: OpMatrix | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == EXACT_PASS

    def as_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "l_range": list(self.l_range),
            "status": self.status,
            "witness": None if self.witness is None else self.witness.to_text(),
            "note": self.note,
        }


class OperatorSet:
    """Caches the operator family the suites verify.

    ``curl_override`` swaps in replacement curls (used by the mutation
    sensitivity tests); the hermitian and complex variants derive from the
    possibly-overridden curl so a mutation propagates everywhere.
    """

    def __init__(self, curl_override: Mapping[int, OpMatrix] | None = None):
        self._curl_override = dict(curl_override or {})
        self._cache: dict[tuple, OpMatrix] = {}

    def curl(self, l: int) -> OpMatrix:
        if l in self._curl_override:
            return self._curl_override[l]
        return build_curl_cg(l)

    def div(self, l: int) -> OpMatrix:
        return build_div(l)

    def grad(self, l: int) -> OpMatrix:
        return build_grad(l)

    def curl_h(self, l: int) -> OpMatrix:
        return self.curl(l).scale(I)

    def curl_c(self, l: int) -> OpMatrix:
        return self.curl(l).scale(ONE + I)

    def laplacian_identity(self, l: int, n: int = 1) -> OpMatrix:
        key = ("lap", l, n)
        if key not in self._cache:
            eye = OpMatrix.identity(2 * l + 1, spherical_tag(l, l))
            self._cache[key] = eye.laplacian_times(n)
        return self._cache[key]


Pair = tuple[str, int, OpMatrix, OpMatrix]


def core_identity_pairs(l_max: int, ops: OperatorSet | None = None) -> list[Pair]:
    ops = ops or OperatorSet()
    half = Fraction(1, 2)
    pairs: list[Pair] = [
        ("curl-grad-zero", 1,
         ops.curl(1) @ ops.grad(0), OpMatrix.zeros(3, 1, spherical_tag(0, 1))),
        ("div-curl-zero", 1,
         ops.div(1) @ ops.curl(1), OpMatrix.zeros(1, 3, spherical_tag(1, 0))),
        ("curl-squared-rank1", 1,
         ops.curl(1) @ ops.curl(1),
         ops.grad(0) @ ops.div(1) - ops.laplacian_identity(1)),
        ("curl-grad-intertwine", 2,
         ops.curl(2) @ ops.grad(1), (ops.grad(1) @ ops.curl(1)).scale(half)),
        ("div-curl-intertwine", 2,
         ops.div(2) @ ops.curl(2), (ops.curl(1) @ ops.div(2)).scale(half)),
    ]
    for l in range(1, l_max + 1):
        coeff = Fraction(2 * l - 1, l)
        pairs.append((
            "curl-squared", l,
            ops.curl(l) @ ops.curl(l),
            (ops.grad(l - 1) @ ops.div(l)).scale(coeff) - ops.laplacian_identity(l)))
    return pairs


def hermitian_identity_pairs(l_max: int, ops: OperatorSet | None = None) -> list[Pair]:
    ops = ops or OperatorSet()
    half = Fraction(1, 2)
    pairs: list[Pair] = [
        ("hermitian-curl-grad-zero", 1,
         ops.curl_h(1) @ ops.grad(0), OpMatrix.zeros(3, 1, spherical_tag(0, 1))),
        ("hermitian-div-curl-zero", 1,
         ops.div(1) @ ops.curl_h(1), OpMatrix.zeros(1, 3, spherical_tag(1, 0))),
        ("hermitian-curl-squared-rank1", 1,
         ops.curl_h(1) @ ops.curl_h(1),
         ops.laplacian_identity(1) - ops.grad(0) @ ops.div(1)),
        ("hermitian-curl-grad-intertwine", 2,
         ops.curl_h(2) @ ops.grad(1), (ops.grad(1) @ ops.curl_h(1)).scale(half)),
        ("hermitian-div-curl-intertwine", 2,
         ops.div(2) @ ops.curl_h(2), (ops.curl_h(1) @ ops.div(2)).scale(half)),
    ]
    for l in range(1, l_max + 1):
        coeff = Fraction(2 * l - 1, l)
        pairs.append((
            "hermitian-curl-squared", l,
            ops.curl_h(l) @ ops.curl_h(l),
            ops.laplacian_identity(l) - (ops.grad(l - 1) @ ops.div(l)).scale(coeff)))
    return pairs


def complex_identity_pairs(l_max: int, ops: OperatorSet | None = None) -> list[Pair]:
    ops = ops or OperatorSet()
    half = Fraction(1, 2)
    two_i = imag(2)
    pairs: list[Pair] = [
        ("complex-curl-grad-zero", 1,
         ops.curl_c(1) @ ops.grad(0), OpMatrix.zeros(3, 1, spherical_tag(0, 1))),
        ("complex-div-curl-zero", 1,
         ops.div(1) @ ops.curl_c(1), OpMatrix.zeros(1, 3, spherical_tag(1, 0))),
        ("complex-curl-squared-rank1", 1,
         ops.curl_c(1) @ ops.curl_c(1),
         (ops.grad(0) @ ops.div(1) - ops.laplacian_identity(1)).scale(two_i)),
        ("complex-curl-grad-intertwine", 2,
         ops.curl_c(2) @ ops.grad(1), (ops.grad(1) @ ops.curl_c(1)).scale(half)),
        ("complex-div-curl-intertwine", 2,
         ops.div(2) @ ops.curl_c(2), (ops.curl_c(1) @ ops.div(2)).scale(half)),
    ]
    for l in range(1, l_max + 1):
        coeff = Fraction(2 * l - 1, l)
        pairs.append((
            "complex-curl-squared", l,
            ops.curl_c(l) @ ops.curl_c(l),
            ((ops.grad(l - 1) @ ops.div(l)).scale(coeff)
             - ops.laplacian_identity(l)).scale(two_i)))
    return pairs


def cartesian_identity_pairs() -> list[Pair]:
    curl, curl_c, curl_h = build_cartesian_curls()
    grad = cartesian_grad()
    div = cartesian_div()
    lap = OpMatrix.identity(3, CARTESIAN).laplacian_times(1)
    grad_div = grad @ div
    two_i = imag(2)
    return [
        ("cartesian-curl-grad-zero", 1, curl @ grad, OpMatrix.zeros(3, 1, CARTESIAN)),
        ("cartesian-div-curl-zero", 1, div @ curl, OpMatrix.zeros(1, 3, CARTESIAN)),
        ("cartesian-double-curl", 1, curl @ curl, grad_div - lap),
        ("cartesian-complex-curl-grad-zero", 1, curl_c @ grad,
         OpMatrix.zeros(3, 1, CARTESIAN)),
        ("cartesian-div-complex-curl-zero", 1, div @ curl_c,
         OpMatrix.zeros(1, 3, CARTESIAN)),
        ("cartesian-complex-double-curl", 1, curl_c @ curl_c,
         (grad_div - lap).scale(two_i)),
        ("cartesian-hermitian-curl-grad-zero", 1, curl_h @ grad,
         OpMatrix.zeros(3, 1, CARTESIAN)),
        ("cartesian-div-hermitian-curl-zero", 1, div @ curl_h,
         OpMatrix.zeros(1, 3, CARTESIAN)),
        ("cartesian-hermitian-double-curl", 1, curl_h @ curl_h, lap - grad_div),
    ]


def power_identity_pairs(n_max: int, ops: OperatorSet | None = None) -> list[Pair]:
    ops = ops or OperatorSet()
    curl1 = ops.curl(1)
    cart = build_cartesian_curls().curl
    pairs: list[Pair] = []
    for name, op in (("curl1", curl1), ("cartesian-curl", cart)):
        op_sq = op @ op
        for n in range(1, n_max + 1):
            even_sign = 1 if (n - 1) % 2 == 0 else -1
            odd_sign = 1 if n % 2 == 0 else -1
            pairs.append((f"{name}-power-even", n,
                          op.power(2 * n),
                          op_sq.laplacian_times(n - 1).scale(even_sign)))
            pairs.append((f"{name}-power-odd", n,
                          op.power(2 * n + 1),
                          op.laplacian_times(n).scale(odd_sign)))
    return pairs


def _reports_from_pairs(pairs: list[Pair]) -> list[IdentityReport]:
    order: list[str] = []
    grouped: dict[str, list[tuple[int, OpMatrix, OpMatrix]]] = {}
    for ident, l, lhs, rhs in pairs:
        if ident not in grouped:
            grouped[ident] = []
            order.append(ident)
        grouped[ident].append((l, lhs, rhs))
    reports = []
    for ident in order:
        ls: list[int] = []
        status, witness, note = EXACT_PASS, None, ""
        for l, lhs, rhs in grouped[ident]:
            ls.append(l)
            diff = lhs - rhs
            if not diff.is_zero and witness is None:
                status = FAIL
                witness = diff
                note = f"first failure at {l}"
        reports.append(IdentityReport(ident, ls, status, witness, note))
    return reports


def verify_core_identities(l_max: int, ops: OperatorSet | None = None) -> list[IdentityReport]:
    if not 1 <= l_max <= 6:
        raise ValueError("core suite supports 1 <= l_max <= 6")
    return _reports_from_pairs(core_identity_pairs(l_max, ops))


def _parity_reports(n_max: int, ops: OperatorSet) -> list[IdentityReport]:
    curl1 = ops.curl(1)
    cart = build_cartesian_curls().curl
    reports = []
    for ident, op, want_imag in (("curl1-power-parity", curl1, True),
                                 ("cartesian-power-parity", cart, False)):
        ns: list[int] = []
        status, witness, note = EXACT_PASS, None, ""
        power = OpMatrix.identity(op.rows, op.tag)
        for n in range(1, 2 * n_max + 2):
            power = power @ op
            ns.append(n)
            split = power.split_symmetry()
            if n % 2:
                ok = split.real_antisymmetric
                if want_imag:
                    ok = ok and split.imag_symmetric and split.imag_traceless
                else:
                    ok = ok and split.imag_part.is_zero
            else:
                ok = split.real_symmetric
                if want_imag:
                    ok = ok and split.imag_antisymmetric
                else:
                    ok = ok and split.imag_part.is_zero
            if not ok and witness is None:
                status = FAIL
                witness = power
                note = f"parity violated at power {n}"
        reports.append(IdentityReport(ident, ns, status, witness, note))
    return reports


def verify_power_laws(n_max: int, ops: OperatorSet | None = None) -> list[IdentityReport]:
    if 2 * n_max + 1 > degree_cap():
        raise DegreeCapError(
            f"power suite needs degree {2 * n_max + 1} > cap {degree_cap()}")
    ops = ops or OperatorSet()
    reports = _reports_from_pairs(power_identity_pairs(n_max, ops))
    reports.extend(_parity_reports(n_max, ops))
    return reports


def exponential_pair(n_terms: int, ops: OperatorSet | None = None) -> tuple[OpMatrix, OpMatrix]:
    """Truncated exponential series and its closed grouping.

    The left side is sum_{j<=2N+2} curl^j / j!; the right side groups the
    odd/even powers through the power laws into
    1 + sum_n (-1)^n/(2n+1)! * (curl + curl^2/(2n+2)) * laplacian^n.
    """
    if 2 * n_terms + 2 > degree_cap():
        raise DegreeCapError(
            f"exponential suite needs degree {2 * n_terms + 2} > cap {degree_cap()}")
    ops = ops or OperatorSet()
    curl1 = ops.curl(1)
    eye = OpMatrix.identity(3, curl1.tag)
    lhs = eye
    power = eye
    for j in range(1, 2 * n_terms + 3):
        power = power @ curl1
        lhs = lhs + power.scale(Fraction(1, factorial(j)))
    curl_sq = curl1 @ curl1
    rhs = eye
    for n in range(n_terms + 1):
        sign = Fraction(-1 if n % 2 else 1, factorial(2 * n + 1))
        block = curl1 + curl_sq.scale(Fraction(1, 2 * n + 2))
        rhs = rhs + block.laplacian_times(n).scale(sign)
    return lhs, rhs


def verify_exponential(n_terms: int, ops: OperatorSet | None = None) -> IdentityReport:
    lhs, rhs = exponential_pair(n_terms, ops)
    diff = lhs - rhs
    status = EXACT_PASS if diff.is_zero else FAIL
    return IdentityReport("curl1-exponential-series", [n_terms], status,
                          None if diff.is_zero else diff)


def verify_hermitian_suite(l_max: int, ops: OperatorSet | None = None) -> list[IdentityReport]:
    if not 1 <= l_max <= 6:
        raise ValueError("hermitian suite supports 1 <= l_max <= 6")
    return _reports_from_pairs(hermitian_identity_pairs(l_max, ops))


def verify_complex_suite(l_max: int, ops: OperatorSet | None = None) -> list[IdentityReport]:
    if not 1 <= l_max <= 6:
        raise ValueError("complex suite supports 1 <= l_max <= 6")
    reports = _reports_from_pairs(complex_identity_pairs(l_max, ops))
    reports.extend(_reports_from_pairs(cartesian_identity_pairs()))
    return reports


def verify_hermitian_complex_suites(l_max: int, ops: OperatorSet | None = None) -> list[IdentityReport]:
    return verify_hermitian_suite(l_max, ops) + verify_complex_suite(l_max, ops)


def verify_all(l_max: int = 4, n_max: int = 4, exp_terms: int = 3,
               ops: OperatorSet | None = None) -> dict[str, list[IdentityReport]]:
    ops = ops or OperatorSet()
    return {
        "core": verify_core_identities(l_max, ops),
        "powers": verify_power_laws(n_max, ops),
        "exp": [verify_exponential(exp_terms, ops)],
        "hermitian": verify_hermitian_suite(l_max, ops),
        "complex": verify_complex_suite(l_max, ops),
    }


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)
