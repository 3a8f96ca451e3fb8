"""Machine verification of the operator identities, as exact equalities.

Every check happens at operator (matrix) level: the identities are linear in
the tensor field they act on, so structural equality of the composed
matrices is equivalent to the field-level statement.  A report is
"exact-pass" only when the two sides are structurally equal (entries are
canonical, so their difference is then zero); the difference matrix is built
only for a failed report, as its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping

from .angular import MAX_SPIN
from .builders import (build_cartesian_curls, build_curl_cg, build_div,
                       build_grad, cartesian_div, cartesian_grad)
from .diffop import CARTESIAN, OpMatrix, spherical_tag
from .exactnum import ExactScalar, I, ONE

EXACT_PASS = "exact-pass"
FAIL = "fail"

# The largest order n the power and exponential suites accept; their top
# powers of curl1 have degree 2n + 1 and 2n + 2.  ``verify_all(4, n, n)``
# takes 2-3 s and 59 MB maxrss at n = 16 on a 2-core host, and its time grows
# about as n^3 (9-10 s, 118 MB at n = 24).
MAX_ORDER = 16


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
    sensitivity tests); every curl·alpha family scales the possibly-overridden
    curl, so a mutation propagates everywhere.
    """

    def __init__(self, curl_override: Mapping[int, OpMatrix] | None = None):
        self._curl_override = dict(curl_override or {})
        self._laplacians: dict[int, OpMatrix] = {}

    def curl(self, l: int) -> OpMatrix:
        if l in self._curl_override:
            return self._curl_override[l]
        return build_curl_cg(l)

    def div(self, l: int) -> OpMatrix:
        return build_div(l)

    def grad(self, l: int) -> OpMatrix:
        return build_grad(l)

    def laplacian_identity(self, l: int) -> OpMatrix:
        if l not in self._laplacians:
            eye = OpMatrix.identity(2 * l + 1, spherical_tag(l, l))
            self._laplacians[l] = eye.laplacian_times(1)
        return self._laplacians[l]


class _CartesianOperators:
    """The rank-1 cartesian curl, grad, div and laplacian, under the
    ``OperatorSet`` method names the identity generator calls."""

    def curl(self, l: int) -> OpMatrix:
        return build_cartesian_curls().curl

    def div(self, l: int) -> OpMatrix:
        return cartesian_div()

    def grad(self, l: int) -> OpMatrix:
        return cartesian_grad()

    def laplacian_identity(self, l: int) -> OpMatrix:
        return OpMatrix.identity(3, CARTESIAN).laplacian_times(1)


Pair = tuple[str, int, OpMatrix, OpMatrix]


def curl_alpha_pairs(alpha: ExactScalar, l_max: int, ops=None,
                     prefix: str = "") -> list[Pair]:
    """The curl identities restated for curl·alpha, as (id, l, lhs, rhs).

    The left sides compose ``ops.curl(l).scale(alpha)``.  The zero and
    intertwining identities are linear in the curl and keep their form; the
    curl-squared right sides are the alpha = 1 ones times alpha**2, so
    alpha = i gives lap - grad.div and alpha = 1+i gives 2i (grad.div - lap).
    ``l_max = 0`` keeps the three rank-1 identities only.
    """
    ops = ops or OperatorSet()
    square = alpha * alpha
    curls: dict[int, OpMatrix] = {}

    def curl(l: int) -> OpMatrix:
        if l not in curls:
            curls[l] = ops.curl(l) if alpha == ONE else ops.curl(l).scale(alpha)
        return curls[l]

    def curl_squared_rhs(l: int, coeff) -> OpMatrix:
        rhs = (ops.grad(l - 1) @ ops.div(l)).scale(coeff) - ops.laplacian_identity(l)
        return rhs if square == ONE else rhs.scale(square)

    grad_curl = curl(1) @ ops.grad(0)
    curl_div = ops.div(1) @ curl(1)
    pairs: list[Pair] = [
        ("curl-grad-zero", 1, grad_curl, OpMatrix.zeros(3, 1, grad_curl.tag)),
        ("div-curl-zero", 1, curl_div, OpMatrix.zeros(1, 3, curl_div.tag)),
        ("curl-squared-rank1", 1, curl(1) @ curl(1), curl_squared_rhs(1, 1)),
    ]
    if l_max:
        half = Fraction(1, 2)
        pairs.append(("curl-grad-intertwine", 2, curl(2) @ ops.grad(1),
                      (ops.grad(1) @ curl(1)).scale(half)))
        pairs.append(("div-curl-intertwine", 2, ops.div(2) @ curl(2),
                      (curl(1) @ ops.div(2)).scale(half)))
    for l in range(1, l_max + 1):
        pairs.append(("curl-squared", l, curl(l) @ curl(l),
                      curl_squared_rhs(l, Fraction(2 * l - 1, l))))
    return [(prefix + ident, l, lhs, rhs) for ident, l, lhs, rhs in pairs]


# Report ids of the cartesian family, kept as published so reports stay
# comparable; "{}" takes "", "complex-" or "hermitian-".
_CARTESIAN_IDS = {
    "curl-grad-zero": "cartesian-{}curl-grad-zero",
    "div-curl-zero": "cartesian-div-{}curl-zero",
    "curl-squared-rank1": "cartesian-{}double-curl",
}


def cartesian_identity_pairs() -> list[Pair]:
    """The rank-1 identities of the cartesian curl·alpha, alpha = 1, 1+i, i."""
    pairs: list[Pair] = []
    for word, alpha in (("", ONE), ("complex-", ONE + I), ("hermitian-", I)):
        pairs += [(_CARTESIAN_IDS[ident].format(word), l, lhs, rhs) for ident, l, lhs, rhs
                  in curl_alpha_pairs(alpha, 0, _CartesianOperators())]
    return pairs


def power_walk(op: OpMatrix, top: int) -> Iterator[OpMatrix]:
    """Yield op^1 .. op^top, each power one compose from the one before."""
    power = op
    yield power
    for _ in range(top - 1):
        power = power @ op
        yield power


def power_identity_pairs(name: str, powers: list[OpMatrix]) -> list[Pair]:
    """curl^2n = (-1)^(n-1) curl^2 lap^(n-1) and curl^(2n+1) = (-1)^n curl lap^n,
    read off a ``power_walk`` of odd length 2 n_max + 1."""
    pairs: list[Pair] = []
    for n in range(1, (len(powers) - 1) // 2 + 1):
        pairs.append((f"{name}-power-even", n, powers[2 * n - 1],
                      powers[1].laplacian_times(n - 1).scale((-1) ** (n - 1))))
        pairs.append((f"{name}-power-odd", n, powers[2 * n],
                      powers[0].laplacian_times(n).scale((-1) ** n)))
    return pairs


def _report(ident: str, checks, failure: str) -> IdentityReport:
    """One report over ``checks``, pairs (l, witness) whose witness is None
    where the check holds; the first witness is kept."""
    ls: list[int] = []
    status, witness, note = EXACT_PASS, None, ""
    for l, bad in checks:
        ls.append(l)
        if bad is not None and witness is None:
            status, witness, note = FAIL, bad, f"{failure} {l}"
    return IdentityReport(ident, ls, status, witness, note)


def _reports_from_pairs(pairs: list[Pair]) -> list[IdentityReport]:
    grouped: dict[str, list[tuple[int, OpMatrix | None]]] = {}
    for ident, l, lhs, rhs in pairs:
        grouped.setdefault(ident, []).append((l, None if lhs == rhs else lhs - rhs))
    return [_report(ident, checks, "first failure at") for ident, checks in grouped.items()]


# suite -> (identity id prefix, alpha) of its spherical curl·alpha family
_FAMILIES = {"core": ("", ONE), "hermitian": ("hermitian-", I), "complex": ("complex-", ONE + I)}


def _family_reports(suite: str, l_max: int, ops: OperatorSet | None) -> list[IdentityReport]:
    if not 1 <= l_max <= MAX_SPIN:
        raise ValueError(f"{suite} suite supports 1 <= l_max <= {MAX_SPIN}")
    prefix, alpha = _FAMILIES[suite]
    return _reports_from_pairs(curl_alpha_pairs(alpha, l_max, ops, prefix))


def verify_core_identities(l_max: int, ops: OperatorSet | None = None) -> list[IdentityReport]:
    return _family_reports("core", l_max, ops)


def _parity_holds(power: OpMatrix, odd: bool, want_imag: bool) -> bool:
    """Odd powers are real-antisymmetric, even ones real-symmetric; the
    imaginary part is zero, or with ``want_imag`` of the opposite symmetry."""
    split = power.split_symmetry()
    real = split.real_antisymmetric if odd else split.real_symmetric
    if not want_imag:
        return real and split.imag_part.is_zero
    if odd:
        return real and split.imag_symmetric and split.imag_traceless
    return real and split.imag_antisymmetric


def _power_reports(name: str, parity_id: str, op: OpMatrix, n_max: int,
                   want_imag: bool) -> tuple[list[IdentityReport], IdentityReport]:
    powers = list(power_walk(op, 2 * n_max + 1))
    parity = ((n, None if _parity_holds(power, n % 2 == 1, want_imag) else power)
              for n, power in enumerate(powers, 1))
    return (_reports_from_pairs(power_identity_pairs(name, powers)),
            _report(parity_id, parity, "parity violated at power"))


def _check_order(suite: str, n: int) -> None:
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"{suite} suite supports 0 <= n <= {MAX_ORDER}, got {n}")


def verify_power_laws(n_max: int, ops: OperatorSet | None = None) -> list[IdentityReport]:
    """Power laws and parity of the rank-1 spherical and the cartesian curl.

    Each curl's powers are walked once and both checks read that walk, which
    is dropped before the next curl's walk starts.
    """
    _check_order("power", n_max)
    ops = ops or OperatorSet()
    curl_laws, curl_parity = _power_reports(
        "curl1", "curl1-power-parity", ops.curl(1), n_max, True)
    cart_laws, cart_parity = _power_reports(
        "cartesian-curl", "cartesian-power-parity", build_cartesian_curls().curl, n_max, False)
    return curl_laws + cart_laws + [curl_parity, cart_parity]


def exponential_pair(n_terms: int, ops: OperatorSet | None = None) -> tuple[OpMatrix, OpMatrix]:
    """Truncated exponential series and its closed grouping.

    The left side is sum_{j<=2N+2} curl^j / j!; the right side groups the
    odd/even powers through the power laws into
    1 + sum_n (-1)^n/(2n+1)! * (curl + curl^2/(2n+2)) * laplacian^n.
    """
    _check_order("exponential", n_terms)
    ops = ops or OperatorSet()
    curl1 = ops.curl(1)
    eye = OpMatrix.identity(3, curl1.tag)
    lhs = eye
    for j, power in enumerate(power_walk(curl1, 2 * n_terms + 2), 1):  # top >= 2
        lhs = lhs + power.scale(Fraction(1, factorial(j)))
        if j == 2:
            curl_sq = power
    rhs = eye
    for n in range(n_terms + 1):
        sign = Fraction(-1 if n % 2 else 1, factorial(2 * n + 1))
        block = curl1 + curl_sq.scale(Fraction(1, 2 * n + 2))
        rhs = rhs + block.laplacian_times(n).scale(sign)
    return lhs, rhs


def verify_exponential(n_terms: int, ops: OperatorSet | None = None) -> IdentityReport:
    lhs, rhs = exponential_pair(n_terms, ops)
    if lhs == rhs:
        return IdentityReport("curl1-exponential-series", [n_terms], EXACT_PASS)
    return IdentityReport("curl1-exponential-series", [n_terms], FAIL, lhs - rhs)


def verify_hermitian_suite(l_max: int, ops: OperatorSet | None = None) -> list[IdentityReport]:
    return _family_reports("hermitian", l_max, ops)


def verify_complex_suite(l_max: int, ops: OperatorSet | None = None) -> list[IdentityReport]:
    return (_family_reports("complex", l_max, ops)
            + _reports_from_pairs(cartesian_identity_pairs()))


SUITES = ("core", "powers", "exp", "hermitian", "complex")


def verify_suite(name: str, l_max: int, n_max: int, exp_terms: int,
                 ops: OperatorSet | None = None) -> list[IdentityReport]:
    """Run one suite of ``SUITES``; ``l_max`` sizes core, hermitian and complex."""
    # module globals are looked up per call, so wrappers installed on the
    # verify_* functions see every dispatch
    if name == "core":
        return verify_core_identities(l_max, ops)
    if name == "powers":
        return verify_power_laws(n_max, ops)
    if name == "exp":
        return [verify_exponential(exp_terms, ops)]
    if name == "hermitian":
        return verify_hermitian_suite(l_max, ops)
    if name == "complex":
        return verify_complex_suite(l_max, ops)
    raise ValueError(f"unknown suite {name!r}")


def verify_all(l_max: int = 4, n_max: int = 4, exp_terms: int = 3,
               ops: OperatorSet | None = None) -> dict[str, list[IdentityReport]]:
    ops = ops or OperatorSet()
    return {name: verify_suite(name, l_max, n_max, exp_terms, ops) for name in SUITES}


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)
