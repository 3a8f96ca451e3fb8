"""Constructors for the spherical-tensor differential operators.

DIV, GRAD and CURL at rank l are assembled from exact Clebsch-Gordan data;
CURL is also built independently from the angular momentum matrices as
(L . grad)/(i*l), and the two routes must agree exactly.  The sign/phase
freedoms that the coupling formula leaves open (components of the derivative
column, conjugation rule, coupling reading, overall curl phase) are fixed
once by a selection oracle: the unique choice that reproduces the reference
rank-1 and rank-2 curl matrices.  Discrepancies between the remaining
reference matrices and the Clebsch-Gordan construction are recorded as
errata, with the construction kept as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, NamedTuple

from .angular import angular_matrices, clebsch_gordan, wigner_3j
from .diffop import (CARTESIAN, TRANSFORM, DX, DY, DZ, DiffPoly, OpMatrix,
                     spherical_tag)
from .exactnum import ExactScalar, I, ONE, imag, rational, root

_HALF = Fraction(1, 2)
_X_PLUS_IY = DX + DY * I       # dx + i*dy
_X_MINUS_IY = DX - DY * I      # dx - i*dy
_ZERO = DiffPoly()


def _rt(d: int, num: int = 1, den: int = 1) -> ExactScalar:
    return root(d, Fraction(num, den))


# ---------------------------------------------------------------------------
# Reference matrices (the known canonical forms the selection oracle targets).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _curl1_reference() -> OpMatrix:
    s = _rt(2, 1, 2)  # sqrt(2)/2
    bracket = OpMatrix.from_rows([
        [DZ, _X_MINUS_IY * s, _ZERO],
        [_X_PLUS_IY * s, _ZERO, _X_MINUS_IY * s],
        [_ZERO, _X_PLUS_IY * s, -DZ],
    ], spherical_tag(1, 1))
    return bracket.scale(imag(-1))  # overall 1/i


@lru_cache(maxsize=1)
def _curl2_reference() -> OpMatrix:
    s = _rt(6, 1, 2)  # sqrt(6)/2
    two = rational(2)
    bracket = OpMatrix.from_rows([
        [DZ * two, _X_MINUS_IY, _ZERO, _ZERO, _ZERO],
        [_X_PLUS_IY, DZ, _X_MINUS_IY * s, _ZERO, _ZERO],
        [_ZERO, _X_PLUS_IY * s, _ZERO, _X_MINUS_IY * s, _ZERO],
        [_ZERO, _ZERO, _X_PLUS_IY * s, -DZ, _X_MINUS_IY],
        [_ZERO, _ZERO, _ZERO, _X_PLUS_IY, -(DZ * two)],
    ], spherical_tag(2, 2))
    return bracket.scale(imag(Fraction(-1, 2)))  # overall 1/(2i)


@lru_cache(maxsize=1)
def _grad1_reference() -> OpMatrix:
    half = rational(1, 2)
    return OpMatrix.from_rows([
        [_X_MINUS_IY * -half, _ZERO, _ZERO],
        [DZ * half, _X_MINUS_IY * -_rt(2, 1, 4), _ZERO],
        [_X_PLUS_IY * _rt(6, 1, 12), DZ * _rt(3, 1, 3), _X_MINUS_IY * -_rt(6, 1, 12)],
        [_ZERO, _X_PLUS_IY * _rt(2, 1, 4), DZ * half],
        [_ZERO, _ZERO, _X_PLUS_IY * half],
    ], spherical_tag(1, 2))


@lru_cache(maxsize=1)
def _div2_reference() -> OpMatrix:
    # Reference form as commonly shown; rows 2-3 carry (dx - i*dy) where the
    # coupling construction puts the conjugate -- see the errata scan.
    return OpMatrix.from_rows([
        [-_X_PLUS_IY, DZ, _X_MINUS_IY * _rt(6, 1, 6), _ZERO, _ZERO],
        [_ZERO, _X_MINUS_IY * -_rt(2, 1, 2), DZ * _rt(3, 2, 3), _X_MINUS_IY * _rt(2, 1, 2), _ZERO],
        [_ZERO, _ZERO, _X_MINUS_IY * -_rt(6, 1, 6), DZ, _X_MINUS_IY],
    ], spherical_tag(2, 1))


# ---------------------------------------------------------------------------
# Convention ledger and selection oracle.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Erratum:
    ident: str
    detail: str


@dataclass(frozen=True)
class ConventionLedger:
    """The pinned sign/phase/notation choices, selected once by oracle."""

    version: str
    derivative_plus: DiffPoly
    derivative_zero: DiffPoly
    derivative_minus: DiffPoly
    conjugate_components: bool
    coupling: str
    curl_prefactor_sign: int
    phases: tuple[tuple[str, ExactScalar], ...]
    errata: tuple[Erratum, ...]

    def derivative_column(self) -> dict[int, DiffPoly]:
        """The column actually used in the assembly (conjugated if selected)."""
        comps = {1: self.derivative_plus, 0: self.derivative_zero,
                 -1: self.derivative_minus}
        if self.conjugate_components:
            comps = {mu: p.conj() for mu, p in comps.items()}
        return comps

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "derivative_components": {
                "+1": str(self.derivative_plus),
                "0": str(self.derivative_zero),
                "-1": str(self.derivative_minus),
            },
            "conjugate_components": self.conjugate_components,
            "coupling": self.coupling,
            "curl_prefactor_sign": self.curl_prefactor_sign,
            "phases": {kind: str(phase) for kind, phase in self.phases},
            "errata": [{"id": e.ident, "detail": e.detail} for e in self.errata],
        }

    def describe(self) -> str:
        lines = [
            f"convention ledger v{self.version}",
            f"  derivative basis: d+1 = {self.derivative_plus}",
            f"                    d0  = {self.derivative_zero}",
            f"                    d-1 = {self.derivative_minus}",
            f"  column conjugated before assembly: {self.conjugate_components}",
            f"  coupling reading: {self.coupling}",
            f"  curl prefactor: {'+' if self.curl_prefactor_sign > 0 else '-'}i*sqrt(l(l+1))/l",
            "  errata:",
        ]
        for e in self.errata:
            lines.append(f"    [{e.ident}] {e.detail}")
        return "\n".join(lines)


def _coupling_fn(name: str) -> Callable[[int, int, int, int, int], ExactScalar]:
    if name == "clebsch-gordan":
        return lambda mu, l, m2, lo, m1: clebsch_gordan(1, mu, l, m2, lo, m1)
    if name == "wigner-3j":
        return lambda mu, l, m2, lo, m1: wigner_3j(1, l, lo, mu, m2, m1)
    raise ValueError(f"unknown coupling reading {name!r}")


def _assemble(kind: str, l: int, column: dict[int, DiffPoly],
              coupling: str, curl_sign: int = 1) -> OpMatrix:
    if kind == "div":
        l_out = l - 1
        prefactor = -ExactScalar.sqrt_rational(Fraction(l * (2 * l + 1), 2 * l - 1))
    elif kind == "grad":
        l_out = l + 1
        prefactor = ExactScalar.sqrt_rational(Fraction(1, l + 1))
    elif kind == "curl":
        l_out = l
        prefactor = (I * rational(curl_sign)
                     * ExactScalar.sqrt_rational(Fraction(l * (l + 1), l * l)))
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    couple = _coupling_fn(coupling)
    rows = []
    for m1 in range(l_out, -l_out - 1, -1):
        row = []
        for m2 in range(l, -l - 1, -1):
            mu = m1 - m2
            if abs(mu) > 1:
                row.append(_ZERO)
                continue
            coeff = couple(mu, l, m2, l_out, m1)
            if coeff.is_zero:
                row.append(_ZERO)
            else:
                row.append(column[mu] * (prefactor * coeff))
        rows.append(row)
    return OpMatrix.from_rows(rows, spherical_tag(l, l_out))


def _entry_mismatches(built: OpMatrix, reference: OpMatrix) -> list[str]:
    out = []
    for i in range(built.rows):
        for j in range(built.cols):
            b, r = built.entry(i, j), reference.entry(i, j)
            if b != r:
                out.append(f"({i + 1},{j + 1}): construction {b}, reference {r}")
    return out


@lru_cache(maxsize=1)
def conventions() -> ConventionLedger:
    """Select the derivative/coupling convention and scan for errata.

    Enumerates the 8 sign/conjugation variants of the derivative column,
    both coupling readings and both curl prefactor signs, and keeps the
    unique combination that reproduces the reference rank-1 and rank-2 curl
    matrices exactly.
    """
    ref1, ref2 = _curl1_reference(), _curl2_reference()
    winners = []
    for curl_sign, conjugate, s_plus, s_minus, coupling in product(
            (1, -1), (True, False), (1, -1), (1, -1),
            ("clebsch-gordan", "wigner-3j")):
        plus = _X_PLUS_IY * _rt(2, s_plus, 2)     # s+ * (dx + i dy)/sqrt(2)
        minus = _X_MINUS_IY * _rt(2, s_minus, 2)  # s- * (dx - i dy)/sqrt(2)
        comps = {1: plus, 0: DZ, -1: minus}
        used = {mu: p.conj() for mu, p in comps.items()} if conjugate else comps
        if _assemble("curl", 1, used, coupling, curl_sign) != ref1:
            continue
        if _assemble("curl", 2, used, coupling, curl_sign) == ref2:
            winners.append((curl_sign, conjugate, plus, minus, coupling))
    if len(winners) != 1:
        raise RuntimeError(
            f"convention selection must be unique, found {len(winners)} matches")
    curl_sign, conjugate, plus, minus, coupling = winners[0]

    errata = [
        Erratum(
            "transform-matrix-singular",
            "the commonly shown spherical-to-cartesian transform has row 2 = "
            "i * row 1 and is singular; the unitary form with row 2 = "
            "(-i/sqrt(2), 0, -i/sqrt(2)) is used instead"),
        Erratum(
            "curl-prefactor-sign",
            "the curl prefactor variant with the opposite sign "
            f"({'-' if curl_sign > 0 else '+'}i*sqrt(l(l+1))/l) does not "
            "reproduce the reference rank-1/rank-2 curl matrices"),
        Erratum(
            "ladder-derivative-components",
            "the ladder assembly uses d(+/-) = dx +/- i*dy; the variant "
            "without the i does not reproduce the direct L.grad assembly"),
    ]
    ledger = ConventionLedger(
        version="1",
        derivative_plus=plus,
        derivative_zero=DZ,
        derivative_minus=minus,
        conjugate_components=conjugate,
        coupling=coupling,
        curl_prefactor_sign=curl_sign,
        phases=(("div", ONE), ("grad", ONE), ("curl", ONE)),
        errata=(),
    )
    column = ledger.derivative_column()
    grad_diffs = _entry_mismatches(
        _assemble("grad", 1, column, coupling), _grad1_reference())
    if grad_diffs:
        errata.append(Erratum(
            "grad1-reference",
            "rank-1 gradient reference disagrees with the coupling "
            "construction at " + "; ".join(grad_diffs)))
    div_diffs = _entry_mismatches(
        _assemble("div", 2, column, coupling), _div2_reference())
    if div_diffs:
        errata.append(Erratum(
            "div2-reference-conjugation",
            "rank-2 divergence reference disagrees with the coupling "
            "construction at " + "; ".join(div_diffs)))
    return replace(ledger, errata=tuple(errata))


# ---------------------------------------------------------------------------
# Spherical operator builders.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_div(l: int) -> OpMatrix:
    """(2l-1) x (2l+1) divergence, rank l -> rank l-1."""
    if l < 1:
        raise ValueError("divergence needs l >= 1")
    ledger = conventions()
    return _assemble("div", l, ledger.derivative_column(), ledger.coupling)


@lru_cache(maxsize=None)
def build_grad(l: int) -> OpMatrix:
    """(2l+3) x (2l+1) gradient, rank l -> rank l+1."""
    if l < 0:
        raise ValueError("gradient needs l >= 0")
    ledger = conventions()
    return _assemble("grad", l, ledger.derivative_column(), ledger.coupling)


@lru_cache(maxsize=None)
def build_curl_cg(l: int) -> OpMatrix:
    """(2l+1) x (2l+1) curl from Clebsch-Gordan data."""
    if l < 1:
        raise ValueError("curl needs l >= 1")
    ledger = conventions()
    return _assemble("curl", l, ledger.derivative_column(), ledger.coupling,
                     ledger.curl_prefactor_sign)


@lru_cache(maxsize=None)
def build_curl_ldotgrad(l: int) -> OpMatrix:
    """The same curl assembled as (L . grad)/(i*l) from the spin-l matrices."""
    ang = angular_matrices(l)
    dim = 2 * l + 1
    scale = imag(Fraction(-1, l))  # 1/(i*l)
    rows = []
    for r in range(dim):
        row = []
        for c in range(dim):
            poly = DX * ang.lx[r][c] + DY * ang.ly[r][c] + DZ * ang.lz[r][c]
            row.append(poly * scale)
        rows.append(row)
    return OpMatrix.from_rows(rows, spherical_tag(l, l))


@lru_cache(maxsize=None)
def build_curl_ladder(l: int) -> OpMatrix:
    """Ladder form [Lz*dz + (L+*d- + L-*d+)/2]/(i*l), with d(+/-) = dx +/- i*dy."""
    ang = angular_matrices(l)
    dim = 2 * l + 1
    scale = imag(Fraction(-1, l))
    half = Fraction(1, 2)
    rows = []
    for r in range(dim):
        row = []
        for c in range(dim):
            poly = (DZ * ang.lz[r][c]
                    + _X_MINUS_IY * (ang.lplus[r][c] * half)
                    + _X_PLUS_IY * (ang.lminus[r][c] * half))
            row.append(poly * scale)
        rows.append(row)
    return OpMatrix.from_rows(rows, spherical_tag(l, l))


def build_curl_hermitian(l: int) -> OpMatrix:
    """i * CURL: the self-adjoint curl."""
    return build_curl_cg(l).scale(I)


def build_curl_complex(l: int) -> OpMatrix:
    """(1+i) * CURL: curl extended to the complex plane."""
    return build_curl_cg(l).scale(ONE + I)


# ---------------------------------------------------------------------------
# Cartesian side.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def cartesian_transform() -> OpMatrix:
    """Unitary change of basis from spherical (descending m) to cartesian."""
    h = _rt(2, 1, 2)  # 1/sqrt(2)
    ih = imag(Fraction(1, 2), 2)  # i/sqrt(2)
    return OpMatrix.constant([
        [-h, ExactScalar(), h],
        [-ih, ExactScalar(), -ih],
        [ExactScalar(), ONE, ExactScalar()],
    ], TRANSFORM)


@lru_cache(maxsize=1)
def cartesian_transform_inverse() -> OpMatrix:
    return cartesian_transform().formal_adjoint()


def to_cartesian(op: OpMatrix) -> OpMatrix:
    """Conjugate a 3x3 rank-1 spherical operator into the cartesian basis."""
    if op.shape != (3, 3):
        raise ValueError("cartesian conversion expects a 3x3 rank-1 operator")
    s = cartesian_transform()
    return s.compose(op).compose(cartesian_transform_inverse()).retag(CARTESIAN)


class CartesianCurls(NamedTuple):
    curl: OpMatrix
    curl_c: OpMatrix
    curl_h: OpMatrix


@lru_cache(maxsize=1)
def build_cartesian_curls() -> CartesianCurls:
    """The standard cartesian curl and its complex/hermitian extensions."""
    curl = OpMatrix.from_rows([
        [_ZERO, -DZ, DY],
        [DZ, _ZERO, -DX],
        [-DY, DX, _ZERO],
    ], CARTESIAN)
    return CartesianCurls(curl, curl.scale(ONE + I), curl.scale(I))


@lru_cache(maxsize=1)
def cartesian_grad() -> OpMatrix:
    return OpMatrix.from_rows([[DX], [DY], [DZ]], CARTESIAN)


@lru_cache(maxsize=1)
def cartesian_div() -> OpMatrix:
    return OpMatrix.from_rows([[DX, DY, DZ]], CARTESIAN)


# ---------------------------------------------------------------------------
# Rank-2 cartesian curl (symmetric traceless tensors).
# ---------------------------------------------------------------------------

# The packed slots (T11, T12, T13, T22, T23) of a symmetric traceless tensor;
# T33 = -T11 - T22 and the lower triangle mirrors the upper.
RANK2_SLOTS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2))


def curl_rank2_cartesian(tensor):
    """Curl of a symmetric traceless rank-2 cartesian tensor.

    ``tensor`` is a 3x3 nested sequence of DiffPoly entries (symbolic fields;
    derivatives multiply by the symbol).  The output is symmetric and
    traceless by construction.  Grid fields take `cartesian_curl_rank2`.
    """
    t = [[tensor[i][j] for j in range(3)] for i in range(3)]
    if not all(isinstance(t[i][j], DiffPoly) for i in range(3) for j in range(3)):
        raise TypeError("entries must be DiffPoly; apply cartesian_curl_rank2() "
                        "to sampled tensors")
    for i in range(3):
        for j in range(i + 1, 3):
            if t[i][j] != t[j][i]:
                raise ValueError("tensor must be symmetric")
    if not (t[0][0] + t[1][1] + t[2][2]).is_zero:
        raise ValueError("tensor must be traceless")

    d1, d2, d3 = (lambda e: e * DX), (lambda e: e * DY), (lambda e: e * DZ)
    diag0 = d2(t[0][2]) - d3(t[0][1])
    diag1 = d3(t[0][1]) - d1(t[1][2])
    diag2 = d1(t[1][2]) - d2(t[0][2])
    a = ((d2(t[2][1]) - d3(t[1][1])) + (d3(t[0][0]) - d1(t[2][0]))) * _HALF
    b = ((d2(t[2][2]) - d3(t[1][2])) + (d1(t[1][0]) - d2(t[0][0]))) * _HALF
    c = ((d3(t[0][2]) - d1(t[2][2])) + (d1(t[1][1]) - d2(t[0][1]))) * _HALF
    return ((diag0, a, b),
            (a, diag1, c),
            (b, c, diag2))


@lru_cache(maxsize=1)
def cartesian_curl_rank2() -> OpMatrix:
    """The rank-2 curl as a 5x5 operator on the `RANK2_SLOTS` packing.

    Column s is `curl_rank2_cartesian` of the unit tensor of slot s.
    """
    one = DiffPoly.scalar(ONE)
    columns = []
    for i, j in RANK2_SLOTS:
        unit = [[_ZERO] * 3 for _ in range(3)]
        unit[i][j] = unit[j][i] = one
        if i == j:
            unit[2][2] = -one
        out = curl_rank2_cartesian(unit)
        columns.append([out[r][c] for r, c in RANK2_SLOTS])
    return OpMatrix.from_rows(list(zip(*columns)), CARTESIAN)
