"""Exact Clebsch-Gordan coefficients, integer-spin angular momentum matrices
and the Wigner matrix d^l(pi/2).

Couplings and d^l(pi/2) are evaluated with closed-form sums over exact
rationals (Racah's and Wigner's), in the Condon-Shortley phase convention, so
every value is a rational multiple of a single square root.  Matrices use the
canonical basis ordered by descending magnetic number m = l, l-1, ..., -l.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exactnum import ExactScalar, rational

MAX_SPIN = 8

MatrixExact = tuple[tuple[ExactScalar, ...], ...]


def _check_label(l: int, m: int, name: str) -> None:
    if not isinstance(l, int) or not isinstance(m, int):
        raise ValueError(f"{name}: spin labels must be integers")
    if l < 0 or abs(m) > l:
        raise ValueError(f"{name}: need 0 <= |m| <= l, got l={l}, m={m}")


def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, l: int, m: int) -> ExactScalar:
    """Exact coupling coefficient <l1 m1; l2 m2 | l m>.

    Zero unless m = m1 + m2 and |l1 - l2| <= l <= l1 + l2; invalid spin
    labels raise ValueError.
    """
    _check_label(l1, m1, "(l1, m1)")
    _check_label(l2, m2, "(l2, m2)")
    _check_label(l, m, "(l, m)")
    return _cg(l1, m1, l2, m2, l, m)


@lru_cache(maxsize=None)
def _cg(l1: int, m1: int, l2: int, m2: int, l: int, m: int) -> ExactScalar:
    if m != m1 + m2 or l < abs(l1 - l2) or l > l1 + l2:
        return ExactScalar()
    k_min = max(0, -(l - l2 + m1), -(l - l1 - m2))
    k_max = min(l1 + l2 - l, l1 - m1, l2 + m2)
    if k_min > k_max:
        return ExactScalar()
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        den = (factorial(k) * factorial(l1 + l2 - l - k)
               * factorial(l1 - m1 - k) * factorial(l2 + m2 - k)
               * factorial(l - l2 + m1 + k) * factorial(l - l1 - m2 + k))
        total += Fraction(-1 if k % 2 else 1, den)
    if total == 0:
        return ExactScalar()
    radicand = (Fraction((2 * l + 1)
                         * factorial(l + l1 - l2) * factorial(l - l1 + l2)
                         * factorial(l1 + l2 - l), factorial(l1 + l2 + l + 1))
                * factorial(l + m) * factorial(l - m)
                * factorial(l1 - m1) * factorial(l1 + m1)
                * factorial(l2 - m2) * factorial(l2 + m2))
    return ExactScalar.from_rational(total) * ExactScalar.sqrt_rational(radicand)


def wigner_3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> ExactScalar:
    """Exact Wigner 3j symbol (j1 j2 j3; m1 m2 m3) for integer spins."""
    _check_label(j1, m1, "(j1, m1)")
    _check_label(j2, m2, "(j2, m2)")
    _check_label(j3, m3, "(j3, m3)")
    cg = _cg(j1, m1, j2, m2, j3, -m3)
    if cg.is_zero:
        return cg
    sign = -1 if (j1 - j2 - m3) % 2 else 1
    return cg * rational(sign) / ExactScalar.sqrt_rational(2 * j3 + 1)


def basis_index(l: int, m: int) -> int:
    """Row/column index of magnetic number m in the descending-m basis."""
    return l - m


@dataclass(frozen=True)
class AngularMatrices:
    """Spin-l angular momentum matrices over ExactScalar entries."""

    l: int
    lz: MatrixExact
    lplus: MatrixExact
    lminus: MatrixExact
    lx: MatrixExact
    ly: MatrixExact


def _check_spin(l: int) -> None:
    if not isinstance(l, int) or not 1 <= l <= MAX_SPIN:
        raise ValueError(f"spin must satisfy 1 <= l <= {MAX_SPIN}, got {l}")


@lru_cache(maxsize=None)
def angular_matrices(l: int) -> AngularMatrices:
    """Ladder construction of Lz, L+/-, Lx, Ly for 1 <= l <= MAX_SPIN."""
    _check_spin(l)
    dim = 2 * l + 1
    zero = ExactScalar()
    lz = [[zero] * dim for _ in range(dim)]
    lp = [[zero] * dim for _ in range(dim)]
    lm = [[zero] * dim for _ in range(dim)]
    for m in range(l, -l - 1, -1):
        lz[basis_index(l, m)][basis_index(l, m)] = rational(m)
    for m in range(-l, l):
        # (L+)_{m+1,m} = sqrt(l(l+1) - m(m+1)); L- is its transpose.
        amp = ExactScalar.sqrt_rational(l * (l + 1) - m * (m + 1))
        lp[basis_index(l, m + 1)][basis_index(l, m)] = amp
        lm[basis_index(l, m)][basis_index(l, m + 1)] = amp
    half = rational(1, 2)
    minus_half_i = ExactScalar(im={1: Fraction(-1, 2)})  # 1/(2i)
    lx = [[(lp[r][c] + lm[r][c]) * half for c in range(dim)] for r in range(dim)]
    ly = [[(lp[r][c] - lm[r][c]) * minus_half_i for c in range(dim)] for r in range(dim)]
    freeze = lambda rows: tuple(tuple(row) for row in rows)
    return AngularMatrices(l, freeze(lz), freeze(lp), freeze(lm), freeze(lx), freeze(ly))


@lru_cache(maxsize=None)
def wigner_d(l: int) -> MatrixExact:
    """Exact d^l(pi/2) = exp(-i*pi/2*Ly) for 1 <= l <= MAX_SPIN: the entry at
    (basis_index(l, m'), basis_index(l, m)) is d^l_{m'm}(pi/2).  At beta =
    pi/2 every cosine and sine of Wigner's sum is 1/sqrt(2), so an entry is
    2^-l sqrt((l+m')!(l-m')!(l+m)!(l-m)!) times a sum of rationals."""
    _check_spin(l)

    def entry(mp: int, m: int) -> ExactScalar:
        total = sum(Fraction(-1 if (mp - m + s) % 2 else 1,
                             factorial(l + m - s) * factorial(s)
                             * factorial(mp - m + s) * factorial(l - mp - s))
                    for s in range(max(0, m - mp), min(l + m, l - mp) + 1))
        radicand = factorial(l + mp) * factorial(l - mp) * factorial(l + m) * factorial(l - m)
        return ExactScalar.from_rational(total / 2 ** l) * ExactScalar.sqrt_rational(radicand)

    ms = range(l, -l - 1, -1)
    return tuple(tuple(entry(mp, m) for m in ms) for mp in ms)
