"""Exact arithmetic in the field generated by the rationals, i, and square
roots of positive integers.

Every number appearing in the operator matrices is a finite sum
``sum_d (a_d + i*b_d) * sqrt(d)`` with rational ``a_d``, ``b_d`` and
squarefree positive integer ``d``.  Values are immutable and hashable, and
equality is structural equality of the canonical form.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Union

RationalLike = Union[int, Fraction]


class ExactError(ArithmeticError):
    """Raised when an operation leaves the supported fragment of the field."""


class Radical(NamedTuple):
    """A single term ``coeff * sqrt(radicand)`` with squarefree radicand."""

    coeff: Fraction
    radicand: int


def _square_split(n: int) -> tuple[int, int]:
    # n = s**2 * q with q squarefree; trial division is plenty at the
    # radicand sizes this library produces (order l*(l+1)*(2l+1)).
    square, free, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        square *= p ** (e // 2)
        if e % 2:
            free *= p
        p += 1 if p == 2 else 2
    return square, free * n


def normalize_radical(coeff: RationalLike, radicand: int) -> Radical | None:
    """Canonicalize ``coeff*sqrt(radicand)``; return None for a zero term.

    The square part of the radicand folds into the rational coefficient,
    e.g. ``sqrt(8) -> 2*sqrt(2)``.
    """
    if radicand < 0:
        raise ExactError("radicand must be nonnegative")
    c = Fraction(coeff)
    if c == 0 or radicand == 0:
        return None
    square, free = _square_split(radicand)
    return Radical(c * square, free)


TermsLike = Union[Mapping[int, RationalLike], Iterable[tuple[int, RationalLike]]]


def _canon(terms: TermsLike) -> dict[int, Fraction]:
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: dict[int, Fraction] = {}
    for radicand, coeff in items:
        term = normalize_radical(coeff, radicand)
        if term is None:
            continue
        c = out.get(term.radicand, _F0) + term.coeff
        if c:
            out[term.radicand] = c
        else:
            out.pop(term.radicand, None)
    return out


_F0 = Fraction(0)

# A part accumulator maps a squarefree radicand to an unreduced [numerator,
# denominator] pair; each coefficient becomes a Fraction once, in _part_done.
PartAcc = dict[int, list[int]]


def _part_mac(out: PartAcc, a: dict[int, Fraction], b: dict[int, Fraction],
              sign: int) -> None:
    """out += sign * a * b for canonical parts a and b.

    Both radicands are squarefree, so sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)(d2/g))
    with g = gcd(d1, d2) is squarefree too and needs no factorising.
    """
    for d1, c1 in a.items():
        n1 = sign * c1.numerator
        q1 = c1.denominator
        for d2, c2 in b.items():
            g = gcd(d1, d2)
            n = n1 * c2.numerator * g
            q = q1 * c2.denominator
            rad = d1 // g * (d2 // g)
            cell = out.get(rad)
            if cell is None:
                out[rad] = [n, q]
            elif cell[1] == q:
                cell[0] += n
            else:
                cell[0] = cell[0] * q + n * cell[1]
                cell[1] *= q


def _part_done(acc: PartAcc) -> dict[int, Fraction]:
    return {d: Fraction(n, q) for d, (n, q) in acc.items() if n}


def _mac(re: PartAcc, im: PartAcc, x: "ExactScalar", y: "ExactScalar") -> None:
    """re + i*im += x * y, with (a + ib)(c + id) = (ac - bd) + i(ad + bc)."""
    if x._re:
        if y._re:
            _part_mac(re, x._re, y._re, 1)
        if y._im:
            _part_mac(im, x._re, y._im, 1)
    if x._im:
        if y._im:
            _part_mac(re, x._im, y._im, -1)
        if y._re:
            _part_mac(im, x._im, y._re, 1)


def _part_add(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, _F0) + c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _part_neg(a: dict[int, Fraction]) -> dict[int, Fraction]:
    return {d: -c for d, c in a.items()}


def _part_float(a: dict[int, Fraction]) -> float:
    return float(sum(float(c) * math.sqrt(d) for d, c in a.items()))


class ExactScalar:
    """Immutable element ``sum_d (a_d + i*b_d)*sqrt(d)`` of the radical field."""

    __slots__ = ("_re", "_im", "_hash")

    def __init__(self, re: TermsLike = (), im: TermsLike = ()):
        self._re = _canon(re)
        self._im = _canon(im)
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, re: dict[int, Fraction], im: dict[int, Fraction]) -> "ExactScalar":
        """Trusted constructor: ``re`` and ``im`` are already canonical
        (squarefree radicands, no zero coefficients) and are not copied."""
        out = object.__new__(cls)
        out._re = re
        out._im = im
        out._hash = None
        return out

    @classmethod
    def from_rational(cls, value: RationalLike) -> "ExactScalar":
        v = Fraction(value)
        return cls._make({1: v} if v else {}, {})

    @classmethod
    def sqrt_rational(cls, value: RationalLike) -> "ExactScalar":
        """Exact square root of a nonnegative rational: sqrt(p/q) = sqrt(p*q)/q."""
        v = Fraction(value)
        if v < 0:
            raise ExactError("sqrt_rational needs a nonnegative argument")
        return cls(re={v.numerator * v.denominator: Fraction(1, v.denominator)})

    @classmethod
    def _coerce(cls, value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.from_rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to ExactScalar")

    # -- structure ---------------------------------------------------------

    @property
    def re_terms(self) -> tuple[Radical, ...]:
        return tuple(Radical(c, d) for d, c in sorted(self._re.items()))

    @property
    def im_terms(self) -> tuple[Radical, ...]:
        return tuple(Radical(c, d) for d, c in sorted(self._im.items()))

    @property
    def is_zero(self) -> bool:
        return not self._re and not self._im

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        o = self._coerce(other)
        return ExactScalar._make(_part_add(self._re, o._re), _part_add(self._im, o._im))

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar._make(_part_neg(self._re), _part_neg(self._im))

    def __sub__(self, other) -> "ExactScalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ExactScalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "ExactScalar":
        re: PartAcc = {}
        im: PartAcc = {}
        _mac(re, im, self, self._coerce(other))
        return ExactScalar._make(_part_done(re), _part_done(im))

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Multiplicative inverse.

        Supported for scalars whose real and imaginary parts each carry at
        most one radical term (all matrix coefficients, transform entries and
        coupling prefactors are of this shape); anything richer raises.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if len(self._re) > 1 or len(self._im) > 1:
            raise ExactError(
                "inverse is only supported with at most one radical term "
                "per real/imaginary part")
        # z * conj(z) = a^2 p + b^2 q is a positive rational.
        norm = _F0
        for d, c in self._re.items():
            norm += c * c * d
        for d, c in self._im.items():
            norm += c * c * d
        return ExactScalar._make({d: c / norm for d, c in self._re.items()},
                                 {d: -c / norm for d, c in self._im.items()})

    def __truediv__(self, other) -> "ExactScalar":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "ExactScalar":
        if not isinstance(n, int) or n < 0:
            raise ExactError("only nonnegative integer powers are supported")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def conj(self) -> "ExactScalar":
        return ExactScalar._make(self._re, _part_neg(self._im))

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactScalar.from_rational(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        if self._hash is None:
            if not self._im and self._re.keys() <= {1}:
                # equal to an int or Fraction, so it must hash like one
                self._hash = hash(self._re.get(1, _F0))
            else:
                self._hash = hash((tuple(sorted(self._re.items())),
                                   tuple(sorted(self._im.items()))))
        return self._hash

    # -- conversions / rendering -------------------------------------------

    def to_complex(self) -> complex:
        return complex(_part_float(self._re), _part_float(self._im))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = [_term_str(d, c, imag=False) for d, c in sorted(self._re.items())]
        parts += [_term_str(d, c, imag=True) for d, c in sorted(self._im.items())]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ExactScalar({self})"

    def latex(self) -> str:
        if self.is_zero:
            return "0"
        out = ""
        for d, c in sorted(self._re.items()):
            out += _term_latex(d, c, imag=False, leading=not out)
        for d, c in sorted(self._im.items()):
            out += _term_latex(d, c, imag=True, leading=not out)
        return out


def _term_str(d: int, c: Fraction, imag: bool) -> str:
    if d == 1:
        body = f"{c}" if not imag else f"i*({c})"
    else:
        body = f"({c})*sqrt({d})" if not imag else f"i*({c})*sqrt({d})"
    return body


def _term_latex(d: int, c: Fraction, imag: bool, leading: bool) -> str:
    sign = "-" if c < 0 else ("" if leading else "+")
    c = abs(c)
    num = "" if (c.numerator == 1 and (d != 1 or imag)) else str(c.numerator)
    rad = "" if d == 1 else rf"\sqrt{{{d}}}"
    core = (num + ("i" if imag else "") + rad) or "1"
    if c.denominator != 1:
        return rf"{sign}\frac{{{core}}}{{{c.denominator}}}"
    return sign + core


# Shared constants.
ZERO = ExactScalar()
ONE = ExactScalar.from_rational(1)
I = ExactScalar(im={1: 1})


def rational(p: RationalLike, q: int = 1) -> ExactScalar:
    return ExactScalar.from_rational(Fraction(p, q))


def root(d: int, coeff: RationalLike = 1) -> ExactScalar:
    """Real term ``coeff*sqrt(d)``."""
    return ExactScalar(re={d: Fraction(coeff)})


def imag(coeff: RationalLike = 1, radicand: int = 1) -> ExactScalar:
    """Imaginary term ``i*coeff*sqrt(radicand)``."""
    return ExactScalar(im={radicand: Fraction(coeff)})
