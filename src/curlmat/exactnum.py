"""Exact arithmetic in the field generated by the rationals, i, and square
roots of positive integers.

Every number appearing in the operator matrices is a finite sum
``sum_d (a_d + i*b_d) * sqrt(d)`` with rational ``a_d``, ``b_d`` and
squarefree positive integer ``d``.  Values are immutable and hashable, and
equality is structural equality of the canonical form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

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


def _part_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            term = normalize_radical(c1 * c2, d1 * d2)
            if term is None:
                continue
            c = out.get(term.radicand, _F0) + term.coeff
            if c:
                out[term.radicand] = c
            else:
                out.pop(term.radicand, None)
    return out


def _part_add(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, _F0) + c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


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
    def from_rational(cls, value: RationalLike) -> "ExactScalar":
        return cls(re={1: Fraction(value)})

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

    @property
    def is_real(self) -> bool:
        return not self._im

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        o = self._coerce(other)
        return ExactScalar(_part_add(self._re, o._re), _part_add(self._im, o._im))

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar({d: -c for d, c in self._re.items()},
                           {d: -c for d, c in self._im.items()})

    def __sub__(self, other) -> "ExactScalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ExactScalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "ExactScalar":
        o = self._coerce(other)
        # (a + ib)(c + id) = (ac - bd) + i(ad + bc)
        re = _part_add(_part_mul(self._re, o._re),
                       {d: -c for d, c in _part_mul(self._im, o._im).items()})
        im = _part_add(_part_mul(self._re, o._im), _part_mul(self._im, o._re))
        return ExactScalar(re, im)

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
        scale = ExactScalar.from_rational(Fraction(1) / norm)
        return self.conj() * scale

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
        return ExactScalar(self._re, {d: -c for d, c in self._im.items()})

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
