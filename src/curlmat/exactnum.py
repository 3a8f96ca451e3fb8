"""Exact arithmetic in the field generated by the rationals, i, and square
roots of positive integers.

Every number appearing in the operator matrices is a finite sum
``sum_d (a_d + i*b_d) * sqrt(d)`` with rational ``a_d``, ``b_d`` and
squarefree positive integer ``d``.  Values are immutable and hashable, and
equality is structural equality of the canonical form.

The canonical form holds the real and the imaginary part each as a dict from
the radicand ``d`` to its coefficient as a pair ``(n, q)`` of plain ints in
lowest terms with ``q > 0``; a zero coefficient has no entry.  The form is
unique, so equality is dict equality, and arithmetic reduces each result
coefficient with one ``gcd``.  ``Fraction`` is met only at the edges: the
constructors take ints and Fractions, ``re_terms`` and ``im_terms`` hand
out Fractions, and ``inverse`` divides by the norm as one.  A rational value
hashes like the equal int or Fraction.
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

# A part maps a squarefree radicand to its coefficient as a pair (n, q) of
# ints in lowest terms with q > 0; a zero coefficient has no entry.
Part = dict[int, tuple[int, int]]


def _canon(terms: TermsLike) -> Part:
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: Part = {}
    for radicand, coeff in items:
        term = normalize_radical(coeff, radicand)
        if term is not None:
            c = term.coeff
            out = _part_add(out, {term.radicand: (c.numerator, c.denominator)})
    return out


# A part accumulator maps a squarefree radicand to an unreduced [numerator,
# denominator] pair; each coefficient is reduced once, in _part_done.
PartAcc = dict[int, list[int]]


def _part_mac(out: PartAcc, a: Part, b: Part, sign: int) -> None:
    """out += sign * a * b for canonical parts a and b.

    Both radicands are squarefree, so sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)(d2/g))
    with g = gcd(d1, d2) is squarefree too and needs no factorising.
    """
    for d1, (n1, q1) in a.items():
        n1 *= sign
        for d2, (n2, q2) in b.items():
            g = gcd(d1, d2)
            n = n1 * n2 * g
            q = q1 * q2
            rad = d1 // g * (d2 // g)
            cell = out.get(rad)
            if cell is None:
                out[rad] = [n, q]
            elif cell[1] == q:
                cell[0] += n
            else:
                cell[0] = cell[0] * q + n * cell[1]
                cell[1] *= q


def _part_done(acc: PartAcc) -> Part:
    out: Part = {}
    for d, (n, q) in acc.items():
        if n:
            g = gcd(n, q)
            out[d] = (n // g, q // g)
    return out


def _done(re: PartAcc, im: PartAcc) -> "ExactScalar | None":
    """The scalar re + i*im of two part accumulators; None when it is zero."""
    re_part = _part_done(re) if re else {}
    im_part = _part_done(im) if im else {}
    if re_part or im_part:
        return ExactScalar._make(re_part, im_part)
    return None


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


def _part_add(a: Part, b: Part) -> Part:
    out = dict(a)
    for d, (n, q) in b.items():
        cell = out.get(d)
        if cell is None:
            out[d] = (n, q)
            continue
        n0, q0 = cell
        n, q = (n0 + n, q) if q0 == q else (n0 * q + n * q0, q0 * q)
        if n:
            g = gcd(n, q)
            out[d] = (n // g, q // g)
        else:
            del out[d]
    return out


def _part_scale(a: Part, num: int, den: int) -> Part:
    """a * num/den for a nonzero rational num/den in lowest terms."""
    out: Part = {}
    for d, (n, q) in a.items():
        n *= num
        q *= den
        g = gcd(n, q)
        out[d] = (n // g, q // g)
    return out


def _part_neg(a: Part) -> Part:
    return {d: (-n, q) for d, (n, q) in a.items()}


def _term_float(d: int, n: int, q: int) -> float:
    try:
        return n / q * math.sqrt(d)
    except OverflowError:  # d is past the float range, (n/q)*sqrt(d) need not be
        return math.copysign(math.sqrt(n * n * d / (q * q)), n)


def _part_float(a: Part) -> float:
    return float(sum(_term_float(d, n, q) for d, (n, q) in a.items()))


class ExactScalar:
    """Immutable element ``sum_d (a_d + i*b_d)*sqrt(d)`` of the radical field."""

    __slots__ = ("_re", "_im")

    def __init__(self, re: TermsLike = (), im: TermsLike = ()):
        self._re = _canon(re)
        self._im = _canon(im)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, re: Part, im: Part) -> "ExactScalar":
        """Trusted constructor: ``re`` and ``im`` are already canonical
        (squarefree radicands, no zero coefficients) and are not copied."""
        out = object.__new__(cls)
        out._re = re
        out._im = im
        return out

    @classmethod
    def from_rational(cls, value: RationalLike) -> "ExactScalar":
        v = Fraction(value)
        return cls._make({1: (v.numerator, v.denominator)} if v else {}, {})

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
        return tuple(Radical(Fraction(n, q), d) for d, (n, q) in sorted(self._re.items()))

    @property
    def im_terms(self) -> tuple[Radical, ...]:
        return tuple(Radical(Fraction(n, q), d) for d, (n, q) in sorted(self._im.items()))

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
        o = self._coerce(other)
        if not o._im and len(o._re) == 1 and 1 in o._re:  # a rational a/b
            a, b = o._re[1]
            return ExactScalar._make(_part_scale(self._re, a, b), _part_scale(self._im, a, b))
        re: PartAcc = {}
        im: PartAcc = {}
        _mac(re, im, self, o)
        out = _done(re, im)
        return ZERO if out is None else out

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
        norm = sum(Fraction(n * n * d, q * q)
                   for part in (self._re, self._im) for d, (n, q) in part.items())

        def over_norm(part: Part, sign: int) -> Part:
            out: Part = {}
            for d, (n, q) in part.items():
                c = Fraction(sign * n, q) / norm
                out[d] = (c.numerator, c.denominator)
            return out

        return ExactScalar._make(over_norm(self._re, 1), over_norm(self._im, -1))

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

    def parts(self) -> tuple["ExactScalar", "ExactScalar"]:
        """The real scalars ``a`` and ``b`` with ``self == a + I*b``."""
        return ExactScalar._make(self._re, {}), ExactScalar._make(self._im, {})

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ExactScalar.from_rational(other)
        return self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        if not self._im and self._re.keys() <= {1}:
            # equal to an int or Fraction, so it must hash like one
            return hash(Fraction(*self._re.get(1, (0, 1))))
        return hash((tuple(sorted(self._re.items())), tuple(sorted(self._im.items()))))

    # -- conversions / rendering -------------------------------------------

    def to_complex(self) -> complex:
        return complex(_part_float(self._re), _part_float(self._im))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = [_term_str(d, n, q, imag=False) for d, (n, q) in sorted(self._re.items())]
        terms += [_term_str(d, n, q, imag=True) for d, (n, q) in sorted(self._im.items())]
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"ExactScalar({self})"

    def latex(self) -> str:
        if self.is_zero:
            return "0"
        out = ""
        for d, (n, q) in sorted(self._re.items()):
            out += _term_latex(d, n, q, imag=False, leading=not out)
        for d, (n, q) in sorted(self._im.items()):
            out += _term_latex(d, n, q, imag=True, leading=not out)
        return out


def _term_str(d: int, n: int, q: int, imag: bool) -> str:
    c = f"{n}" if q == 1 else f"{n}/{q}"  # as str(Fraction(n, q))
    if d == 1:
        body = f"{c}" if not imag else f"i*({c})"
    else:
        body = f"({c})*sqrt({d})" if not imag else f"i*({c})*sqrt({d})"
    return body


def _term_latex(d: int, n: int, q: int, imag: bool, leading: bool) -> str:
    sign = "-" if n < 0 else ("" if leading else "+")
    n = abs(n)
    num = "" if (n == 1 and (d != 1 or imag)) else str(n)
    rad = "" if d == 1 else rf"\sqrt{{{d}}}"
    core = (num + ("i" if imag else "") + rad) or "1"
    if q != 1:
        return rf"{sign}\frac{{{core}}}{{{q}}}"
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
