"""Matrices over constant-coefficient polynomials in the symbols dx, dy, dz.

All operator identities are checked in this representation, exactly: entries
are ``DiffPoly`` values (monomials in the three derivative symbols with
``ExactScalar`` coefficients), matrices compose by ordinary matrix product
(constant coefficients commute with the symbols), and equality is structural
equality of canonical forms.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .exactnum import ExactScalar, ONE, ZERO, PartAcc, _mac, _part_done

if TYPE_CHECKING:
    import numpy as np

Mono = tuple[int, int, int]

ScalarLike = Union[ExactScalar, int, Fraction]


class DiffPoly:
    """Polynomial in dx, dy, dz with ExactScalar coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Mono, ScalarLike] | Iterable[tuple[Mono, ScalarLike]] = ()):
        out: dict[Mono, ExactScalar] = {}
        for mono, coeff in (terms.items() if isinstance(terms, Mapping) else terms):
            ax, ay, az = mono
            if min(ax, ay, az) < 0:
                raise ValueError("derivative exponents must be nonnegative")
            c = ExactScalar._coerce(coeff)
            prev = out.get(mono)
            c = c if prev is None else prev + c
            if c.is_zero:
                out.pop(mono, None)
            else:
                out[mono] = c
        self._terms = out
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, terms: dict[Mono, ExactScalar]) -> "DiffPoly":
        """Trusted constructor: ``terms`` has no zero coefficient and no
        negative exponent, and is not copied."""
        out = object.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    @classmethod
    def scalar(cls, value: ScalarLike) -> "DiffPoly":
        return cls({(0, 0, 0): value})

    @classmethod
    def monomial(cls, ax: int, ay: int, az: int, coeff: ScalarLike = ONE) -> "DiffPoly":
        return cls({(ax, ay, az): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Mono, ExactScalar], ...]:
        return tuple(sorted(self._terms.items(), key=_term_key))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def max_degree(self) -> int:
        return max((sum(m) for m in self._terms), default=0)

    def coefficient(self, mono: Mono) -> ExactScalar:
        return self._terms.get(mono, ZERO)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            prev = out.get(mono)
            c = coeff if prev is None else prev + coeff
            if c.is_zero:
                out.pop(mono, None)
            else:
                out[mono] = c
        return DiffPoly._make(out)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._make({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other) -> "DiffPoly":
        if isinstance(other, DiffPoly):
            acc: PolyAcc = {}
            _poly_mac(acc, self, other)
            return _poly_done(acc)
        # a scalar keeps every monomial, and nonzero times nonzero is nonzero
        coeff = ExactScalar._coerce(other)
        if coeff.is_zero:
            return DiffPoly._make({})
        return DiffPoly._make({m: c * coeff for m, c in self._terms.items()})

    __rmul__ = __mul__

    def conj(self) -> "DiffPoly":
        """Conjugate the coefficients; the derivative symbols stay fixed."""
        return DiffPoly._make({m: c.conj() for m, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    # -- evaluation / rendering ---------------------------------------------

    def symbol(self, kx, ky, kz):
        """Fourier symbol: substitute dx -> i*kx, dy -> i*ky, dz -> i*kz.

        Works elementwise when kx, ky, kz are numpy arrays.
        """
        acc = 0j
        for (ax, ay, az), coeff in self._terms.items():
            term = coeff.to_complex()
            if ax:
                term = term * (1j * kx) ** ax
            if ay:
                term = term * (1j * ky) ** ay
            if az:
                term = term * (1j * kz) ** az
            acc = acc + term
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(_term_text(m, c) for m, c in self.terms)

    def __repr__(self) -> str:
        return f"DiffPoly({self})"

    def latex(self) -> str:
        if self.is_zero:
            return "0"
        paired = _latex_pair_xy(self)
        if paired is not None:
            return paired
        out = ""
        for mono, coeff in self.terms:
            body = coeff.latex()
            if "+" in body[1:] or "-" in body[1:]:
                body = rf"\left({body}\right)"
            elif body == "1" and mono != (0, 0, 0):
                body = ""
            elif body == "-1" and mono != (0, 0, 0):
                body = "-"
            mono_tex = _mono_latex(mono)
            joiner = "" if (not out or body.startswith("-")) else "+"
            out += joiner + body + mono_tex
        return out

    def json_entry(self) -> dict:
        out = {}
        for (ax, ay, az), coeff in self.terms:
            re = [[d, f"{c}"] for c, d in coeff.re_terms]
            im = [[d, f"{c}"] for c, d in coeff.im_terms]
            out[f"{ax},{ay},{az}"] = [re, im]
        return out


# A polynomial accumulator maps a monomial to the real and imaginary part
# accumulators of its coefficient.
PolyAcc = dict[Mono, tuple[PartAcc, PartAcc]]


def _poly_mac(acc: PolyAcc, p: DiffPoly, q: DiffPoly) -> None:
    """acc += p * q."""
    for (a1, a2, a3), c1 in p._terms.items():
        for (b1, b2, b3), c2 in q._terms.items():
            mono = (a1 + b1, a2 + b2, a3 + b3)
            cell = acc.get(mono)
            if cell is None:
                cell = acc[mono] = ({}, {})
            _mac(cell[0], cell[1], c1, c2)


def _poly_done(acc: PolyAcc) -> DiffPoly:
    """The polynomial of ``acc``, one ExactScalar per surviving monomial."""
    terms: dict[Mono, ExactScalar] = {}
    for mono, (re, im) in acc.items():
        re_part = _part_done(re)
        im_part = _part_done(im)
        if re_part or im_part:
            terms[mono] = ExactScalar._make(re_part, im_part)
    return DiffPoly._make(terms)


def _term_key(item):
    mono = item[0]
    # dx sorts before dy before dz within a degree
    return (sum(mono), tuple(-e for e in mono))


def _term_text(mono: Mono, coeff: ExactScalar) -> str:
    names = ("dx", "dy", "dz")
    sym = "*".join(
        f"{n}^{e}" if e > 1 else n for n, e in zip(names, mono) if e)
    c = str(coeff)
    if not sym:
        return c
    if not c.isdigit():  # anything beyond a bare nonnegative integer
        c = f"({c})"
    return f"{c}*{sym}"


def _mono_latex(mono: Mono) -> str:
    names = (r"\partial_x", r"\partial_y", r"\partial_z")
    return "".join(
        f"{n}^{{{e}}}" if e > 1 else n for n, e in zip(names, mono) if e)


def _latex_pair_xy(poly: DiffPoly) -> str | None:
    # Render c*dx -+ i*c*dy as c(\partial_x -+ i\partial_y), the customary
    # grouping for first-order spherical operator entries.
    terms = dict(poly._terms)
    cx = terms.pop((1, 0, 0), None)
    cy = terms.pop((0, 1, 0), None)
    if cx is None or cy is None or terms:
        return None
    from .exactnum import I  # local to avoid polluting module namespace
    if cy == cx * I:
        inner = r"(\partial_x + i\partial_y)"
    elif cy == -(cx * I):
        inner = r"(\partial_x - i\partial_y)"
    else:
        return None
    body = cx.latex()
    if "+" in body[1:] or "-" in body[1:]:
        body = rf"\left({body}\right)"
    elif body == "1":
        body = ""
    elif body == "-1":
        body = "-"
    return body + inner


DX = DiffPoly.monomial(1, 0, 0)
DY = DiffPoly.monomial(0, 1, 0)
DZ = DiffPoly.monomial(0, 0, 1)
LAPLACIAN = DiffPoly({(2, 0, 0): ONE, (0, 2, 0): ONE, (0, 0, 2): ONE})


@dataclass(frozen=True)
class BasisTag:
    """Basis bookkeeping for operator matrices.

    Spherical operators map a rank-l_in tensor to a rank-l_out tensor;
    cartesian operators act on cartesian components; "transform" marks
    basis-change matrices, which compose with anything of matching shape.
    """

    kind: str
    l_in: int | None = None
    l_out: int | None = None


CARTESIAN = BasisTag("cartesian")
TRANSFORM = BasisTag("transform")


def spherical_tag(l_in: int, l_out: int) -> BasisTag:
    return BasisTag("spherical", l_in, l_out)


def _compose_tag(a: BasisTag, b: BasisTag) -> BasisTag:
    if a.kind == "transform" or b.kind == "transform":
        return TRANSFORM
    if a.kind != b.kind:
        raise ValueError(f"cannot compose {a.kind} with {b.kind} operators")
    if a.kind == "spherical":
        if a.l_in != b.l_out:
            raise ValueError(
                f"rank mismatch: left expects rank {a.l_in}, right produces {b.l_out}")
        return spherical_tag(b.l_in, a.l_out)
    return CARTESIAN


@dataclass(frozen=True)
class SymmetrySplit:
    """Real/imaginary coefficient split of a square operator matrix."""

    real_part: "OpMatrix"
    imag_part: "OpMatrix"
    real_symmetric: bool
    real_antisymmetric: bool
    real_traceless: bool
    imag_symmetric: bool
    imag_antisymmetric: bool
    imag_traceless: bool


class OpMatrix:
    """Rectangular matrix of DiffPoly entries."""

    __slots__ = ("rows", "cols", "_entries", "tag")

    def __init__(self, rows: int, cols: int, entries: Sequence[DiffPoly], tag: BasisTag):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the matrix shape")
        self.rows = rows
        self.cols = cols
        self._entries = entries
        self.tag = tag

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[DiffPoly]], tag: BasisTag) -> "OpMatrix":
        n_rows = len(rows)
        n_cols = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(n_rows, n_cols, flat, tag)

    @classmethod
    def constant(cls, values: Sequence[Sequence[ScalarLike]], tag: BasisTag) -> "OpMatrix":
        return cls.from_rows(
            [[DiffPoly.scalar(v) for v in row] for row in values], tag)

    @classmethod
    def identity(cls, n: int, tag: BasisTag) -> "OpMatrix":
        one = DiffPoly.scalar(ONE)
        zero = DiffPoly()
        return cls(n, n, [one if r == c else zero for r in range(n) for c in range(n)], tag)

    @classmethod
    def zeros(cls, rows: int, cols: int, tag: BasisTag) -> "OpMatrix":
        return cls(rows, cols, [DiffPoly()] * (rows * cols), tag)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> DiffPoly:
        return self._entries[i * self.cols + j]

    @property
    def entries(self) -> tuple[DiffPoly, ...]:
        return self._entries

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self._entries)

    @property
    def max_degree(self) -> int:
        return max((e.max_degree for e in self._entries), default=0)

    def retag(self, tag: BasisTag) -> "OpMatrix":
        return OpMatrix(self.rows, self.cols, self._entries, tag)

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "OpMatrix") -> "OpMatrix":
        """Matrix product self @ other (apply other first)."""
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.shape} cannot compose with {other.shape}")
        tag = _compose_tag(self.tag, other.tag)
        n = self.cols
        entries = []
        for i in range(self.rows):
            row = self._entries[i * n:(i + 1) * n]
            for j in range(other.cols):
                acc: PolyAcc = {}
                for left, right in zip(row, other._entries[j::other.cols]):
                    _poly_mac(acc, left, right)
                entries.append(_poly_done(acc))
        return OpMatrix(self.rows, other.cols, entries, tag)

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        return self.compose(other)

    def add(self, other: "OpMatrix") -> "OpMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return OpMatrix(self.rows, self.cols,
                        [a + b for a, b in zip(self._entries, other._entries)],
                        self.tag)

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        return self.add(other)

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return self.add(other.scale(-1))

    def scale(self, value) -> "OpMatrix":
        if not isinstance(value, DiffPoly):
            value = ExactScalar._coerce(value)
        return OpMatrix(self.rows, self.cols,
                        [e * value for e in self._entries], self.tag)

    def power(self, n: int) -> "OpMatrix":
        if self.rows != self.cols:
            raise ValueError("powers need a square matrix")
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = OpMatrix.identity(self.rows, self.tag)
        for _ in range(n):
            out = out.compose(self)
        return out

    def laplacian_times(self, n: int) -> "OpMatrix":
        """Multiply every entry by (dx^2 + dy^2 + dz^2)**n."""
        if n < 0:
            raise ValueError("laplacian power must be nonnegative")
        poly = DiffPoly.scalar(ONE)
        for _ in range(n):
            poly = poly * LAPLACIAN
        return self.scale(poly)

    def formal_adjoint(self) -> "OpMatrix":
        """Conjugate-transpose of the coefficients; derivative symbols fixed."""
        if self.tag.kind == "spherical":
            tag = spherical_tag(self.tag.l_out, self.tag.l_in)
        else:
            tag = self.tag
        entries = [self.entry(j, i).conj()
                   for i in range(self.cols) for j in range(self.rows)]
        return OpMatrix(self.cols, self.rows, entries, tag)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpMatrix):
            return NotImplemented
        return self.shape == other.shape and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self.shape, self._entries))

    # -- analysis ----------------------------------------------------------

    def symbol_at(self, k) -> np.ndarray:
        """Numeric matrix of the Fourier symbol at a real wavevector k."""
        import numpy as np
        kx, ky, kz = (float(v) for v in k)
        out = np.empty((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self.entry(i, j).symbol(kx, ky, kz)
        return out

    def _transposed_entries(self) -> tuple[DiffPoly, ...]:
        return tuple(self.entry(j, i)
                     for i in range(self.cols) for j in range(self.rows))

    def split_symmetry(self) -> SymmetrySplit:
        """Split into real/imaginary coefficient parts and classify each."""
        if self.rows != self.cols:
            raise ValueError("symmetry split needs a square matrix")
        re_entries = [DiffPoly._make({m: ExactScalar._make(c._re, {}) for m, c in e.terms if c._re})
                      for e in self._entries]
        im_entries = [DiffPoly._make({m: ExactScalar._make(c._im, {}) for m, c in e.terms if c._im})
                      for e in self._entries]
        re_m = OpMatrix(self.rows, self.cols, re_entries, self.tag)
        im_m = OpMatrix(self.rows, self.cols, im_entries, self.tag)

        def classify(m: OpMatrix) -> tuple[bool, bool, bool]:
            t = m._transposed_entries()
            sym = m._entries == t
            anti = all((a + b).is_zero for a, b in zip(m._entries, t))
            trace = DiffPoly()
            for d in range(m.rows):
                trace = trace + m.entry(d, d)
            return sym, anti, trace.is_zero

        rs, ra, rt = classify(re_m)
        is_, ia, it = classify(im_m)
        return SymmetrySplit(re_m, im_m, rs, ra, rt, is_, ia, it)

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        cells = [[str(self.entry(i, j)) for j in range(self.cols)]
                 for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows))
                  for j in range(self.cols)]
        lines = []
        for row in cells:
            lines.append("[ " + " | ".join(
                cell.ljust(w) for cell, w in zip(row, widths)) + " ]")
        return "\n".join(lines)

    def to_latex(self) -> str:
        body = " \\\\\n".join(
            " & ".join(self.entry(i, j).latex() for j in range(self.cols))
            for i in range(self.rows))
        return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"

    def to_json_dict(self) -> dict:
        tag: dict[str, object] = {"kind": self.tag.kind}
        if self.tag.kind == "spherical":
            tag["l_in"] = self.tag.l_in
            tag["l_out"] = self.tag.l_out
        return {
            "rows": self.rows,
            "cols": self.cols,
            "basis": tag,
            "entries": [[self.entry(i, j).json_entry() for j in range(self.cols)]
                        for i in range(self.rows)],
        }

    def __repr__(self) -> str:
        return f"OpMatrix({self.rows}x{self.cols}, {self.tag.kind})"
