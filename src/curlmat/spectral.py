"""Application of operator matrices to sampled fields on periodic grids.

Fields are complex samples indexed ``[component, z, y, x]``.  Operators act
per Fourier mode through their symbol (dx -> i*kx, ...); the first-derivative
symbol at the Nyquist frequency is set to zero (symmetric convention), which
keeps the output of real inputs conjugate-symmetric.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .angular import basis_index, clebsch_gordan
from .builders import (RANK2_SLOTS, build_cartesian_curls, build_curl_ldotgrad,
                       cartesian_curl_rank2, cartesian_div, cartesian_transform)
from .diffop import OpMatrix

_CART_COMPONENTS = {0: 1, 1: 3, 2: 5}


@dataclass(frozen=True)
class GridSpec:
    """Periodic sampling grid: even point counts n and box lengths."""

    n: tuple[int, int, int]
    box: tuple[float, float, float]

    def __post_init__(self):
        if len(self.n) != 3 or len(self.box) != 3:
            raise ValueError("grid needs three point counts and three lengths")
        if not all(isinstance(v, (int, np.integer)) for v in self.n):
            raise ValueError(f"point counts must be integers, got {self.n!r}")
        if not all(isinstance(v, (int, float, np.integer, np.floating))
                   and not isinstance(v, bool) for v in self.box):
            raise ValueError(f"box lengths must be real numbers, got {self.box!r}")
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        if any(v <= 0 or v % 2 for v in self.n):
            raise ValueError("point counts must be positive even integers")
        try:
            object.__setattr__(self, "box", tuple(float(v) for v in self.box))
        except OverflowError:  # an int beyond the float range
            raise ValueError(f"box lengths must be finite, got {self.box!r}") from None
        if not all(math.isfinite(v) and v > 0 for v in self.box):
            raise ValueError("box lengths must be positive and finite")

    @property
    def ntotal(self) -> int:
        return self.n[0] * self.n[1] * self.n[2]

    @property
    def cell_volume(self) -> float:
        return (self.box[0] * self.box[1] * self.box[2]) / self.ntotal

    def coords(self, axis: int, centered: bool = False) -> np.ndarray:
        n, length = self.n[axis], self.box[axis]
        x = np.arange(n) * (length / n)
        return x - length / 2 if centered else x

    def k_axis(self, axis: int) -> np.ndarray:
        n, length = self.n[axis], self.box[axis]
        return 2 * np.pi * np.fft.fftfreq(n, d=length / n)

    def deriv_k_axis(self, axis: int) -> np.ndarray:
        # Nyquist mode zeroed: its +/- wavenumbers are indistinguishable, and
        # averaging them gives a vanishing first-derivative symbol.
        k = self.k_axis(axis)
        k[self.n[axis] // 2] = 0.0
        return k

    def deriv_k_grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kx, ky, kz) broadcastable against [z, y, x]-ordered samples."""
        kx = self.deriv_k_axis(0)[None, None, :]
        ky = self.deriv_k_axis(1)[None, :, None]
        kz = self.deriv_k_axis(2)[:, None, None]
        return kx, ky, kz

    def position_grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self.coords(0)[None, None, :]
        y = self.coords(1)[None, :, None]
        z = self.coords(2)[:, None, None]
        return x, y, z


def _expected_components(basis: str, l: int) -> int:
    if basis == "spherical":
        return 2 * l + 1
    if basis == "cartesian":
        if l not in _CART_COMPONENTS:
            raise ValueError("cartesian fields support ranks 0, 1 and 2")
        return _CART_COMPONENTS[l]
    raise ValueError(f"unknown basis {basis!r}")


@dataclass
class TensorField:
    """(2l+1)- or cartesian-component complex field on a periodic grid."""

    l: int
    basis: str
    grid: GridSpec
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        ncomp = _expected_components(self.basis, self.l)
        nz, ny, nx = self.grid.n[2], self.grid.n[1], self.grid.n[0]
        if self.data.shape != (ncomp, nz, ny, nx):
            raise ValueError(
                f"expected data shape {(ncomp, nz, ny, nx)}, got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("field contains non-finite samples")

    @property
    def ncomp(self) -> int:
        return self.data.shape[0]

    @classmethod
    def zeros(cls, grid: GridSpec, l: int, basis: str) -> "TensorField":
        ncomp = _expected_components(basis, l)
        shape = (ncomp, grid.n[2], grid.n[1], grid.n[0])
        return cls(l, basis, grid, np.zeros(shape, dtype=np.complex128))

    def copy(self) -> "TensorField":
        return TensorField(self.l, self.basis, self.grid, self.data.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2) * self.grid.cell_volume))

    def _like(self, data: np.ndarray) -> "TensorField":
        return TensorField(self.l, self.basis, self.grid, data)

    def __add__(self, other: "TensorField") -> "TensorField":
        self._check_compatible(other)
        return self._like(self.data + other.data)

    def __sub__(self, other: "TensorField") -> "TensorField":
        self._check_compatible(other)
        return self._like(self.data - other.data)

    def __mul__(self, scalar) -> "TensorField":
        return self._like(self.data * complex(scalar))

    __rmul__ = __mul__

    def _check_compatible(self, other: "TensorField") -> None:
        if (self.grid != other.grid or self.l != other.l
                or self.basis != other.basis):
            raise ValueError("fields live on different grids or bases")


def _fft(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """FFT over the last three axes, [..., z, y, x]; leading axes are a batch.

    The result goes to ``out``, which may be ``data`` itself; without it, to
    a fresh array.  numpy's ``fftn`` then allocates nothing per axis: with
    ``out=None`` it makes a new array for each of the three.
    """
    if out is None:
        out = np.empty(data.shape, dtype=np.complex128)
    return np.fft.fftn(data, axes=(-3, -2, -1), out=out)


def _ifft(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of `_fft`, with the same ``out`` contract."""
    if out is None:
        out = np.empty(data.shape, dtype=np.complex128)
    return np.fft.ifftn(data, axes=(-3, -2, -1), out=out)


def apply_operator(op: OpMatrix, f: TensorField) -> TensorField:
    """Apply an operator matrix per Fourier mode and transform back."""
    if op.tag.kind == "spherical":
        if f.basis != "spherical" or op.tag.l_in != f.l:
            raise ValueError(
                f"operator expects spherical rank {op.tag.l_in}, "
                f"field is {f.basis} rank {f.l}")
        out_l, out_basis = op.tag.l_out, "spherical"
    elif op.tag.kind == "cartesian":
        if f.basis != "cartesian":
            raise ValueError("cartesian operator applied to a non-cartesian field")
        rank_of = {v: k for k, v in _CART_COMPONENTS.items()}
        out_l, out_basis = rank_of[op.rows], "cartesian"
    else:
        raise ValueError("basis-change matrices cannot be applied to fields")
    if op.cols != f.ncomp:
        raise ValueError(f"operator has {op.cols} columns, field has {f.ncomp} components")

    out = apply_symbol(op, f.grid, _fft(f.data))
    return TensorField(out_l, out_basis, f.grid, _ifft(out, out=out))


@lru_cache(maxsize=16)
def symbol_entries(op: OpMatrix, grid: GridSpec) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Non-zero entries of an operator as ``(row, col, symbol)`` on the grid.

    Each symbol is the entry's ``DiffPoly.symbol`` on ``grid.deriv_k_grids()``
    in the broadcast shape its wavenumbers give it, such as ``(1, 1, nx)`` for
    d/dx: a dense ``(rows, cols, nz, ny, nx)`` tensor would take megabytes per
    operator at 64^3.  Cached per (operator, grid); the arrays are read-only
    because every caller shares them.
    """
    kx, ky, kz = grid.deriv_k_grids()
    out = []
    for r in range(op.rows):
        for c in range(op.cols):
            entry = op.entry(r, c)
            if not entry.is_zero:
                sym = np.asarray(entry.symbol(kx, ky, kz), dtype=np.complex128)
                sym.flags.writeable = False
                out.append((r, c, sym))
    return tuple(out)


def apply_symbol(op: OpMatrix, grid: GridSpec, spectrum: np.ndarray,
                 out: np.ndarray | None = None, scale: complex = 1,
                 base: np.ndarray | None = None) -> np.ndarray:
    """``base + scale * op(k) spectrum`` on spectra ``[..., component, z, y, x]``.

    Leading axes before the component axis are a batch: every spectrum in
    it gets the same operator.  ``scale`` is folded into each entry's
    broadcast symbol (at most n^2 elements), never into the full array, and
    ``base`` is added last.  The result is written to ``out`` if given, which
    must overlap neither ``spectrum`` nor ``base``.  With ``scale=1`` and no
    ``base`` each row is its entries' products summed in entry order.
    """
    if out is None:
        out = np.empty(spectrum.shape[:-4] + (op.rows,) + spectrum.shape[-3:],
                       dtype=np.complex128)
    written, scratch = set(), None
    for r, c, sym in symbol_entries(op, grid):
        row, term = out[..., r, :, :, :], spectrum[..., c, :, :, :]
        if scale != 1:
            sym = sym * scale
        if r in written:
            if scratch is None:
                scratch = np.empty(row.shape, dtype=np.complex128)
            row += np.multiply(sym, term, out=scratch)
        else:
            np.multiply(sym, term, out=row)
            written.add(r)
    for r in set(range(op.rows)) - written:
        out[..., r, :, :, :] = 0
    if base is not None:
        out += base
    return out


def complex_curl_field(u: TensorField, v: TensorField) -> TensorField:
    """Complex curl of F = u + i*v as curl(u - v) + i*curl(u + v)."""
    if u.basis != "cartesian" or u.l != 1:
        raise ValueError("complex curl expects cartesian rank-1 fields")
    u._check_compatible(v)
    curl = build_cartesian_curls().curl
    return apply_operator(curl, u - v) + apply_operator(curl, u + v) * 1j


def helmholtz(f: TensorField) -> tuple[TensorField, TensorField]:
    """Split a cartesian vector field into transverse and longitudinal parts.

    Since curl^2 = grad div - laplacian, the transverse part is
    f_perp = curl curl f / |k|^2 per mode, and f_par = f - f_perp.  The
    double-curl symbol vanishes wherever |k|^2 does, so the k = 0 mode (a
    constant field, curl-free) and every mode whose wavenumbers are all
    Nyquist-zeroed go wholly to the longitudinal part.  The complex curl's
    factor (1+i)^2 would appear in numerator and denominator alike, so the
    real curl gives the same split.
    """
    if f.basis != "cartesian" or f.l != 1:
        raise ValueError("helmholtz expects a cartesian rank-1 field")
    kx, ky, kz = f.grid.deriv_k_grids()
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    curl = build_cartesian_curls().curl
    perp = apply_symbol(curl @ curl, f.grid, _fft(f.data))
    np.divide(perp, k2, out=perp, where=k2 > 0)
    _ifft(perp, out=perp)
    return (TensorField(1, "cartesian", f.grid, perp),
            TensorField(1, "cartesian", f.grid, f.data - perp))


def _gradient_scale(grid: GridSpec, spectrum: np.ndarray) -> float:
    kx, ky, kz = grid.deriv_k_grids()
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    return float(np.sqrt(np.sum(k2 * np.sum(np.abs(spectrum) ** 2, axis=0))))


def gradient_scale(f: TensorField) -> float:
    """L2 norm of |k| * f, the natural scale for first-derivative residuals."""
    scale = _gradient_scale(f.grid, _fft(f.data))
    return scale * float(np.sqrt(f.grid.cell_volume / f.grid.ntotal))


def _relative_residual(op: OpMatrix, f: TensorField) -> float:
    """|op f| relative to the gradient scale |k||f|, both from one FFT of f."""
    spectrum = _fft(f.data)
    scale = _gradient_scale(f.grid, spectrum)
    residual = np.linalg.norm(apply_symbol(op, f.grid, spectrum))
    return float(residual / scale) if scale > 0 else 0.0


def relative_divergence(f: TensorField) -> float:
    """|div f| relative to the gradient scale |k||f| of the same field."""
    return _relative_residual(cartesian_div(), f)


def relative_complex_curl(f: TensorField) -> float:
    """|curl_c f| relative to the gradient scale; the sqrt(2) modulus of
    (1+i) is divided out so a generic field scores O(1)."""
    return _relative_residual(build_cartesian_curls().curl, f)


# ---------------------------------------------------------------------------
# Field generators.
# ---------------------------------------------------------------------------

def wavevector(grid: GridSpec, jvec: tuple[int, int, int]) -> np.ndarray:
    return np.array([2 * np.pi * jvec[a] / grid.box[a] for a in range(3)])


def plane_wave(grid: GridSpec, l: int, m: int, jvec: tuple[int, int, int],
               basis: str = "spherical", amplitude: float = 1.0) -> TensorField:
    """Plane wave in the helicity-m eigenvector of the curl symbol at k."""
    if jvec == (0, 0, 0):
        raise ValueError("plane wave needs a nonzero mode index")
    if abs(m) > l:
        raise ValueError("helicity band must satisfy |m| <= l")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    k = wavevector(grid, jvec)
    symbol = build_curl_ldotgrad(l).symbol_at(k)
    _, vecs = np.linalg.eigh(symbol)
    vec = vecs[:, m + l]  # eigenvalues ascend as m|k|/l, so index m + l
    if basis == "cartesian":
        if l != 1:
            raise ValueError("cartesian plane waves are rank-1 only")
        vec = cartesian_transform().symbol_at((0, 0, 0)) @ vec
    elif basis != "spherical":
        raise ValueError(f"unknown basis {basis!r}")
    x, y, z = grid.position_grids()
    phase = np.exp(1j * (k[0] * x + k[1] * y + k[2] * z))
    data = amplitude * vec[:, None, None, None] * phase[None, ...]
    return TensorField(l, basis, grid, data)


def random_bandlimited(grid: GridSpec, l: int = 1, basis: str = "cartesian",
                       kcut: float = 0.25, seed: int = 0,
                       rng: np.random.Generator | None = None) -> TensorField:
    """Random field supported on modes with |j| <= kcut * n per axis."""
    if not kcut >= 0:
        raise ValueError(f"kcut must be a non-negative number, got {kcut!r}")
    rng = rng or np.random.default_rng(seed)
    ncomp = _expected_components(basis, l)
    nz, ny, nx = grid.n[2], grid.n[1], grid.n[0]
    spectrum = (rng.standard_normal((ncomp, nz, ny, nx))
                + 1j * rng.standard_normal((ncomp, nz, ny, nx)))
    masks = []
    for axis in range(3):
        j = np.fft.fftfreq(grid.n[axis]) * grid.n[axis]
        masks.append(np.abs(j) <= kcut * grid.n[axis])
    mask = (masks[2][:, None, None] & masks[1][None, :, None]
            & masks[0][None, None, :])
    spectrum *= mask[None, ...]
    return TensorField(l, basis, grid, _ifft(spectrum, out=spectrum))


def example_rotation_fields(grid: GridSpec) -> tuple[TensorField, TensorField]:
    """The pair of in-plane rotation fields u = (y, -x, 0), v = (0, -x^2, 0),
    sampled on centered coordinates."""
    x = grid.coords(0, centered=True)[None, None, :]
    y = grid.coords(1, centered=True)[None, :, None]
    shape = (grid.n[2], grid.n[1], grid.n[0])
    u = np.zeros((3,) + shape, dtype=np.complex128)
    v = np.zeros((3,) + shape, dtype=np.complex128)
    u[0] = np.broadcast_to(y, shape)
    u[1] = -np.broadcast_to(x, shape)
    v[1] = -np.broadcast_to(x ** 2, shape)
    return (TensorField(1, "cartesian", grid, u),
            TensorField(1, "cartesian", grid, v))


# ---------------------------------------------------------------------------
# Rank-2 cartesian views.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def rank2_cartesian_basis() -> np.ndarray:
    """Symmetric traceless 3x3 basis matrices for the five m = 2..-2 slots."""
    s = cartesian_transform().symbol_at((0, 0, 0))
    basis = np.zeros((5, 3, 3), dtype=np.complex128)
    for idx, m in enumerate(range(2, -3, -1)):
        for m1 in (-1, 0, 1):
            m2 = m - m1
            if abs(m2) > 1:
                continue
            coeff = clebsch_gordan(1, m1, 1, m2, 2, m).to_complex()
            if coeff == 0:
                continue
            e1 = s[:, basis_index(1, m1)]
            e2 = s[:, basis_index(1, m2)]
            basis[idx] += coeff * np.outer(e1, e2)
    return basis


def spherical_rank2_to_cartesian(f: TensorField) -> list[list[np.ndarray]]:
    """Expand a rank-2 spherical field into its 3x3 cartesian sample arrays."""
    if f.basis != "spherical" or f.l != 2:
        raise ValueError("expected a rank-2 spherical field")
    t = np.einsum("mij,mzyx->ijzyx", rank2_cartesian_basis(), f.data)
    return [[t[i, j] for j in range(3)] for i in range(3)]


def pack_rank2(tensor, grid: GridSpec) -> TensorField:
    """Pack a symmetric traceless 3x3 sample tensor as (T11, T12, T13, T22, T23).

    The entries left out must follow from the packed ones, to within 1e-10 of
    the largest packed sample: a ValueError names the symmetry or the trace.
    """
    t = np.asarray(tensor, dtype=np.complex128)
    packed = TensorField(2, "cartesian", grid, np.stack([t[i, j] for i, j in RANK2_SLOTS]))
    tol = 1e-10 * float(np.max(np.abs(packed.data))) + 1e-300
    if not np.allclose(t, t.swapaxes(0, 1), rtol=0, atol=tol):
        raise ValueError("tensor must be symmetric")
    if not np.allclose(np.trace(t), 0, rtol=0, atol=tol):
        raise ValueError("tensor must be traceless")
    return packed


def unpack_rank2(f: TensorField) -> list[list[np.ndarray]]:
    if f.basis != "cartesian" or f.l != 2:
        raise ValueError("expected a packed cartesian rank-2 field")
    t11, t12, t13, t22, t23 = f.data
    t33 = -t11 - t22
    return [[t11, t12, t13], [t12, t22, t23], [t13, t23, t33]]


def curl_rank2_field(tensor, grid: GridSpec) -> list[list[np.ndarray]]:
    """Rank-2 cartesian curl of grid-sampled tensor entries."""
    return unpack_rank2(apply_operator(cartesian_curl_rank2(), pack_rank2(tensor, grid)))


# ---------------------------------------------------------------------------
# Field file format (.ctf).
# ---------------------------------------------------------------------------

def write_ctf(f: TensorField, path) -> None:
    header = {
        "magic": "CTF1",
        "l": f.l,
        "basis": f.basis,
        "grid": list(f.grid.n),
        "box": list(f.grid.box),
        "dtype": "c128",
        "order": "component,z,y,x",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(f.data).astype("<c16").tobytes())


def read_ctf(path) -> TensorField:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("ascii"))
    if not isinstance(header, dict) or header.get("magic") != "CTF1":
        raise ValueError("not a CTF1 field file")
    if header.get("dtype") != "c128" or header.get("order") != "component,z,y,x":
        raise ValueError("unsupported CTF payload layout")
    l = header.get("l")
    if type(l) is not int or l < 0:
        raise ValueError(f"CTF rank l must be a non-negative integer, got {l!r}")
    try:
        grid = GridSpec(tuple(header["grid"]), tuple(header["box"]))
        basis = header["basis"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed CTF header: {exc!r}") from exc
    ncomp = _expected_components(basis, l)
    expected = ncomp * grid.ntotal * 16
    if len(payload) != expected:
        raise ValueError(f"payload holds {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype="<c16").reshape(
        (ncomp, grid.n[2], grid.n[1], grid.n[0]))
    return TensorField(l, basis, grid, data.copy())
