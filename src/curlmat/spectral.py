"""Application of operator matrices to sampled fields on periodic grids.

Fields are complex samples indexed ``[component, z, y, x]``: 2l + 1
spherical components (descending m), or 1, 3 or 5 cartesian ones, a rank-2
cartesian field packed as (T11, T12, T13, T22, T23) (`builders.RANK2_SLOTS`).
Operators act per Fourier mode through their symbol (dx -> i*kx, ...); the
first-derivative symbol at the Nyquist frequency is set to zero (symmetric
convention), which keeps the output of real inputs conjugate-symmetric.

Every whole-field FFT runs its leading axis as two batches from
`FFT_SPLIT_SAMPLES` = 3 * 32^3 samples, the measured crossover, with the bits
of one numpy call: the size alone decides.  One function, `_in_step`, runs
such a pair of independent calls on two threads given a second CPU and else
in turn; its callers are `_transform`, for these batches, and `evolve`'s
event march, for its column halves.  For both, the second call runs in a
copy of the caller's context, so the caller's `np.errstate` holds on both
threads: the library's overflow policy is the caller's error state.
`_relative_residual` makes the operator's output one row at a time in one
buffer, and `_random_spectrum` fills one complex array part by part.
`_band_frame` is the one helicity frame V(k), from the exact d^l(pi/2), for
`plane_wave` and for `evolve`'s propagator.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import stat
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .angular import MAX_SPIN, wigner_d
from .builders import build_cartesian_curls, cartesian_div, cartesian_transform
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
        # the symbols square the wavenumbers, up to 2 pi (n/2) / box, and
        # every norm and energy is weighted by the cell volume
        k2 = sum((math.pi * n / v) * (math.pi * n / v) for n, v in zip(self.n, self.box))
        if not math.isfinite(k2):
            raise ValueError(f"box lengths {self.box} are too small for {self.n} points: "
                             f"the squared wavenumbers 2*pi*(n/2)/box overflow")
        if not 0 < self.cell_volume < math.inf:
            raise ValueError(f"box lengths {self.box} give {self.n} points a cell volume "
                             f"of {self.cell_volume}; it must be positive and finite")

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
    if l < 0:
        raise ValueError(f"rank l must be a non-negative integer, got {l!r}")
    if basis == "spherical":
        if l > MAX_SPIN:  # as `plane_wave` and `random_state`, through `wigner_d`
            raise ValueError(f"spherical rank l must be at most {MAX_SPIN}, got {l}")
        return 2 * l + 1
    if basis == "cartesian":
        if l not in _CART_COMPONENTS:
            raise ValueError("cartesian fields support ranks 0, 1 and 2")
        return _CART_COMPONENTS[l]
    raise ValueError(f"unknown basis {basis!r}")


@dataclass(frozen=True)
class TensorField:
    """(2l+1)- or cartesian-component complex field on a periodic grid.

    Frozen, so `data` cannot be rebound; the array itself can be written in
    place unless it is read-only, as the fields of an `EvolutionState` are."""

    l: int
    basis: str
    grid: GridSpec
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.complex128))
        ncomp = _expected_components(self.basis, self.l)
        nz, ny, nx = self.grid.n[2], self.grid.n[1], self.grid.n[0]
        if self.data.shape != (ncomp, nz, ny, nx):
            raise ValueError(
                f"expected data shape {(ncomp, nz, ny, nx)}, got {self.data.shape}")
        # a sample is finite when both its parts are: numpy checks a float
        # view of the parts twice as fast as the complex samples
        parts = self.data.view(np.float64) if self.data.flags.c_contiguous else self.data
        if not np.isfinite(parts).all():
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
        return float(np.sqrt(np.vdot(self.data, self.data).real * self.grid.cell_volume))

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


# Samples per transform, 3 x 32^3, from which a whole-field FFT runs its
# leading axis as two batches on two threads: on 2 cores the split transform
# took 1.25x the serial time at 3 x 24^3, 1.07x at 3 x 28^3, 1.03x at
# 5 x 24^3, 0.91x at 3 x 32^3 and 0.73x at 3 x 64^3
FFT_SPLIT_SAMPLES = 3 * 2 ** 15


def _fft(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """FFT over the last three axes, [..., z, y, x]; leading axes are a batch.

    The result goes to ``out``, which may be ``data`` itself; without it, to
    a fresh array.  numpy's ``fftn`` then allocates nothing per axis: with
    ``out=None`` it makes a new array for each of the three.  From
    `FFT_SPLIT_SAMPLES` samples the first axis runs as two batches, given a
    second CPU the second on a thread of its own in the caller's context
    (`_in_step`).  Each batch is the same numpy transform of the same
    samples, so the result is the same bit for bit.
    """
    return _transform(np.fft.fftn, data, out)


def _ifft(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of `_fft`, with the same ``out`` contract and split."""
    return _transform(np.fft.ifftn, data, out)


def _transform(fn, data: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        out = np.empty(data.shape, dtype=np.complex128)
    if not (data.ndim > 3 and len(data) > 1 and data.size >= FFT_SPLIT_SAMPLES):
        return fn(data, axes=(-3, -2, -1), out=out)
    cut = (len(data) + 1) // 2
    _in_step(*(partial(fn, data[part], axes=(-3, -2, -1), out=out[part])
               for part in (slice(cut), slice(cut, None))))
    return out


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_step(*calls) -> None:
    """Make the independent `calls`: the second of two on a thread of its own
    (`_run_paired`) when the process may use a second CPU, else in turn."""
    if len(calls) > 1 and _cpu_count() > 1:
        _run_paired(*calls)
    else:
        for call in calls:
            call()


def _run_paired(first, second) -> None:
    """Call `first` here and `second` on a thread of its own, in a copy of
    this thread's context, so numpy's error state holds on both.  An
    exception in either is raised here, after the thread has ended."""
    failed = []
    context = contextvars.copy_context()

    def run_second():
        try:
            context.run(second)
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    worker = threading.Thread(target=run_second, name="curlmat-second-half")
    worker.start()
    try:
        first()
    finally:
        worker.join()
    if failed:
        raise failed[0]


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
    scratch = None
    for r, entries in enumerate(_symbol_rows(op, grid)):
        scratch = _sum_row(entries, spectrum, out[..., r, :, :, :], scale, scratch)
    if base is not None:
        out += base
    return out


def _symbol_rows(op: OpMatrix, grid: GridSpec) -> list[list[tuple[int, np.ndarray]]]:
    """`symbol_entries` by row: each row's ``(col, symbol)`` in entry order."""
    rows = [[] for _ in range(op.rows)]
    for r, c, sym in symbol_entries(op, grid):
        rows[r].append((c, sym))
    return rows


def _sum_row(entries, spectrum: np.ndarray, row: np.ndarray, scale: complex = 1,
             scratch: np.ndarray | None = None) -> np.ndarray | None:
    """Write the sum of ``scale * symbol * spectrum[..., col, :, :, :]`` over
    ``entries`` to `row`, in entry order; zeros for none.  The second and
    later products go through `scratch`, made here on first need and
    returned for the next row."""
    if not entries:
        row[...] = 0
    for i, (c, sym) in enumerate(entries):
        if scale != 1:
            sym = sym * scale
        term = spectrum[..., c, :, :, :]
        if not i:
            np.multiply(sym, term, out=row)
            continue
        if scratch is None:
            scratch = np.empty(row.shape, dtype=np.complex128)
        row += np.multiply(sym, term, out=scratch)
    return scratch


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


def reconstruction_residual(f: TensorField, perp: TensorField, par: TensorField) -> float:
    """|f - (perp + par)| relative to |f|: how well a split adds back up.
    perp + par is formed first, then subtracted from f in the same scratch
    array; f - perp - par would be par - par, exactly 0, since helmholtz
    makes par as f - perp."""
    f._check_compatible(perp)
    f._check_compatible(par)
    diff = np.add(perp.data, par.data)
    np.subtract(f.data, diff, out=diff)
    scale = f.norm()
    return (math.sqrt(np.vdot(diff, diff).real * f.grid.cell_volume) / scale
            if scale > 0 else 0.0)


def _gradient_scale(grid: GridSpec, spectrum: np.ndarray) -> float:
    """sqrt(sum |k|^2 |spectrum|^2) over modes and components.  |k|^2 is
    kx^2 + ky^2 + kz^2, so only the (z, y) and x marginals of |spectrum|^2
    are needed: summed from the float view of real and imaginary parts,
    they make no array of the spectrum's size."""
    kx, ky, kz = (k.ravel() ** 2 for k in grid.deriv_k_grids())
    parts = spectrum.view(np.float64)  # [c, z, y, 2x]: re, im interleaved
    zy = np.einsum("czyx,czyx->zy", parts, parts)
    x = np.einsum("czyx,czyx->x", parts, parts).reshape(-1, 2).sum(axis=1)
    return float(np.sqrt(kz @ zy.sum(axis=1) + ky @ zy.sum(axis=0) + kx @ x))


def _relative_residual(op: OpMatrix, f: TensorField) -> float:
    """|op f| relative to the gradient scale |k||f|, both from one FFT of f.
    op f is made one row at a time in one buffer, its squares summed row by
    row: the whole output is never held."""
    spectrum = _fft(f.data)
    scale = _gradient_scale(f.grid, spectrum)
    row = np.empty(spectrum.shape[1:], dtype=np.complex128)
    scratch, squares = None, 0.0
    for entries in _symbol_rows(op, f.grid):
        scratch = _sum_row(entries, spectrum, row, scratch=scratch)
        squares += np.vdot(row, row).real
    return float(np.sqrt(squares) / scale) if scale > 0 else 0.0


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


@lru_cache(maxsize=None)
def _ly_frame(l: int) -> np.ndarray:
    """U = diag((-i)^m) d^l(pi/2) (`wigner_d`, so 1 <= l <= MAX_SPIN), which
    turns z^ to y^: U^H Ly U = Lz, column i the Ly eigenvector of m = l - i."""
    d = np.array([[v.to_complex() for v in row] for row in wigner_d(l)])
    u = np.array([1, -1j, -1, 1j])[np.arange(l, -l - 1, -1) % 4, None] * d
    u.flags.writeable = False
    return u


def _frame_phases(kx, ky, kz) -> tuple[np.ndarray, np.ndarray]:
    """exp(i*theta) and exp(i*phi) of the polar and azimuthal angles of k."""
    return np.exp(1j * np.arctan2(np.hypot(kx, ky), kz)), np.exp(1j * np.arctan2(ky, kx))


def _band_frame(coeffs: np.ndarray, polar: np.ndarray, azimuth: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """V(k) coeffs per mode into `out` (C-contiguous), for band coefficients
    (2l+1, modes), row i band m = i - l, and `_frame_phases` per mode.
    V(k) = exp(-i*phi*Lz) U exp(-i*theta*Lz) U^H turns z^ to k^ (`_ly_frame`):
    column m is band m, eigenvalue m|k|/l of the curl symbol (L.k)/l."""
    u = _ly_frame(len(coeffs) // 2)
    x = np.matmul(u[::-1].conj().T, coeffs, out=out.reshape(len(coeffs), -1))
    _turn(x, polar, 1)
    np.matmul(u, x, out=x)
    _turn(x, azimuth, 1)
    return out


def _turn(x: np.ndarray, phase: np.ndarray, sign: int) -> None:
    """Multiply row i of x, of 2l+1, by phase ** (sign * (i - l)), in place.

    ``phase`` holds a unit phase per mode, so its powers are built by
    repeated products and the negative ones are their conjugates: complex
    ``**`` goes through `np.power` at about five times the cost.
    """
    l = len(x) // 2
    step = phase if sign > 0 else phase.conj()
    power = np.ones_like(step)
    for k in range(1, l + 1):
        power *= step
        x[l + k] *= power
        x[l - k] *= power.conj()


def plane_wave(grid: GridSpec, l: int, m: int, jvec: tuple[int, int, int],
               basis: str = "spherical", amplitude: float = 1.0) -> TensorField:
    """Plane wave in helicity band m at k: column m of the frame V(k)
    (`_band_frame`), an eigenvector of the curl symbol with eigenvalue
    m|k|/l whose phase the exact frame fixes.  In spherical components or,
    at l = 1 and 2, through `cartesian_transform(l)` in cartesian ones."""
    if jvec == (0, 0, 0):
        raise ValueError("plane wave needs a nonzero mode index")
    if any(abs(j) >= n // 2 for j, n in zip(jvec, grid.n)):
        # n/2 is the Nyquist index, whose derivative symbol is zeroed, and
        # past it an index aliases to a lower one
        raise ValueError(f"mode index {tuple(jvec)} is not resolved on a {grid.n} grid: "
                         f"each |j| must be below n/2")
    if abs(m) > l:
        raise ValueError("helicity band must satisfy |m| <= l")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    k = wavevector(grid, jvec)
    # _ly_frame rejects a rank outside 1..MAX_SPIN before an array of it is made
    band = np.zeros((len(_ly_frame(l)), 1), dtype=np.complex128)
    band[m + l] = 1  # e_m: band rows ascend in m
    vec = _band_frame(band, *_frame_phases(*k[:, None]), np.empty_like(band))[:, 0]
    if basis == "cartesian":
        vec = cartesian_transform(l).symbol_at((0, 0, 0)) @ vec
    elif basis != "spherical":
        raise ValueError(f"unknown basis {basis!r}")
    x, y, z = grid.position_grids()
    phase = np.exp(1j * (k[0] * x + k[1] * y + k[2] * z))
    data = amplitude * vec[:, None, None, None] * phase[None, ...]
    return TensorField(l, basis, grid, data)


def random_bandlimited(grid: GridSpec, l: int = 1, basis: str = "cartesian",
                       kcut: float = 0.25, seed: int = 0) -> TensorField:
    """Random field on the modes with |j| <= kcut * n per axis (`_random_spectrum`)."""
    spectrum = _random_spectrum(grid, l, basis, kcut, seed)
    return TensorField(l, basis, grid, _ifft(spectrum, out=spectrum))


def _random_spectrum(grid: GridSpec, l: int, basis: str, kcut: float,
                     seed: int) -> np.ndarray:
    """Standard normal real and imaginary parts from `seed`'s stream on every
    mode with |j| <= kcut * n per axis, zero elsewhere."""
    if not kcut >= 0:
        raise ValueError(f"kcut must be a non-negative number, got {kcut!r}")
    ncomp = _expected_components(basis, l)
    nz, ny, nx = grid.n[2], grid.n[1], grid.n[0]
    # real parts from the first draw, imaginary from the second, as
    # draw1 + 1j*draw2 has them; one call makes both draws, the same
    # stream, and no complex temporary is formed
    draws = np.random.default_rng(seed).standard_normal((2, ncomp, nz, ny, nx))
    spectrum = np.empty(draws.shape[1:], dtype=np.complex128)
    spectrum.real, spectrum.imag = draws
    del draws
    for axis, n in enumerate(grid.n):
        past = np.abs(np.fft.fftfreq(n) * n) > kcut * n
        spectrum[(slice(None),) * (3 - axis) + (past,)] = 0  # x is the last axis
    return spectrum


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
# Field file format (.ctf).
# ---------------------------------------------------------------------------

def write_ctf(f: TensorField, path) -> None:
    """Write a field: one JSON header line, then the samples as
    little-endian complex128 in [component, z, y, x] order.  The payload is
    written from the field's own buffer when it is already in that layout."""
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
        fh.write(memoryview(np.ascontiguousarray(f.data, dtype="<c16")))


def read_ctf(path) -> TensorField:
    """Read a `write_ctf` file.  The header is checked, and a regular file's
    payload size against it, before the samples' array is allocated; the
    payload is then read straight into that array."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
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
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):  # a pipe's size is known only once read
            size = info.st_size - fh.tell()
            if size != expected:
                raise ValueError(f"payload holds {size} bytes, expected {expected}")
        data = np.empty((ncomp, grid.n[2], grid.n[1], grid.n[0]), dtype="<c16")
        if fh.readinto(data) != expected or fh.read(1):
            raise ValueError(f"payload does not hold the {expected} bytes expected")
    return TensorField(l, basis, grid, data)
