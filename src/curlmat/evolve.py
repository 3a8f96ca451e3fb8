"""Time evolution of the paired spin-l free-field equations.

The system couples two rank-l spherical fields through the curl:
d/dt TE = +c * CURL TB and d/dt TB = -c * CURL TE, with both fields
divergence-free as an initial-value constraint.  In the complex fields
F+- = TE +- i*TB the pair decouples, d/dt F+- = -+i*c*CURL F+-.  An
`EvolutionState` is one immutable value, the read-only spectra of F+- with
l, grid, t and c, and every state a driver returns is built from spectra:
a march that reads no field makes no FFT.

Both drivers, `run_spectral` and `run_rk4`, run one event march
(`_march`); `step_spectral` and `step_rk4` are one-step runs.  The events
are the logged steps and the dumps, and step s is at time t0 + s*dt.  The
march checks the run, has the driver build its start arrays, and walks the
mode columns from event to event with the driver's kernel.  No step couples
two modes, so from `SPLIT_MODES` modes per field the columns march in two
halves that meet only at dumps, the second on a thread of its own given a
second CPU, else in turn.  At a log each half writes the band sums of its
columns, sum |2a|^2 and |2ib|^2 bare and weighted by |k|^2 per band row of
z+- = a +- ib, and the calling thread adds the halves' sums after the march.
At a dump the calling thread builds the state, which holds no buffer the
march still writes.  The split depends on the size alone, so every host
logs the same bits; states are those of an unsplit march, and logs move at
roundoff (within 1e-14 relative), below the split size not at all.

The spectral kernel is exact per Fourier mode: the curl symbol (L.k)/l is
diagonalised by the rotation V(k) = exp(-i*phi*Lz) exp(-i*theta*Ly) taking
z^ to k^, column m being helicity band m with eigenvalue lambda = m|k|/l,
and each mode turns by c*lambda*dt, so energy is conserved to roundoff and
steps are exactly reversible.  The F+- spectra go to band coefficients
z+- = V^H F+- once; a step multiplies z+ by exp(-i*c*lambda*dt) and z- by
its conjugate, the same table read with its bands reversed.  A log forms
2a = z+ + z- and 2ib = z+ - z-, never the expansion
|z+|^2 + |z-|^2 +- 2 Re(z+ conj z-), which cancels when one field is near
zero.  States are F+- = V z+-.  The kernel turns one band row of its
columns at a time, small enough to stay in cache, to the next event.

The RK4 kernel is the independent check on that propagator, with the curl
symbol itself and never its eigenvectors.  A classical step of this linear
autonomous system is the polynomial R(dt A) = 1 + dt A + ... + (dt A)^4/24.
`_rk4_table` builds R = R(-i*c*dt*CURL), F+'s step, once per mode and
(l, grid, c*dt): column j is the four Horner stages x + (-i*c*dt/k) CURL y,
k = 4, 3, 2, 1, on the unit spectrum of component j.  The curl symbol is
Hermitian, so F-'s step is R^H, read from the same table as
conj(R^T conj(x)); one table is held, (2l+1)^2 complex values per mode.  A
step of the kernel's columns is one pass of their F+ and one of their F-
over the table (`_rk4_pass`), from the state's spectra into a new pair and
then between two new pairs in turn; the new columns must be finite.  A log
takes the columns to the band frame, as `diagnostics` does all of them.
Both drivers reject a step whose phase c*dt*kmax, or whose end time, is not
finite before building anything.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .builders import build_curl_complex, build_curl_ldotgrad, build_div
from .spectral import (GridSpec, TensorField, _fft, _ifft, _in_step, _random_spectrum,
                       _relative_residual, apply_operator, apply_symbol, plane_wave)


@dataclass(frozen=True, eq=False, init=False)
class EvolutionState:
    """Paired (TE, TB) rank-l spherical fields at time t with wave speed c,
    held as the read-only spectra of F+- = TE +- i*TB.

    `EvolutionState(te, tb, t, c)` checks the fields and takes one FFT of
    the pair.  `te` and `tb` are made from the spectra together, by one
    inverse FFT of the pair, on first read, and kept.  Nothing about a state
    can change: no attribute can be assigned, and every array it hands out
    is read-only.  A copy is the state itself.
    """

    l: int
    grid: GridSpec
    t: float
    c: float

    def __init__(self, te: TensorField, tb: TensorField, t: float, c: float = 1.0):
        if te.basis != "spherical" or tb.basis != "spherical":
            raise ValueError("evolution runs in the spherical component basis")
        te._check_compatible(tb)
        spectra = np.stack((te.data, tb.data))
        _plus_minus(*_fft(spectra, out=spectra))
        self._hold(spectra, te.l, te.grid, t, c)

    @classmethod
    def _of_spectra(cls, spectra: np.ndarray, l: int, grid: GridSpec,
                    t: float, c: float) -> EvolutionState:
        """The state whose F+- spectra are `spectra`, made read-only here."""
        state = cls.__new__(cls)
        state._hold(spectra, l, grid, t, c)
        return state

    def _hold(self, spectra, l, grid, t, c) -> None:
        if not (math.isfinite(c) and c > 0):
            raise ValueError(f"wave speed must be positive and finite, got {c}")
        spectra.flags.writeable = False
        vars(self).update(_spectra=spectra, l=l, grid=grid, t=t, c=c)  # past the frozen setattr

    @cached_property
    def _fields(self) -> tuple[TensorField, TensorField]:
        """TE = (F+ + F-)/2 and TB = (F+ - F-)/(2i), one inverse FFT of the pair."""
        pair = np.empty_like(self._spectra)
        for h, part in enumerate(pair):
            _part(*self._spectra, h, part)
        _ifft(pair, out=pair)
        pair.flags.writeable = False  # before the views, so they stay read-only
        return tuple(TensorField(self.l, "spherical", self.grid, f) for f in pair)

    te = property(lambda self: self._fields[0])
    tb = property(lambda self: self._fields[1])

    def __copy__(self) -> EvolutionState:
        return self

    def __deepcopy__(self, memo) -> EvolutionState:
        return self


@dataclass
class Diagnostics:
    """Energy, constraint residuals and per-band amplitudes of one state."""

    t: float
    energy: float
    div_te: float
    div_tb: float
    band_te: tuple[float, ...]  # L2 amplitude of TE per helicity band, m = -l..l


class _Propagator:
    """The helicity frame V(k) on one grid, applied without forming V.

    Coefficient arrays are (dim, modes): row i holds band m = i - l at every
    Fourier mode in FFT order.  With Ly = U Lambda U^H, V^H x is
    U exp(i*theta*Lambda) U^H exp(i*phi*Lz) x: only the unit phases exp(i*theta)
    and exp(i*phi) are kept per mode.  At k = 0, as at modes whose wavenumbers
    are all Nyquist-zeroed, theta = phi = 0: band m holds spherical component m.
    """

    def __init__(self, grid: GridSpec, l: int):
        self.grid = grid
        self.l = l
        self.dim = 2 * l + 1
        self.m = np.arange(-l, l + 1)  # the bands, and the spectrum of Ly and Lz
        self.shape = (self.dim, grid.n[2], grid.n[1], grid.n[0])
        kx, ky, kz = (np.broadcast_to(k, self.shape[1:]).ravel() for k in grid.deriv_k_grids())
        self.kabs = np.sqrt(kx ** 2 + ky ** 2 + kz ** 2)
        self.polar = np.exp(1j * np.arctan2(np.hypot(kx, ky), kz))
        self.azimuth = np.exp(1j * np.arctan2(ky, kx))
        # Ly is l times the curl symbol at y^; eigh sorts its eigenvalues -l..l as m
        self.ly_vecs = np.linalg.eigh(l * build_curl_ldotgrad(l).symbol_at((0, 1, 0)))[1]
        # div(k) V(k) = |k| D(k) div(z^), D unitary, and div(z^) keeps m, so
        # |div a|^2 = sum_m w_m |k|^2 |a_m|^2, w_m the column norms^2 of div(z^)
        self.div_weight = (np.abs(build_div(l).symbol_at((0, 0, 1))) ** 2).sum(axis=0)[::-1]
        self.mode_weight = grid.cell_volume / grid.ntotal  # Parseval factor

    @property
    def vals(self) -> np.ndarray:
        """Eigenvalue m|k|/l of every band (rows) at every mode (columns)."""
        return np.multiply.outer(self.m, self.kabs) / self.l

    def kscale(self, cols: slice = slice(None)) -> np.ndarray:
        """|k| at the mode columns `cols` as complex128: a complex array
        scaled in place by it needs no casting loop, and the products are the
        same bits.  Made per use, so the cached propagator holds no second
        copy of |k|."""
        return self.kabs[cols].astype(np.complex128)

    def phases(self, c: float, dt: float) -> np.ndarray:
        """exp(-i*c*lambda*dt) of every band and mode: one step of z+."""
        return np.exp(-1j * c * dt * self.vals)

    def to_eigen(self, spectrum: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
        """Band coefficients of a field's spectrum, or of its mode columns
        `cols`: V^H per mode.  The spectrum is overwritten."""
        x = spectrum.reshape(self.dim, -1)
        _turn(x, self.azimuth[cols], -1)  # components are m = l..-l
        x = self.ly_vecs.conj().T @ x
        _turn(x, self.polar[cols], 1)
        return self.ly_vecs[::-1] @ x  # rows flipped to ascending m

    def to_spectrum(self, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Spectrum of band coefficients, V per mode, into `out`, a
        C-contiguous array of `shape`.  The coefficients are kept."""
        x = np.matmul(self.ly_vecs[::-1].conj().T, coeffs, out=out.reshape(self.dim, -1))
        _turn(x, self.polar, -1)
        np.matmul(self.ly_vecs, x, out=x)
        _turn(x, self.azimuth, 1)
        return out

    def constraint_project(self, coeffs: np.ndarray) -> np.ndarray:
        """Keep only the divergence-free bands (m = +/-l) for k != 0 modes."""
        coeffs[1:-1, self.kabs != 0] = 0
        return coeffs


_propagator = lru_cache(maxsize=4)(_Propagator)


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


def check_dt(grid: GridSpec, c: float, dt: float, t: float = 0.0, steps: int = 1) -> float:
    """The largest phase c*dt*kmax a step turns on ``grid``; a ValueError
    naming dt unless it is finite, so no step table overflows, and unless
    `steps` steps from time `t` end at a finite time."""
    phase = c * dt * _max_wavenumber(grid)
    if not (math.isfinite(dt) and math.isfinite(phase)):
        raise ValueError(f"dt must be finite, as must c*dt*kmax; got dt={dt}, "
                         f"c*dt*kmax={phase}")
    try:
        end = t + steps * dt
    except OverflowError:  # a step count past the largest float
        end = math.inf
    if not math.isfinite(end):
        raise ValueError(f"dt must keep the end time t + steps*dt finite; got dt={dt}, "
                         f"t={t}, steps={steps}")
    return phase


def step_spectral(state: EvolutionState, dt: float) -> EvolutionState:
    """Advance by the exact per-mode propagator (negative dt steps backward)."""
    return run_spectral(state, dt, 1, log_every=0)[0]


def _plus_minus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + ib and a - ib in place of a and b; returns ib, made on the way."""
    ib = np.multiply(b, 1j)
    np.subtract(a, ib, out=b)
    a += ib
    return ib


def _part(zp: np.ndarray, zm: np.ndarray, h: int, out: np.ndarray) -> np.ndarray:
    """Into `out`, a = (z+ + z-)/2 for h = 0, else b = (z+ - z-)/(2i), of a
    pair z+- = a +- ib."""
    (np.subtract if h else np.add)(zp, zm, out=out)
    out *= -0.5j if h else 0.5
    return out


def _row_sums(kscale: np.ndarray, zp: np.ndarray, zm: np.ndarray, x: np.ndarray,
              out: np.ndarray) -> None:
    """Into `out`: sum |2a|^2, sum |k 2a|^2, sum |2ib|^2 and sum |k 2ib|^2
    over one band row of z+- = a +- ib.  2a and 2ib are formed in turn in the
    row `x`, so each term is a sum of squares and never cancels; `kscale` is
    |k| at those columns."""
    for i, combine in ((0, np.add), (2, np.subtract)):
        combine(zp, zm, out=x)
        out[i] = np.vdot(x, x).real
        x *= kscale
        out[i + 1] = np.vdot(x, x).real


def _column_sums(prop: _Propagator, spectra: np.ndarray, cols: slice,
                 out: np.ndarray) -> np.ndarray:
    """The `_row_sums` of every band row of the mode columns `cols` of F+-
    spectra, taken to the band frame as z+- = V^H F+-, into the columns of
    `out`.  The spectra are kept."""
    zp, zm = (prop.to_eigen(s[:, cols].copy(), cols) for s in spectra.reshape(2, prop.dim, -1))
    kscale, x = prop.kscale(cols), np.empty_like(zp[0])
    for r in range(prop.dim):
        _row_sums(kscale, zp[r], zm[r], x, out[:, r])
    return out


def _diag_from_modes(prop: _Propagator, t: float, sums: np.ndarray) -> Diagnostics:
    """Diagnostics from the `_row_sums` of each band of z+- (Parseval).  The
    divergence residual is sqrt(sum_m w_m sum |k x_m|^2 / sum |k x|^2) for
    x = 2a, 2ib."""
    te_power, te_grad, tb_power, tb_grad = sums
    weight = prop.mode_weight / 4  # exact: the 1/2 of a and b, squared

    def div(grad):
        scale = grad.sum()
        return float(np.sqrt(prop.div_weight @ grad / scale)) if scale > 0 else 0.0

    return Diagnostics(
        t=t,
        energy=float(weight * (te_power.sum() + tb_power.sum())),
        div_te=div(te_grad),
        div_tb=div(tb_grad),
        band_te=tuple(float(v) for v in np.sqrt(weight * te_power)),
    )


def _state(prop: _Propagator, zp: np.ndarray, zm: np.ndarray,
           t: float, c: float) -> EvolutionState:
    """The state at z+-: F+- = V z+- per mode, z+- kept."""
    spectra = np.empty((2,) + prop.shape, dtype=np.complex128)
    for z, out in zip((zp, zm), spectra):
        prop.to_spectrum(z, out)
    return EvolutionState._of_spectra(spectra, prop.l, prop.grid, t, c)


def _check_run(state, dt, steps, log_every, dump_every) -> float:
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if log_every < 0:
        raise ValueError(f"log_every must be non-negative, got {log_every}")
    if dump_every is not None and dump_every < 1:
        raise ValueError(f"dump_every must be at least 1, got {dump_every}")
    return check_dt(state.grid, state.c, dt, state.t, steps)


# Modes per field, n^3, from which the march splits its columns.  A half
# makes the calls of the whole march over half the modes, so the split pays
# once those calls are long, whatever l is.  Split over serial time on 2
# cores, medians of 9 interleaved calls, l = 1 / l = 2: run_spectral, 200
# logged steps, 1.64 / 1.31 at 24^3, 1.26 / 0.90 at 26^3, 0.94 / 0.90 at
# 28^3, 0.80 / 0.72 at 30^3; run_rk4, 100 unlogged steps, 1.94 / 1.92 at
# 20^3, 1.22 / 1.15 at 24^3, 0.99 / 0.86 at 26^3, 0.75 / 0.59 at 28^3,
# 0.54 / 0.49 at 32^3.  28^3 is the first size where both kernels gain at
# both ranks; splitting from 26^3 would cost run_spectral 26 % at l = 1
SPLIT_MODES = 20_000


def _march(state: EvolutionState, dt: float, steps: int, log_every: int,
           dump_every: int | None, dump_fn, begin) -> tuple[EvolutionState, list[Diagnostics]]:
    """The event march of both drivers (module docstring).  Once the run is
    checked, ``begin(phase, logging)`` builds the driver's start arrays and
    returns its kernel ``walk(cols, start, segment, sums)``, which takes the
    mode columns `cols` from step `start` through each event of `segment`,
    writing their band sums at a logged one to ``sums[event]``, and its
    ``build(step, t)`` of the state at a step every column has reached."""
    phase = _check_run(state, dt, steps, log_every, dump_every)
    logged = sorted(set(range(0, steps + 1, log_every)) | {steps}) if log_every else []
    dumps = set(range(dump_every, steps + 1, dump_every)) if dump_fn and dump_every else set()
    cut = state.grid.ntotal // 2  # the size alone splits, so every host logs the same bits
    halves = [slice(cut), slice(cut, None)] if 2 * cut >= SPLIT_MODES else [slice(None)]
    sums = [dict(zip(logged, np.empty((len(logged), 4, 2 * state.l + 1)))) for _ in halves]
    walk, build = begin(phase, bool(logged))

    def at(step):
        return state.t + step * dt if step else state.t

    start, segment, dumped = 0, [], None
    for event in sorted(set(logged) | dumps | {steps}):
        segment.append(event)
        if event in dumps or event == steps:  # the halves march from dump to dump
            _in_step(*(partial(walk, cols, start, segment, s) for cols, s in zip(halves, sums)))
            if event in dumps:
                dumped = build(event, at(event))
                dump_fn(dumped, event)
            start, segment = event, []
    del walk  # and with it the kernel's arrays, before the final state is built
    prop = _propagator(state.grid, state.l) if logged else None
    logs = [_diag_from_modes(prop, at(step), sum(s[step] for s in sums)) for step in logged]
    return dumped if steps in dumps else build(steps, at(steps)), logs


def run_spectral(state: EvolutionState, dt: float, steps: int,
                 log_every: int = 1, dump_every: int | None = None,
                 dump_fn=None) -> tuple[EvolutionState, list[Diagnostics]]:
    """March `steps` spectral steps, staying in eigen coordinates between steps.

    Diagnostics are logged for the initial state, every `log_every` steps and
    the last step; ``log_every=0`` logs none.  With `dump_fn`, the state is
    passed to ``dump_fn(state, step)`` every `dump_every` steps.  The run
    makes no FFT (module docstring).
    """
    def begin(phase, logging):
        prop = _propagator(state.grid, state.l)
        zp, zm = (prop.to_eigen(s.copy()) for s in state._spectra)
        scratch = np.empty_like(zp)
        # the rotation a' = a cos + b sin, b' = b cos - a sin by theta = c*lambda*dt
        # is z+' = z+ exp(-i theta) and z-' = z- exp(+i theta) for z+- = a +- ib
        forward = prop.phases(state.c, dt)
        kscale = prop.kscale()

        def walk(cols, start, segment, sums):
            # band -m turns by -theta: row r of z- by row dim-1-r of the table
            rows = [(zp[r, cols], zm[r, cols], forward[r, cols], forward[-1 - r, cols],
                     scratch[r, cols]) for r in range(prop.dim)]
            k_h = kscale[cols]
            done = start
            for event in segment:
                at_event = sums.get(event)
                for r, (zp_r, zm_r, fwd, bwd, x) in enumerate(rows):
                    for _ in range(done, event):
                        zp_r *= fwd
                        zm_r *= bwd  # forward.conj(), bit for bit
                    if at_event is not None:
                        _row_sums(k_h, zp_r, zm_r, x, at_event[:, r])
                done = event

        return walk, lambda step, t: _state(prop, zp, zm, t, state.c)

    return _march(state, dt, steps, log_every, dump_every, dump_fn, begin)


RK4_STABILITY_BOUND = 2.8


@lru_cache(maxsize=16)
def _max_wavenumber(grid: GridSpec) -> float:
    return float(np.sqrt(sum(np.max(np.abs(grid.deriv_k_axis(a))) ** 2
                             for a in range(3))))


def step_rk4(state: EvolutionState, dt: float) -> EvolutionState:
    """Classical 4th-order step, a one-step `run_rk4`; cross-validates the
    exact propagator.  The new spectra, R F+ and R^H F-, are the returned
    state, so a step makes no FFT; its fields cost one inverse FFT of the
    pair if read.  A ValueError is raised for a dt whose phase c*dt*kmax or
    new time t + dt is not finite, and when the new spectra are not."""
    return run_rk4(state, dt, 1, log_every=0)[0]


@lru_cache(maxsize=1)
def _rk4_table(l: int, grid: GridSpec, theta: float) -> np.ndarray:
    """R(-i*theta*CURL), one RK4 step of F+ for theta = c*dt, at every mode:
    table[j, i] is its entry R_ij, so table[j] is column j.  Column j is the
    four Horner stages y <- e + (-i*theta/k) CURL y, k = 4, 3, 2, 1, from
    y = e, run on the unit spectrum e of component j, the last stage written
    into the table.  Read-only: every step with this (l, grid, theta) shares
    it, and one table is held at a time."""
    curl = build_curl_ldotgrad(l)
    dim = 2 * l + 1
    shape = (dim, grid.n[2], grid.n[1], grid.n[0])
    table = np.empty((dim,) + shape, dtype=np.complex128)
    stages = np.empty((2,) + shape, dtype=np.complex128)
    for j, unit in enumerate(np.eye(dim, dtype=np.complex128)):
        e = np.broadcast_to(unit[:, None, None, None], shape)
        y = e
        for i, k in enumerate((4, 3, 2, 1)):
            y = apply_symbol(curl, grid, y, out=table[j] if k == 1 else stages[i % 2],
                             scale=theta / k * -1j, base=e)
    table.flags.writeable = False
    return table


def _rk4_pass(table: np.ndarray, x: np.ndarray, out: np.ndarray,
              adjoint: bool) -> np.ndarray:
    """R x into `out`, R the matrix of `_rk4_table` at every mode: out_i is
    sum_j R_ij x_j.  With `adjoint`, R^H x instead, from the same table as
    conj(sum_j R_ji conj(x_j)).  Either sum adds its terms for j = 0, 1, ...
    in turn, so a pass over some mode columns makes their bits of a pass
    over all of them, on any thread."""
    term = np.empty_like(x[0])
    xj = np.empty_like(x[0]) if adjoint else None
    for j in range(len(x)):
        src = np.conjugate(x[j], out=xj) if adjoint else x[j]
        for i in range(len(x)):
            entry = table[i, j] if adjoint else table[j, i]
            if j:
                out[i] += np.multiply(entry, src, out=term)
            else:
                np.multiply(entry, src, out=out[i])
    if adjoint:
        np.conjugate(out, out=out)
    return out


def run_rk4(state: EvolutionState, dt: float, steps: int,
            log_every: int = 1, dump_every: int | None = None,
            dump_fn=None) -> tuple[EvolutionState, list[Diagnostics]]:
    """March `steps` RK4 steps; logs and dumps as `run_spectral` does.  The
    run makes no FFT unless `dump_fn` reads a field; with no step, `state`
    itself is returned.  A phase c*dt*kmax past `RK4_STABILITY_BOUND` warns."""
    def begin(phase, logging):
        if steps and abs(phase) >= RK4_STABILITY_BOUND:  # |R(i*theta)| is even in theta
            warnings.warn(f"rk4 step dt*c*kmax = {phase:.3f} exceeds the stability bound "
                          f"{RK4_STABILITY_BOUND}", RuntimeWarning, stacklevel=4)
        dim = 2 * state.l + 1
        table = _rk4_table(state.l, state.grid, state.c * dt).reshape(dim, dim, -1) \
            if steps else None
        # step s > 0 is in the first new pair for odd s, else in the second
        pairs = [state._spectra] + [np.empty_like(state._spectra) for _ in range(min(steps, 2))]
        flat = [p.reshape(2, dim, -1) for p in pairs]
        prop = _propagator(state.grid, state.l) if logging else None

        def held(step):
            return 2 - step % 2 if step else 0

        def walk(cols, start, segment, sums):
            done = start
            for event in segment:
                for step in range(done, event):
                    src, dst = flat[held(step)][..., cols], flat[held(step + 1)][..., cols]
                    for h in (0, 1):  # F+ through R, F- through R^H
                        _rk4_pass(table[..., cols], src[h], dst[h], adjoint=bool(h))
                    if not np.isfinite(dst.view(np.float64)).all():  # twice as fast as on complex
                        raise ValueError("field contains non-finite samples")
                if event in sums:
                    _column_sums(prop, flat[held(event)], cols, sums[event])
                done = event

        def build(step, t):  # a copy unless no step follows
            if not step:
                return state
            spectra = pairs[held(step)]
            return EvolutionState._of_spectra(spectra if step == steps else spectra.copy(),
                                              state.l, state.grid, t, state.c)

        return walk, build

    return _march(state, dt, steps, log_every, dump_every, dump_fn, begin)


def diagnostics(state: EvolutionState) -> Diagnostics:
    prop = _propagator(state.grid, state.l)
    sums = _column_sums(prop, state._spectra, slice(None), np.empty((4, prop.dim)))
    return _diag_from_modes(prop, state.t, sums)


def complex_curl_residual(state: EvolutionState, fd_dt: float | None = None) -> float:
    """Residual of the complex-curl form of the field equations.

    The time derivatives come from centered differences along the actual
    trajectory when ``fd_dt`` is given (exact spectral substeps); without it
    the state is treated as stationary, so any nonzero field with a nonzero
    curl scores O(1).  Returns the worst relative residual across the two
    curl equations and the two divergence constraints.
    """
    if fd_dt:
        fwd = step_spectral(state, fd_dt)
        bwd = step_spectral(state, -fd_dt)
        dte = (fwd.te - bwd.te) * (0.5 / fd_dt)
        dtb = (fwd.tb - bwd.tb) * (0.5 / fd_dt)
    else:
        dte = TensorField.zeros(state.grid, state.l, "spherical")
        dtb = TensorField.zeros(state.grid, state.l, "spherical")

    curl_c = build_curl_complex(state.l)
    factor = (1 + 1j) / state.c
    curl_e = apply_operator(curl_c, state.te)
    curl_b = apply_operator(curl_c, state.tb)
    residuals = []
    for curl_term, dt_term in ((curl_e, dtb * factor), (curl_b, dte * (-factor))):
        scale = curl_term.norm() + dt_term.norm()
        residuals.append((curl_term + dt_term).norm() / scale if scale > 0 else 0.0)
    residuals += [_relative_residual(build_div(state.l), fld) for fld in (state.te, state.tb)]
    return float(max(residuals))


# ---------------------------------------------------------------------------
# Initial data.
# ---------------------------------------------------------------------------

def plane_wave_state(grid: GridSpec, l: int, m: int, jvec: tuple[int, int, int],
                     c: float = 1.0, amplitude: float = 1.0,
                     traveling: bool = True) -> EvolutionState:
    """Single-mode initial data in helicity band m.

    With ``traveling`` the magnetic partner is -i*TE, which makes TE evolve
    as a pure phase exp(-i*omega*t) with omega = c*m*|k|/l.
    """
    te = plane_wave(grid, l, m, jvec, basis="spherical", amplitude=amplitude)
    tb = te * (-1j) if traveling else TensorField.zeros(grid, l, "spherical")
    return EvolutionState(te, tb, 0.0, c)


def random_state(grid: GridSpec, l: int, c: float = 1.0, seed: int = 0,
                 kcut: float = 0.25) -> EvolutionState:
    """Random band-limited data projected onto the divergence-free bands:
    the band coefficients a and b of TE's and TB's `_random_spectrum` (seeds
    seed and seed + 1), each projected there and paired as z+- = a +- ib."""
    prop = _propagator(grid, l)
    zp, zm = (prop.constraint_project(prop.to_eigen(
        _random_spectrum(grid, l, "spherical", kcut, seed + h))) for h in (0, 1))
    _plus_minus(zp, zm)
    return _state(prop, zp, zm, 0.0, c)
