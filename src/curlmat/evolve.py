"""Time evolution of the paired spin-l free-field equations.

The system couples two rank-l spherical fields through the curl:
d/dt TE = +c * CURL TB and d/dt TB = -c * CURL TE, with both fields
divergence-free as an initial-value constraint.  The spectral stepper is
exact per Fourier mode: the curl symbol (L.k)/l is diagonalised by the
rotation V(k) = exp(-i*phi*Lz) exp(-i*theta*Ly) taking z^ to k^, column m
being helicity band m with eigenvalue lambda = m|k|/l, and each mode turns
by c*lambda*dt -- energy is conserved to roundoff and steps are exactly
reversible.  `run_spectral` moves the fields to band coefficients once and
marches those: with z+- = a +- ib for the TE and TB coefficients a and b, a
step multiplies z+ in place by exp(-i*c*lambda*dt) and z- by its conjugate,
the same table read with its bands reversed (lambda is odd in m).  A logged
step reads energy, band amplitudes and divergence from z+ + z- = 2a and
z+ - z- = 2ib, each formed once in one scratch array, never from the
expansion |z+|^2 + |z-|^2 +- 2 Re(z+ conj z-), which cancels when one field
is near zero.  a and b themselves, and the fields, are rebuilt only to dump
a state and at the end.  No step couples two modes, so from
`RK4_SPLIT_SAMPLES` samples per field the mode columns march in two halves,
each through every step on its own: it turns its columns and, on a logged
step, writes its per-band sums of |2a|^2 and |2ib|^2, bare and weighted by
|k|^2; the calling thread adds the halves' sums after the march.  Given a
second CPU the second half runs on a thread started for the run, with the
gate and hand-off of `step_rk4` below; else the halves run in turn.  They
meet only at a dump: both stop at the step, the first writes the state, and
both go on.  Where the columns split depends on the size alone, so every
host logs the same bits.  Fields and dumps are the bits of a whole-array
march; the logged sums, added in another order, move only at roundoff
(within 1e-14 relative), and below the split size not at all.

`step_rk4` is the independent check on that propagator: it integrates the
same equations with the curl symbol itself, never its eigenvectors.  The
system is linear and autonomous, so the classical step is the polynomial
R(dt A) = 1 + dt A + (dt A)^2/2 + (dt A)^3/6 + (dt A)^4/24, which it
evaluates in Horner form on the spectrum.  A couples each field only to the
other, so the step splits into a TE half and a TB half: each FFTs its own
field, runs the four Horner stages x + (+-c*dt/j) CURL y, each one fused
symbol pass (the curl entries cached per (operator, grid)), and inverse-FFTs
its own result -- one `fftn` and one `ifftn` per field and step.  A stage
reads all of the other half's previous stage, so the halves meet only
between stages.  From `RK4_SPLIT_SAMPLES` samples per field, and when the
process may use more than one CPU, the TB half runs on a thread started for
the step and a two-party barrier before each stage keeps the halves in step;
numpy's FFTs and array arithmetic release the interpreter lock, so the halves
overlap.  Smaller steps run both halves stage by stage on the calling thread.
Either way every sum is formed in the same order, so the result is the same
bit for bit.  `run_rk4` marches `step_rk4` with `run_spectral`'s counts, log
and dump rules.  Both steppers reject a step whose largest phase c*dt*kmax is
not finite before building anything.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .builders import build_curl_complex, build_curl_ldotgrad, build_div
from .spectral import (GridSpec, TensorField, _fft, _ifft, _relative_residual,
                       apply_operator, apply_symbol, plane_wave,
                       random_bandlimited, symbol_entries)


@dataclass
class EvolutionState:
    """Paired (TE, TB) rank-l spherical fields with time and wave speed."""

    te: TensorField
    tb: TensorField
    t: float
    c: float = 1.0

    def __post_init__(self):
        if self.te.basis != "spherical" or self.tb.basis != "spherical":
            raise ValueError("evolution runs in the spherical component basis")
        self.te._check_compatible(self.tb)
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"wave speed must be positive and finite, got {self.c}")

    @property
    def l(self) -> int:
        return self.te.l

    @property
    def grid(self) -> GridSpec:
        return self.te.grid


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

    def kscale(self) -> np.ndarray:
        """|k| as complex128: a complex array scaled in place by it needs no
        casting loop, and the products are the same bits.  Made per use, so
        the cached propagator holds no second copy of |k|."""
        return self.kabs.astype(np.complex128)

    def phases(self, c: float, dt: float) -> np.ndarray:
        """exp(-i*c*lambda*dt) of every band and mode: one step of z+."""
        return np.exp(-1j * c * dt * self.vals)

    def to_eigen(self, f: TensorField) -> np.ndarray:
        """Band coefficients of a field: FFT, then V^H per mode."""
        x = _fft(f.data).reshape(self.dim, -1)
        _turn(x, self.azimuth, -1)  # components are m = l..-l
        x = self.ly_vecs.conj().T @ x
        _turn(x, self.polar, 1)
        return self.ly_vecs[::-1] @ x  # rows flipped to ascending m

    def to_field(self, coeffs: np.ndarray) -> TensorField:
        """Field of band coefficients: V per mode, then inverse FFT."""
        x = self.ly_vecs[::-1].conj().T @ coeffs
        _turn(x, self.polar, -1)
        x = self.ly_vecs @ x
        _turn(x, self.azimuth, 1)
        x = x.reshape(self.shape)
        return TensorField(self.l, "spherical", self.grid, _ifft(x, out=x))

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


def check_dt(grid: GridSpec, c: float, dt: float) -> float:
    """The largest phase c*dt*kmax a step turns on ``grid``; a ValueError
    naming dt unless it is finite, so no step table overflows."""
    phase = c * dt * _max_wavenumber(grid)
    if not (math.isfinite(dt) and math.isfinite(phase)):
        raise ValueError(f"dt must be finite, as must c*dt*kmax; got dt={dt}, "
                         f"c*dt*kmax={phase}")
    return phase


def step_spectral(state: EvolutionState, dt: float) -> EvolutionState:
    """Advance by the exact per-mode propagator (negative dt steps backward)."""
    return run_spectral(state, dt, 1, log_every=0)[0]


def _pair(prop: _Propagator, state: EvolutionState) -> tuple[np.ndarray, ...]:
    """z+- = a +- ib of the state's TE and TB band coefficients a and b, made
    in the two `to_eigen` buffers, and a scratch array of their shape."""
    zp, zm = prop.to_eigen(state.te), prop.to_eigen(state.tb)
    scratch = np.multiply(zm, 1j)
    np.subtract(zp, scratch, out=zm)
    zp += scratch
    return zp, zm, scratch


def _band_sums(kscale: np.ndarray, zp: np.ndarray, zm: np.ndarray, x: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """Into the rows of `out`, per band: sum |2a|^2, sum |k 2a|^2, sum |2ib|^2
    and sum |k 2ib|^2 over the columns of z+- = a +- ib.  2a and 2ib are
    formed in turn in `x`, so each term is a sum of squares and never cancels;
    `kscale` is |k| at those columns."""
    for i, combine in ((0, np.add), (2, np.subtract)):
        combine(zp, zm, out=x)
        out[i] = [np.vdot(row, row).real for row in x]
        x *= kscale
        out[i + 1] = [np.vdot(row, row).real for row in x]
    return out


def _diag_from_modes(prop: _Propagator, t: float, sums: np.ndarray) -> Diagnostics:
    """Diagnostics from the `_band_sums` of z+- (Parseval).  The divergence
    residual is sqrt(sum_m w_m sum |k x_m|^2 / sum |k x|^2) for x = 2a, 2ib."""
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


def _state(prop: _Propagator, zp: np.ndarray, zm: np.ndarray, scratch: np.ndarray,
           t: float, c: float) -> EvolutionState:
    """The fields at z+-: a = (z+ + z-)/2, then b = (z+ - z-)/(2i), each built
    in `scratch` and transformed back before the next."""
    np.add(zp, zm, out=scratch)
    scratch *= 0.5
    te = prop.to_field(scratch)
    np.subtract(zp, zm, out=scratch)
    scratch *= -0.5j
    return EvolutionState(te, prop.to_field(scratch), t, c)


def _check_run(state, dt, steps, log_every, dump_every) -> None:
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if log_every < 0:
        raise ValueError(f"log_every must be non-negative, got {log_every}")
    if dump_every is not None and dump_every < 1:
        raise ValueError(f"dump_every must be at least 1, got {dump_every}")
    check_dt(state.grid, state.c, dt)


def run_spectral(state: EvolutionState, dt: float, steps: int,
                 log_every: int = 1, dump_every: int | None = None,
                 dump_fn=None) -> tuple[EvolutionState, list[Diagnostics]]:
    """March `steps` spectral steps, staying in eigen coordinates between steps.

    Diagnostics are logged for the initial state, every `log_every` steps and
    the last step; ``log_every=0`` logs none.  With `dump_fn`, the state is
    passed to ``dump_fn(state, step)`` every `dump_every` steps.  From
    `RK4_SPLIT_SAMPLES` samples per field the mode columns march in two
    halves, the second on a thread of its own given a second CPU; they meet
    only to dump (module docstring).
    """
    _check_run(state, dt, steps, log_every, dump_every)
    prop = _propagator(state.grid, state.l)
    zp, zm, scratch = _pair(prop, state)
    # the rotation a' = a cos + b sin, b' = b cos - a sin by theta = c*lambda*dt
    # is z+' = z+ exp(-i theta) and z-' = z- exp(+i theta) for z+- = a +- ib
    forward = prop.phases(state.c, dt)
    kscale = prop.kscale()
    logged = set(range(0, steps + 1, log_every)) | {steps} if log_every else set()
    dumped = dump_every if dump_fn else None
    samples = state.te.data.size
    modes = zp.shape[1]
    # a split that depends on the size alone, so every host logs the same bits
    bounds = (0, modes // 2, modes) if samples >= RK4_SPLIT_SAMPLES else (0, modes)
    sums = np.empty((len(bounds) - 1, len(logged), 4, prop.dim))

    def at(step):
        return state.t + step * dt if step else state.t

    def half(h):
        """Columns h of the march, its sums in sums[h]; it yields before and
        after each dump, which the first half writes meanwhile."""
        cols = slice(bounds[h], bounds[h + 1])
        zp_h, zm_h, x = zp[:, cols], zm[:, cols], scratch[:, cols]
        fwd, bwd = forward[:, cols], forward[::-1, cols]  # band -m turns by -theta
        k_h = kscale[cols]
        out = iter(sums[h])
        if 0 in logged:
            _band_sums(k_h, zp_h, zm_h, x, next(out))
        for step in range(1, steps + 1):
            zp_h *= fwd
            zm_h *= bwd  # forward.conj(), bit for bit
            if step in logged:
                _band_sums(k_h, zp_h, zm_h, x, next(out))
            if dumped and step % dumped == 0:
                yield
                if h == 0:
                    dump_fn(_state(prop, zp, zm, scratch, at(step), state.c), step)
                yield

    _in_step(samples, *(half(h) for h in range(len(bounds) - 1)))
    del forward, kscale  # two arrays less while the fields are rebuilt
    logs = [_diag_from_modes(prop, at(step), s)
            for step, s in zip(sorted(logged), sums.sum(axis=0))]
    return _state(prop, zp, zm, scratch, at(steps), state.c), logs


RK4_STABILITY_BOUND = 2.8
# Samples per field, (2l+1) n^3, from which step_rk4 and run_spectral split:
# on 2 cores the split step took 1.5-1.7x the serial time at 16^3, l = 1,
# 0.97-1.16x at 20^3, l = 1, 0.83-0.85x at 20^3, l = 2 and 0.58-0.62x at
# 32^3, l = 1; 200 logged run_spectral steps in two halves took 1.55x at
# 16^3, l = 2, 1.29x at 20^3, l = 1, 0.84x at 20^3, l = 2 and 0.58x at
# 32^3, l = 1
RK4_SPLIT_SAMPLES = 2 ** 15


def _max_wavenumber(grid: GridSpec) -> float:
    return float(np.sqrt(sum(np.max(np.abs(grid.deriv_k_axis(a))) ** 2
                             for a in range(3))))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def step_rk4(state: EvolutionState, dt: float) -> EvolutionState:
    """Classical 4th-order step; cross-validates the exact propagator.

    From `RK4_SPLIT_SAMPLES` samples per field, given a second CPU, the TB
    half runs on a thread joined before this returns (module docstring).
    """
    phase = check_dt(state.grid, state.c, dt)
    if abs(phase) >= RK4_STABILITY_BOUND:  # |R(i*theta)| is even in theta
        warnings.warn(
            f"rk4 step dt*c*kmax = {phase:.3f}"
            f" exceeds the stability bound {RK4_STABILITY_BOUND}",
            RuntimeWarning, stacklevel=2)
    curl = build_curl_ldotgrad(state.l)
    grid = state.grid
    fields = (state.te.data, state.tb.data)
    # x holds the (TE, TB) spectra; d/dt x = A x = (+c CURL x[1], -c CURL x[0])
    x = np.empty((2,) + fields[0].shape, dtype=np.complex128)
    nxt = (np.empty_like(x), np.empty_like(x))

    def half(h):
        """Field h's part of the step; it yields where it needs all of the
        other half's previous stage, and leaves its result in nxt[1][h]."""
        _fft(fields[h], out=x[h])
        # R(dt A) x in Horner form (module docstring): y <- x + (dt/j) A y for
        # j = 4, 3, 2, 1, from y = x itself.  Each stage writes to whichever
        # of two buffers the stage before it did not: while it runs, the
        # other half still reads this half's previous stage
        y = x
        for i, j in enumerate((4, 3, 2, 1)):
            yield
            weight = state.c * dt / j
            out = nxt[i % 2]
            apply_symbol(curl, grid, y[1 - h], out=out[h],
                         scale=-weight if h else weight, base=x[h])
            y = out
        _ifft(y[h], out=y[h])

    symbol_entries(curl, grid)  # cached here, or both halves would build it
    _in_step(fields[0].size, half(0), half(1))
    te, tb = nxt[1]
    return EvolutionState(TensorField(state.l, "spherical", grid, te),
                          TensorField(state.l, "spherical", grid, tb),
                          state.t + dt, state.c)


def run_rk4(state: EvolutionState, dt: float, steps: int,
            log_every: int = 1, dump_every: int | None = None,
            dump_fn=None) -> tuple[EvolutionState, list[Diagnostics]]:
    """March `steps` `step_rk4` steps; logs and dumps as `run_spectral` does."""
    _check_run(state, dt, steps, log_every, dump_every)
    logs = [diagnostics(state)] if log_every else []
    for step in range(1, steps + 1):
        state = step_rk4(state, dt)
        if log_every and (step % log_every == 0 or step == steps):
            logs.append(diagnostics(state))
        if dump_every and dump_fn and step % dump_every == 0:
            dump_fn(state, step)
    return state, logs


def _in_step(samples: int, *halves) -> None:
    """Run the generators `halves` in step: from `RK4_SPLIT_SAMPLES` samples
    per field, and when the process may use more than one CPU, the second of
    two on a thread of its own (`_run_paired`); else in turn on this thread."""
    if samples >= RK4_SPLIT_SAMPLES and _cpu_count() > 1:
        _run_paired(*halves)
    else:
        for _ in zip_longest(*halves):
            pass


def _run_paired(first, second) -> None:
    """Run two generators, `second` on a thread of its own, each resuming
    only when both have reached the same yield.  An exception in either is
    raised here, after the thread has ended."""
    barrier = threading.Barrier(2)
    failed = []

    def drain(gen):
        for _ in gen:
            barrier.wait()

    def run_second():
        try:
            drain(second)
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)
            barrier.abort()

    worker = threading.Thread(target=run_second, name="curlmat-second-half")
    worker.start()
    try:
        drain(first)
    except threading.BrokenBarrierError:
        pass  # only `run_second` aborts while this thread waits; its error is below
    except BaseException:
        barrier.abort()
        raise
    finally:
        worker.join()
    if failed:
        raise failed[0]


def diagnostics(state: EvolutionState) -> Diagnostics:
    prop = _propagator(state.grid, state.l)
    sums = _band_sums(prop.kscale(), *_pair(prop, state), np.empty((4, prop.dim)))
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
    """Random band-limited data projected onto the divergence-free bands."""
    prop = _propagator(grid, l)
    fields = []
    for offset in (0, 1):
        raw = random_bandlimited(grid, l, "spherical", kcut, seed=seed + offset)
        fields.append(prop.to_field(prop.constraint_project(prop.to_eigen(raw))))
    return EvolutionState(fields[0], fields[1], 0.0, c)
