"""Time evolution of the paired spin-l free-field equations.

The system couples two rank-l spherical fields through the curl:
d/dt TE = +c * CURL TB and d/dt TB = -c * CURL TE, with both fields
divergence-free as an initial-value constraint.  In the complex fields
F+- = TE +- i*TB the pair decouples, d/dt F+- = -+i*c*CURL F+-.

An `EvolutionState` is one immutable value: the read-only spectra of F+-,
with l, grid, t and c.  Built from fields, it takes one `fftn` of each and
keeps no reference to them; its fields, TE = (F+ + F-)/2 and
TB = (F+ - F-)/(2i), are made together by one inverse FFT of the pair when
either is first read, and kept, read-only.  Every state a driver returns is
built from spectra, so no driver transforms a field: a march that reads no
field makes no FFT.

The spectral stepper is exact per Fourier mode: the curl symbol (L.k)/l is
diagonalised by the rotation V(k) = exp(-i*phi*Lz) exp(-i*theta*Ly) taking
z^ to k^, column m being helicity band m with eigenvalue lambda = m|k|/l,
and each mode turns by c*lambda*dt -- energy is conserved to roundoff and
steps are exactly reversible.  `run_spectral` takes the F+- spectra to band
coefficients once -- the frame is linear, so they are z+- = a +- ib for
the TE and TB coefficients a and b -- and marches those: a step multiplies
z+ in place by exp(-i*c*lambda*dt) and z- by its conjugate, the same table
read with its bands reversed (lambda is odd in m).  A logged step reads
energy, band amplitudes and divergence from z+ + z- = 2a and z+ - z- = 2ib,
each formed once in a scratch row, never from the expansion
|z+|^2 + |z-|^2 +- 2 Re(z+ conj z-), which cancels when one field is near
zero.  A dumped state and the final one are F+- = V z+- per mode.  No step
couples two band rows or two modes, so the march takes one band row at a
time -- its z+ and z- rows, their two rows of the table, |k| and one scratch
row, small enough to stay in cache -- and turns it through every step up to
the next event, a logged step or a dump; at a logged step it sums that row's
|2a|^2 and |2ib|^2, bare and weighted by |k|^2, before it moves to the next
row.  From `SPECTRAL_SPLIT_MODES` modes per field the mode columns march in
two halves, each row by row on its own, and the calling thread adds the
halves' sums after the march.  Given a second CPU the second half runs on a
thread of its own, else the halves run in turn.  They never meet: both
march to a dump and return, the calling thread builds it, and both start
again from there.  Where the columns split depends on the size alone, so
every host logs the same bits.  States are the bits of a whole-array march;
the logged sums, added in another order, move only at roundoff (within
1e-14 relative), and below the split size not at all.

`step_rk4` is the independent check on that propagator: it integrates the
same equations with the curl symbol itself, never its eigenvectors.  The
system is linear and autonomous, so the classical step is the polynomial
R(dt A) = 1 + dt A + (dt A)^2/2 + (dt A)^3/6 + (dt A)^4/24, the same for
every step of one (l, grid, c*dt).  `_rk4_table` builds R = R(-i*c*dt*CURL),
F+'s step, once per mode and caches it: column j is the four Horner stages
x + (-i*c*dt/k) CURL y, k = 4, 3, 2, 1, run on the unit spectrum of
component j, so the Horner form stays R's one definition and the table
comes from the curl symbol alone.  The curl symbol is Hermitian at every
mode, so F-'s step R(+i*c*dt*CURL) is R^H, read from the same table as
conj(R^T conj(x)): one table is held, (2l+1)^2 complex values per mode
(4.7 MB at 32^3, l = 1; 13 MB at l = 2), rebuilt when l, the grid or c*dt
changes.  The step is an F+ half and an F- half that never read each other:
each is one pass over the table and the state's own spectrum (`_rk4_pass`)
and checks that its result is finite; the new spectra are the new state.
From `RK4_SPLIT_SAMPLES` samples per field, and when the process may use
more than one CPU, the F- half runs on a thread started for the step;
numpy's array arithmetic releases the interpreter lock, so the halves
overlap.  Smaller steps run the halves in turn on the calling thread.
Either way each half makes the same sums in the same order, so the result
is the same bit for bit.  `run_rk4` marches `step_rk4` with `run_spectral`'s
counts, log and dump rules.  Both steppers reject a step whose largest phase
c*dt*kmax, or whose end time, is not finite before building anything.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .builders import build_curl_complex, build_curl_ldotgrad, build_div
from .spectral import (GridSpec, TensorField, _fft, _ifft, _in_step, _relative_residual,
                       apply_operator, apply_symbol, plane_wave, random_bandlimited)


@dataclass(frozen=True, eq=False, init=False)
class EvolutionState:
    """Paired (TE, TB) rank-l spherical fields at time t with wave speed c,
    held as the read-only spectra of F+- = TE +- i*TB.

    `EvolutionState(te, tb, t, c)` checks the fields and takes one `fftn` of
    each.  `te` and `tb` are made from the spectra together, by one inverse
    FFT of the pair, on first read, and kept.  Nothing about a state can
    change: no attribute can be assigned, and every array it hands out is
    read-only.  A copy is the state itself.
    """

    l: int
    grid: GridSpec
    t: float
    c: float

    def __init__(self, te: TensorField, tb: TensorField, t: float, c: float = 1.0):
        if te.basis != "spherical" or tb.basis != "spherical":
            raise ValueError("evolution runs in the spherical component basis")
        te._check_compatible(tb)
        spectra = np.empty((2,) + te.data.shape, dtype=np.complex128)
        for h, f in enumerate((te, tb)):
            _fft(f.data, out=spectra[h])
        _plus_minus(*spectra)
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
        _ifft(pair, out=pair, split=True)
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

    def kscale(self) -> np.ndarray:
        """|k| as complex128: a complex array scaled in place by it needs no
        casting loop, and the products are the same bits.  Made per use, so
        the cached propagator holds no second copy of |k|."""
        return self.kabs.astype(np.complex128)

    def phases(self, c: float, dt: float) -> np.ndarray:
        """exp(-i*c*lambda*dt) of every band and mode: one step of z+."""
        return np.exp(-1j * c * dt * self.vals)

    def to_eigen(self, spectrum: np.ndarray) -> np.ndarray:
        """Band coefficients of a field's spectrum: V^H per mode.  The
        spectrum is overwritten."""
        x = spectrum.reshape(self.dim, -1)
        _turn(x, self.azimuth, -1)  # components are m = l..-l
        x = self.ly_vecs.conj().T @ x
        _turn(x, self.polar, 1)
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


def _pair(prop: _Propagator, state: EvolutionState) -> tuple[np.ndarray, ...]:
    """z+- = a +- ib of the state's TE and TB band coefficients a and b, and a
    scratch array of their shape.  The band frame is linear, so z+- are
    copies of the state's F+- spectra taken to it."""
    zp, zm = (prop.to_eigen(s.copy()) for s in state._spectra)
    return zp, zm, np.empty_like(zp)


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


def _band_sums(kscale: np.ndarray, zp: np.ndarray, zm: np.ndarray, x: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """The `_row_sums` of every band row of z+-, x their scratch, into the
    columns of `out`."""
    for r in range(len(zp)):
        _row_sums(kscale, zp[r], zm[r], x[r], out[:, r])
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


def _check_run(state, dt, steps, log_every, dump_every) -> None:
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if log_every < 0:
        raise ValueError(f"log_every must be non-negative, got {log_every}")
    if dump_every is not None and dump_every < 1:
        raise ValueError(f"dump_every must be at least 1, got {dump_every}")
    check_dt(state.grid, state.c, dt, state.t, steps)


def run_spectral(state: EvolutionState, dt: float, steps: int,
                 log_every: int = 1, dump_every: int | None = None,
                 dump_fn=None) -> tuple[EvolutionState, list[Diagnostics]]:
    """March `steps` spectral steps, staying in eigen coordinates between steps.

    Diagnostics are logged for the initial state, every `log_every` steps and
    the last step; ``log_every=0`` logs none.  With `dump_fn`, the state is
    passed to ``dump_fn(state, step)`` every `dump_every` steps.  The run
    makes no FFT: the state's F+- spectra go to the band frame, and each
    dumped state and the final one are F+- = V z+-.  Each band row is turned
    from event to event (a log or a dump) while it is in cache.  From
    `SPECTRAL_SPLIT_MODES` modes per field the mode columns march in two
    halves, the second on a thread of its own given a second CPU; both
    return at each dump, which this thread builds (module docstring).
    """
    _check_run(state, dt, steps, log_every, dump_every)
    prop = _propagator(state.grid, state.l)
    zp, zm, scratch = _pair(prop, state)
    # the rotation a' = a cos + b sin, b' = b cos - a sin by theta = c*lambda*dt
    # is z+' = z+ exp(-i theta) and z-' = z- exp(+i theta) for z+- = a +- ib
    forward = prop.phases(state.c, dt)
    kscale = prop.kscale()
    logged = set(range(0, steps + 1, log_every)) | {steps} if log_every else set()
    dumps = set(range(dump_every, steps + 1, dump_every)) if dump_fn and dump_every else set()
    events = sorted(logged | dumps | {steps})
    modes = zp.shape[1]
    # a split that depends on the size alone, so every host logs the same bits
    split = modes >= SPECTRAL_SPLIT_MODES
    bounds = (0, modes // 2, modes) if split else (0, modes)
    sums = np.empty((len(bounds) - 1, len(logged), 4, prop.dim))

    def at(step):
        return state.t + step * dt if step else state.t

    def half(h, start, segment):
        """Columns h of the march from step `start` through the events of
        `segment`, its sums in sums[h].  Band row by band row, it turns each
        row to the next event and, at a log, sums it while it is still in
        cache."""
        cols = slice(bounds[h], bounds[h + 1])
        # band -m turns by -theta: row r of z- by row dim-1-r of the table
        rows = [(zp[r, cols], zm[r, cols], forward[r, cols], forward[-1 - r, cols],
                 scratch[r, cols]) for r in range(prop.dim)]
        k_h = kscale[cols]
        out = dict(zip(sorted(logged), sums[h]))
        done = start
        for event in segment:
            at_event = out.get(event)
            for r, (zp_r, zm_r, fwd, bwd, x) in enumerate(rows):
                for _ in range(done, event):
                    zp_r *= fwd
                    zm_r *= bwd  # forward.conj(), bit for bit
                if at_event is not None:
                    _row_sums(k_h, zp_r, zm_r, x, at_event[:, r])
            done = event

    start, segment = 0, []
    for event in events:  # the halves march from dump to dump
        segment.append(event)
        if event in dumps or event == steps:
            _in_step(split, *(partial(half, h, start, segment)
                              for h in range(len(bounds) - 1)))
            if event in dumps:
                dump_fn(_state(prop, zp, zm, at(event), state.c), event)
            start, segment = event, []
    del forward, kscale, scratch  # three arrays less while the final spectra are built
    logs = [_diag_from_modes(prop, at(step), s)
            for step, s in zip(sorted(logged), sums.sum(axis=0))]
    return _state(prop, zp, zm, at(steps), state.c), logs


RK4_STABILITY_BOUND = 2.8
# Samples per field, (2l+1) n^3, from which step_rk4 splits.  A half is one
# table pass, about 1 ms at 32^3, l = 1, so the thread start a split step
# makes pays only on large grids: on 2 cores the split step took 2.9x the
# serial time at 16^3, l = 1, 1.8x at 20^3, l = 1, 1.3x at 20^3, l = 2,
# 1.15x at 24^3, l = 1, 0.96-0.98x at 26^3, l = 1 and 22^3, l = 2 (53,000
# samples), 0.84-0.95x at 28^3, l = 1, 0.86x at 24^3, l = 2, 0.53x at
# 28^3, l = 2 and 0.60-0.65x at 32^3, l = 1 and 2 (medians of 15 blocks)
RK4_SPLIT_SAMPLES = 2 ** 16
# Modes per field, n^3, from which run_spectral splits.  Its march makes ten
# calls per band row and logged step, each over the half's modes, so the
# split pays once those calls are long, whatever l is: 200 logged steps in
# two halves took 2.6-3.2x the serial time at 16^3, l = 2, 1.5-2.6x at
# 20^3, 1.4-1.6x at 24^3, 0.9-1.1x at 26^3, 0.8-1.15x at 28^3, 0.72x at
# 30^3 and 0.60-0.77x at 32^3, each for l = 1 and 2
SPECTRAL_SPLIT_MODES = 20_000


@lru_cache(maxsize=16)
def _max_wavenumber(grid: GridSpec) -> float:
    return float(np.sqrt(sum(np.max(np.abs(grid.deriv_k_axis(a))) ** 2
                             for a in range(3))))


def step_rk4(state: EvolutionState, dt: float) -> EvolutionState:
    """Classical 4th-order step; cross-validates the exact propagator.

    Each half is one pass over the cached one-step table R(-i*c*dt*CURL)
    (`_rk4_table`) and the state's spectrum: F+ is R F+ and F- is R^H F-
    (module docstring).  The new spectra are the returned state, so a step
    makes no FFT; its fields cost one inverse FFT of the pair if read.  A
    kept state costs its spectra pair, and its field pair as well once read.
    A ValueError is raised for a dt whose phase c*dt*kmax or new time t + dt
    is not finite, and at the step whose new spectra hold a value that is
    not.  From `RK4_SPLIT_SAMPLES` samples per field, given a second CPU,
    the F- half runs on a thread joined before this returns.
    """
    phase = check_dt(state.grid, state.c, dt, state.t)
    if abs(phase) >= RK4_STABILITY_BOUND:  # |R(i*theta)| is even in theta
        warnings.warn(
            f"rk4 step dt*c*kmax = {phase:.3f}"
            f" exceeds the stability bound {RK4_STABILITY_BOUND}",
            RuntimeWarning, stacklevel=2)
    grid = state.grid
    table = _rk4_table(state.l, grid, state.c * dt)  # here, or both halves would build it
    x = state._spectra
    out = np.empty_like(x)

    def half(h):
        """F+ (h = 0) or F- part of the step, left in out[h]."""
        y = _rk4_pass(table, x[h], out[h], adjoint=bool(h))
        if not np.isfinite(y.view(np.float64)).all():  # twice as fast as on complex
            raise ValueError("field contains non-finite samples")

    _in_step(x[0].size >= RK4_SPLIT_SAMPLES, partial(half, 0), partial(half, 1))
    out.flags.writeable = False
    return EvolutionState._of_spectra(out, state.l, grid, state.t + dt, state.c)


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
    in turn, so a half makes the same bits on any thread."""
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
    """March `steps` `step_rk4` steps; logs and dumps as `run_spectral` does.
    Every step and log reads the states' spectra, so the run makes no FFT
    unless `dump_fn` reads a field; with no step, `state` itself is returned."""
    _check_run(state, dt, steps, log_every, dump_every)
    logs = [diagnostics(state)] if log_every else []
    for step in range(1, steps + 1):
        state = step_rk4(state, dt)
        if log_every and (step % log_every == 0 or step == steps):
            logs.append(diagnostics(state))
        if dump_every and dump_fn and step % dump_every == 0:
            dump_fn(state, step)
    return state, logs


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
    """Random band-limited data projected onto the divergence-free bands:
    TE's and TB's band coefficients a and b, each projected there, paired as
    z+- = a +- ib and taken back to F+- spectra."""
    prop = _propagator(grid, l)

    def bands(h):
        raw = random_bandlimited(grid, l, "spherical", kcut, seed=seed + h)
        return prop.constraint_project(prop.to_eigen(_fft(raw.data)))

    zp, zm = bands(0), bands(1)
    _plus_minus(zp, zm)
    return _state(prop, zp, zm, 0.0, c)
