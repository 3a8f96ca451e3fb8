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
step multiplies z+ by exp(-i*c*lambda*dt) and z- by its conjugate, and the
diagnostics read energy, band amplitudes and divergence straight from the
coefficients.  Fields are rebuilt only to dump a state and at the end.

`step_rk4` is the independent check on that propagator: it integrates the
same equations with the curl symbol itself, never its eigenvectors.  The
system is linear and autonomous, so the classical step is the polynomial
R(dt A) = 1 + dt A + (dt A)^2/2 + (dt A)^3/6 + (dt A)^4/24, which it
evaluates in Horner form on the spectrum: one FFT call of the stacked
(TE, TB) fields, four Horner stages, each one fused symbol pass per half
(x + (+-c*dt/j) CURL y, the curl entries cached per (operator, grid)), one
stacked inverse FFT: 2 FFT calls per step.  Both steppers reject a step
whose largest phase c*dt*kmax is not finite before building anything.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .builders import build_curl_complex, build_curl_ldotgrad, build_div
from .spectral import (GridSpec, TensorField, _fft, _ifft, _relative_residual,
                       apply_operator, apply_symbol, plane_wave,
                       random_bandlimited)


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
        self.k2 = kx ** 2 + ky ** 2 + kz ** 2
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
        return np.multiply.outer(self.m, np.sqrt(self.k2)) / self.l

    def to_eigen(self, f: TensorField) -> np.ndarray:
        """Band coefficients of a field: FFT, then V^H per mode."""
        x = _fft(f.data).reshape(self.dim, -1)
        x *= self.azimuth ** self.m[::-1, None]  # components are m = l..-l
        x = self.ly_vecs.conj().T @ x
        x *= self.polar ** self.m[:, None]
        return self.ly_vecs[::-1] @ x  # rows flipped to ascending m

    def to_field(self, coeffs: np.ndarray) -> TensorField:
        """Field of band coefficients: V per mode, then inverse FFT."""
        x = self.ly_vecs[::-1].conj().T @ coeffs
        x *= self.polar ** -self.m[:, None]
        x = self.ly_vecs @ x
        x *= self.azimuth ** -self.m[::-1, None]
        x = x.reshape(self.shape)
        return TensorField(self.l, "spherical", self.grid, _ifft(x, out=x))

    def div_residual(self, coeffs: np.ndarray) -> float:
        grad = np.abs(coeffs) ** 2 @ self.k2  # per band, sum of |k|^2 |a_m|^2
        scale = grad.sum()
        return float(np.sqrt(self.div_weight @ grad / scale)) if scale > 0 else 0.0

    def constraint_project(self, coeffs: np.ndarray) -> np.ndarray:
        """Keep only the divergence-free bands (m = +/-l) for k != 0 modes."""
        coeffs[1:-1, self.k2 != 0] = 0
        return coeffs


_propagator = lru_cache(maxsize=4)(_Propagator)


def check_dt(grid: GridSpec, c: float, dt: float) -> float:
    """The largest phase c*dt*kmax a step turns on ``grid``; a ValueError
    naming dt unless it is finite, so no step table overflows."""
    phase = c * dt * _max_wavenumber(grid)
    if not (math.isfinite(dt) and math.isfinite(phase)):
        raise ValueError(f"dt must be finite, as must c*dt*kmax; got dt={dt}, "
                         f"c*dt*kmax={phase}")
    return phase


def _split(zp: np.ndarray, zm: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Write a and b from z+- = a +- ib into the given arrays."""
    # in place: a fresh array per logged step costs more than the arithmetic
    np.add(zp, zm, out=a)
    a *= 0.5
    np.subtract(zp, zm, out=b)
    b *= -0.5j


def step_spectral(state: EvolutionState, dt: float) -> EvolutionState:
    """Advance by the exact per-mode propagator (negative dt steps backward)."""
    return run_spectral(state, dt, 1, log_every=0)[0]


def _diag_from_modes(prop: _Propagator, t: float, a: np.ndarray,
                     b: np.ndarray) -> Diagnostics:
    """Diagnostics from the TE and TB eigen coefficients a and b (Parseval)."""
    band_power = prop.mode_weight * np.array([np.vdot(row, row).real for row in a])
    return Diagnostics(
        t=t,
        energy=float(band_power.sum() + prop.mode_weight * np.vdot(b, b).real),
        div_te=prop.div_residual(a),
        div_tb=prop.div_residual(b),
        band_te=tuple(float(v) for v in np.sqrt(band_power)),
    )


def run_spectral(state: EvolutionState, dt: float, steps: int,
                 log_every: int = 1, dump_every: int | None = None,
                 dump_fn=None) -> tuple[EvolutionState, list[Diagnostics]]:
    """March `steps` spectral steps, staying in eigen coordinates between steps.

    Diagnostics are logged for the initial state, every `log_every` steps and
    the last step; ``log_every=0`` logs none.
    """
    check_dt(state.grid, state.c, dt)
    prop = _propagator(state.grid, state.l)
    a, b = prop.to_eigen(state.te), prop.to_eigen(state.tb)
    logs = [_diag_from_modes(prop, state.t, a, b)] if log_every else []
    # the rotation a' = a cos + b sin, b' = b cos - a sin by theta = c*lambda*dt
    # is z+' = z+ exp(-i theta) and z-' = z- exp(+i theta) for z+- = a +- ib
    zp, zm = a + 1j * b, a - 1j * b
    forward = np.exp(-1j * state.c * dt * prop.vals)
    backward = forward.conj()
    t = state.t
    for step in range(1, steps + 1):
        zp *= forward
        zm *= backward
        t = state.t + step * dt
        log = log_every and (step % log_every == 0 or step == steps)
        dump = dump_every and dump_fn and step % dump_every == 0
        if log or dump:
            _split(zp, zm, a, b)
        if log:
            logs.append(_diag_from_modes(prop, t, a, b))
        if dump:
            dump_fn(EvolutionState(prop.to_field(a), prop.to_field(b), t, state.c), step)
    _split(zp, zm, a, b)
    final = EvolutionState(prop.to_field(a), prop.to_field(b), t, state.c)
    return final, logs


RK4_STABILITY_BOUND = 2.8


def _max_wavenumber(grid: GridSpec) -> float:
    return float(np.sqrt(sum(np.max(np.abs(grid.deriv_k_axis(a))) ** 2
                             for a in range(3))))


def step_rk4(state: EvolutionState, dt: float) -> EvolutionState:
    """Classical 4th-order step; cross-validates the exact propagator."""
    phase = check_dt(state.grid, state.c, dt)
    if abs(phase) >= RK4_STABILITY_BOUND:  # |R(i*theta)| is even in theta
        warnings.warn(
            f"rk4 step dt*c*kmax = {phase:.3f}"
            f" exceeds the stability bound {RK4_STABILITY_BOUND}",
            RuntimeWarning, stacklevel=2)
    curl = build_curl_ldotgrad(state.l)
    grid = state.grid
    # x holds the (TE, TB) spectra; d/dt x = A x = (+c CURL x[1], -c CURL x[0])
    x = np.stack([state.te.data, state.tb.data])
    _fft(x, out=x)
    # R(dt A) x in Horner form (module docstring): y <- x + (dt/j) A y for
    # j = 4, 3, 2, 1, from y = x itself.  Each stage is one fused symbol pass
    # per half, x + (+-c*dt/j) CURL y, written to whichever of two buffers
    # the stage does not read
    y, nxt = x, (np.empty_like(x), np.empty_like(x))
    for i, j in enumerate((4, 3, 2, 1)):
        weight = state.c * dt / j
        out = nxt[i % 2]
        apply_symbol(curl, grid, y[1], out=out[0], scale=weight, base=x[0])
        apply_symbol(curl, grid, y[0], out=out[1], scale=-weight, base=x[1])
        y = out
    te, tb = _ifft(y, out=y)
    return EvolutionState(TensorField(state.l, "spherical", grid, te),
                          TensorField(state.l, "spherical", grid, tb),
                          state.t + dt, state.c)


def diagnostics(state: EvolutionState) -> Diagnostics:
    prop = _propagator(state.grid, state.l)
    return _diag_from_modes(prop, state.t,
                            prop.to_eigen(state.te), prop.to_eigen(state.tb))


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
