import warnings

import numpy as np
import pytest

from curlmat import evolve, spectral
from curlmat.angular import MAX_SPIN
from curlmat.builders import (build_curl_complex, build_curl_ldotgrad, build_div,
                              cartesian_div, cartesian_transform, to_cartesian)
from curlmat.evolve import (EvolutionState, RK4_STABILITY_BOUND, _Propagator,
                            _diag_from_modes, complex_curl_residual, diagnostics,
                            plane_wave_state, random_state, run_spectral,
                            step_rk4, step_spectral)
from curlmat.spectral import (GridSpec, TensorField, _fft, apply_operator,
                              gradient_scale, plane_wave, random_bandlimited,
                              wavevector)

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def grid():
    return GridSpec((16, 16, 16), (TWO_PI, TWO_PI, TWO_PI))


def measure_frequency(state: EvolutionState, steps: int, dt: float) -> float:
    """Phase-slope estimate of the TE oscillation frequency."""
    ref = state.te.data
    norm = np.vdot(ref, ref)
    phases = [0.0]
    times = [state.t]
    cur = state
    for _ in range(steps):
        cur = step_spectral(cur, dt)
        phases.append(float(np.angle(np.vdot(ref, cur.te.data) / norm)))
        times.append(cur.t)
    unwrapped = np.unwrap(phases)
    slope = np.polyfit(times, unwrapped, 1)[0]
    return -float(slope)  # exp(-i*omega*t) convention


class TestDispersion:
    @pytest.mark.parametrize("l,m,jvec", [(1, 1, (1, 2, 0)), (1, -1, (2, 0, 1)),
                                          (2, 2, (0, 1, 1)), (2, -2, (1, 0, 2)),
                                          (2, 1, (1, 1, 0))])
    def test_plane_wave_frequency(self, grid, l, m, jvec):
        c = 1.0
        state = plane_wave_state(grid, l, m, jvec, c=c)
        k = np.linalg.norm(wavevector(grid, jvec))
        expected = c * m * k / l
        dt = 0.02 * TWO_PI / abs(expected)
        measured = measure_frequency(state, 100, dt)
        assert abs(measured - expected) <= 1e-8

    def test_wave_speed_scales_frequency(self, grid):
        state = plane_wave_state(grid, 1, 1, (2, 0, 0), c=3.0)
        k = np.linalg.norm(wavevector(grid, (2, 0, 0)))
        dt = 0.02 * TWO_PI / (3.0 * k)
        measured = measure_frequency(state, 60, dt)
        assert abs(measured - 3.0 * k) <= 1e-8


class TestSpectralStepper:
    def test_zero_stays_zero(self, grid):
        zero = TensorField.zeros(grid, 1, "spherical")
        state = EvolutionState(zero, zero.copy(), 0.0, 1.0)
        out = step_spectral(state, 0.37)
        assert out.te.norm() == 0.0 and out.tb.norm() == 0.0

    def test_energy_conservation(self, grid):
        state = random_state(grid, 1, seed=42)
        _, logs = run_spectral(state, 0.05, 300)
        energies = np.array([d.energy for d in logs])
        drift = np.abs(energies - energies[0]).max() / energies[0]
        assert drift <= 1e-10

    def test_energy_conservation_hundred_crossings(self):
        # one box-crossing takes box/c = 2*pi; cover 100 of them
        small = GridSpec((8, 8, 8), (TWO_PI, TWO_PI, TWO_PI))
        state = random_state(small, 2, seed=6)
        crossings = 100
        dt = 0.5
        steps = int(np.ceil(crossings * TWO_PI / dt))
        _, logs = run_spectral(state, dt, steps, log_every=25)
        energies = np.array([d.energy for d in logs])
        drift = np.abs(energies - energies[0]).max() / energies[0]
        assert drift <= 1e-10

    @pytest.mark.parametrize("l", (1, 2))
    def test_constraints_preserved(self, grid, l):
        state = random_state(grid, l, seed=7)
        final, logs = run_spectral(state, 0.04, 200, log_every=20)
        assert max(d.div_te for d in logs) <= 1e-10
        assert max(d.div_tb for d in logs) <= 1e-10

    def test_time_reversibility(self, grid):
        state = random_state(grid, 2, seed=3)
        cur = state
        for _ in range(50):
            cur = step_spectral(cur, 0.07)
        for _ in range(50):
            cur = step_spectral(cur, -0.07)
        assert (cur.te - state.te).norm() <= 1e-11 * state.te.norm()
        assert (cur.tb - state.tb).norm() <= 1e-11 * state.tb.norm()

    def test_zero_frequency_band_constant(self, grid):
        l, jvec = 1, (0, 0, 2)
        te = plane_wave(grid, l, 0, jvec) + plane_wave(grid, l, 1, jvec)
        state = EvolutionState(te, TensorField.zeros(grid, l, "spherical"),
                               0.0, 1.0)
        start = diagnostics(state)
        _, logs = run_spectral(state, 0.11, 40, log_every=10)
        m0 = l + 0  # band index of m = 0
        for d in logs:
            assert abs(d.band_te[m0] - start.band_te[m0]) <= 1e-12
        # the moving band must actually oscillate, or the check is vacuous
        band1 = [d.band_te[l + 1] for d in logs]
        assert max(band1) - min(band1) > 1e-3


def rk4_by_apply_operator(state: EvolutionState, dt: float) -> EvolutionState:
    """Reference RK4 step: every stage is a real-space apply_operator call."""
    curl, c = build_curl_ldotgrad(state.l), state.c

    def rhs(te, tb):
        return apply_operator(curl, tb) * c, apply_operator(curl, te) * (-c)

    te, tb = state.te, state.tb
    k1e, k1b = rhs(te, tb)
    k2e, k2b = rhs(te + k1e * (dt / 2), tb + k1b * (dt / 2))
    k3e, k3b = rhs(te + k2e * (dt / 2), tb + k2b * (dt / 2))
    k4e, k4b = rhs(te + k3e * dt, tb + k3b * dt)
    te = te + (k1e + k2e * 2 + k3e * 2 + k4e) * (dt / 6)
    tb = tb + (k1b + k2b * 2 + k3b * 2 + k4b) * (dt / 6)
    return EvolutionState(te, tb, state.t + dt, c)


class TestRk4:
    @pytest.mark.parametrize("l", [1, 2])
    def test_matches_apply_operator_reference(self, grid, l):
        # an unprojected state, so the divergence bands move too
        state = EvolutionState(random_bandlimited(grid, l, "spherical", seed=40),
                               random_bandlimited(grid, l, "spherical", seed=41),
                               0.3, 1.7)
        fast, ref = state, state
        for _ in range(3):
            fast, ref = step_rk4(fast, 0.05), rk4_by_apply_operator(ref, 0.05)
        assert fast.t == ref.t and fast.c == ref.c
        for got, want in ((fast.te, ref.te), (fast.tb, ref.tb)):
            assert (got - want).norm() <= 1e-12 * want.norm()
        # the step must have moved the state, or the comparison is vacuous
        assert (fast.te - state.te).norm() > 1e-2 * state.te.norm()

    def test_leaves_input_alone(self, grid):
        state = random_state(grid, 1, seed=42)
        te, tb = state.te.data.copy(), state.tb.data.copy()
        new = step_rk4(state, 0.05)
        assert np.array_equal(state.te.data, te) and np.array_equal(state.tb.data, tb)
        for out in (new.te.data, new.tb.data):
            for inp in (state.te.data, state.tb.data):
                assert not np.shares_memory(out, inp)

    def test_two_fft_calls_per_step_and_no_apply_operator(self, grid, monkeypatch):
        state = random_state(grid, 1, seed=44)
        calls = []
        for name in ("fftn", "ifftn"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)

        def forbidden(*args, **kwargs):
            raise AssertionError("step_rk4 goes through the cached curl symbol only")
        for module in (spectral, evolve):
            monkeypatch.setattr(module, "apply_operator", forbidden)
        monkeypatch.setattr(evolve, "_propagator", forbidden)  # the eigenvectors
        for _ in range(3):
            state = step_rk4(state, 0.05)
        assert calls == ["fftn", "ifftn"] * 3

    def test_order_of_convergence(self, grid):
        state = plane_wave_state(grid, 1, 1, (1, 0, 0))
        omega = np.linalg.norm(wavevector(grid, (1, 0, 0)))
        total = 0.25 * TWO_PI / omega
        errors = []
        for nsteps in (8, 16, 32):
            dt = total / nsteps
            cur = state
            for _ in range(nsteps):
                cur = step_rk4(cur, dt)
            exact = step_spectral(state, total)
            errors.append((cur.te - exact.te).norm())
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 4.0) <= 0.2

    def test_small_step_agrees_with_spectral(self, grid):
        state = plane_wave_state(grid, 1, 1, (1, 1, 0))
        omega = np.linalg.norm(wavevector(grid, (1, 1, 0)))
        dt = 1e-3 * TWO_PI / omega
        a = step_rk4(state, dt)
        b = step_spectral(state, dt)
        assert (a.te - b.te).norm() <= 1e-10 * state.te.norm()
        assert (a.tb - b.tb).norm() <= 1e-10 * state.tb.norm()

    def test_stability_warning(self, grid):
        state = plane_wave_state(grid, 1, 1, (1, 0, 0))
        kmax = np.sqrt(3) * 7  # largest non-Nyquist wavenumber on 16^3, box 2*pi
        bad_dt = 1.05 * RK4_STABILITY_BOUND / kmax
        with pytest.warns(RuntimeWarning):
            step_rk4(state, bad_dt)

    def test_stability_warning_backward(self, grid):
        state = plane_wave_state(grid, 1, 1, (1, 0, 0))
        with pytest.warns(RuntimeWarning):
            step_rk4(state, -0.3)

    def test_no_warning_in_stable_region(self, grid):
        import warnings
        state = plane_wave_state(grid, 1, 1, (1, 0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step_rk4(state, 0.01)


def per_entry_symbol(grid: GridSpec, op) -> np.ndarray:
    """(modes, rows, cols) symbol of an operator, entry by entry."""
    kx, ky, kz = grid.deriv_k_grids()
    sym = np.zeros((grid.ntotal, op.rows, op.cols), dtype=np.complex128)
    for r in range(op.rows):
        for c in range(op.cols):
            sym[:, r, c] = np.broadcast_to(op.entry(r, c).symbol(kx, ky, kz),
                                           (grid.n[2], grid.n[1], grid.n[0])).ravel()
    return sym


def frame_matrices(prop: _Propagator) -> np.ndarray:
    """(modes, dim, dim) frame per mode, column i = band m = i - l, read back
    through `to_field` from unit coefficients of one band at every mode."""
    columns = []
    for band in range(prop.dim):
        coeffs = np.zeros((prop.dim, prop.grid.ntotal), dtype=np.complex128)
        coeffs[band] = 1.0
        columns.append(_fft(prop.to_field(coeffs).data).reshape(prop.dim, -1))
    return np.stack(columns, axis=-1).transpose(1, 0, 2)


class TestPropagator:
    """The closed-form frame against a per-mode `eigh` of the curl symbol."""

    @pytest.fixture(scope="class")
    def small(self):
        return GridSpec((8, 8, 8), (TWO_PI, 3.0, 5.0))

    @pytest.mark.parametrize("l", [1, 2])
    def test_eigenvalues_match_per_entry_symbol(self, grid, l):
        vals, _ = np.linalg.eigh(per_entry_symbol(grid, build_curl_ldotgrad(l)))
        got = _Propagator(grid, l).vals
        assert np.abs(got - vals.T).max() <= 1e-14 * np.abs(vals).max()

    @pytest.mark.parametrize("l", range(1, MAX_SPIN + 1))
    def test_frame_diagonalises_per_entry_symbol(self, small, l):
        prop = _Propagator(small, l)
        frame = frame_matrices(prop)
        sym = per_entry_symbol(small, build_curl_ldotgrad(l))
        oracle = np.linalg.eigh(sym)[0]  # ascending, as the bands are
        diag = np.einsum("kji,kjl,klm->kim", frame.conj(), sym, frame)
        want = np.zeros_like(diag)
        idx = np.arange(prop.dim)
        want[:, idx, idx] = oracle
        assert np.abs(diag - want).max() <= 1e-13 * np.abs(oracle).max()
        unitary = np.einsum("kji,kjm->kim", frame.conj(), frame)
        assert np.abs(unitary - np.eye(prop.dim)).max() <= 1e-13

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_round_trip(self, small, l):
        prop = _Propagator(small, l)
        f = random_bandlimited(small, l, "spherical", kcut=0.5, seed=l)
        back = prop.to_field(prop.to_eigen(f))
        assert (back - f).norm() <= 1e-14 * f.norm()

    @pytest.mark.parametrize("l", [1, 2])
    def test_frame_at_zero_and_nyquist(self, small, l):
        prop = _Propagator(small, l)
        frame = frame_matrices(prop).reshape(8, 8, 8, prop.dim, prop.dim)
        # k = 0 and modes whose wavenumbers are all Nyquist-zeroed: theta =
        # phi = 0, so band m holds spherical component m (a row reversal of
        # the descending-m components)
        reversal = np.eye(prop.dim)[::-1]
        for z, y, x in ((0, 0, 0), (0, 0, 4), (4, 4, 0), (4, 4, 4)):
            assert np.abs(frame[z, y, x] - reversal).max() <= 1e-15
        # a partly zeroed mode takes the frame of its remaining wavenumbers
        for zeroed, kept in (((0, 3, 4), (0, 3, 0)), ((4, 0, 2), (0, 0, 2)),
                             ((5, 4, 4), (5, 0, 0))):
            assert np.abs(frame[zeroed] - frame[kept]).max() <= 1e-15
        assert np.abs(frame[0, 3, 0] - reversal).max() > 0.1

    def test_constant_field_bands(self, small):
        # a non-zero mean lands in band m from spherical component m
        l = 2
        data = np.zeros((5, 8, 8, 8), dtype=np.complex128)
        data[:, ...] = np.array([1, 2j, 3, -4, 5j])[:, None, None, None]
        d = diagnostics(EvolutionState(TensorField(l, "spherical", small, data),
                                       TensorField.zeros(small, l, "spherical"), 0.0))
        volume = TWO_PI * 3.0 * 5.0
        want = np.sqrt(volume) * np.array([5, 4, 3, 2, 1])  # m = -2..2
        np.testing.assert_allclose(d.band_te, want, rtol=1e-14)

    @pytest.mark.parametrize("l", range(1, MAX_SPIN + 1))
    def test_divergence_weights_closed_form(self, l):
        m = np.arange(-l, l + 1)
        want = (l * l - m * m) / (2 * l - 1)
        np.testing.assert_allclose(_Propagator(GridSpec((2, 2, 2), (1, 1, 1)), l).div_weight,
                                   want, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("l", [1, 2])
    def test_per_band_phase_change(self, small, l):
        """Projection and diagnostics do not depend on the phase of each band's
        basis vector: a frame V diag(exp(i psi)) gives the same fields."""
        prop = _Propagator(small, l)
        rng = np.random.default_rng(l)
        phase = np.exp(2j * np.pi * rng.random((prop.dim, small.ntotal)))
        te = random_bandlimited(small, l, "spherical", kcut=0.5, seed=20)
        tb = random_bandlimited(small, l, "spherical", kcut=0.5, seed=21)
        a, b = prop.to_eigen(te), prop.to_eigen(tb)
        # coefficients in the rephased frame are conj(phase) * a
        a2, b2 = a * phase.conj(), b * phase.conj()
        projected = prop.to_field(prop.constraint_project(a.copy()))
        projected2 = prop.to_field(prop.constraint_project(a2.copy()) * phase)
        assert (projected2 - projected).norm() <= 1e-14 * projected.norm()
        assert projected.norm() < 0.9 * te.norm()  # the projection removed something
        d, d2 = _diag_from_modes(prop, 0.0, a, b), _diag_from_modes(prop, 0.0, a2, b2)
        assert d2.energy == pytest.approx(d.energy, rel=1e-14)
        np.testing.assert_allclose(d2.band_te, d.band_te, rtol=1e-14)
        assert d2.div_te == pytest.approx(d.div_te, rel=1e-14)
        assert d2.div_tb == pytest.approx(d.div_tb, rel=1e-14)


class TestDiagnostics:
    def test_energy_definition(self, grid):
        state = random_state(grid, 1, seed=9)
        d = diagnostics(state)
        direct = (np.sum(np.abs(state.te.data) ** 2)
                  + np.sum(np.abs(state.tb.data) ** 2)) * grid.cell_volume
        assert d.energy == pytest.approx(direct, rel=1e-12)

    def test_band_count(self, grid):
        d = diagnostics(random_state(grid, 2, seed=10))
        assert len(d.band_te) == 5


class TestEigenDiagnosticsOracle:
    """Logged eigen-coordinate diagnostics against real-space oracles."""

    STEPS, DT = 6, 0.05

    @pytest.fixture(scope="class", params=(1, 2, 3))
    def run(self, request, grid):
        l = request.param
        # unprojected data: the divergence residuals are O(1) and move in time
        state = EvolutionState(random_bandlimited(grid, l, "spherical", seed=40),
                               random_bandlimited(grid, l, "spherical", seed=41),
                               0.0, 1.0)
        dumps = [state]
        final, logs = run_spectral(state, self.DT, self.STEPS, dump_every=1,
                                   dump_fn=lambda s, step: dumps.append(s))
        assert len(logs) == len(dumps) == self.STEPS + 1
        return state, final, logs, dumps

    def test_energy_matches_real_space_sum(self, run):
        _, _, logs, dumps = run
        for d, s in zip(logs, dumps):
            direct = (np.sum(np.abs(s.te.data) ** 2)
                      + np.sum(np.abs(s.tb.data) ** 2)) * s.grid.cell_volume
            assert d.t == s.t
            assert d.energy == pytest.approx(direct, rel=1e-12)

    def test_divergence_matches_apply_operator(self, run):
        state, _, logs, dumps = run
        div = build_div(state.l)
        for d, s in zip(logs, dumps):
            for logged, f in ((d.div_te, s.te), (d.div_tb, s.tb)):
                oracle = apply_operator(div, f).norm() / gradient_scale(f)
                assert oracle > 0.1
                assert logged == pytest.approx(oracle, rel=1e-12)

    def test_band_powers_sum_to_te_energy(self, run):
        _, _, logs, dumps = run
        for d, s in zip(logs, dumps):
            assert sum(v * v for v in d.band_te) == pytest.approx(s.te.norm() ** 2,
                                                                  rel=1e-12)

    def test_run_matches_chained_steps(self, run):
        state, final, _, _ = run
        cur = state
        for _ in range(self.STEPS):
            cur = step_spectral(cur, self.DT)
        assert cur.t == pytest.approx(final.t, abs=1e-15)
        assert (cur.te - final.te).norm() <= 1e-12 * final.te.norm()
        assert (cur.tb - final.tb).norm() <= 1e-12 * final.tb.norm()

    @pytest.mark.parametrize("l", (1, 2))
    def test_projected_state_divergence_free_by_oracle(self, grid, l):
        final, _ = run_spectral(random_state(grid, l, seed=5), self.DT, self.STEPS)
        div = build_div(l)
        for f in (final.te, final.tb):
            assert apply_operator(div, f).norm() / gradient_scale(f) <= 1e-10


class TestComplexCurlResidual:
    def test_evolved_solution_small(self, grid):
        state = plane_wave_state(grid, 1, 1, (1, 2, 0))
        omega = np.linalg.norm(wavevector(grid, (1, 2, 0)))
        state = step_spectral(state, 0.3)
        fd_dt = 1e-5 * TWO_PI / omega
        assert complex_curl_residual(state, fd_dt=fd_dt) <= 1e-9

    def test_evolved_rank2_small(self, grid):
        state = plane_wave_state(grid, 2, 2, (0, 1, 1))
        omega = np.linalg.norm(wavevector(grid, (0, 1, 1)))
        state = step_spectral(state, 0.2)
        fd_dt = 1e-5 * TWO_PI / omega
        assert complex_curl_residual(state, fd_dt=fd_dt) <= 1e-9

    def test_random_static_state_large(self, grid):
        state = EvolutionState(
            random_bandlimited(grid, 1, "spherical", seed=30),
            random_bandlimited(grid, 1, "spherical", seed=31), 0.0, 1.0)
        assert complex_curl_residual(state) > 1e-3

    def test_zero_field(self, grid):
        zero = TensorField.zeros(grid, 1, "spherical")
        state = EvolutionState(zero, zero.copy(), 0.0, 1.0)
        assert complex_curl_residual(state) == 0.0

    @pytest.mark.parametrize("solenoidal", (True, False))
    def test_rank1_matches_cartesian_basis(self, grid, solenoidal):
        # the same residual worked in the cartesian basis, in real space; a
        # coarse fd_dt keeps the curl residual O(1), so roundoff cannot hide
        # a wrong operator
        if solenoidal:
            state = random_state(grid, 1, seed=5)
        else:
            state = EvolutionState(random_bandlimited(grid, 1, "spherical", seed=30),
                                   random_bandlimited(grid, 1, "spherical", seed=31), 0.0, 1.0)
        fd_dt = 0.5
        s = cartesian_transform().symbol_at((0, 0, 0))
        cart = lambda f: TensorField(1, "cartesian", grid, np.einsum("ab,bzyx->azyx", s, f.data))
        fwd, bwd = step_spectral(state, fd_dt), step_spectral(state, -fd_dt)
        e, b = cart(state.te), cart(state.tb)
        de = cart((fwd.te - bwd.te) * (0.5 / fd_dt))
        db = cart((fwd.tb - bwd.tb) * (0.5 / fd_dt))
        curl_c = to_cartesian(build_curl_complex(1))
        factor = (1 + 1j) / state.c
        expected = [apply_operator(cartesian_div(), f).norm() / gradient_scale(f)
                    for f in (e, b)]
        for f, dt_term in ((e, db * factor), (b, de * -factor)):
            curl = apply_operator(curl_c, f)
            expected.append((curl + dt_term).norm() / (curl.norm() + dt_term.norm()))
        got = complex_curl_residual(state, fd_dt=fd_dt)
        assert 1e-3 < got < 1.0
        assert abs(got - max(expected)) <= 1e-12 * got


class TestStateValidation:
    def test_requires_spherical(self, grid):
        cart = random_bandlimited(grid, 1, "cartesian", seed=1)
        sph = random_bandlimited(grid, 1, "spherical", seed=1)
        with pytest.raises(ValueError):
            EvolutionState(cart, cart.copy(), 0.0, 1.0)
        with pytest.raises(ValueError):
            EvolutionState(sph, sph.copy(), 0.0, -1.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_wave_speed(self, grid, c):
        sph = random_bandlimited(grid, 1, "spherical", seed=1)
        with pytest.raises(ValueError, match="wave speed"):
            EvolutionState(sph, sph.copy(), 0.0, c)

    # 1e308 is finite, but c*dt*kmax overflows
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 1e308, -1e308])
    def test_rk4_rejects_non_finite_dt(self, dt):
        state = random_state(GridSpec((8, 8, 8), (TWO_PI,) * 3), 1, seed=3)
        with pytest.raises(ValueError, match="dt must be finite"):
            step_rk4(state, dt)

    # 1e308 is finite, but c*dt*kmax overflows
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 1e308, -1e308])
    def test_run_spectral_rejects_non_finite_dt(self, dt):
        state = random_state(GridSpec((8, 8, 8), (TWO_PI,) * 3), 1, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any numpy work
            with pytest.raises(ValueError, match="dt must be finite"):
                run_spectral(state, dt, 2)
