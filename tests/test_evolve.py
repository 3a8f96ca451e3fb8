import copy
import dataclasses
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from curlmat import evolve, spectral
from curlmat.angular import MAX_SPIN
from curlmat.builders import (build_curl_complex, build_curl_ldotgrad, build_div,
                              cartesian_div, cartesian_transform, to_cartesian)
from curlmat.evolve import (Diagnostics, EvolutionState, RK4_STABILITY_BOUND, _Propagator,
                            _diag_from_modes, _row_sums, complex_curl_residual,
                            diagnostics, plane_wave_state, random_state, run_rk4,
                            run_spectral, step_rk4, step_spectral)
from curlmat.spectral import (GridSpec, TensorField, _fft, apply_operator, plane_wave,
                              random_bandlimited, wavevector)

from oracles import gradient_scale, rk4_horner

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
        # a state made from fields, then the one it steps to
        state = EvolutionState(random_bandlimited(grid, 1, "spherical", seed=42),
                               random_bandlimited(grid, 1, "spherical", seed=43), 0.0)
        for _ in range(2):
            inputs = [state.te.data, state.tb.data, state._spectra]
            before = [a.copy() for a in inputs]
            new = step_rk4(state, 0.05)
            assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
            for out in (new.te.data, new.tb.data, new._spectra):
                for inp in inputs:
                    assert not np.shares_memory(out, inp)
            state = new

    def test_two_fft_calls_per_step_and_no_apply_operator(self, monkeypatch):
        # a state made from fields takes one fftn of the pair, in two
        # batches past the split size; a step reads its spectra and makes
        # no FFT, on a grid on each side of the split size
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        pairs = [[random_bandlimited(GridSpec((n,) * 3, (TWO_PI,) * 3), 1, "spherical",
                                     seed=44 + h) for h in (0, 1)] for n in (16, 32)]
        assert [te.grid.ntotal >= evolve.SPLIT_MODES for te, _ in pairs] == [False, True]
        calls = []
        for name in ("fftn", "ifftn"):
            def counted(data, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls.append((_name, data.shape))
                return _fn(data, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)

        def forbidden(*args, **kwargs):
            raise AssertionError("step_rk4 goes through the cached curl symbol only")
        for module in (spectral, evolve):
            monkeypatch.setattr(module, "apply_operator", forbidden)
        monkeypatch.setattr(evolve, "_propagator", forbidden)  # the eigenvectors
        for te, tb in pairs:
            calls.clear()
            state = EvolutionState(te, tb, 0.0)
            split = 2 * te.data.size >= spectral.FFT_SPLIT_SAMPLES
            assert calls == ([("fftn", (1,) + te.data.shape)] * 2 if split
                             else [("fftn", (2,) + te.data.shape)])
            calls.clear()
            for _ in range(3):
                state = step_rk4(state, 0.05)
            assert calls == []

    def test_max_wavenumber_is_computed_once_per_grid(self, grid):
        evolve._max_wavenumber.cache_clear()
        state = step_rk4(plane_wave_state(grid, 1, 1, (1, 0, 0)), 0.01)
        first = evolve._max_wavenumber.cache_info()
        step_rk4(state, 0.01)
        second = evolve._max_wavenumber.cache_info()
        assert (first.misses, second.misses, second.hits) == (1, 1, first.hits + 1)
        # the cached value is the computed one: |k| <= 2 pi (n/2 - 1) / box on
        # each axis once Nyquist is zeroed, 7 for 16 points over 2 pi
        for g in (grid, GridSpec((8, 12, 16), (1.0, 2.5, 3.0))):
            got = evolve._max_wavenumber(g)
            assert got == evolve._max_wavenumber.__wrapped__(g)
            assert got == pytest.approx(math.sqrt(sum(
                (2 * math.pi * (n // 2 - 1) / box) ** 2 for n, box in zip(g.n, g.box))),
                rel=1e-15)

    def test_order_of_convergence(self, grid):
        # a standing wave, so that F- = F+ = TE is not zero, with ky != 0, so
        # that conj(C(k)) = C(kx, -ky, kz) is not C(k): an F- step that read
        # R_ij for R_ji would not converge
        state = plane_wave_state(grid, 1, 1, (1, 2, 0), traveling=False)
        omega = np.linalg.norm(wavevector(grid, (1, 2, 0)))
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


def count_ffts(monkeypatch) -> list[str]:
    """The names of the numpy FFT calls made from here on, in call order."""
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def rebuilt(state: EvolutionState) -> EvolutionState:
    """The state's fields, time and speed in a state built anew from copies."""
    return EvolutionState(state.te.copy(), state.tb.copy(), state.t, state.c)


def assert_same_bits(got: EvolutionState, want: EvolutionState) -> None:
    assert got.t == want.t and got.c == want.c
    assert np.array_equal(got.te.data, want.te.data)
    assert np.array_equal(got.tb.data, want.tb.data)


class TestRk4Carry:
    """`step_rk4` starting from the spectra its previous step left."""

    @pytest.fixture
    def carried(self, grid):
        state = step_rk4(step_rk4(random_state(grid, 1, seed=60), 0.05), 0.05)
        assert "_fields" not in vars(state)  # no field made yet
        return state

    def test_carried_arrays_are_read_only(self, carried):
        spectra = carried._spectra
        for array in (carried.te.data, carried.tb.data, spectra[0], spectra[1]):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1
            with pytest.raises(ValueError, match="read-only"):
                array *= 2
        for array in (carried.te.data, carried.tb.data):
            with pytest.raises(ValueError):
                array.flags.writeable = True

    @pytest.mark.parametrize("rebuild", [rebuilt], ids=["from-copies"])
    def test_rebuilt_state_is_transformed_again(self, carried, monkeypatch, rebuild):
        # a state built from fields takes one fftn of the pair, where it is
        # built; its step reads those spectra and transforms nothing
        _ = carried.te  # made before the count
        want = step_rk4(rebuild(carried), 0.05)
        calls = count_ffts(monkeypatch)
        state = rebuild(carried)
        assert calls == ["fftn"]
        got = step_rk4(state, 0.05)
        assert calls == ["fftn"]
        assert_same_bits(got, want)

    def test_deepcopy_of_an_unread_state_keeps_its_spectra(self, carried, monkeypatch):
        # a state is one immutable value, so a copy of it, deep or shallow,
        # alone or inside a container, is the state itself: nothing is copied
        # or transformed
        calls = count_ffts(monkeypatch)
        assert copy.deepcopy(carried) is carried and copy.copy(carried) is carried
        assert copy.deepcopy({"state": carried})["state"] is carried
        assert calls == [] and "_fields" not in vars(carried)

    @pytest.mark.parametrize("h", [0, 1])
    def test_assigning_a_field_of_an_unread_state_keeps_the_other(self, carried, h):
        # no field can be assigned: the state keeps its spectra, and both
        # fields read as those of a twin that was never touched
        spectra = carried._spectra
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(carried, ("te", "tb")[h], TensorField.zeros(carried.grid, 1, "spherical"))
        assert carried._spectra is spectra and "_fields" not in vars(carried)
        twin = step_rk4(step_rk4(random_state(carried.grid, 1, seed=60), 0.05), 0.05)
        assert_same_bits(carried, twin)

    def test_one_state_stepped_twice_gives_the_same_bits(self, carried):
        first, second = step_rk4(carried, 0.05), step_rk4(carried, 0.05)
        assert_same_bits(second, first)
        assert np.array_equal(second._spectra, first._spectra)

    @pytest.mark.parametrize("l", [1, 2])
    def test_matches_a_march_transforming_every_step(self, grid, monkeypatch, l):
        # the march of bare steps against one whose every step starts from a
        # state rebuilt from its fields: the same arithmetic but for an fftn
        # of each step's ifftn; the bare march transforms its field pair
        # once, where its first state is built, and makes none
        fields = (random_bandlimited(grid, l, "spherical", seed=62),
                  random_bandlimited(grid, l, "spherical", seed=63))
        want = EvolutionState(*fields, 0.2, 1.1)
        for _ in range(20):
            want = step_rk4(rebuilt(want), 0.05)
        calls = count_ffts(monkeypatch)
        got = EvolutionState(*fields, 0.2, 1.1)
        for _ in range(20):
            got = step_rk4(got, 0.05)
        assert calls == ["fftn"]
        assert got.t == want.t
        for a, b in ((got.te, want.te), (got.tb, want.tb)):
            assert (a - b).norm() <= 1e-13 * b.norm()
        # 20 steps must have moved the state, or the comparison is vacuous
        assert (got.te - fields[0]).norm() > 0.1 * fields[0].norm()

    def test_diagnostics_read_the_carried_spectra(self, carried, monkeypatch):
        want = diagnostics(rebuilt(carried))
        spectra = carried._spectra.copy()
        calls = count_ffts(monkeypatch)
        got = diagnostics(carried)
        assert calls == []
        assert np.array_equal(carried._spectra, spectra)
        assert got.t == want.t
        assert got.energy == pytest.approx(want.energy, rel=1e-13)
        assert got.band_te == pytest.approx(want.band_te, rel=1e-13, abs=1e-13 * want.energy)
        for div in ("div_te", "div_tb"):
            assert getattr(got, div) == pytest.approx(getattr(want, div), abs=1e-13)

    def test_spectral_step_reads_the_carried_spectra(self, carried, monkeypatch):
        # run_spectral moves to band coefficients the way diagnostics does,
        # and builds its state from spectra: the one transform is the
        # inverse FFT of the pair when a field is read
        want = step_spectral(rebuilt(carried), 0.05)
        _ = want.te
        calls = count_ffts(monkeypatch)
        got = step_spectral(carried, 0.05)
        assert calls == []
        assert got.t == want.t
        for a, b in ((got.te, want.te), (got.tb, want.tb)):
            assert (a - b).norm() <= 1e-13 * b.norm()
        assert calls == ["ifftn"]


class TestStateIsOneValue:
    """Every state is its read-only F+- spectra, with l, grid, t and c."""

    @pytest.fixture(params=["fields", "random_state", "step_rk4", "run_spectral"])
    def state(self, request, grid):
        if request.param == "fields":
            return EvolutionState(random_bandlimited(grid, 2, "spherical", seed=70),
                                  random_bandlimited(grid, 2, "spherical", seed=71), 0.3, 1.2)
        start = random_state(grid, 2, seed=72)
        return {"random_state": start, "step_rk4": step_rk4(start, 0.05),
                "run_spectral": run_spectral(start, 0.05, 2)[0]}[request.param]

    @pytest.mark.parametrize("name", ["te", "tb", "t", "c", "l", "grid", "_spectra"])
    def test_no_attribute_can_be_assigned_or_deleted(self, state, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, name, getattr(state, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(state, name)

    def test_no_field_data_can_be_assigned(self, state):
        for f in (state.te, state.tb):
            with pytest.raises(dataclasses.FrozenInstanceError):
                f.data = f.data.copy()
        assert state.te is state.te and state.tb is state.tb

    def test_every_array_handed_out_is_read_only(self, state):
        for array in (state.te.data, state.tb.data, state._spectra):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1
        for array in (state.te.data, state.tb.data):  # views of a read-only pair
            with pytest.raises(ValueError):
                array.flags.writeable = True

    def test_first_read_makes_one_inverse_transform(self, state, monkeypatch):
        calls = count_ffts(monkeypatch)
        _ = state.tb, state.te, state.tb.data, state.te.data
        assert calls == ["ifftn"]  # of the pair, at 16^3 below the split size

    def test_keeps_no_reference_to_the_fields_it_is_built_from(self, grid):
        te, tb = (random_bandlimited(grid, 1, "spherical", seed=73 + h) for h in (0, 1))
        want = te.data.copy(), tb.data.copy()
        state = EvolutionState(te, tb, 0.0)
        te.data[...] = 0
        tb.data[...] = np.nan
        for f, w in zip((state.te, state.tb), want):
            assert not np.shares_memory(f.data, w)
            assert np.linalg.norm(f.data - w) <= 1e-15 * np.linalg.norm(w)
        assert state.te.data.shape == te.data.shape

    def test_fft_counts_of_the_drivers(self, grid, monkeypatch):
        # random_state takes its random spectra to the band frame and back
        # with no FFT; nor do run_spectral, from it or from a step_rk4 or
        # run_spectral state, dumps included, and diagnostics until a field
        # is read
        calls = count_ffts(monkeypatch)
        start = random_state(grid, 1, seed=74)
        assert calls == []
        calls.clear()
        dumps = []
        for source in (start, step_rk4(start, 0.05), run_spectral(start, 0.05, 2)[0]):
            final, logs = run_spectral(source, 0.05, 3, dump_every=1,
                                       dump_fn=lambda s, step: dumps.append(s))
            diagnostics(final)
        assert calls == [] and len(dumps) == 9 and len(logs) == 4
        _ = final.te, final.tb, dumps[0].tb
        assert calls == ["ifftn"] * 2


@pytest.mark.parametrize("l", [1, 2])
def test_random_state_is_the_projected_random_fields(grid, l):
    # random_state takes random_bandlimited's spectra to the band frame
    # without the inverse and forward FFT of the fields: the same state to
    # roundoff
    prop = evolve._propagator(grid, l)
    te, tb = (prop.constraint_project(prop.to_eigen(
        _fft(random_bandlimited(grid, l, "spherical", kcut=0.3, seed=20 + h).data)))
        for h in (0, 1))
    evolve._plus_minus(te, tb)
    want = evolve._state(prop, te, tb, 0.0, 1.4)._spectra
    got = random_state(grid, l, c=1.4, seed=20, kcut=0.3)
    assert got.c == 1.4 and got.t == 0.0
    assert np.linalg.norm(got._spectra - want) <= 1e-15 * np.linalg.norm(want)


class TestRk4SpectralState:
    """A `step_rk4` state holds its spectra and makes its fields when read."""

    @pytest.fixture(params=[16, 32], ids=["serial", "split"])
    def sized(self, request, monkeypatch):
        """A fresh state below, or past, `SPLIT_MODES` and
        `FFT_SPLIT_SAMPLES`, on a host with two CPUs."""
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        n = request.param
        state = random_state(GridSpec((n,) * 3, (TWO_PI,) * 3), 1, seed=64)
        split = state.grid.ntotal >= evolve.SPLIT_MODES
        assert split == (2 * state.te.data.size >= spectral.FFT_SPLIT_SAMPLES) == (n == 32)
        return state, split

    def test_bare_march_matches_one_reading_every_step(self, sized, monkeypatch):
        state, _ = sized
        read = state
        for _ in range(20):
            read = step_rk4(read, 0.05)
            _ = read.te.data, read.tb.data  # made; the next step reads the spectra
        calls = count_ffts(monkeypatch)
        bare = state
        for _ in range(20):
            bare = step_rk4(bare, 0.05)
        assert calls == []
        assert_same_bits(bare, read)

    def test_first_read_makes_both_fields_once(self, sized, monkeypatch):
        state, split = sized
        state = step_rk4(state, 0.05)
        spectra = state._spectra
        calls = []

        def counted(data, *args, _fn=np.fft.ifftn, **kwargs):
            calls.append(data.shape)
            return _fn(data, *args, **kwargs)
        monkeypatch.setattr(np.fft, "ifftn", counted)
        te = state.te
        assert calls == ([(1,) + te.data.shape] * 2 if split else [spectra.shape])
        calls.clear()
        assert state.te is te and state.tb.data.shape == te.data.shape
        assert calls == []
        # TE = (F+ + F-)/2 and TB = (F+ - F-)/(2i), each transformed back
        fp, fm = spectra
        for f, combined in ((state.te, (fp + fm) * 0.5), (state.tb, (fp - fm) * -0.5j)):
            assert np.array_equal(f.data, np.fft.ifftn(combined, axes=(-3, -2, -1)))
            assert not f.data.flags.writeable
        assert state._spectra is spectra

    @pytest.mark.parametrize("split", [False, True])
    def test_non_finite_stage_raises_at_its_step(self, grid, monkeypatch, split):
        if split:
            monkeypatch.setattr(evolve, "SPLIT_MODES", 0)
            monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        # a traveling wave with omega*dt = 8 grows by |R(-8i)| ~ 160 a step:
        # from spectra near 1e305 the first step stays finite, the second not
        state = plane_wave_state(grid, 1, 1, (1, 0, 0), amplitude=2e301)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            first = run_with_timeout(step_rk4, state, 8.0)
            assert np.isfinite(first._spectra).all()
            with pytest.raises(ValueError, match="non-finite samples"):
                run_with_timeout(step_rk4, first, 8.0)


def run_with_timeout(fn, *args, timeout=60.0):
    """fn(*args) on a thread of its own, joined with a timeout, so a step
    whose halves wait on each other fails instead of hanging the suite."""
    result = []

    def run():
        try:
            result.append((True, fn(*args)))
        except BaseException as exc:
            result.append((False, exc))
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the step did not return"
    ok, value = result[0]
    if not ok:
        raise value
    return value


def no_split(*args):
    raise AssertionError("the step ran on two threads")


def on_second_half() -> bool:
    """Whether this is the thread `spectral._run_paired` starts for the
    second half of a split march."""
    return threading.current_thread().name == "curlmat-second-half"


class TestRk4Split:
    """The step in two column halves on two threads against the serial one,
    forced on a small grid."""

    @pytest.fixture
    def split(self, monkeypatch):
        monkeypatch.setattr(evolve, "SPLIT_MODES", 0)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)

    @staticmethod
    def unprojected(grid, l):
        return EvolutionState(random_bandlimited(grid, l, "spherical", seed=50),
                              random_bandlimited(grid, l, "spherical", seed=51), 0.1, 1.3)

    @staticmethod
    def before_each_half(monkeypatch, second, action):
        """Call `action` before each table pass, of F+ and of F-, that the
        second column half makes, or the first."""
        kernel = evolve._rk4_pass

        def wrapped(table, x, out, adjoint):
            if on_second_half() == second:
                action()
            return kernel(table, x, out, adjoint)
        monkeypatch.setattr(evolve, "_rk4_pass", wrapped)

    @pytest.mark.parametrize("second_slow", [False, True])
    @pytest.mark.parametrize("l", [1, 2])
    def test_split_is_bit_identical_to_serial(self, grid, split, monkeypatch, l, second_slow):
        state = self.unprojected(grid, l)
        with monkeypatch.context() as serial:
            serial.setattr(evolve, "SPLIT_MODES", grid.ntotal + 1)
            serial.setattr(spectral, "_run_paired", no_split)
            want = [state]
            for _ in range(3):
                want.append(step_rk4(want[-1], 0.05))
        # each half reads its own columns of the spectra and the shared
        # table only, so one running late, with the other thread switched in
        # at every chance, moves no bit
        slowed = []
        self.before_each_half(monkeypatch, second_slow,
                              lambda: slowed.append(time.sleep(0.002)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = state
            for ref in want[1:]:
                got = run_with_timeout(step_rk4, got, 0.05)
                assert got.t == ref.t
                assert np.array_equal(got.te.data, ref.te.data)
                assert np.array_equal(got.tb.data, ref.tb.data)
        finally:
            sys.setswitchinterval(interval)
        assert len(slowed) == 3 * 2  # an F+ and an F- pass a step

    @pytest.mark.parametrize("second", [False, True])
    def test_error_in_either_half_is_raised_and_no_thread_is_left(
            self, grid, split, monkeypatch, second):
        class Boom(Exception):
            pass

        def boom():
            raise Boom("second" if second else "first")
        self.before_each_half(monkeypatch, second, boom)
        before = threading.active_count()
        with pytest.raises(Boom, match="second" if second else "first"):
            run_with_timeout(step_rk4, self.unprojected(grid, 1), 0.05)
        assert threading.active_count() == before

    def test_halves_never_wait_for_each_other(self, grid, split, monkeypatch):
        # the first column half, on the calling thread, holds its table
        # passes until the second, on the worker, has made both of its own:
        # halves that met before their passes ended would never get there
        state = self.unprojected(grid, 1)
        want = step_rk4(state, 0.05)
        second_done, halves = threading.Event(), []
        kernel = evolve._rk4_pass

        def wrapped(table, x, out, adjoint):
            second = on_second_half()
            halves.append(second)
            if not second:
                assert second_done.wait(10.0), "the second half did not run on alone"
            result = kernel(table, x, out, adjoint)
            if second and adjoint:  # its F- pass, the last of its step
                second_done.set()
            return result
        monkeypatch.setattr(evolve, "_rk4_pass", wrapped)
        got = run_with_timeout(step_rk4, state, 0.05, timeout=20.0)
        assert sorted(halves) == [False, False, True, True]
        assert_same_bits(got, want)

    def test_caller_error_state_holds_in_the_second_half(self, split):
        # a wave only in the second column half (kz < 0, past the middle of
        # FFT order) overflows there at its first step: under the caller's
        # raise-on-overflow state the worker raises as the caller would,
        # where a fresh context would warn and write infinities
        small = GridSpec((8, 8, 8), (TWO_PI,) * 3)
        state = plane_wave_state(small, 1, 1, (1, 0, -3), amplitude=2e304)
        size = np.abs(state._spectra).reshape(2, 3, -1).max(axis=(0, 1))
        assert size[:small.ntotal // 2].max() <= 1e-12 * size.max()  # roundoff
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "rk4 step", RuntimeWarning)  # dt is unstable
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                run_rk4(state, 8.0, 1, log_every=0)

    @pytest.mark.parametrize("affinity", [True, False])
    def test_one_cpu_runs_serially(self, grid, monkeypatch, affinity):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:  # where the platform has no affinity call
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert spectral._cpu_count() == 1
        monkeypatch.setattr(evolve, "SPLIT_MODES", 0)
        monkeypatch.setattr(spectral, "_run_paired", no_split)
        step_rk4(self.unprojected(grid, 1), 0.05)


class TestRk4Table:
    """The cached one-step matrix and the pass each half makes over it."""

    GRID = GridSpec((8, 12, 16), (1.0, 2.5, 3.0))

    @staticmethod
    def spectrum(grid, l, seed):
        rng = np.random.default_rng(seed)
        shape = (2 * l + 1, grid.n[2], grid.n[1], grid.n[0])
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_passes_match_the_horner_stages(self, l):
        # F+ is R(-i theta CURL) x and F- is R(+i theta CURL) x = R^H x,
        # each against the stages run on the spectrum itself
        theta = 0.05 * 1.3
        table = evolve._rk4_table(l, self.GRID, theta)
        for seed in (1, 2):
            x = self.spectrum(self.GRID, l, seed)
            for adjoint, sign in ((False, 1), (True, -1)):
                got = evolve._rk4_pass(table, x, np.empty_like(x), adjoint)
                want = rk4_horner(l, self.GRID, x, sign * theta)
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
                # the step must have moved the spectrum, or the check is vacuous
                assert np.linalg.norm(want - x) > 1e-2 * np.linalg.norm(x)

    @pytest.mark.parametrize("l", [1, 2])
    def test_adjoint_pass_is_the_conjugate_transposed_table(self, l):
        table = evolve._rk4_table(l, self.GRID, 0.07)
        explicit = table.transpose(1, 0, 2, 3, 4).conj()  # column j of R^H
        x = self.spectrum(self.GRID, l, 3)
        got = evolve._rk4_pass(table, x, np.empty_like(x), adjoint=True)
        want = evolve._rk4_pass(explicit, x, np.empty_like(x), adjoint=False)
        assert np.array_equal(got, want)

    def test_one_build_per_rank_grid_and_phase(self, grid):
        evolve._rk4_table.cache_clear()
        state = random_state(grid, 1, seed=65)
        for _ in range(3):
            state = step_rk4(state, 0.05)
        table = evolve._rk4_table(1, grid, 0.05)
        assert not table.flags.writeable
        assert evolve._rk4_table.cache_info()[:2] == (3, 1)  # hits, misses
        # the table depends on c*dt alone: c = 2 at dt = 0.025 turns as far
        step_rk4(EvolutionState(state.te, state.tb, state.t, 2.0), 0.025)
        assert evolve._rk4_table.cache_info()[:2] == (4, 1)
        # a new c*dt, rank or grid builds anew, and one table is held
        for l, g, dt in ((1, grid, 0.04), (2, grid, 0.04),
                         (2, GridSpec((8, 8, 8), (TWO_PI,) * 3), 0.04), (1, grid, 0.05)):
            step_rk4(random_state(g, l, seed=66), dt)
        assert evolve._rk4_table.cache_info()[1:] == (5, 1, 1)  # misses, maxsize, size
        assert evolve._rk4_table(1, grid, 0.05) is not table
        assert np.array_equal(evolve._rk4_table(1, grid, 0.05), table)


def rk4_march_by_hand(state, dt, steps, log_every, dump_every, dump_fn):
    """Reference for `run_rk4`: `step_rk4` and `diagnostics` called one by
    one, step s at time t0 + s*dt, logging the steps of the driver contract
    written out as a set."""
    t0 = state.t
    logged = set(range(0, steps + 1, log_every)) | {steps} if log_every else set()
    logs = [diagnostics(state)] if 0 in logged else []
    for step in range(1, steps + 1):
        state = EvolutionState._of_spectra(step_rk4(state, dt)._spectra, state.l, state.grid,
                                           t0 + step * dt, state.c)
        if step in logged:
            logs.append(diagnostics(state))
        if dump_every and step % dump_every == 0:
            dump_fn(state, step)
    return state, logs


def assert_logs_close(got, want, rel=1e-14):
    """The same steps' logs, their values within `rel` relative."""
    assert [d.t for d in got] == [d.t for d in want]
    for d, ref in zip(got, want):
        for value, oracle in zip((d.energy, d.div_te, d.div_tb, *d.band_te),
                                 (ref.energy, ref.div_te, ref.div_tb, *ref.band_te)):
            assert value == pytest.approx(oracle, rel=rel, abs=0)


class TestRunRk4:
    """`run_rk4` against the march by hand, bit for bit."""

    @staticmethod
    def both(state, dt, steps, log_every, dump_every):
        results = []
        for march in (run_rk4, rk4_march_by_hand):
            dumps = []
            final, logs = march(state, dt, steps, log_every, dump_every,
                                lambda s, step: dumps.append((step, s)))
            results.append((final, logs, dumps))
        return results

    @staticmethod
    def assert_same(got, want, logs_rel=0):
        (final, logs, dumps), (ref, ref_logs, ref_dumps) = got, want
        if logs_rel:
            assert_logs_close(logs, ref_logs, logs_rel)
        else:
            assert logs == ref_logs
        assert [step for step, _ in dumps] == [step for step, _ in ref_dumps]
        for a, b in zip([final] + [s for _, s in dumps], [ref] + [s for _, s in ref_dumps]):
            assert a.t == b.t  # t0 + step*dt, as in run_spectral
            assert np.array_equal(a.te.data, b.te.data)
            assert np.array_equal(a.tb.data, b.tb.data)

    @pytest.mark.parametrize("dump_every", [None, 2])
    @pytest.mark.parametrize("steps, log_every", sorted(
        {(steps, every) for steps in (0, 5, 7) for every in (0, 1, 3, steps)}))
    def test_matches_march_by_hand(self, steps, log_every, dump_every):
        state = random_state(GridSpec((8, 8, 8), (TWO_PI,) * 3), 1, seed=7)
        got, want = self.both(state, 0.05, steps, log_every, dump_every)
        self.assert_same(got, want)

    def test_fresh_state_marches_as_its_spectra(self):
        # a state built from fields holds F+- = FFT(TE) +- i FFT(TB) and
        # marches as the state built from those spectra by hand
        grid = GridSpec((8, 8, 8), (TWO_PI,) * 3)
        te, tb = (random_bandlimited(grid, 1, "spherical", seed=7 + h) for h in (0, 1))
        fresh = EvolutionState(te, tb, 0.1, 1.3)
        a, b = _fft(te.data), _fft(tb.data)
        spectra = np.stack([a + b * 1j, a - b * 1j])
        assert np.array_equal(fresh._spectra, spectra)
        by_hand = EvolutionState._of_spectra(spectra, 1, grid, 0.1, 1.3)
        got, want = (self.both(s, 0.05, 7, 3, 2)[0] for s in (fresh, by_hand))
        self.assert_same(got, want)

    @pytest.mark.parametrize("split", [False, True])
    def test_logged_run_transforms_each_field_once(self, monkeypatch, split):
        # a state built from fields takes one fftn of the pair; every step
        # and log of the run reads spectra, and no field is made
        if split:
            monkeypatch.setattr(evolve, "SPLIT_MODES", 0)
            monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        fresh = random_state(GridSpec((8, 8, 8), (TWO_PI,) * 3), 1, seed=7)
        fields = fresh.te, fresh.tb
        calls = count_ffts(monkeypatch)
        _, logs = run_rk4(EvolutionState(*fields, 0.0), 0.05, 7, log_every=2)
        assert len(logs) == 5  # steps 0, 2, 4, 6 and 7
        assert calls == ["fftn"]

    def test_split_step_matches_march_by_hand(self, monkeypatch):
        # 28^3 is past SPLIT_MODES: the run's columns, and each step by
        # hand, march in two halves on two threads, as do the split inverse
        # FFTs that make the fields read
        grid = GridSpec((28, 28, 28), (TWO_PI,) * 3)
        assert grid.ntotal >= evolve.SPLIT_MODES
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        paired, run_paired = [], spectral._run_paired

        def counted(*halves):
            paired.append(halves[0].func.__qualname__ == "run_rk4.<locals>.begin.<locals>.walk")
            return run_paired(*halves)
        monkeypatch.setattr(spectral, "_run_paired", counted)
        state = random_state(grid, 1, seed=8)
        got, want = self.both(state, 0.05, 5, 3, 2)
        # the halves' sums are added after the march: the logs move at roundoff
        self.assert_same(got, want, logs_rel=1e-14)
        # one per stretch to a dump or the end, 0-2-4-5, and one per step by hand
        assert sum(paired) == 3 + 5 and len(got[1]) == 3  # logs at steps 0, 3 and 5


class TestMarch:
    """What the one event march of both drivers must keep."""

    GRID = GridSpec((8, 8, 8), (TWO_PI,) * 3)

    @pytest.mark.parametrize("driver", ["run_rk4", "run_spectral"])
    def test_kept_dumps_stay_those_of_their_step(self, driver):
        # every state a dump is handed stays the state of its step after the
        # march has gone on: none is a buffer the march still writes
        state = TestSpectralSplit.unprojected(self.GRID, 2)
        kept = []
        run = {"run_rk4": run_rk4, "run_spectral": run_spectral}[driver]
        final, _ = run(state, 0.05, 6, log_every=1, dump_every=1,
                       dump_fn=lambda s, step: kept.append((step, s)))
        if driver == "run_rk4":
            _, _, want = TestRunRk4.both(state, 0.05, 6, 0, 1)[1]
        else:
            _, _, want = spectral_march_by_hand(state, 0.05, 6, 0, 1)
        assert [step for step, _ in kept] == [step for step, _ in want] == list(range(1, 7))
        for (_, got), (_, ref) in zip(kept, want):
            assert got.t == ref.t
            assert np.array_equal(got._spectra, ref._spectra)
        assert kept[-1][1] is final  # a dump at the last step is the final state

    @pytest.mark.parametrize("dump_every", [None, 2])
    @pytest.mark.parametrize("log_every", [0, 1, 3])
    @pytest.mark.parametrize("l", [1, 2])
    def test_split_rk4_run_matches_unsplit(self, monkeypatch, l, log_every, dump_every):
        state = TestSpectralSplit.unprojected(self.GRID, l)

        def run():
            dumps = []
            final, logs = run_with_timeout(
                lambda: run_rk4(state, 0.05, 7, log_every, dump_every,
                                lambda s, step: dumps.append((step, s))))
            return final, logs, dumps

        with monkeypatch.context() as whole:
            whole.setattr(spectral, "_run_paired", no_split)
            want = run()
        paired, run_paired = [], spectral._run_paired
        monkeypatch.setattr(evolve, "SPLIT_MODES", 0)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        monkeypatch.setattr(spectral, "_run_paired",
                            lambda *halves: paired.append(1) or run_paired(*halves))
        got = run()
        assert len(paired) == len(got[2]) + 1  # one per stretch to a dump or the end
        TestRunRk4.assert_same(got, want, logs_rel=1e-14)
        assert len(got[1]) == len(want[1]) == {0: 0, 1: 8, 3: 4}[log_every]

    @pytest.mark.parametrize("t0, dt, steps, log_every", [
        (0.0, 0.05, 7, 1), (0.1, 0.05, 7, 3), (1e3, 1e-3, 10, 4), (-2.5, -0.3, 5, 2)])
    def test_drivers_log_the_same_times(self, t0, dt, steps, log_every):
        # both drivers log step s at t0 + s*dt, and end there
        base = random_state(self.GRID, 1, seed=9)
        state = EvolutionState._of_spectra(base._spectra, 1, self.GRID, t0, 1.0)
        runs = [run(state, dt, steps, log_every) for run in (run_rk4, run_spectral)]
        logged = sorted(set(range(0, steps + 1, log_every)) | {steps})
        want = [t0 + step * dt if step else t0 for step in logged]
        for final, logs in runs:
            assert [d.t for d in logs] == want
            assert final.t == want[-1]


def spectral_march_by_hand(state, dt, steps, log_every, dump_every):
    """Reference for `run_spectral`: the whole-array march, and each log from
    single-pass `np.vdot` sums over every mode of 2a = z+ + z- and
    2ib = z+ - z- and of the same scaled by |k|."""
    prop = evolve._propagator(state.grid, state.l)
    zp, zm = (prop.to_eigen(s.copy()) for s in state._spectra)
    forward = prop.phases(state.c, dt)
    weight = prop.mode_weight / 4

    def log(t):
        power, grad = [], []
        for x in (zp + zm, zp - zm):
            power.append(np.array([np.vdot(row, row).real for row in x]))
            grad.append(np.array([np.vdot(row, row).real for row in x * prop.kabs]))
        return Diagnostics(t, weight * (power[0].sum() + power[1].sum()),
                           *(np.sqrt(prop.div_weight @ g / g.sum()) for g in grad),
                           tuple(np.sqrt(weight * power[0])))

    logged = set(range(0, steps + 1, log_every)) | {steps} if log_every else set()
    logs = [log(state.t)] if 0 in logged else []
    dumps = []
    t = state.t
    for step in range(1, steps + 1):
        zp *= forward
        zm *= forward[::-1]
        t = state.t + step * dt
        if step in logged:
            logs.append(log(t))
        if dump_every and step % dump_every == 0:
            dumps.append((step, evolve._state(prop, zp, zm, t, state.c)))
    return evolve._state(prop, zp, zm, t, state.c), logs, dumps


class TestSpectralSplit:
    """`run_spectral` in two column halves, forced on a small grid: on two
    threads, in turn on one, and against the whole-array march."""

    STEPS, DT = 7, 0.05

    @pytest.fixture
    def halves(self, monkeypatch):
        monkeypatch.setattr(evolve, "SPLIT_MODES", 0)

    @staticmethod
    def unprojected(grid, l):
        # O(1) divergence residuals, so the logs compare relative to O(1) values
        return EvolutionState(random_bandlimited(grid, l, "spherical", seed=60),
                              random_bandlimited(grid, l, "spherical", seed=61), 0.1, 1.3)

    @classmethod
    def run(cls, state, log_every, dump_every, dump_fn=None):
        """`run_spectral` in a helper thread; the dumps, and the thread count
        before and after, come back with its result."""
        dumps = []
        dump_fn = dump_fn or (lambda s, step: dumps.append((step, s)))
        before = threading.active_count()
        final, logs = run_with_timeout(
            lambda: run_spectral(state, cls.DT, cls.STEPS, log_every, dump_every, dump_fn))
        assert threading.active_count() == before
        return final, logs, dumps

    @staticmethod
    def assert_same_fields(got, want):
        (final, _, dumps), (ref, _, ref_dumps) = got, want
        assert [step for step, _ in dumps] == [step for step, _ in ref_dumps]
        for a, b in zip([final] + [s for _, s in dumps], [ref] + [s for _, s in ref_dumps]):
            assert a.t == b.t
            assert np.array_equal(a.te.data, b.te.data)
            assert np.array_equal(a.tb.data, b.tb.data)

    @pytest.mark.parametrize("dump_every", [None, 2])
    @pytest.mark.parametrize("log_every", [0, 1, 3])
    @pytest.mark.parametrize("l", [1, 2])
    def test_two_threads_match_one(self, grid, halves, monkeypatch, l, log_every, dump_every):
        state = self.unprojected(grid, l)
        with monkeypatch.context() as serial:
            serial.setattr(spectral, "_cpu_count", lambda: 1)
            serial.setattr(spectral, "_run_paired", no_split)
            want = self.run(state, log_every, dump_every)
        paired, run_paired = [], spectral._run_paired
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        monkeypatch.setattr(spectral, "_run_paired",
                            lambda *halves: paired.append(1) or run_paired(*halves))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.run(state, log_every, dump_every)
        finally:
            sys.setswitchinterval(interval)
        assert len(paired) == len(got[2]) + 1  # one per stretch to a dump or the end
        assert got[1] == want[1]
        self.assert_same_fields(got, want)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("dump_every", [None, 2])
    @pytest.mark.parametrize("l", [1, 2])
    def test_matches_whole_array_march(self, grid, halves, monkeypatch, l, dump_every, cpus):
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        state = self.unprojected(grid, l)
        got = self.run(state, 3, dump_every)
        want = spectral_march_by_hand(state, self.DT, self.STEPS, 3, dump_every)
        self.assert_same_fields(got, want)
        # the halves' sums are added after the march: the logs move at roundoff
        assert [d.t for d in got[1]] == [d.t for d in want[1]]
        assert [d.t for d in got[1]] == [0.1 + step * self.DT for step in (0, 3, 6, 7)]
        for d, ref in zip(got[1], want[1]):
            for value, oracle in zip((d.energy, d.div_te, d.div_tb, *d.band_te),
                                     (ref.energy, ref.div_te, ref.div_tb, *ref.band_te)):
                assert oracle > 0.01
                assert value == pytest.approx(oracle, rel=1e-14, abs=0)

    @pytest.mark.parametrize("dump_every", [None, 1, 3])
    @pytest.mark.parametrize("log_every", [0, 1, 3])
    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("split", [False, True])
    def test_row_march_matches_whole_array_march(self, grid, monkeypatch, split, l,
                                                 log_every, dump_every):
        # each band row is turned from event to event and summed on its own:
        # fields and dumps are the whole-array march's bits; so are the logs
        # in one half, and in two they move at roundoff
        monkeypatch.setattr(evolve, "SPLIT_MODES", 0 if split else grid.ntotal + 1)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        if not split:
            monkeypatch.setattr(spectral, "_run_paired", no_split)
        calls, row_sums = [], evolve._row_sums
        monkeypatch.setattr(evolve, "_row_sums",
                            lambda *args: calls.append(args[1].ndim) or row_sums(*args))
        state = self.unprojected(grid, l)
        got = self.run(state, log_every, dump_every)
        want = spectral_march_by_hand(state, self.DT, self.STEPS, log_every, dump_every)
        self.assert_same_fields(got, want)
        assert calls == [1] * (2 if split else 1) * (2 * l + 1) * len(got[1])
        if not split:
            assert got[1] == want[1]
        assert_logs_close(got[1], want[1])

    @pytest.mark.parametrize("n, l, paired", [(26, 2, False), (28, 1, True)])
    def test_split_depends_on_the_modes_alone(self, monkeypatch, n, l, paired):
        # 26^3, l = 2 has more samples per field than 28^3, l = 1, but a
        # half's calls are as long as its modes, whatever l is
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        calls, run_paired = [], spectral._run_paired
        monkeypatch.setattr(spectral, "_run_paired",
                            lambda *halves: calls.append(1) or run_paired(*halves))
        grid = GridSpec((n,) * 3, (TWO_PI,) * 3)
        assert (grid.ntotal >= evolve.SPLIT_MODES) == paired
        _, logs, _ = self.run(random_state(grid, l, seed=2), 3, None)
        assert calls == [1] * paired and len(logs) == 4

    @pytest.mark.parametrize("where", ["worker", "worker-before-dump", "dump_fn"])
    def test_error_is_raised_and_no_thread_is_left(self, grid, halves, monkeypatch, where):
        class Boom(Exception):
            pass

        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        callers, run_paired, row_sums = [], spectral._run_paired, evolve._row_sums
        monkeypatch.setattr(spectral, "_run_paired",
                            lambda *halves: callers.append(threading.current_thread())
                            or run_paired(*halves))

        def sums_then_boom(*args):
            if threading.current_thread() is not callers[0]:
                raise Boom("worker")
            return row_sums(*args)

        def dump_boom(s, step):
            raise Boom("dump_fn")

        if where != "dump_fn":
            monkeypatch.setattr(evolve, "_row_sums", sums_then_boom)
        before = threading.active_count()
        with pytest.raises(Boom, match=where.partition("-")[0]):
            self.run(self.unprojected(grid, 1), 1, None if where == "worker" else 2, dump_boom)
        assert len(callers) == 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("affinity", [True, False])
    def test_one_cpu_runs_in_turn(self, grid, halves, monkeypatch, affinity):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:  # where the platform has no affinity call
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert spectral._cpu_count() == 1
        monkeypatch.setattr(spectral, "_run_paired", no_split)
        _, logs, dumps = self.run(self.unprojected(grid, 1), 1, 2)
        assert len(logs) == self.STEPS + 1 and len(dumps) == 3


def per_entry_symbol(grid: GridSpec, op) -> np.ndarray:
    """(modes, rows, cols) symbol of an operator, entry by entry."""
    kx, ky, kz = grid.deriv_k_grids()
    sym = np.zeros((grid.ntotal, op.rows, op.cols), dtype=np.complex128)
    for r in range(op.rows):
        for c in range(op.cols):
            sym[:, r, c] = np.broadcast_to(op.entry(r, c).symbol(kx, ky, kz),
                                           (grid.n[2], grid.n[1], grid.n[0])).ravel()
    return sym


def spectrum_of(prop: _Propagator, coeffs: np.ndarray) -> np.ndarray:
    """`to_spectrum` of band coefficients into a new array."""
    return prop.to_spectrum(coeffs, np.empty(prop.shape, dtype=np.complex128))


def field_of(prop: _Propagator, coeffs: np.ndarray) -> TensorField:
    """The field of band coefficients: `to_spectrum`, then inverse FFT."""
    return TensorField(prop.l, "spherical", prop.grid,
                       np.fft.ifftn(spectrum_of(prop, coeffs), axes=(-3, -2, -1)))


def frame_matrices(prop: _Propagator) -> np.ndarray:
    """(modes, dim, dim) frame per mode, column i = band m = i - l, read back
    through `to_spectrum` from unit coefficients of one band at every mode."""
    columns = []
    for band in range(prop.dim):
        coeffs = np.zeros((prop.dim, prop.grid.ntotal), dtype=np.complex128)
        coeffs[band] = 1.0
        columns.append(spectrum_of(prop, coeffs).reshape(prop.dim, -1))
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

    @pytest.mark.parametrize("l", [1, 2, 3, MAX_SPIN])
    def test_turn_matches_complex_power(self, grid, l):
        prop = _Propagator(grid, l)
        for phase in (prop.polar, prop.azimuth):
            for sign in (1, -1):
                x = np.ones((prop.dim, phase.size), dtype=np.complex128)
                evolve._turn(x, phase, sign)
                # each product and conjugate adds at most a rounding or two
                want = phase ** (sign * prop.m[:, None])
                assert np.abs(x - want).max() <= 2 * l * np.finfo(float).eps

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_round_trip(self, small, l):
        prop = _Propagator(small, l)
        f = random_bandlimited(small, l, "spherical", kcut=0.5, seed=l)
        back = field_of(prop, prop.to_eigen(_fft(f.data)))
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

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("c, dt", [(1.0, 0.02), (1.0, -0.07), (2.5, 0.3), (0.7, -1.9)])
    def test_reversed_phases_are_conjugate(self, small, l, c, dt):
        # run_spectral turns z- by phases[::-1] in place of phases.conj(); the
        # eigenvalue m|k|/l is odd in m, so the two agree bit for bit, at the
        # Nyquist-zeroed modes of this even grid too
        phases = _Propagator(small, l).phases(c, dt)
        assert np.array_equal(phases[::-1], phases.conj())
        assert np.abs(phases.imag).max() > 0.1

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
        a, b = prop.to_eigen(_fft(te.data)), prop.to_eigen(_fft(tb.data))
        # coefficients in the rephased frame are conj(phase) * a
        a2, b2 = a * phase.conj(), b * phase.conj()
        projected = field_of(prop, prop.constraint_project(a.copy()))
        projected2 = field_of(prop, prop.constraint_project(a2.copy()) * phase)
        assert (projected2 - projected).norm() <= 1e-14 * projected.norm()
        assert projected.norm() < 0.9 * te.norm()  # the projection removed something
        def logged(x, y):
            sums = np.empty((4, prop.dim))
            for r, (zp, zm) in enumerate(zip(x + 1j * y, x - 1j * y)):
                _row_sums(prop.kscale(), zp, zm, np.empty_like(zp), sums[:, r])
            return _diag_from_modes(prop, 0.0, sums)

        d, d2 = logged(a, b), logged(a2, b2)
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


class TestDiagnosticsWithoutCancellation:
    """Diagnostics read 2a = z+ + z- and 2ib = z+ - z- as sums of squares.

    The expansion |z+|^2 + |z-|^2 +- 2 Re(z+ conj z-) of the same terms
    cancels when one field is zero or small next to the other."""

    @pytest.fixture(scope="class")
    def small(self):
        return GridSpec((8, 8, 8), (TWO_PI, 3.0, 5.0))

    @staticmethod
    def logged(state):
        """`diagnostics` and the initial log of a `run_spectral` run."""
        return diagnostics(state), run_spectral(state, 0.05, 2)[1][0]

    @pytest.mark.parametrize("l, m", [(1, 1), (2, -1), (3, 0)])
    def test_tb_zero(self, small, l, m):
        state = plane_wave_state(small, l, m, (1, 2, 3), traveling=False)
        assert not state.tb.data.any()
        for d in self.logged(state):
            assert d.div_tb == 0.0
            assert d.div_te < 1e-14 if abs(m) == l else d.div_te > 0.1
            assert d.energy == pytest.approx(state.te.norm() ** 2, rel=1e-14)

    @pytest.mark.parametrize("l, m", [(1, -1), (2, 2), (3, 1)])
    def test_te_zero(self, small, l, m):
        state = plane_wave_state(small, l, m, (3, 0, 1), traveling=False)
        state = EvolutionState(state.tb, state.te, 0.0)
        for d in self.logged(state):
            assert d.band_te == (0.0,) * (2 * l + 1)
            assert d.div_te == 0.0
            assert d.energy == pytest.approx(state.tb.norm() ** 2, rel=1e-14)

    @pytest.mark.parametrize("l", [1, 2])
    def test_small_partner_keeps_its_digits(self, small, l):
        # TB is 2^-20 of TE: its divergence residual, a ratio, is that of the
        # unscaled field to the rounding of z+- (~1e-16 / 2^-20), where the
        # expansion would leave ~1e-16 / 2^-40
        te = random_bandlimited(small, l, "spherical", kcut=0.5, seed=50)
        tb = random_bandlimited(small, l, "spherical", kcut=0.5, seed=51)
        alone = diagnostics(EvolutionState(tb, TensorField.zeros(small, l, "spherical"), 0.0))
        assert alone.div_te > 0.1
        for d in self.logged(EvolutionState(te, tb * 2.0 ** -20, 0.0)):
            assert d.div_tb == pytest.approx(alone.div_te, rel=1e-8)


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
        s = cartesian_transform(1).symbol_at((0, 0, 0))
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


def for_each_driver(argnames, cases, ids):
    """Parametrize a test over both drivers, which check their input alike:
    the `run_spectral` cases are named by `ids`, the `run_rk4` ones by
    ``rk4-`` and `ids`."""
    return pytest.mark.parametrize(
        "driver, " + argnames,
        [(driver, *case) for driver in (run_spectral, run_rk4) for case in cases],
        ids=ids + [f"rk4-{i}" for i in ids])


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

    @for_each_driver("kwargs, name", [
        ({"steps": -1}, "steps"), ({"steps": -2}, "steps"),
        ({"log_every": -1}, "log_every"),
        ({"dump_every": 0}, "dump_every"), ({"dump_every": -1}, "dump_every"),
    ], ids=["kwargs0-steps", "kwargs1-steps", "kwargs2-log_every",
            "kwargs3-dump_every", "kwargs4-dump_every"])
    def test_run_spectral_rejects_bad_counts(self, driver, kwargs, name):
        state = random_state(GridSpec((8, 8, 8), (TWO_PI,) * 3), 1, seed=3)
        args = {"steps": 3, "dump_fn": lambda s, step: None} | kwargs
        with pytest.raises(ValueError, match=f"^{name} must be"):
            driver(state, 0.1, **args)

    @pytest.mark.parametrize("driver", [run_spectral, run_rk4], ids=["spectral", "rk4"])
    def test_run_spectral_count_edges(self, driver):
        state = random_state(GridSpec((8, 8, 8), (TWO_PI,) * 3), 1, seed=3)
        final, logs = driver(state, 0.1, 0)
        assert final.t == state.t and len(logs) == 1
        assert (final.te - state.te).norm() <= 1e-14 * state.te.norm()
        dumped = []
        _, logs = driver(state, 0.1, 3, log_every=0, dump_every=1,
                         dump_fn=lambda s, step: dumped.append(step))
        assert logs == [] and dumped == [1, 2, 3]

    # 1e308 is finite, but c*dt*kmax overflows
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 1e308, -1e308])
    def test_rk4_rejects_non_finite_dt(self, dt):
        state = random_state(GridSpec((8, 8, 8), (TWO_PI,) * 3), 1, seed=3)
        with pytest.raises(ValueError, match="dt must be finite"):
            step_rk4(state, dt)

    # 1e308 is finite, but c*dt*kmax overflows
    @for_each_driver("dt", [(float("nan"),), (float("inf"),), (-float("inf"),), (1e308,),
                            (-1e308,)], ids=["nan", "inf", "-inf", "1e+308", "-1e+308"])
    def test_run_spectral_rejects_non_finite_dt(self, driver, dt):
        state = random_state(GridSpec((8, 8, 8), (TWO_PI,) * 3), 1, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any numpy work
            with pytest.raises(ValueError, match="dt must be finite"):
                driver(state, dt, 2)

    # c*dt*kmax is finite (about 5 on 8^3), but t + steps*dt overflows
    @for_each_driver("t, steps", [(0.0, 2), (1e308, 1), (-1e308, 3)],
                     ids=["two-steps", "from-1e308", "from--1e308"])
    def test_rejects_a_run_whose_end_time_overflows(self, driver, t, steps):
        grid = GridSpec((8, 8, 8), (TWO_PI,) * 3)
        state = EvolutionState(*(random_bandlimited(grid, 1, "spherical", seed=h)
                                 for h in (0, 1)), t, 1e-308)
        dt = 1e308 if t >= 0 else -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^dt must keep the end time t \+ steps\*dt "):
                driver(state, dt, steps)
            if steps == 1:
                with pytest.raises(ValueError, match=r"^dt must keep the end time"):
                    step_rk4(state, dt)
            # a run that ends at a finite time is let through
            final, _ = driver(state, 0.0 if t else 4e307, steps, log_every=0)
            assert math.isfinite(final.t)
