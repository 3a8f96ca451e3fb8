import json
import math
import threading
import warnings

import numpy as np
import pytest

from curlmat import evolve, spectral
from curlmat.builders import (build_cartesian_curls, build_curl_cg, build_div,
                              build_grad, cartesian_curl_rank2, cartesian_div,
                              cartesian_grad, cartesian_transform,
                              cartesian_transform_inverse)
from curlmat.diffop import DiffPoly, OpMatrix, spherical_tag
from curlmat.evolve import EvolutionState, random_state, run_spectral, step_rk4
from curlmat.exactnum import ONE
from curlmat.identities import curl_alpha_pairs
from curlmat.spectral import (GridSpec, TensorField, _fft, _ifft, apply_operator,
                              apply_symbol, complex_curl_field,
                              example_rotation_fields, helmholtz, plane_wave,
                              random_bandlimited, read_ctf, reconstruction_residual,
                              relative_complex_curl, relative_divergence,
                              symbol_entries, wavevector, write_ctf)

from oracles import gradient_scale

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def grid():
    return GridSpec((16, 16, 16), (TWO_PI, TWO_PI, TWO_PI))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec((15, 16, 16), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            GridSpec((16, 16, 16), (0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            GridSpec((16, 16), (1.0, 1.0))
        for bad in (16.5, "16"):
            with pytest.raises(ValueError):
                GridSpec((bad, 16, 16), (1.0, 1.0, 1.0))
        assert GridSpec((np.int64(16), 16, 16), (1.0, 1.0, 1.0)).n == (16, 16, 16)
        for bad in ("1", True, np.bool_(True), None, 1j, 10 ** 400):
            with pytest.raises(ValueError):
                GridSpec((16, 16, 16), (bad, 1.0, 1.0))
        box = GridSpec((16, 16, 16), (2, np.int64(3), np.float32(0.5))).box
        assert box == (2.0, 3.0, 0.5) and all(type(v) is float for v in box)

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_rejects_non_finite_box(self, bad):
        with pytest.raises(ValueError):
            GridSpec((8, 8, 8), (bad, 1.0, 1.0))

    @pytest.mark.parametrize("box, match", [
        ((1e-320, 1.0, 1.0), "squared wavenumbers"),  # 2 pi (n/2) / box is inf
        ((1e-160, 1.0, 1.0), "squared wavenumbers"),  # finite, its square not
        ((1e-160,) * 3, "squared wavenumbers"),
        ((1e-110,) * 3, "cell volume of 0.0"),
        ((1e110,) * 3, "cell volume of inf"),
        ((1e300, 1e300, 1.0), "cell volume of inf"),
    ])
    def test_rejects_box_the_grid_cannot_use(self, box, match):
        with pytest.raises(ValueError, match=match) as info:
            GridSpec((8, 8, 8), box)
        assert str(box) in str(info.value)

    def test_accepts_extreme_usable_boxes(self):
        # one axis short, one long: the wavenumbers square to finite values
        # and the cell volume is a normal number
        for box in ((1e-150, 1.0, 1e100), (1e-100,) * 3, (1e100,) * 3):
            grid = GridSpec((8, 8, 8), box)
            assert 0 < grid.cell_volume < math.inf
            assert all(np.isfinite(grid.k_axis(a) ** 2).all() for a in range(3))

    def test_wavenumbers(self, grid):
        k = grid.k_axis(0)
        assert k[0] == 0.0
        assert k[1] == pytest.approx(1.0)  # box 2*pi: k = j
        assert k[8] == pytest.approx(-8.0)
        kd = grid.deriv_k_axis(0)
        assert kd[8] == 0.0  # Nyquist zeroed

    def test_cell_volume(self, grid):
        assert grid.cell_volume == pytest.approx((TWO_PI / 16) ** 3)


class TestFftLayer:
    """`_fft`/`_ifft` are numpy's transforms over the last three axes, whatever
    buffer the result goes to."""

    @pytest.mark.parametrize("ours,numpy_fn", ((_fft, np.fft.fftn), (_ifft, np.fft.ifftn)))
    def test_bit_identical_to_numpy(self, ours, numpy_fn):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((2, 3, 8, 6, 4)) + 1j * rng.standard_normal((2, 3, 8, 6, 4))
        want = numpy_fn(data, axes=(-3, -2, -1))
        kept = data.copy()
        got = ours(data)
        assert np.array_equal(got, want)
        assert np.array_equal(data, kept)  # no `out`: the input is left alone
        fresh = np.empty_like(data)
        assert ours(data, out=fresh) is fresh and np.array_equal(fresh, want)
        assert np.array_equal(data, kept)
        assert ours(data, out=data) is data and np.array_equal(data, want)

    def test_real_input(self):
        data = np.random.default_rng(8).standard_normal((4, 4, 4))
        assert np.array_equal(_fft(data), np.fft.fftn(data))


def count_pairs(monkeypatch) -> list[int]:
    """One entry per `spectral._run_paired` call from here on; a second CPU."""
    calls, run_paired = [], spectral._run_paired
    monkeypatch.setattr(spectral, "_run_paired",
                        lambda *halves: calls.append(1) or run_paired(*halves))
    monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
    return calls


class TestSplitFft:
    """`_fft`/`_ifft`: two batches on two threads from `FFT_SPLIT_SAMPLES`
    samples, the bits of one numpy call either way."""

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("shape", [(1, 8, 6, 4), (3, 8, 6, 4), (5, 8, 6, 4),
                                       (2, 3, 8, 6, 4), (8, 6, 4)])
    @pytest.mark.parametrize("ours,numpy_fn", ((_fft, np.fft.fftn), (_ifft, np.fft.ifftn)))
    def test_bit_identical_to_numpy(self, monkeypatch, ours, numpy_fn, shape, side):
        paired = count_pairs(monkeypatch)
        size = int(np.prod(shape))
        monkeypatch.setattr(spectral, "FFT_SPLIT_SAMPLES", size + (side == "below"))
        rng = np.random.default_rng(9)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = numpy_fn(data, axes=(-3, -2, -1))
        kept = data.copy()
        before = threading.active_count()
        assert np.array_equal(ours(data), want)
        assert np.array_equal(data, kept)
        fresh = np.empty_like(data)
        assert ours(data, out=fresh) is fresh and np.array_equal(fresh, want)
        assert ours(data, out=data) is data and np.array_equal(data, want)
        real = rng.standard_normal(shape)
        assert np.array_equal(ours(real), numpy_fn(real, axes=(-3, -2, -1)))
        assert threading.active_count() == before
        # a 3-D input or a single component has no batch to split
        splits = side == "above" and len(shape) > 3 and shape[0] > 1
        assert len(paired) == (4 if splits else 0)

    def test_at_the_gate(self, monkeypatch):
        paired = count_pairs(monkeypatch)
        shape = (3, 32, 32, 32)
        assert np.prod(shape) == spectral.FFT_SPLIT_SAMPLES
        rng = np.random.default_rng(10)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for part in (data, data[:, 1:]):  # 3 x 31 x 32 x 32 is below the gate
            assert np.array_equal(_fft(part), np.fft.fftn(part, axes=(1, 2, 3)))
        assert len(paired) == 1

    def test_one_cpu_runs_the_batches_in_turn(self, monkeypatch):
        monkeypatch.setattr(spectral, "FFT_SPLIT_SAMPLES", 0)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 1)
        monkeypatch.setattr(spectral, "_run_paired", no_split)
        data = np.random.default_rng(11).standard_normal((3, 4, 4, 4)).astype(complex)
        want = np.fft.fftn(data, axes=(1, 2, 3))
        calls, fftn = [], np.fft.fftn
        monkeypatch.setattr(np.fft, "fftn", lambda part, *args, **kwargs: calls.append(
            (threading.current_thread(), part.shape)) or fftn(part, *args, **kwargs))
        assert np.array_equal(_fft(data), want)
        assert calls == [(threading.current_thread(), (n, 4, 4, 4)) for n in (2, 1)]

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_error_is_raised_here_and_no_thread_is_left(self, monkeypatch, where):
        class Boom(Exception):
            pass

        count_pairs(monkeypatch)
        monkeypatch.setattr(spectral, "FFT_SPLIT_SAMPLES", 0)
        caller, fftn = threading.current_thread(), np.fft.fftn

        def boom(data, *args, **kwargs):
            if (threading.current_thread() is caller) == (where == "caller"):
                raise Boom(where)
            return fftn(data, *args, **kwargs)
        monkeypatch.setattr(np.fft, "fftn", boom)
        before = threading.active_count()
        with pytest.raises(Boom, match=where):
            _fft(np.ones((3, 4, 4, 4), dtype=complex))
        assert threading.active_count() == before

    def test_whole_field_transforms_split(self, grid, monkeypatch):
        # apply_operator, helmholtz, the residuals and random_bandlimited give
        # the bits of their serial transforms, each of which is split
        curl = build_cartesian_curls().curl

        def results():
            f = random_bandlimited(grid, 1, "cartesian", seed=12)
            perp, par = helmholtz(f)
            return [f.data, apply_operator(curl, f).data, perp.data, par.data,
                    relative_divergence(f), relative_complex_curl(f)]

        want = results()
        paired = count_pairs(monkeypatch)
        monkeypatch.setattr(spectral, "FFT_SPLIT_SAMPLES", 0)
        got = results()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # an ifftn in random_bandlimited, an fftn and an ifftn in each of
        # apply_operator and helmholtz, an fftn in each residual
        assert len(paired) == 1 + 2 + 2 + 2

    @pytest.mark.parametrize("call", [
        lambda f: apply_operator(build_cartesian_curls().curl, f), helmholtz,
        relative_divergence], ids=["apply_operator", "helmholtz", "relative_divergence"])
    def test_caller_error_state_holds_on_the_worker(self, monkeypatch, call):
        # only component 2, the worker's batch, overflows in the forward
        # FFT: under the caller's raise-on-overflow state the worker raises
        # as the caller would, where a fresh context would warn
        paired = count_pairs(monkeypatch)
        monkeypatch.setattr(spectral, "FFT_SPLIT_SAMPLES", 0)
        data = np.zeros((3, 8, 8, 8), dtype=complex)
        data[2] = 1e307
        f = TensorField(1, "cartesian", GridSpec((8, 8, 8), (TWO_PI,) * 3), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                call(f)
        assert len(paired) == 1

    @pytest.mark.parametrize("halves", ["serial", "split"])
    def test_evolve_transforms_split_like_the_rest(self, grid, monkeypatch, halves):
        # a state built from fields takes one fftn of the pair, split by size
        # alone like every whole-field transform, with the bits of one call;
        # no step or run transforms, whether or not the march is split
        start = random_state(grid, 1, seed=13)
        fields = start.te, start.tb
        want = EvolutionState(*fields, 0.0)._spectra
        count_pairs(monkeypatch)
        if halves == "split":
            monkeypatch.setattr(evolve, "SPLIT_MODES", 0)
        monkeypatch.setattr(spectral, "FFT_SPLIT_SAMPLES", 0)
        caller, calls = threading.current_thread(), []
        for name in ("fftn", "ifftn"):
            def counted(data, *args, _fn=getattr(np.fft, name), **kwargs):
                calls.append((threading.current_thread() is caller, data.shape))
                return _fn(data, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        state = EvolutionState(*fields, 0.0)
        step_rk4(step_rk4(state, 0.02), 0.02)
        run_spectral(state, 0.02, 2)
        # one batch of one field on each thread
        assert sorted(calls) == [(False, (1,) + fields[0].data.shape),
                                 (True, (1,) + fields[0].data.shape)]
        assert np.array_equal(state._spectra, want)


def no_split(*args):
    raise AssertionError("the transform ran on two threads")


class TestTensorField:
    def test_component_count_validation(self, grid):
        with pytest.raises(ValueError):
            TensorField(1, "spherical", grid, np.zeros((4, 16, 16, 16)))
        with pytest.raises(ValueError):
            TensorField(3, "cartesian", grid, np.zeros((7, 16, 16, 16)))

    @pytest.mark.parametrize("basis", ["spherical", "cartesian"])
    def test_negative_rank_rejected(self, grid, basis):
        with pytest.raises(ValueError, match="rank l must be a non-negative integer, got -1"):
            TensorField(-1, basis, grid, np.zeros((3, 16, 16, 16)))
        with pytest.raises(ValueError, match="non-negative"):
            TensorField.zeros(grid, -1, basis)

    def test_finite_validation(self, grid):
        data = np.zeros((3, 16, 16, 16), dtype=complex)
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            TensorField(1, "cartesian", grid, data)

    def test_arithmetic(self, grid):
        f = random_bandlimited(grid, 1, "cartesian", seed=1)
        g = random_bandlimited(grid, 1, "cartesian", seed=2)
        assert np.allclose((f + g - f).data, g.data)
        assert np.allclose((f * 2.0).data, 2 * f.data)


class TestApplyOperator:
    def test_identity_roundtrip(self, grid):
        f = random_bandlimited(grid, 1, "spherical", seed=3)
        eye = OpMatrix.identity(3, spherical_tag(1, 1))
        out = apply_operator(eye, f)
        assert (out - f).norm() <= 1e-12 * f.norm()

    @pytest.mark.parametrize("l,m", [(1, 1), (1, -1), (2, 2), (2, 0)])
    def test_plane_wave_eigenmode(self, grid, l, m):
        jvec = (1, 2, 0)
        f = plane_wave(grid, l, m, jvec)
        out = apply_operator(build_curl_cg(l), f)
        k = wavevector(grid, jvec)
        expected = f * (m * np.linalg.norm(k) / l)
        assert (out - expected).norm() <= 1e-9 * max(f.norm(), 1.0)

    def test_cartesian_plane_wave_transverse(self, grid):
        # helicity +/-1 polarizations are orthogonal to k, hence div-free
        f = plane_wave(grid, 1, 1, (2, 1, 0), basis="cartesian")
        assert relative_divergence(f) <= 1e-12
        out = apply_operator(build_cartesian_curls().curl, f)
        k = np.linalg.norm(wavevector(grid, (2, 1, 0)))
        # the unitary basis change preserves the eigenrelation curl f = m|k| f
        assert (out - f * k).norm() <= 1e-9 * f.norm()

    @pytest.mark.parametrize("m", [2, 1, 0, -1, -2])
    def test_cartesian_rank2_plane_wave_eigenmode(self, grid, m):
        # the packed wave keeps the eigenrelation curl f = (m|k|/2) f
        jvec = (1, 2, 0)
        f = plane_wave(grid, 2, m, jvec, basis="cartesian")
        assert f.basis == "cartesian" and f.ncomp == 5
        out = apply_operator(cartesian_curl_rank2(), f)
        expected = f * (m * np.linalg.norm(wavevector(grid, jvec)) / 2)
        assert (out - expected).norm() <= 1e-9 * f.norm()

    @pytest.mark.parametrize("jvec", [(8, 0, 0), (-8, 1, 0), (0, 19, 0), (1, 0, -9)])
    def test_plane_wave_rejects_unresolved_mode(self, grid, jvec):
        # 8 is the Nyquist index of 16 points, whose derivative symbol is
        # zeroed; past it an index aliases to a lower one
        with pytest.raises(ValueError, match="not resolved"):
            plane_wave(grid, 1, 1, jvec)

    @pytest.mark.parametrize("jvec", [(7, 0, 0), (-7, 7, -7)])
    def test_plane_wave_at_highest_resolved_mode(self, grid, jvec):
        f = plane_wave(grid, 1, 1, jvec)
        out = apply_operator(build_curl_cg(1), f)
        expected = f * np.linalg.norm(wavevector(grid, jvec))
        assert (out - expected).norm() <= 1e-9 * f.norm()

    def test_cartesian_plane_wave_ranks(self, grid):
        with pytest.raises(ValueError, match="l = 1 or 2"):
            plane_wave(grid, 3, 1, (1, 0, 0), basis="cartesian")

    def test_curl_of_gradient_vanishes(self, grid):
        scalar = random_bandlimited(grid, 0, "cartesian", seed=4)
        gradient = apply_operator(cartesian_grad(), scalar)
        curled = apply_operator(build_cartesian_curls().curl, gradient)
        assert curled.norm() <= 1e-10 * gradient_scale(gradient)

    def test_zero_field(self, grid):
        zero = TensorField.zeros(grid, 1, "spherical")
        assert apply_operator(build_curl_cg(1), zero).norm() == 0.0

    def test_linearity(self, grid):
        div = build_div(1)
        u = random_bandlimited(grid, 1, "spherical", seed=5)
        v = random_bandlimited(grid, 1, "spherical", seed=6)
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        lhs = apply_operator(div, u * a + v * b)
        rhs = apply_operator(div, u) * a + apply_operator(div, v) * b
        assert (lhs - rhs).norm() <= 1e-12 * (lhs.norm() + 1.0)

    def test_rank_changes(self, grid):
        f = random_bandlimited(grid, 1, "spherical", seed=7)
        assert apply_operator(build_div(1), f).l == 0
        assert apply_operator(build_grad(1), f).l == 2

    def test_basis_mismatch(self, grid):
        f = random_bandlimited(grid, 1, "cartesian", seed=8)
        with pytest.raises(ValueError):
            apply_operator(build_curl_cg(1), f)

    def test_real_input_stays_real_under_first_derivative(self, grid):
        # conjugate symmetry survives the Nyquist convention
        rng = np.random.default_rng(9)
        data = rng.standard_normal((1, 16, 16, 16))
        scalar = TensorField(0, "cartesian", grid, data.astype(complex))
        out = apply_operator(cartesian_grad(), scalar)
        assert np.abs(out.data.imag).max() <= 1e-12 * np.abs(out.data).max()


def symbol_per_entry(op, grid, spectrum):
    """Reference apply_symbol: every entry's symbol evaluated afresh."""
    kx, ky, kz = grid.deriv_k_grids()
    out = np.zeros(spectrum.shape[:-4] + (op.rows,) + spectrum.shape[-3:],
                   dtype=np.complex128)
    for r in range(op.rows):
        for c in range(op.cols):
            entry = op.entry(r, c)
            if not entry.is_zero:
                out[..., r, :, :, :] += entry.symbol(kx, ky, kz) * spectrum[..., c, :, :, :]
    return out


def apply_per_entry(op, f):
    """Reference apply_operator: `symbol_per_entry` between numpy FFTs."""
    out = symbol_per_entry(op, f.grid, np.fft.fftn(f.data, axes=(1, 2, 3)))
    return np.fft.ifftn(out, axes=(1, 2, 3))


class TestSymbolEntries:
    @pytest.mark.parametrize("op,l,basis", [
        (lambda: build_curl_cg(1), 1, "spherical"),
        (lambda: build_curl_cg(2), 2, "spherical"),
        (lambda: build_div(2), 2, "spherical"),
        (lambda: build_cartesian_curls().curl, 1, "cartesian"),
    ], ids=["curl-1", "curl-2", "div-2", "cartesian-curl"])
    def test_apply_operator_matches_per_entry_loop(self, grid, op, l, basis):
        f = random_bandlimited(grid, l, basis, seed=11)
        np.testing.assert_array_equal(apply_operator(op(), f).data,
                                      apply_per_entry(op(), f))

    def test_cached_per_operator_and_grid(self, grid):
        op = build_curl_cg(1)
        entries = symbol_entries(op, grid)
        assert symbol_entries(op, grid) is entries
        other = GridSpec((8, 8, 8), grid.box)
        assert symbol_entries(op, other) is not entries

    def test_entries_are_sparse_read_only_and_broadcast(self, grid):
        op = build_cartesian_curls().curl
        entries = symbol_entries(op, grid)
        assert [(r, c) for r, c, _ in entries] == [
            (r, c) for r in range(3) for c in range(3) if not op.entry(r, c).is_zero]
        for _, _, sym in entries:
            assert not sym.flags.writeable
            assert sym.size == 16  # one derivative axis each, not a full grid


class TestApplySymbol:
    """The fused kernel ``out = base + scale * op(k) spectrum``."""

    def test_row_without_entries_overwrites_stale_output(self, grid):
        curl = build_curl_cg(1)
        op = OpMatrix(3, 3, [DiffPoly() if r == 1 else curl.entry(r, c)
                             for r in range(3) for c in range(3)], curl.tag)
        f = random_bandlimited(grid, 1, "spherical", seed=12)
        out = np.full(f.data.shape, np.nan, dtype=np.complex128)
        assert apply_symbol(op, grid, _fft(f.data), out=out) is out
        assert np.array_equal(out[1], np.zeros_like(out[1]))
        np.testing.assert_array_equal(_ifft(out), apply_per_entry(op, f))

    @pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "batched"])
    @pytest.mark.parametrize("op,ncomp", [
        (lambda: build_curl_cg(2), 5),
        (lambda: build_grad(1), 3),
    ], ids=["curl-2", "grad-1"])
    def test_scale_and_base(self, grid, batch, op, ncomp):
        op = op()
        rng = np.random.default_rng(13)
        def noise(rows):
            shape = batch + (rows, 16, 16, 16)
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spectrum, base = noise(ncomp), noise(op.rows)
        for scale in (-0.37, 0.25 - 1.5j):
            got = apply_symbol(op, grid, spectrum, scale=scale, base=base)
            want = base + scale * symbol_per_entry(op, grid, spectrum)
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
        # the default scale and no base: the unscaled symbol, bit for bit
        np.testing.assert_array_equal(apply_symbol(op, grid, spectrum),
                                      symbol_per_entry(op, grid, spectrum))


class TestFieldIdentityAgreement:
    def test_core_identities_on_random_fields(self, grid):
        for ident, l, lhs, rhs in curl_alpha_pairs(ONE, 2):
            f = random_bandlimited(grid, lhs.tag.l_in, "spherical",
                                   seed=hash(ident) % 1000)
            a = apply_operator(lhs, f)
            b = apply_operator(rhs, f)
            scale = a.norm() + b.norm() + f.norm()
            assert (a - b).norm() <= 1e-10 * scale, ident


class TestComplexCurlField:
    def test_matches_direct_operator(self, grid):
        u = random_bandlimited(grid, 1, "cartesian", seed=10)
        v = random_bandlimited(grid, 1, "cartesian", seed=11)
        combined = complex_curl_field(u, v)
        direct = apply_operator(build_cartesian_curls().curl_c, u + v * 1j)
        assert (combined - direct).norm() <= 1e-12 * max(direct.norm(), 1.0)

    def test_v_zero_reduces(self, grid):
        u = random_bandlimited(grid, 1, "cartesian", seed=12)
        v = TensorField.zeros(grid, 1, "cartesian")
        out = complex_curl_field(u, v)
        base = apply_operator(build_cartesian_curls().curl, u)
        assert (out - base * (1 + 1j)).norm() <= 1e-12 * base.norm()

    def test_u_equals_v_is_purely_doubled_imaginary(self, grid):
        u = random_bandlimited(grid, 1, "cartesian", seed=13)
        out = complex_curl_field(u, u)
        base = apply_operator(build_cartesian_curls().curl, u)
        assert (out - base * 2j).norm() <= 1e-12 * base.norm()

    def test_rotation_pair_band_limited_consistency(self, grid):
        u, v = example_rotation_fields(grid)
        combined = complex_curl_field(u, v)
        direct = apply_operator(build_cartesian_curls().curl_c, u + v * 1j)
        assert (combined - direct).norm() <= 1e-12 * max(direct.norm(), 1.0)


def projector_oracle(f):
    """The longitudinal projector k (k . f)/|k|^2 written out per mode;
    k = 0 and all-Nyquist-zeroed modes go wholly to the longitudinal part."""
    kx, ky, kz = f.grid.deriv_k_grids()
    spectrum = np.fft.fftn(f.data, axes=(1, 2, 3))
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    dot = kx * spectrum[0] + ky * spectrum[1] + kz * spectrum[2]
    coeff = dot / np.where(k2 > 0, k2, 1.0)
    par = np.stack([kx * coeff, ky * coeff, kz * coeff])
    par[:, k2 == 0] = spectrum[:, k2 == 0]
    return (np.fft.ifftn(spectrum - par, axes=(1, 2, 3)),
            np.fft.ifftn(par, axes=(1, 2, 3)))


class TestHelmholtz:
    def test_matches_projector_oracle(self, grid):
        f = random_bandlimited(grid, 1, "cartesian", kcut=0.5, seed=22)
        for half, expected in zip(helmholtz(f), projector_oracle(f)):
            assert np.linalg.norm(half.data - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_gradient_is_longitudinal(self, grid):
        scalar = random_bandlimited(grid, 0, "cartesian", seed=14)
        f = apply_operator(cartesian_grad(), scalar)
        perp, par = helmholtz(f)
        assert perp.norm() <= 1e-10 * f.norm()
        assert (par - f).norm() <= 1e-10 * f.norm()

    def test_curl_is_transverse(self, grid):
        w = random_bandlimited(grid, 1, "cartesian", seed=15)
        f = apply_operator(build_cartesian_curls().curl, w)
        perp, par = helmholtz(f)
        assert par.norm() <= 1e-10 * f.norm()

    def test_random_field_split(self, grid):
        f = random_bandlimited(grid, 1, "cartesian", seed=16)
        perp, par = helmholtz(f)
        assert (f - (perp + par)).norm() <= 1e-12 * f.norm()
        assert relative_divergence(perp) <= 1e-10
        assert relative_complex_curl(par) <= 1e-10

    @pytest.mark.parametrize("seed", [2, 16, 31])
    def test_reconstruction_residual_keeps_its_bits(self, grid, seed):
        # the expression `curlmat helmholtz` printed before it called this
        # function: perp + par first, so the roundoff survives
        f = random_bandlimited(grid, 1, "cartesian", seed=seed)
        perp, par = helmholtz(f)
        diff = np.add(perp.data, par.data)
        np.subtract(f.data, diff, out=diff)
        want = math.sqrt(np.vdot(diff, diff).real * f.grid.cell_volume) / f.norm()
        got = reconstruction_residual(f, perp, par)
        assert isinstance(got, float) and got == want > 0
        assert got <= 1e-12

    def test_reconstruction_residual_of_a_zero_field(self, grid):
        zero = TensorField.zeros(grid, 1, "cartesian")
        assert reconstruction_residual(zero, *helmholtz(zero)) == 0.0

    def test_reconstruction_residual_rejects_other_grids(self, grid):
        f = random_bandlimited(grid, 1, "cartesian", seed=3)
        g = random_bandlimited(GridSpec((8, 8, 8), (TWO_PI,) * 3), 1, "cartesian", seed=3)
        with pytest.raises(ValueError):
            reconstruction_residual(f, *helmholtz(g))

    def test_idempotent(self, grid):
        f = random_bandlimited(grid, 1, "cartesian", seed=17)
        perp, _ = helmholtz(f)
        perp2, par2 = helmholtz(perp)
        assert (perp2 - perp).norm() <= 1e-10 * perp.norm()
        assert par2.norm() <= 1e-10 * perp.norm()

    def test_constant_field_is_longitudinal(self, grid):
        # the mean, and j = (8, 0, 0), whose first-derivative wavenumbers
        # are all Nyquist-zeroed
        x = grid.coords(0)[None, None, :]
        for jx in (0, 8):
            data = np.zeros((3, 16, 16, 16), dtype=complex)
            data[0] = 2.5 * np.exp(1j * jx * x)
            f = TensorField(1, "cartesian", grid, data)
            perp, par = helmholtz(f)
            assert perp.norm() <= 1e-13, jx
            assert (par - f).norm() <= 1e-13, jx


@pytest.mark.parametrize("l, basis", [(1, "cartesian"), (2, "spherical")])
def test_random_bandlimited_keeps_the_bits_of_its_draws(grid, l, basis):
    # the spectrum is filled part by part, with the bits the expression
    # draw1 + 1j*draw2 gives it, then masked and transformed as before
    shape = (2 * l + 1 if basis == "spherical" else 3,) + (16,) * 3
    rng = np.random.default_rng(31)
    spectrum = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kept = np.abs(np.fft.fftfreq(16) * 16) <= 0.25 * 16
    spectrum *= kept[:, None, None] & kept[None, :, None] & kept[None, None, :]
    want = np.fft.ifftn(spectrum, axes=(-3, -2, -1))
    assert np.array_equal(random_bandlimited(grid, l, basis, seed=31).data, want)


@pytest.mark.parametrize("op", [build_cartesian_curls().curl, cartesian_div()],
                         ids=["curl", "div"])
def test_residual_matches_the_norm_of_the_whole_output(grid, op):
    # summed row by row, the squares are added in another order than
    # np.linalg.norm of the whole output adds them: equal to roundoff
    f = random_bandlimited(grid, 1, "cartesian", seed=32)
    spectrum = _fft(f.data)
    want = np.linalg.norm(apply_symbol(op, grid, spectrum))
    want /= spectral._gradient_scale(grid, spectrum)
    assert spectral._relative_residual(op, f) == pytest.approx(want, rel=1e-14)
    assert want > 0.1


@pytest.mark.parametrize("kcut", (float("nan"), -1.0))
def test_random_bandlimited_rejects_bad_kcut(grid, kcut):
    with pytest.raises(ValueError, match="kcut"):
        random_bandlimited(grid, 1, "cartesian", kcut=kcut)


def _to_packed(f: TensorField) -> TensorField:
    """A rank-2 spherical field in the packed cartesian basis."""
    p = cartesian_transform(2).symbol_at((0, 0, 0))
    return TensorField(2, "cartesian", f.grid, np.einsum("ab,bzyx->azyx", p, f.data))


def _unpack(packed: np.ndarray) -> list[list[np.ndarray]]:
    """The 3x3 arrays of a rank-2 cartesian tensor packed on the first axis."""
    t11, t12, t13, t22, t23 = packed
    return [[t11, t12, t13], [t12, t22, t23], [t13, t23, -t11 - t22]]


class TestRank2Views:
    def test_roundtrip_pack_unpack(self, grid):
        # component m is the Frobenius product of E_m, the unpacked column m
        # of the transform, with the unpacked tensor; so is the inverse's
        f = random_bandlimited(grid, 2, "spherical", seed=18)
        packed = _to_packed(f).data
        units = np.array(_unpack(cartesian_transform(2).symbol_at((0, 0, 0))))
        read = np.einsum("ijm,ijzyx->mzyx", units.conj(), np.array(_unpack(packed)))
        inverse = cartesian_transform_inverse(2).symbol_at((0, 0, 0))
        back = np.einsum("ab,bzyx->azyx", inverse, packed)
        assert np.allclose(read, f.data, atol=1e-13)
        assert np.allclose(back, f.data, atol=1e-13)

    def test_grid_curl_of_single_mode(self, grid):
        # T12 = T21 = exp(i*k*z): output follows the printed entry formulas
        z = grid.coords(2)[:, None, None]
        kz = 3.0
        f = np.exp(1j * kz * z) * np.ones((16, 16, 16))
        zero = np.zeros_like(f)
        packed = TensorField(2, "cartesian", grid, np.stack([zero, f, zero, zero, zero]))
        out = _unpack(apply_operator(cartesian_curl_rank2(), packed).data)
        dzf = 1j * kz * f
        assert np.allclose(out[0][0], -dzf, atol=1e-10)
        assert np.allclose(out[1][1], dzf, atol=1e-10)
        assert np.allclose(out[2][2], 0, atol=1e-12)
        assert np.allclose(out[0][1], 0, atol=1e-12)      # a = 0
        assert np.allclose(out[0][2], 0, atol=1e-12)      # b needs dx
        assert np.allclose(out[1][2], 0, atol=1e-12)      # c needs dy
        trace = out[0][0] + out[1][1] + out[2][2]
        assert np.allclose(trace, 0, atol=1e-10)

    def test_grid_curl_matches_spherical_curl(self, grid):
        f = random_bandlimited(grid, 2, "spherical", seed=22)
        got = np.array(_unpack(apply_operator(cartesian_curl_rank2(), _to_packed(f)).data))
        want = np.array(_unpack(_to_packed(apply_operator(build_curl_cg(2), f)).data))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestCtfFormat:
    def test_roundtrip(self, grid, tmp_path):
        f = random_bandlimited(grid, 2, "spherical", seed=19)
        path = tmp_path / "field.ctf"
        write_ctf(f, path)
        g = read_ctf(path)
        assert g.l == 2 and g.basis == "spherical"
        assert g.grid == grid
        assert np.array_equal(g.data, f.data)

    def test_header_layout(self, grid, tmp_path):
        f = random_bandlimited(grid, 1, "cartesian", seed=20)
        path = tmp_path / "field.ctf"
        write_ctf(f, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("ascii"))
            payload = fh.read()
        assert header == {
            "magic": "CTF1", "l": 1, "basis": "cartesian",
            "grid": [16, 16, 16], "box": [TWO_PI, TWO_PI, TWO_PI],
            "dtype": "c128", "order": "component,z,y,x"}
        assert len(payload) == 3 * 16 ** 3 * 16

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ctf"
        path.write_bytes(b'{"magic": "nope"}\n')
        with pytest.raises(ValueError):
            read_ctf(path)

    @pytest.mark.parametrize("header", (
        b"[1, 2]",
        b'{"magic": "CTF1", "l": -5, "basis": "spherical", "grid": [8, 8, 8],'
        b' "box": [1, 1, 1], "dtype": "c128", "order": "component,z,y,x"}',
        b'{"magic": "CTF1", "l": true, "basis": "spherical", "grid": [8, 8, 8],'
        b' "box": [1, 1, 1], "dtype": "c128", "order": "component,z,y,x"}',
        b'{"magic": "CTF1", "l": 1, "basis": "spherical",'
        b' "box": [1, 1, 1], "dtype": "c128", "order": "component,z,y,x"}',
        b'{"magic": "CTF1", "l": 1, "basis": "spherical", "grid": 8,'
        b' "box": [1, 1, 1], "dtype": "c128", "order": "component,z,y,x"}',
    ), ids=("not-an-object", "negative-l", "bool-l", "no-grid", "scalar-grid"))
    def test_rejects_hostile_header(self, tmp_path, header):
        path = tmp_path / "bad.ctf"
        path.write_bytes(header + b"\n")
        with pytest.raises(ValueError):
            read_ctf(path)

    def test_payload_is_the_samples_in_order(self, grid, tmp_path):
        # the bytes of astype("<c16").tobytes(), also for a transposed view
        # and for the read-only arrays step_rk4 returns
        f = random_bandlimited(grid, 1, "cartesian", seed=22)
        stepped = step_rk4(random_state(grid, 1, seed=22), 0.02).te
        assert not stepped.data.flags.writeable
        fields = [f, TensorField(1, "cartesian", grid, f.data.transpose(0, 3, 2, 1)), stepped]
        assert not fields[1].data.flags.c_contiguous
        path = tmp_path / "field.ctf"
        for field in fields:
            write_ctf(field, path)
            with open(path, "rb") as fh:
                fh.readline()
                assert fh.read() == field.data.astype("<c16").tobytes()
            assert np.array_equal(read_ctf(path).data, field.data)

    @pytest.mark.parametrize("grid_n,extra", [([4096, 4096, 4096], 0), ([4, 4, 4], 16)],
                             ids=["grid-beyond-the-file", "bytes-past-the-payload"])
    def test_payload_size_is_checked_before_allocating(self, tmp_path, monkeypatch,
                                                       grid_n, extra):
        header = {"magic": "CTF1", "l": 1, "basis": "cartesian", "grid": grid_n,
                  "box": [1, 1, 1], "dtype": "c128", "order": "component,z,y,x"}
        payload = bytes(3 * 4 ** 3 * 16 + extra)
        path = tmp_path / "bad.ctf"
        path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        allocated, empty = [], np.empty
        monkeypatch.setattr(np, "empty", lambda shape, *a, **k: allocated.append(shape)
                            or empty(shape, *a, **k))
        expected = 3 * int(np.prod(grid_n)) * 16
        with pytest.raises(ValueError, match=f"payload holds {len(payload)} bytes, "
                                             f"expected {expected}"):
            read_ctf(path)
        assert allocated == []

    def test_rejects_truncated_payload(self, grid, tmp_path):
        f = random_bandlimited(grid, 1, "cartesian", seed=21)
        path = tmp_path / "field.ctf"
        write_ctf(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError):
            read_ctf(path)
