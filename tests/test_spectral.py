import json

import numpy as np
import pytest

from curlmat.builders import (build_cartesian_curls, build_curl_cg,
                              build_div, build_grad, cartesian_grad)
from curlmat.diffop import DiffPoly, OpMatrix, spherical_tag
from curlmat.exactnum import ONE
from curlmat.identities import curl_alpha_pairs
from curlmat.spectral import (GridSpec, TensorField, _fft, _ifft, apply_operator,
                              apply_symbol,
                              complex_curl_field, curl_rank2_field,
                              example_rotation_fields, gradient_scale,
                              helmholtz, pack_rank2, plane_wave,
                              random_bandlimited, rank2_cartesian_basis,
                              read_ctf, relative_complex_curl,
                              relative_divergence,
                              spherical_rank2_to_cartesian, symbol_entries,
                              unpack_rank2, wavevector, write_ctf)

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


class TestTensorField:
    def test_component_count_validation(self, grid):
        with pytest.raises(ValueError):
            TensorField(1, "spherical", grid, np.zeros((4, 16, 16, 16)))
        with pytest.raises(ValueError):
            TensorField(3, "cartesian", grid, np.zeros((7, 16, 16, 16)))

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


@pytest.mark.parametrize("kcut", (float("nan"), -1.0))
def test_random_bandlimited_rejects_bad_kcut(grid, kcut):
    with pytest.raises(ValueError, match="kcut"):
        random_bandlimited(grid, 1, "cartesian", kcut=kcut)


class TestRank2Views:
    def test_basis_symmetric_traceless(self):
        basis = rank2_cartesian_basis()
        for mat in basis:
            assert np.allclose(mat, mat.T, atol=1e-14)
            assert abs(np.trace(mat)) < 1e-14

    def test_roundtrip_pack_unpack(self, grid):
        f = random_bandlimited(grid, 2, "spherical", seed=18)
        tensor = spherical_rank2_to_cartesian(f)
        packed = pack_rank2(tensor, grid)
        unpacked = unpack_rank2(packed)
        for i in range(3):
            for j in range(3):
                assert np.allclose(unpacked[i][j], tensor[i][j], atol=1e-13)

    def test_grid_curl_of_single_mode(self, grid):
        # T12 = T21 = exp(i*k*z): output follows the printed entry formulas
        z = grid.coords(2)[:, None, None]
        kz = 3.0
        f = np.exp(1j * kz * z) * np.ones((16, 16, 16))
        zero = np.zeros_like(f)
        t = [[zero, f, zero], [f, zero, zero], [zero, zero, zero]]
        out = curl_rank2_field(t, grid)
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
        got = np.array(curl_rank2_field(spherical_rank2_to_cartesian(f), grid))
        want = np.array(spherical_rank2_to_cartesian(apply_operator(build_curl_cg(2), f)))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("entry,shift,match", [
        ((1, 0), 1e-3, "symmetric"), ((2, 2), 1.0, "traceless")])
    def test_pack_rejects_dropped_entry_mismatch(self, grid, entry, shift, match):
        tensor = spherical_rank2_to_cartesian(random_bandlimited(grid, 2, "spherical", seed=23))
        i, j = entry
        tensor[i][j] = tensor[i][j] + shift
        with pytest.raises(ValueError, match=match):
            pack_rank2(tensor, grid)


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

    def test_rejects_truncated_payload(self, grid, tmp_path):
        f = random_bandlimited(grid, 1, "cartesian", seed=21)
        path = tmp_path / "field.ctf"
        write_ctf(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError):
            read_ctf(path)
