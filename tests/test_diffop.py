import random
from fractions import Fraction

import numpy as np
import pytest

from curlmat.builders import (build_cartesian_curls, build_curl_cg,
                              build_curl_hermitian)
from curlmat.diffop import (CARTESIAN, DX, DY, DZ, DiffPoly, LAPLACIAN, OpMatrix,
                            spherical_tag)
from curlmat.exactnum import ExactScalar, I, imag, rational, root

from reference_matrices import curl1_squared_matrix


class TestDiffPoly:
    def test_mul_and_add(self):
        p = (DX + DY) * (DX - DY)
        assert p == DiffPoly.monomial(2, 0, 0) - DiffPoly.monomial(0, 2, 0)

    def test_scalar_mul(self):
        p = DX * root(2, Fraction(1, 2))
        assert p.coefficient((1, 0, 0)) == root(2, Fraction(1, 2))

    def test_conj_fixes_symbols(self):
        p = DX * I
        assert p.conj() == DX * imag(-1)

    def test_symbol_scalar(self):
        p = DX * DX + DZ
        # dx^2 -> (i*kx)^2 = -kx^2; dz -> i*kz
        assert p.symbol(2.0, 0.0, 3.0) == pytest.approx(-4.0 + 3.0j)

    def test_symbol_array(self):
        p = DX + DY * I
        kx = np.array([1.0, 2.0])
        out = p.symbol(kx, 0.5, 0.0)
        assert np.allclose(out, 1j * kx + 1j * 1j * 0.5)

    def test_str(self):
        p = DX * rational(1, 2) + DZ * imag(-1)
        assert str(p) == "(1/2)*dx + (i*(-1))*dz"

    def test_no_degree_cap(self):
        # degrees are unbounded: only the suites bound the orders they take
        p = DiffPoly.monomial(20, 0, 1)
        assert p.max_degree == 21
        assert (p * p).coefficient((40, 0, 2)) == rational(1)
        with pytest.raises(ValueError, match="nonnegative"):
            DiffPoly.monomial(1, -1, 0)


class TestCompose:
    def test_curl1_squared_entry(self):
        curl = build_curl_cg(1)
        sq = curl @ curl
        expected = (-DiffPoly.monomial(0, 0, 2)
                    - DiffPoly.monomial(2, 0, 0) * Fraction(1, 2)
                    - DiffPoly.monomial(0, 2, 0) * Fraction(1, 2))
        assert sq.entry(0, 0) == expected

    def test_curl1_squared_full(self):
        curl = build_curl_cg(1)
        assert curl @ curl == curl1_squared_matrix()

    def test_identity_compose(self):
        curl = build_curl_cg(1)
        eye = OpMatrix.identity(3, spherical_tag(1, 1))
        assert eye @ curl == curl
        assert curl @ eye == curl

    def test_cartesian_curl_squared_entry(self):
        nabla = build_cartesian_curls().curl
        sq = nabla @ nabla
        assert sq.entry(0, 0) == -DiffPoly.monomial(0, 2, 0) - DiffPoly.monomial(0, 0, 2)

    def test_shape_mismatch(self):
        curl = build_curl_cg(1)
        with pytest.raises(ValueError):
            curl @ OpMatrix.identity(5, spherical_tag(2, 2))

    def test_basis_mismatch(self):
        curl = build_curl_cg(1)
        cart = build_cartesian_curls().curl
        with pytest.raises(ValueError):
            curl @ cart

    def test_rank_chain_mismatch(self):
        a = OpMatrix.identity(3, spherical_tag(1, 1))
        b = OpMatrix.identity(3, spherical_tag(2, 2))
        with pytest.raises(ValueError):
            a @ b  # shapes agree but the spherical ranks do not chain


def _random_poly(rng: random.Random) -> DiffPoly:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        mono = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
        coeff = ExactScalar(re={rng.choice((1, 2)): Fraction(rng.randint(-2, 2))},
                            im={rng.choice((1, 3)): Fraction(rng.randint(-2, 2))})
        terms[mono] = coeff
    return DiffPoly(terms)


def _random_matrix(rng: random.Random, rows: int, cols: int) -> OpMatrix:
    return OpMatrix(rows, cols, [_random_poly(rng) for _ in range(rows * cols)],
                    CARTESIAN)


class TestAdjoint:
    def test_curl_antihermitian(self):
        curl = build_curl_cg(1)
        assert curl.formal_adjoint() == curl.scale(-1)
        curl2 = build_curl_cg(2)
        assert curl2.formal_adjoint() == curl2.scale(-1)

    def test_hermitian_curl_selfadjoint(self):
        h = build_curl_hermitian(1)
        assert h.formal_adjoint() == h
        h2 = build_curl_hermitian(2)
        assert h2.formal_adjoint() == h2

    def test_identity(self):
        eye = OpMatrix.identity(4, CARTESIAN)
        assert eye.formal_adjoint() == eye

    def test_product_rule_random(self):
        rng = random.Random(42)
        for _ in range(20):
            a = _random_matrix(rng, 2, 3)
            b = _random_matrix(rng, 3, 2)
            assert (a @ b).formal_adjoint() == b.formal_adjoint() @ a.formal_adjoint()

    def test_associativity_random(self):
        rng = random.Random(11)
        for _ in range(10):
            a = _random_matrix(rng, 2, 2)
            b = _random_matrix(rng, 2, 3)
            c = _random_matrix(rng, 3, 2)
            assert (a @ b) @ c == a @ (b @ c)


class TestSymbol:
    def test_curl1_symbol_at_z(self):
        sym = build_curl_cg(1).symbol_at((0.0, 0.0, 1.0))
        assert np.allclose(sym, np.diag([1.0, 0.0, -1.0]))

    def test_cartesian_curl_symbol_at_z(self):
        sym = build_cartesian_curls().curl.symbol_at((0.0, 0.0, 1.0))
        expected = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
        assert np.allclose(sym, expected)

    def test_zero_wavevector(self):
        for op in (build_curl_cg(2), build_cartesian_curls().curl):
            assert np.allclose(op.symbol_at((0.0, 0.0, 0.0)), 0)

    def test_homomorphism_random(self):
        rng = np.random.default_rng(3)
        from curlmat.builders import build_div, build_grad
        pairs = [(build_div(1), build_curl_cg(1)),
                 (build_grad(1), build_curl_cg(1)),
                 (build_div(2), build_grad(1))]
        for a, b in pairs:
            for _ in range(10):
                k = rng.normal(size=3)
                lhs = (a @ b).symbol_at(k)
                rhs = a.symbol_at(k) @ b.symbol_at(k)
                assert np.allclose(lhs, rhs, atol=1e-10 * (1 + np.abs(rhs).max()))

    @pytest.mark.parametrize("l", (1, 2, 3))
    def test_curl_symbol_spectrum(self, l):
        rng = np.random.default_rng(100 + l)
        curl = build_curl_cg(l)
        for _ in range(20):
            k = rng.normal(size=3)
            sym = curl.symbol_at(k)
            assert np.allclose(sym, sym.conj().T, atol=1e-12)  # Hermitian
            eigs = np.sort(np.linalg.eigvalsh(sym))
            expected = np.array([m * np.linalg.norm(k) / l for m in range(-l, l + 1)])
            assert np.allclose(eigs, expected, atol=1e-9)

    def test_hermitian_curl_symbol_antihermitian(self):
        sym = build_curl_hermitian(2).symbol_at((0.3, -1.2, 0.7))
        assert np.allclose(sym, -sym.conj().T, atol=1e-12)


class TestScaleAddEqual:
    def test_equal_self(self):
        curl = build_curl_cg(1)
        assert curl == build_curl_cg(1)

    def test_add_negation_is_zero(self):
        curl = build_curl_cg(1)
        assert (curl + curl.scale(-1)).is_zero

    def test_scale_i_gives_hermitian(self):
        assert build_curl_cg(1).scale(I) == build_curl_hermitian(1)


class TestLaplacianTimes:
    def test_scalar_identity(self):
        eye = OpMatrix.identity(1, CARTESIAN)
        assert eye.laplacian_times(1).entry(0, 0) == LAPLACIAN

    def test_power_zero(self):
        curl = build_curl_cg(1)
        assert curl.laplacian_times(0) == curl

    def test_fourth_power_law(self):
        # direct 4-fold composition against the even power law at n = 2
        curl = build_curl_cg(1)
        direct = curl @ curl @ curl @ curl
        assert direct == (curl @ curl).laplacian_times(1).scale(-1)

    def test_past_degree_sixteen(self):
        # curl^17 = curl lap^8 (degree 17) and curl^18 = curl^2 lap^8 (degree 18)
        curl = build_curl_cg(1)
        power = curl.power(17)
        assert power == curl.laplacian_times(8)
        assert power @ curl == (curl @ curl).laplacian_times(8)
        assert OpMatrix.identity(1, CARTESIAN).laplacian_times(20).max_degree == 40


class TestSplitSymmetry:
    def test_curl1(self):
        split = build_curl_cg(1).split_symmetry()
        assert split.real_antisymmetric
        assert split.imag_symmetric and split.imag_traceless
        assert not split.real_symmetric

    def test_curl1_squared(self):
        split = (build_curl_cg(1) @ build_curl_cg(1)).split_symmetry()
        assert split.real_symmetric
        assert split.imag_antisymmetric

    def test_zero_matrix(self):
        split = OpMatrix.zeros(3, 3, CARTESIAN).split_symmetry()
        assert split.real_symmetric and split.real_antisymmetric
        assert split.imag_symmetric and split.imag_antisymmetric

    def test_reassembly(self):
        curl = build_curl_cg(1)
        split = curl.split_symmetry()
        assert split.real_part + split.imag_part.scale(I) == curl

    def test_non_square(self):
        from curlmat.builders import build_grad
        with pytest.raises(ValueError):
            build_grad(1).split_symmetry()


class TestRendering:
    def test_json_dict_roundtrippable(self):
        import json
        payload = build_curl_cg(1).to_json_dict()
        text = json.dumps(payload)
        assert json.loads(text) == payload
        entry = payload["entries"][0][0]
        assert entry == {"0,0,1": [[], [[1, "-1"]]]}  # dz/i = -i*dz

    def test_latex_groups_xy_pairs(self):
        tex = build_curl_hermitian(1).to_latex()
        assert r"(\partial_x - i\partial_y)" in tex
        assert r"(\partial_x + i\partial_y)" in tex
        assert tex.startswith(r"\begin{pmatrix}")

    def test_text_render(self):
        text = build_curl_cg(1).to_text()
        assert text.count("\n") == 2
        assert "dz" in text
