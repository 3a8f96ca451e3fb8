from fractions import Fraction

import numpy as np
import pytest

from curlmat import builders
from curlmat.angular import basis_index, clebsch_gordan
from curlmat.builders import (RANK2_SLOTS, build_cartesian_curls, build_curl_cg,
                              build_curl_complex, build_curl_hermitian,
                              build_curl_ladder, build_curl_ldotgrad,
                              build_div, build_grad, cartesian_curl_rank2,
                              cartesian_div, cartesian_grad, cartesian_transform,
                              cartesian_transform_inverse, conventions,
                              curl_rank2_cartesian, to_cartesian)
from curlmat.diffop import (CARTESIAN, TRANSFORM, DX, DY, DZ, DiffPoly, OpMatrix,
                            spherical_tag)
from curlmat.exactnum import ExactScalar, I, ONE, imag, rational, root

import reference_matrices as ref


class TestPrintedMatrixReproduction:
    def test_curl1(self):
        assert build_curl_cg(1) == ref.curl1_matrix()

    def test_curl2(self):
        assert build_curl_cg(2) == ref.curl2_matrix()

    def test_grad1(self):
        assert build_grad(1) == ref.grad1_matrix()

    def test_div2_corrected(self):
        assert build_div(2) == ref.div2_matrix_corrected()

    def test_div2_erratum_recorded(self):
        ledger = conventions()
        ids = {e.ident for e in ledger.errata}
        assert "div2-reference-conjugation" in ids
        detail = next(e.detail for e in ledger.errata
                      if e.ident == "div2-reference-conjugation")
        assert "(2,2)" in detail and "(3,3)" in detail

    def test_grad1_matches_no_erratum(self):
        ids = {e.ident for e in conventions().errata}
        assert "grad1-reference" not in ids

    def test_hermitian_curl1(self):
        assert build_curl_hermitian(1) == ref.hermitian_curl1_matrix()

    def test_complex_curl1(self):
        assert build_curl_complex(1) == ref.complex_curl1_matrix()


class TestConventionSelection:
    def test_coupling_reading(self):
        assert conventions().coupling == "clebsch-gordan"

    def test_derivative_column(self):
        ledger = conventions()
        assert ledger.conjugate_components
        rt = root(2, Fraction(1, 2))
        assert ledger.derivative_plus == (DX + DY * I) * -rt
        assert ledger.derivative_zero == DZ
        assert ledger.derivative_minus == (DX - DY * I) * rt

    def test_curl_prefactor_positive(self):
        assert conventions().curl_prefactor_sign == 1

    def test_unit_phases(self):
        for kind, phase in conventions().phases:
            assert phase == ONE

    def test_ledger_dict_serializable(self):
        import json
        text = json.dumps(conventions().as_dict())
        assert "clebsch-gordan" in text


class TestShapes:
    @pytest.mark.parametrize("l", range(1, 9))
    def test_div_shape(self, l):
        assert build_div(l).shape == (2 * l - 1, 2 * l + 1)

    @pytest.mark.parametrize("l", range(0, 9))
    def test_grad_shape(self, l):
        assert build_grad(l).shape == (2 * l + 3, 2 * l + 1)

    @pytest.mark.parametrize("l", range(1, 9))
    def test_curl_shape(self, l):
        assert build_curl_cg(l).shape == (2 * l + 1, 2 * l + 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            build_div(0)
        with pytest.raises(ValueError):
            build_curl_cg(0)
        with pytest.raises(ValueError):
            build_grad(-1)
        with pytest.raises(ValueError):
            build_curl_ldotgrad(9)


class TestDualConstruction:
    @pytest.mark.parametrize("l", range(1, 9))
    def test_cg_equals_ldotgrad(self, l):
        assert build_curl_cg(l) == build_curl_ldotgrad(l)

    @pytest.mark.parametrize("l", range(1, 9))
    def test_ladder_equals_ldotgrad(self, l):
        assert build_curl_ladder(l) == build_curl_ldotgrad(l)


class TestCompositionZeros:
    def test_div_curl_zero(self):
        assert (build_div(1) @ build_curl_cg(1)).is_zero

    def test_curl_grad_zero(self):
        assert (build_curl_cg(1) @ build_grad(0)).is_zero


class TestHermitianComplexStructure:
    @pytest.mark.parametrize("l", (1, 2, 3))
    def test_complex_is_one_plus_i_curl(self, l):
        assert build_curl_complex(l) == build_curl_cg(l).scale(ONE + I)

    @pytest.mark.parametrize("l", (1, 2, 3))
    def test_complex_is_one_minus_i_hermitian(self, l):
        assert build_curl_complex(l) == build_curl_hermitian(l).scale(ONE - I)

    @pytest.mark.parametrize("l", (1, 2))
    def test_hermitian_is_sum_decomposition(self, l):
        assert (build_curl_hermitian(l) + build_curl_cg(l)
                == build_curl_complex(l))


class TestCartesianTransform:
    def test_unitary(self):
        s = cartesian_transform()
        eye = OpMatrix.identity(3, s.tag)
        assert s @ cartesian_transform_inverse() == eye
        assert cartesian_transform_inverse() @ s == eye

    def test_curl_conjugates_to_cartesian(self):
        assert to_cartesian(build_curl_cg(1)) == ref.cartesian_curl_matrix()

    def test_identity_maps_to_identity(self):
        eye = OpMatrix.identity(3, spherical_tag(1, 1))
        assert to_cartesian(eye) == OpMatrix.identity(3, CARTESIAN)

    def test_singular_reference_variant(self):
        # the variant with row 2 = i * row 1 is singular, hence the erratum
        bad = np.array([[-1, 0, 1], [-1j, 0, 1j], [0, np.sqrt(2), 0]]) / np.sqrt(2)
        assert abs(np.linalg.det(bad)) < 1e-12
        good = cartesian_transform().symbol_at((0, 0, 0))
        assert abs(abs(np.linalg.det(good)) - 1) < 1e-12

    def test_erratum_recorded(self):
        ids = {e.ident for e in conventions().errata}
        assert "transform-matrix-singular" in ids

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            to_cartesian(build_curl_cg(2))


class TestCartesianCurls:
    def test_complex_is_one_plus_i(self):
        curls = build_cartesian_curls()
        assert curls.curl_c == curls.curl.scale(ONE + I)

    def test_double_complex_curl(self):
        curls = build_cartesian_curls()
        lhs = curls.curl_c @ curls.curl_c
        assert lhs == (curls.curl @ curls.curl).scale(imag(2))

    def test_hermitian_adjoint(self):
        curls = build_cartesian_curls()
        assert curls.curl_h.formal_adjoint() == curls.curl_h
        assert curls.curl.formal_adjoint() == curls.curl.scale(-1)

    def test_grad_div_shapes(self):
        assert cartesian_grad().shape == (3, 1)
        assert cartesian_div().shape == (1, 3)


def _symmetric_traceless_from(p12: DiffPoly):
    zero = DiffPoly()
    return [[zero, p12, zero], [p12, zero, zero], [zero, zero, zero]]


class TestRank2Curl:
    def test_single_offdiagonal_substitution(self):
        # T12 = T21 = p, everything else zero: direct substitution into the
        # printed entry formulas gives the expected output below.
        p = DX * rational(2) + DZ * root(2)
        out = curl_rank2_cartesian(_symmetric_traceless_from(p))
        half = Fraction(1, 2)
        expected = (
            (-(p * DZ), DiffPoly(), p * DX * half),
            (DiffPoly(), p * DZ, -(p * DY * half)),
            (p * DX * half, -(p * DY * half), DiffPoly()),
        )
        for i in range(3):
            for j in range(3):
                assert out[i][j] == expected[i][j]

    def test_zero_maps_to_zero(self):
        zero = DiffPoly()
        out = curl_rank2_cartesian([[zero] * 3 for _ in range(3)])
        assert all(out[i][j].is_zero for i in range(3) for j in range(3))

    def test_output_symmetric_traceless(self):
        entries = {}
        polys = [DX, DY * I, DZ + DX, DX * root(3), DY]
        t11, t12, t13, t22, t23 = polys
        t = [[t11, t12, t13], [t12, t22, t23], [t13, t23, -(t11 + t22)]]
        out = curl_rank2_cartesian(t)
        assert (out[0][0] + out[1][1] + out[2][2]).is_zero
        for i in range(3):
            for j in range(3):
                assert out[i][j] == out[j][i]

    def test_asymmetric_rejected(self):
        zero = DiffPoly()
        t = [[zero, DX, zero], [zero, zero, zero], [zero, zero, zero]]
        with pytest.raises(ValueError, match="symmetric"):
            curl_rank2_cartesian(t)

    def test_traced_rejected(self):
        zero = DiffPoly()
        t = [[DX, zero, zero], [zero, DX, zero], [zero, zero, DX]]
        with pytest.raises(ValueError, match="traceless"):
            curl_rank2_cartesian(t)

    def test_numeric_requires_deriv(self):
        arr = np.zeros((2, 2, 2))
        t = [[arr, arr, arr], [arr, arr, arr], [arr, arr, arr]]
        with pytest.raises(TypeError):
            curl_rank2_cartesian(t)


def _spherical_to_packed() -> tuple[OpMatrix, OpMatrix]:
    """Exact P taking rank-2 spherical components (m = 2..-2) to the packed
    cartesian slots, and its inverse, both from Clebsch-Gordan data.

    Component m is the symmetric traceless matrix
    E_m = sum CG(1 m1 1 m2 | 2 m) s_m1 s_m2^T over the columns s_mu of the
    rank-1 transform; the E_m are orthonormal, so f_m = <E_m, T>.
    """
    s = cartesian_transform()
    col = lambda i, mu: s.entry(i, basis_index(1, mu)).coefficient((0, 0, 0))
    basis = []
    for m in range(2, -3, -1):
        e = [[ExactScalar()] * 3 for _ in range(3)]
        for m1 in (1, 0, -1):
            m2 = m - m1
            if abs(m2) <= 1:
                cg = clebsch_gordan(1, m1, 1, m2, 2, m)
                for i in range(3):
                    for j in range(3):
                        e[i][j] = e[i][j] + cg * col(i, m1) * col(j, m2)
        basis.append(e)
    p = [[e[i][j] for e in basis] for i, j in RANK2_SLOTS]

    def weight(e, i, j):
        # slot (i, j) also stands for T_ji, and a diagonal slot for its share
        # of T33 = -T11 - T22
        other = e[j][i].conj() if i != j else -e[2][2].conj()
        return e[i][j].conj() + other

    p_inv = [[weight(e, i, j) for i, j in RANK2_SLOTS] for e in basis]
    return OpMatrix.constant(p, TRANSFORM), OpMatrix.constant(p_inv, TRANSFORM)


class TestCartesianCurlRank2:
    def test_transform_inverse_is_exact(self):
        p, p_inv = _spherical_to_packed()
        assert p_inv @ p == OpMatrix.identity(5, TRANSFORM)

    def test_is_the_spherical_curl_in_packed_coordinates(self):
        p, p_inv = _spherical_to_packed()
        assert (p @ build_curl_cg(2) @ p_inv).retag(CARTESIAN) == cartesian_curl_rank2()
