import math
from fractions import Fraction

import numpy as np
import pytest

from curlmat.angular import (MAX_SPIN, angular_matrices, basis_index,
                             clebsch_gordan, wigner_3j, wigner_d)
from curlmat.diffop import OpMatrix, spherical_tag
from curlmat.exactnum import ExactScalar, ONE, ZERO, imag, rational, root


def ladder_coupling_oracle(l1: int, l2: int, m: int) -> dict[tuple[int, int], ExactScalar]:
    """Expansion of the stretched-coupling state |l1+l2, m> in the product basis.

    Starts from |l1+l2, l1+l2> = |l1 l1>|l2 l2> and lowers with exact ladder
    amplitudes; independent of the closed-form coupling sum under test.
    """
    l = l1 + l2
    state = {(l1, l2): ONE}
    for m_cur in range(l, m, -1):
        lowered: dict[tuple[int, int], ExactScalar] = {}
        for (m1, m2), coeff in state.items():
            for which, (ll, mm) in enumerate(((l1, m1), (l2, m2))):
                if mm - 1 < -ll:
                    continue
                amp = ExactScalar.sqrt_rational((ll + mm) * (ll - mm + 1))
                key = (m1 - 1, m2) if which == 0 else (m1, m2 - 1)
                lowered[key] = lowered.get(key, ZERO) + coeff * amp
        norm = ExactScalar.sqrt_rational((l + m_cur) * (l - m_cur + 1))
        state = {key: val / norm for key, val in lowered.items()}
    return state


class TestClebschGordan:
    def test_stretched(self):
        assert clebsch_gordan(1, 1, 1, 1, 2, 2) == ONE

    def test_forbidden_by_antisymmetry(self):
        assert clebsch_gordan(1, 0, 1, 0, 1, 0).is_zero

    def test_selection_rules(self):
        assert clebsch_gordan(1, 1, 1, 0, 2, 0).is_zero  # m != m1 + m2
        assert clebsch_gordan(1, 1, 1, 1, 3, 2).is_zero  # triangle violated

    def test_value_against_ladder_oracle(self):
        # <1 0; 1 0 | 2 0> = sqrt(2/3) = sqrt(6)/3
        oracle = ladder_coupling_oracle(1, 1, 0)
        expected = oracle[(0, 0)]
        assert expected == root(6, Fraction(1, 3))
        assert clebsch_gordan(1, 0, 1, 0, 2, 0) == expected

    def test_stretched_rows_against_ladder_oracle(self):
        for l1, l2 in ((1, 1), (2, 1), (2, 2)):
            l = l1 + l2
            for m in range(l, -l - 1, -1):
                oracle = ladder_coupling_oracle(l1, l2, m)
                for (m1, m2), coeff in oracle.items():
                    assert clebsch_gordan(l1, m1, l2, m2, l, m) == coeff

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 2, 1, 0, 2, 2)
        with pytest.raises(ValueError):
            clebsch_gordan(-1, 0, 1, 0, 1, 0)

    def test_orthogonality_exact(self):
        for l1 in range(0, 4):
            for l2 in range(0, 4):
                lmin, lmax = abs(l1 - l2), l1 + l2
                states = [(l, m) for l in range(lmin, lmax + 1)
                          for m in range(-l, l + 1)]
                for l, m in states:
                    for lp, mp in states:
                        total = ZERO
                        for m1 in range(-l1, l1 + 1):
                            m2 = m - m1
                            if abs(m2) > l2 or m1 + m2 != mp:
                                continue
                            total = total + (clebsch_gordan(l1, m1, l2, m2, l, m)
                                             * clebsch_gordan(l1, m1, l2, m2, lp, mp))
                        expected = ONE if (l, m) == (lp, mp) else ZERO
                        assert total == expected

    def test_sign_symmetry_exact(self):
        for l1 in range(0, 3):
            for l2 in range(0, 3):
                for l in range(abs(l1 - l2), l1 + l2 + 1):
                    for m1 in range(-l1, l1 + 1):
                        for m2 in range(-l2, l2 + 1):
                            m = m1 + m2
                            if abs(m) > l:
                                continue
                            sign = -1 if (l1 + l2 - l) % 2 else 1
                            lhs = clebsch_gordan(l1, m1, l2, m2, l, m)
                            rhs = clebsch_gordan(l1, -m1, l2, -m2, l, -m) * rational(sign)
                            assert lhs == rhs

    def test_exact_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.physics.wigner import clebsch_gordan as sympy_cg
        checked = 0
        for l1 in range(5):
            for l2 in range(5):
                for l in range(abs(l1 - l2), l1 + l2 + 1):
                    for m1 in range(-l1, l1 + 1):
                        for m2 in range(-l2, l2 + 1):
                            if abs(m1 + m2) > l:
                                continue
                            value = clebsch_gordan(l1, m1, l2, m2, l, m1 + m2)
                            assert not value.im_terms
                            ours = sum((sympy.Rational(t.coeff.numerator, t.coeff.denominator)
                                        * sympy.sqrt(t.radicand) for t in value.re_terms),
                                       sympy.Integer(0))
                            theirs = sympy_cg(l1, l2, l, m1, m2, m1 + m2)
                            assert ours == theirs, (l1, m1, l2, m2, l)
                            checked += 1
        assert checked == 2501


    def test_float_of_large_labels_against_sympy(self):
        # the radicand is past the float range, so sqrt(d) alone overflows
        sympy = pytest.importorskip("sympy")
        from sympy.physics.wigner import clebsch_gordan as sympy_cg
        ours = clebsch_gordan(300, 0, 300, 0, 600, 0).to_complex()
        theirs = float(sympy_cg(300, 300, 600, 0, 0, 0))
        assert ours.imag == 0
        assert math.isclose(ours.real, theirs, rel_tol=4e-16)


class TestWigner3j:
    def test_stretched_value(self):
        # (1 1 2; 1 1 -2) = <1 1; 1 1|2 2>/sqrt(5) with unit phase
        assert wigner_3j(1, 1, 2, 1, 1, -2) == ExactScalar.sqrt_rational(Fraction(1, 5))

    def test_m_sum_rule(self):
        assert wigner_3j(1, 1, 2, 1, 1, 2).is_zero

    def test_relation_to_coupling(self):
        for m1 in (-1, 0, 1):
            for m2 in (-1, 0, 1):
                m3 = -(m1 + m2)
                if abs(m3) > 2:
                    continue
                sign = -1 if (1 - 1 + m3) % 2 else 1
                lhs = clebsch_gordan(1, m1, 1, m2, 2, m1 + m2)
                rhs = (wigner_3j(1, 1, 2, m1, m2, m3) * rational(sign)
                       * ExactScalar.sqrt_rational(5))
                assert lhs == rhs


def _as_opmatrix(entries, l):
    return OpMatrix.constant(entries, spherical_tag(l, l))


class TestAngularMatrices:
    def test_lz_diagonal_l1(self):
        ang = angular_matrices(1)
        for m in (1, 0, -1):
            idx = basis_index(1, m)
            assert ang.lz[idx][idx] == rational(m)
        assert ang.lz[0][1].is_zero

    def test_ladder_entry_l1(self):
        ang = angular_matrices(1)
        assert ang.lplus[basis_index(1, 1)][basis_index(1, 0)] == root(2)

    def test_lz_diagonal_l2(self):
        ang = angular_matrices(2)
        diag = [ang.lz[i][i] for i in range(5)]
        assert diag == [rational(m) for m in (2, 1, 0, -1, -2)]

    @pytest.mark.parametrize("l", range(1, MAX_SPIN + 1))
    def test_commutator_exact(self, l):
        ang = angular_matrices(l)
        lx = _as_opmatrix(ang.lx, l)
        ly = _as_opmatrix(ang.ly, l)
        lz = _as_opmatrix(ang.lz, l)
        assert lx @ ly - ly @ lx == lz.scale(imag(1))
        assert ly @ lz - lz @ ly == lx.scale(imag(1))
        assert lz @ lx - lx @ lz == ly.scale(imag(1))

    @pytest.mark.parametrize("l", range(1, MAX_SPIN + 1))
    def test_casimir_exact(self, l):
        ang = angular_matrices(l)
        total = None
        for mat in (ang.lx, ang.ly, ang.lz):
            op = _as_opmatrix(mat, l)
            sq = op @ op
            total = sq if total is None else total + sq
        expected = OpMatrix.identity(2 * l + 1, spherical_tag(l, l)).scale(l * (l + 1))
        assert total == expected

    @pytest.mark.parametrize("l", range(1, MAX_SPIN + 1))
    def test_numeric_eigenvalues(self, l):
        ang = angular_matrices(l)
        expected = np.arange(-l, l + 1, dtype=float)
        for mat in (ang.lx, ang.ly, ang.lz):
            numeric = np.array([[v.to_complex() for v in row] for row in mat])
            eigs = np.sort(np.linalg.eigvalsh(numeric))
            assert np.allclose(eigs, expected, atol=1e-10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            angular_matrices(0)
        with pytest.raises(ValueError):
            angular_matrices(MAX_SPIN + 1)


def _exact_matmul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
                       for j in range(len(b[0]))) for i in range(len(a)))


def _exact_adjoint(a):
    return tuple(tuple(a[j][i].conj() for j in range(len(a))) for i in range(len(a[0])))


class TestWignerD:
    """d^l(pi/2) = exp(-i pi/2 Ly), held exactly."""

    @pytest.mark.parametrize("l", range(1, MAX_SPIN + 1))
    def test_orthogonal_exact(self, l):
        d = wigner_d(l)
        identity = tuple(tuple(ONE if i == j else ZERO for j in range(2 * l + 1))
                         for i in range(2 * l + 1))
        assert _exact_matmul(d, tuple(zip(*d))) == identity

    @pytest.mark.parametrize("l", range(1, MAX_SPIN + 1))
    def test_turned_frame_diagonalises_ly_exact(self, l):
        # U = diag((-i)^m) d^l(pi/2) turns z^ to y^, so U^H Ly U = Lz, with
        # its eigenvalues l..-l in basis order
        phases = [imag(-1 if m > 0 else 1) ** abs(m) for m in range(l, -l - 1, -1)]
        u = tuple(tuple(p * v for v in row) for p, row in zip(phases, wigner_d(l)))
        got = _exact_matmul(_exact_adjoint(u), _exact_matmul(angular_matrices(l).ly, u))
        assert got == angular_matrices(l).lz

    def test_exact_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.physics.quantum.spin import Rotation
        checked = 0
        for l in range(1, 5):
            d = wigner_d(l)
            for mp in range(l, -l - 1, -1):
                for m in range(l, -l - 1, -1):
                    value = d[basis_index(l, mp)][basis_index(l, m)]
                    assert not value.im_terms
                    ours = sum((sympy.Rational(t.coeff.numerator, t.coeff.denominator)
                                * sympy.sqrt(t.radicand) for t in value.re_terms),
                               sympy.Integer(0))
                    theirs = Rotation.d(l, mp, m, sympy.pi / 2).doit()
                    assert sympy.expand(ours - theirs) == 0, (l, mp, m)
                    checked += 1
        assert checked == sum((2 * l + 1) ** 2 for l in range(1, 5))

    @pytest.mark.parametrize("l", [0, MAX_SPIN + 1, -1, 1.0])
    def test_out_of_range(self, l):
        with pytest.raises(ValueError, match="spin must satisfy"):
            wigner_d(l)
