"""Exact arithmetic and operator composition against sympy, on inputs drawn
by hypothesis.  Both libraries are test-only; the module skips without them."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings, strategies as st

from curlmat.diffop import CARTESIAN, DiffPoly, OpMatrix
from curlmat.exactnum import ExactScalar

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# a sympy matrix product costs tens of milliseconds
COMPOSE_SETTINGS = settings(SETTINGS, max_examples=25)

# squarefree radicands, several sharing a factor (2*6, 6*10, 3*15, 10*15)
RADICANDS = (1, 2, 3, 5, 6, 10, 15)
DX, DY, DZ = sympy.symbols("dx dy dz")

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
parts = st.one_of(st.just({}),
                  st.builds(lambda d, c: {d: c}, st.sampled_from(RADICANDS), coeffs))
scalars = st.builds(lambda re, im: ExactScalar(re=re, im=im), parts, parts)


def sym(x: ExactScalar):
    """The sympy number of an ExactScalar, term by term."""
    re = sum((sympy.Rational(t.coeff.numerator, t.coeff.denominator) * sympy.sqrt(t.radicand)
              for t in x.re_terms), sympy.Integer(0))
    im = sum((sympy.Rational(t.coeff.numerator, t.coeff.denominator) * sympy.sqrt(t.radicand)
              for t in x.im_terms), sympy.Integer(0))
    return re + sympy.I * im


def same(ours, theirs) -> bool:
    return sympy.expand(ours - theirs) == 0


def root(d: int, c=1) -> ExactScalar:
    return ExactScalar(re={d: Fraction(c)})


class TestScalarArithmetic:
    @SETTINGS
    @given(scalars, scalars)
    @example(root(2), root(6))
    @example(root(6, 3), root(10, Fraction(-1, 2)))
    @example(root(3), root(3))
    @example(ExactScalar(im={6: 1}), ExactScalar(im={10: 1}))
    def test_add_sub_mul(self, a, b):
        sa, sb = sym(a), sym(b)
        assert same(sym(a + b), sa + sb)
        assert same(sym(a - b), sa - sb)
        assert same(sym(a * b), sa * sb)

    @SETTINGS
    @given(scalars)
    def test_conj_and_inverse(self, a):
        assert same(sym(a.conj()), sympy.conjugate(sym(a)))
        if not a.is_zero:
            assert sympy.expand(sym(a.inverse()) * sym(a)) == 1

    @SETTINGS
    @given(scalars, scalars)
    def test_sums_cancel_to_zero(self, a, b):
        for zero in (a - a, (a + b) - b - a, a * b - b * a, a + (-a)):
            assert zero.is_zero and zero == 0 and str(zero) == "0"

    def test_gcd_products_cancel(self):
        # sqrt2*sqrt6 = 2*sqrt3, sqrt6*sqrt10 = 2*sqrt15, sqrt3*sqrt3 = 3
        assert (root(2) * root(6) - root(3, 2)).is_zero
        assert (root(6) * root(10) - root(15, 2)).is_zero
        assert root(3) * root(3) - 3 == 0


equal_pairs = st.builds(
    lambda d, c, s: (ExactScalar(re={d: c}, im={d: -c}),
                     ExactScalar(re={d * s * s: c / s}, im={d * s * s: -c / s})),
    st.sampled_from(RADICANDS), coeffs, st.integers(1, 4))


class TestScalarEquality:
    @SETTINGS
    @given(scalars, scalars)
    def test_eq_agrees_with_sympy(self, a, b):
        assert (a == b) == same(sym(a), sym(b))

    @SETTINGS
    @given(equal_pairs)
    def test_equal_values_hash_alike(self, pair):
        a, b = pair
        assert a == b and hash(a) == hash(b)

    @SETTINGS
    @given(scalars)
    def test_hash_against_int_and_fraction(self, a):
        value = sym(a)
        if value.is_Rational:
            exact = Fraction(int(value.p), int(value.q))
            assert a == exact and hash(a) == hash(exact)
            if exact.denominator == 1:
                assert a == int(exact) and hash(a) == hash(int(exact))
        else:
            assert all(a != v for v in (0, 1, -1, Fraction(1, 2)))


# -- composition ---------------------------------------------------------------

monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polys = st.builds(DiffPoly, st.dictionaries(monos, scalars, max_size=3))


def matrices(rows: int, cols: int):
    return st.builds(lambda es: OpMatrix(rows, cols, es, CARTESIAN),
                     st.lists(polys, min_size=rows * cols, max_size=rows * cols))


def sym_poly(p: DiffPoly):
    return sum((sym(c) * DX ** a * DY ** b * DZ ** e for (a, b, e), c in p.terms),
               sympy.Integer(0))


def reference_product(a: OpMatrix, b: OpMatrix) -> list:
    """sum_k a[i][k] * b[k][j] in sympy, expanded."""
    return [sympy.expand(sum((sym_poly(a.entry(i, k)) * sym_poly(b.entry(k, j))
                              for k in range(a.cols)), sympy.Integer(0)))
            for i in range(a.rows) for j in range(b.cols)]


def matches_reference(a: OpMatrix, b: OpMatrix) -> bool:
    got = a @ b
    want = reference_product(a, b)
    return all(same(sym_poly(e), w) and e.is_zero == (w == 0)
               for e, w in zip(got.entries, want))


class TestComposeReference:
    @COMPOSE_SETTINGS
    @given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_random_matrices(self, data, rows, inner, cols):
        a = data.draw(matrices(rows, inner))
        b = data.draw(matrices(inner, cols))
        assert matches_reference(a, b)

    @COMPOSE_SETTINGS
    @given(polys, polys, polys)
    def test_cancels_to_structural_zero(self, p, q, r):
        # [p q] @ [[q, r], [-p, 0]] = [pq - qp, pr]: the first entry cancels
        a = OpMatrix(1, 2, [p, q], CARTESIAN)
        b = OpMatrix(2, 2, [q, r, -p, DiffPoly()], CARTESIAN)
        prod = a @ b
        assert prod.entry(0, 0).is_zero
        assert prod.entry(0, 1) == p * r
        assert matches_reference(a, b)
