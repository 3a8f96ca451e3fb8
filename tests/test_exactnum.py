import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curlmat.exactnum import (ExactError, ExactScalar, I, ONE, Radical, ZERO,
                              imag, normalize_radical, rational, root)


def square_extract_oracle(n: int) -> tuple[int, int]:
    """Largest square divisor by brute enumeration: n = s*s * q."""
    for s in range(math.isqrt(n), 0, -1):
        if n % (s * s) == 0:
            return s, n // (s * s)
    return 1, n


class TestNormalizeRadical:
    def test_square_extraction(self):
        assert normalize_radical(1, 8) == Radical(Fraction(2), 2)

    def test_already_canonical(self):
        assert normalize_radical(Fraction(3, 2), 1) == Radical(Fraction(3, 2), 1)

    def test_half_sqrt24(self):
        s, q = square_extract_oracle(24)
        assert (s, q) == (2, 6)
        assert normalize_radical(Fraction(1, 2), 24) == Radical(Fraction(1), 6)

    def test_zero_markers(self):
        assert normalize_radical(0, 5) is None
        assert normalize_radical(3, 0) is None

    def test_negative_radicand_rejected(self):
        with pytest.raises(ExactError):
            normalize_radical(1, -2)

    def test_matches_oracle_on_range(self):
        for n in range(1, 200):
            s, q = square_extract_oracle(n)
            assert normalize_radical(1, n) == Radical(Fraction(s), q)


class TestArithmetic:
    def test_add_halves(self):
        half_rt2 = root(2, Fraction(1, 2))
        assert half_rt2 + half_rt2 == root(2)

    def test_add_cancellation(self):
        assert (root(2) + (-root(2))).is_zero

    def test_add_mixed(self):
        a = ONE + imag(1, 3)          # 1 + i*sqrt(3)
        b = rational(2) - imag(1, 3)  # 2 - i*sqrt(3)
        assert a + b == rational(3)

    def test_mul_sqrt2_squared(self):
        assert root(2) * root(2) == rational(2)

    def test_one_over_i(self):
        assert (ONE / I) * I == ONE
        assert ONE / I == imag(-1)

    def test_mul_sqrt6_sqrt2(self):
        s, q = square_extract_oracle(12)
        assert (s, q) == (2, 3)
        assert root(6) * root(2) == root(3, 2)

    def test_conj(self):
        assert I.conj() == imag(-1)
        assert rational(3, 5).conj() == rational(3, 5)
        x = root(2, Fraction(1, 2)) - imag(1, 6)
        assert x.conj() == root(2, Fraction(1, 2)) + imag(1, 6)

    def test_pow(self):
        assert (ONE + I) ** 2 == imag(2)

    def test_inverse_restriction(self):
        with pytest.raises(ExactError):
            (ONE + root(2)).inverse()
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_inverse_single_radical(self):
        z = root(2, Fraction(1, 2)) + imag(1, 3)
        assert z * z.inverse() == ONE


def _random_scalar(rng: random.Random, radicands=(1, 2, 3, 5)) -> ExactScalar:
    re = {d: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for d in
          rng.sample(radicands, rng.randint(0, 2))}
    im = {d: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for d in
          rng.sample(radicands, rng.randint(0, 2))}
    return ExactScalar(re=re, im=im)


class TestFieldAxioms:
    def test_ring_axioms_random(self):
        rng = random.Random(20240817)
        for _ in range(200):
            a, b, c = (_random_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == ZERO
            assert a * ONE == a

    def test_multiplicative_inverse_random(self):
        rng = random.Random(7)
        count = 0
        while count < 50:
            re_d = rng.choice((1, 2, 3, 5))
            im_d = rng.choice((1, 2, 3, 5))
            z = ExactScalar(re={re_d: Fraction(rng.randint(-3, 3))},
                            im={im_d: Fraction(rng.randint(-3, 3))})
            if z.is_zero:
                continue
            count += 1
            assert z * z.inverse() == ONE

    def test_to_float_homomorphism(self):
        rng = random.Random(99)
        for _ in range(300):
            a, b = _random_scalar(rng), _random_scalar(rng)
            lhs = (a * b).to_complex()
            rhs = a.to_complex() * b.to_complex()
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
            lhs = (a + b).to_complex()
            rhs = a.to_complex() + b.to_complex()
            assert abs(lhs - rhs) <= 1e-14 * (1 + abs(rhs))

    def test_to_complex_radicand_past_float_range(self):
        # sqrt(d) alone overflows a float, the term c*sqrt(d) = -2**-50 does not;
        # _make skips canonicalisation, which would factor d; it takes each
        # coefficient as a reduced (numerator, denominator) pair
        d = 2 ** 1100 + 1
        z = ExactScalar._make({d: (-1, 2 ** 600)}, {2: (1, 3)})
        assert z.to_complex() == complex(-(2.0 ** -50), float(Fraction(1, 3)) * math.sqrt(2))

    def test_conj_properties_random(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = _random_scalar(rng), _random_scalar(rng)
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()


class TestRendering:
    def test_canonical_string(self):
        x = ExactScalar(re={2: Fraction(1, 2)}, im={3: Fraction(-1)})
        assert str(x) == "(1/2)*sqrt(2) + i*(-1)*sqrt(3)"

    def test_rational_string(self):
        assert str(rational(3, 5)) == "3/5"
        assert str(ZERO) == "0"

    def test_latex_fraction_root(self):
        assert root(2, Fraction(1, 2)).latex() == r"\frac{\sqrt{2}}{2}"
        assert imag(-1).latex() == "-i"
        assert rational(-1, 2).latex() == r"-\frac{1}{2}"

    def test_equality_and_hash(self):
        a = root(8)           # normalizes to 2*sqrt(2)
        b = root(2, 2)
        assert a == b and hash(a) == hash(b)
        assert a == a + ZERO
        assert rational(2) == 2

    @pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
    def test_rational_hash_matches_int_and_fraction(self, value):
        scalar = ExactScalar.from_rational(value)
        assert scalar == value and hash(scalar) == hash(value)
        assert value in {scalar} and scalar in {value}
        assert hash(scalar) == hash(Fraction(value))


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
parts = st.dictionaries(st.sampled_from((1, 2, 3, 5, 6, 8, 10, 12, 15)), coeffs, max_size=3)
scalars = st.builds(lambda re, im: ExactScalar(re=re, im=im), parts, parts)


class TestRationalInvariants:
    """A value is stored in one form whatever arithmetic made it, so a result
    that cancels to a rational is that int or Fraction in every respect."""

    @PROPERTY
    @given(y=scalars, p=coeffs, d=st.integers(1, 40))
    def test_values_that_cancel_to_a_rational_act_as_it(self, y, p, d):
        cases = (((rational(p) + y) - y, p),
                 (root(d) * root(d) - rational(p), d - p),
                 (y * ZERO - p, -p),
                 ((y - rational(p)) - (y + rational(p)), -2 * p))
        for value, want in cases:
            for same in {want, Fraction(want)} | ({int(want)} if want.denominator == 1 else set()):
                assert value == same and same == value
                assert hash(value) == hash(same)
                assert value in {same} and same in {value}
            assert not value.im_terms
            assert value.re_terms == ((Radical(want, 1),) if want else ())

    @PROPERTY
    @given(x=scalars, y=scalars)
    def test_terms_are_reduced_fractions_that_rebuild_the_value(self, x, y):
        for z in (x + y, x - y, x * y, -x, x.conj()):
            for terms in (z.re_terms, z.im_terms):
                radicands = [t.radicand for t in terms]
                assert radicands == sorted(set(radicands))
                for coeff, radicand in terms:
                    assert type(coeff) is Fraction and coeff != 0
                    assert coeff.denominator > 0
                    assert math.gcd(coeff.numerator, coeff.denominator) == 1
                    assert normalize_radical(1, radicand) == Radical(Fraction(1), radicand)
            rebuilt = ExactScalar(re={d: c for c, d in z.re_terms},
                                  im={d: c for c, d in z.im_terms})
            assert rebuilt == z and hash(rebuilt) == hash(z)
            assert str(rebuilt) == str(z)
