import numpy as np
import pytest

from curlmat import identities
from curlmat.builders import build_cartesian_curls, build_curl_cg
from curlmat.diffop import OpMatrix
from curlmat.exactnum import I, ONE
from curlmat.identities import (MAX_ORDER, OperatorSet, all_pass,
                                cartesian_identity_pairs, curl_alpha_pairs, exponential_pair,
                                power_identity_pairs, power_walk, verify_all,
                                verify_complex_suite, verify_core_identities,
                                verify_exponential, verify_hermitian_suite,
                                verify_power_laws, verify_suite)

from oracles import flip_entry


def _no_compose(self, other):
    raise AssertionError("an order past MAX_ORDER must be refused before any compose")


class TestCoreSuite:
    def test_all_exact_pass(self):
        reports = verify_core_identities(4)
        assert all_pass(reports)
        assert {r.identity_id for r in reports} == {
            "curl-grad-zero", "div-curl-zero", "curl-squared-rank1",
            "curl-grad-intertwine", "div-curl-intertwine", "curl-squared"}

    def test_curl_squared_covers_requested_ranks(self):
        report = next(r for r in verify_core_identities(4)
                      if r.identity_id == "curl-squared")
        assert report.l_range == [1, 2, 3, 4]

    def test_l_max_validation(self):
        with pytest.raises(ValueError):
            verify_core_identities(0)
        with pytest.raises(ValueError):
            verify_core_identities(9)

    @pytest.mark.parametrize("suite", ["core", "hermitian", "complex"])
    def test_pass_at_max_spin(self, suite):
        reports = verify_suite(suite, 8, 0, 0)
        assert all_pass(reports)
        squared = next(r for r in reports if r.identity_id.endswith("curl-squared"))
        assert squared.l_range == list(range(1, 9))


class TestPowerLaws:
    def test_all_exact_pass(self):
        assert all_pass(verify_power_laws(4))

    def test_parity_report_present(self):
        ids = {r.identity_id for r in verify_power_laws(2)}
        assert "curl1-power-parity" in ids
        assert "cartesian-power-parity" in ids

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(OpMatrix, "compose", _no_compose)
        with pytest.raises(ValueError, match=f"n <= {MAX_ORDER}, got {MAX_ORDER + 1}"):
            verify_power_laws(MAX_ORDER + 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            verify_power_laws(-1)
        with pytest.raises(ValueError):
            verify_exponential(-1)

    def test_walk_matches_power(self):
        curl = build_curl_cg(1)
        for k, power in enumerate(power_walk(curl, 5), 1):
            assert power == curl.power(k)

    def test_report_order_and_ranges(self):
        reports = verify_power_laws(3)
        assert [r.identity_id for r in reports] == [
            "curl1-power-even", "curl1-power-odd",
            "cartesian-curl-power-even", "cartesian-curl-power-odd",
            "curl1-power-parity", "cartesian-power-parity"]
        assert [r.l_range for r in reports] == [[1, 2, 3]] * 4 + [[1, 2, 3, 4, 5, 6, 7]] * 2

    def test_zero_order_keeps_parity_only(self):
        reports = verify_power_laws(0)
        assert [(r.identity_id, r.l_range) for r in reports] == [
            ("curl1-power-parity", [1]), ("cartesian-power-parity", [1])]


class TestExponential:
    def test_truncations(self):
        for n in (0, 1, 3):
            report = verify_exponential(n)
            assert report.passed
            assert report.l_range == [n]

    def test_cap_exceeded_no_partial_report(self, monkeypatch):
        monkeypatch.setattr(OpMatrix, "compose", _no_compose)
        with pytest.raises(ValueError, match=f"n <= {MAX_ORDER}, got {MAX_ORDER + 1}"):
            verify_exponential(MAX_ORDER + 1)


def _hermitian_complex(l_max, ops=None):
    return verify_hermitian_suite(l_max, ops) + verify_complex_suite(l_max, ops)


class TestHermitianComplexSuites:
    def test_all_exact_pass(self):
        reports = _hermitian_complex(4)
        assert all_pass(reports)
        # six hermitian + six complex + nine cartesian checks
        assert len(reports) == 21

    def test_expected_identity_ids(self):
        ids = [r.identity_id for r in _hermitian_complex(2)]
        for needed in ("hermitian-curl-squared", "complex-curl-squared",
                       "cartesian-complex-double-curl",
                       "cartesian-hermitian-double-curl",
                       "cartesian-div-complex-curl-zero"):
            assert needed in ids


class TestReportShape:
    def test_as_dict(self):
        report = verify_core_identities(2)[0]
        payload = report.as_dict()
        assert payload["status"] == "exact-pass"
        assert payload["witness"] is None

    def test_failure_carries_witness(self):
        mutant = flip_entry(build_curl_cg(1), 0, 0)
        reports = verify_core_identities(2, OperatorSet({1: mutant}))
        failed = [r for r in reports if not r.passed]
        assert failed
        assert all(r.witness is not None and not r.witness.is_zero for r in failed)


def _failure_count(ops: OperatorSet) -> int:
    reports = (verify_core_identities(2, ops)
               + verify_power_laws(2, ops)
               + [verify_exponential(1, ops)]
               + _hermitian_complex(2, ops))
    return sum(not r.passed for r in reports)


class TestMutationSensitivity:
    def test_every_nonzero_entry_flip_breaks_suites(self):
        curl = build_curl_cg(1)
        flips = 0
        for i in range(3):
            for j in range(3):
                if curl.entry(i, j).is_zero:
                    continue
                flips += 1
                mutant = flip_entry(curl, i, j)
                assert _failure_count(OperatorSet({1: mutant})) >= 3, (i, j)
        assert flips == 6  # the corners and the center of the rank-1 curl are zero

    @pytest.mark.parametrize("suite", ["core", "hermitian", "complex"])
    def test_every_entry_flip_breaks_each_family(self, suite):
        # every curl·alpha family must scale the overridden curl, not rebuild it
        curl = build_curl_cg(1)
        for i in range(3):
            for j in range(3):
                if curl.entry(i, j).is_zero:
                    continue
                ops = OperatorSet({1: flip_entry(curl, i, j)})
                reports = verify_suite(suite, 2, 0, 0, ops)
                assert any(not r.passed for r in reports), (suite, i, j)

    def test_unmutated_suite_is_clean(self):
        assert _failure_count(OperatorSet()) == 0


class TestSymbolCrossCheck:
    def test_identities_hold_numerically(self):
        rng = np.random.default_rng(2718)
        pairs = (curl_alpha_pairs(ONE, 3) + curl_alpha_pairs(I, 3)
                 + curl_alpha_pairs(ONE + I, 3) + cartesian_identity_pairs()
                 + power_identity_pairs("curl1", list(power_walk(build_curl_cg(1), 5)))
                 + power_identity_pairs(
                     "cartesian-curl", list(power_walk(build_cartesian_curls().curl, 5)))
                 + [("curl1-exponential-series", 2, *exponential_pair(2))])
        for ident, _, lhs, rhs in pairs:
            for _ in range(10):
                k = 3.0 * rng.normal(size=3)
                a = lhs.symbol_at(k)
                b = rhs.symbol_at(k)
                scale = 1.0 + float(np.abs(b).max())
                assert np.allclose(a, b, atol=1e-10 * scale), ident


class TestAlphaGenerator:
    def test_family_ids(self):
        core = [ident for ident, *_ in curl_alpha_pairs(ONE, 2)]
        herm = [ident for ident, *_ in curl_alpha_pairs(I, 2, prefix="hermitian-")]
        assert herm == ["hermitian-" + ident for ident in core]

    def test_rank1_only(self):
        pairs = curl_alpha_pairs(ONE + I, 0)
        assert [(ident, l) for ident, l, *_ in pairs] == [
            ("curl-grad-zero", 1), ("div-curl-zero", 1), ("curl-squared-rank1", 1)]

    def test_second_order_scales_by_alpha_squared(self):
        # i^2 = -1: the hermitian square is lap - grad.div
        (_, _, lhs, rhs), = [p for p in curl_alpha_pairs(I, 1) if p[0] == "curl-squared-rank1"]
        ops = OperatorSet()
        assert rhs == ops.laplacian_identity(1) - ops.grad(0) @ ops.div(1)
        assert lhs == build_curl_cg(1).scale(I) @ build_curl_cg(1).scale(I)

    def test_cartesian_ids_in_report_order(self):
        assert [ident for ident, *_ in cartesian_identity_pairs()] == [
            "cartesian-curl-grad-zero", "cartesian-div-curl-zero",
            "cartesian-double-curl",
            "cartesian-complex-curl-grad-zero", "cartesian-div-complex-curl-zero",
            "cartesian-complex-double-curl",
            "cartesian-hermitian-curl-grad-zero", "cartesian-div-hermitian-curl-zero",
            "cartesian-hermitian-double-curl"]


class TestVerifyAll:
    def test_default_bundle(self):
        suites = verify_all(l_max=2, n_max=2, exp_terms=1)
        assert set(suites) == {"core", "powers", "exp", "hermitian", "complex"}
        for reports in suites.values():
            assert all_pass(reports)

    def test_dispatch_matches_bundle(self):
        suites = verify_all(l_max=2, n_max=1, exp_terms=2)
        for name, reports in suites.items():
            again = verify_suite(name, 2, 1, 2)
            assert [r.as_dict() for r in again] == [r.as_dict() for r in reports]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify_suite("nope", 2, 1, 1)
