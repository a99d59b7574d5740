import math
from fractions import Fraction

import pytest

from coverramsey import (NoValidNError, asymptotic_lower, lll_inequality_holds,
                         lll_threshold_n, sufficiency_inequality_holds,
                         thm1_upper_bound)
from coverramsey.bounds import E_UPPER


class TestCubicUpperBound:
    @pytest.mark.parametrize("k,r,expected", [(2, 6, 144), (3, 6, 486),
                                              (2, 2, 6), (4, 9, 3888)])
    def test_known_values(self, k, r, expected):
        assert thm1_upper_bound(k, r).value == expected

    def test_sufficiency_recorded(self):
        report = thm1_upper_bound(2, 2)
        assert any("sufficiency" in note for note in report.notes)
        assert sufficiency_inequality_holds(2, 2).satisfied  # 16/3 >= 3

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            thm1_upper_bound(1, 6)
        with pytest.raises(ValueError):
            thm1_upper_bound(2, 1)

    def test_always_at_least_ramsey_for_2_graphs(self):
        for r in range(2, 40):
            assert thm1_upper_bound(2, r).value >= r

    def test_against_rational_re_derivation(self):
        for k in range(2, 11):
            for r in range(2, 11):
                exact = Fraction(k, 1) ** 3 * Fraction(r, 1) ** 3 / 12
                assert thm1_upper_bound(k, r).value == math.ceil(exact)

    def test_sufficiency_holds_on_grid(self):
        for k in range(2, 11):
            for s in range(2, 11):
                assert sufficiency_inequality_holds(k, s).satisfied, (k, s)

    def test_sufficiency_rejects_small_parameters(self):
        with pytest.raises(ValueError) as exc:
            sufficiency_inequality_holds(1, 3)
        assert str(exc.value) == "requires k >= 2 and s >= 2"


class TestLLLInequality:
    def test_minimal_case_fails(self):
        report = lll_inequality_holds(3, 3, 2)
        assert report.value == E_UPPER * 3 * 2 / 8  # 3e/4
        assert report.value > 1
        assert not report.satisfied

    def test_exact_fraction_type(self):
        assert isinstance(lll_inequality_holds(10, 4, 3).value, Fraction)

    def test_downward_closed_in_n(self):
        t, k = 6, 3
        state = [lll_inequality_holds(n, t, k).satisfied
                 for n in range(t, 40)]
        # once False it stays False
        assert all(a or not b for a, b in zip(state, state[1:]))

    def test_over_approximation_is_conservative(self):
        # tightening the e bound never flips True to False
        tighter = Fraction(271828182845904524, 10 ** 17)
        assert tighter < E_UPPER  # still an upper bound on e, but tighter
        for (n, t, k) in ((10, 4, 3), (20, 5, 3), (86, 10, 3)):
            report = lll_inequality_holds(n, t, k)
            if report.satisfied:
                raw = (tighter * math.comb(t, 2) * math.comb(k, 2)
                       * math.comb(n - 2, t - 2) * 2)
                assert raw < 2 ** math.comb(t, 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lll_inequality_holds(2, 3, 3)
        with pytest.raises(ValueError):
            lll_inequality_holds(5, 2, 3)


class TestLLLThreshold:
    def test_threshold_is_sharp_t10(self):
        n_star = lll_threshold_n(10, 3).value
        assert lll_inequality_holds(n_star, 10, 3).satisfied
        assert not lll_inequality_holds(n_star + 1, 10, 3).satisfied

    def test_matches_linear_scan_small(self):
        n_star = lll_threshold_n(5, 2).value
        best = max(n for n in range(5, 200)
                   if lll_inequality_holds(n, 5, 2).satisfied)
        assert n_star == best

    def test_monotone_in_t(self):
        values = [lll_threshold_n(t, 3).value for t in (8, 10, 12, 14)]
        assert values == sorted(values) and len(set(values)) == 4

    def test_admissible_filter_congruence(self):
        report = lll_threshold_n(12, 3, admissible=True)
        assert report.value % 6 == 3
        assert lll_inequality_holds(report.value, 12, 3).satisfied

    def test_no_valid_n(self):
        with pytest.raises(NoValidNError):
            lll_threshold_n(3, 2)


class TestAsymptote:
    def test_t2_value(self):
        assert asymptotic_lower(2).value == pytest.approx(2.081, abs=0.001)

    def test_t20_value(self):
        assert asymptotic_lower(20).value == pytest.approx(10654.9, abs=0.1)

    def test_scaling_identity(self):
        for t in (2, 5, 10, 21):
            ratio = asymptotic_lower(t + 2).value / asymptotic_lower(t).value
            assert ratio == pytest.approx(2 * (t + 2) / t, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asymptotic_lower(0)


class TestReportRendering:
    def test_fraction_rendering(self):
        text = lll_inequality_holds(10, 4, 3).render()
        assert "value = " in text and "/" in text
        assert "satisfied = " in text

    def test_integer_rendering(self):
        text = thm1_upper_bound(3, 6).render()
        assert "value = 486" in text

