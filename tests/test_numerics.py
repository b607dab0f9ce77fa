"""Tests for the self-contained statistical primitives.

The special functions are checked against independent oracles
(scipy / mpmath and a direct numerical integration of the t-density),
never against themselves. The RBF similarity has no function of its
own: the cluster tree tests it as a squared-distance threshold, which is
checked here against the closed form.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from driftscope import numerics
from driftscope.config import DetectorConfig
from driftscope.numerics import (
    P_VALUE_FLOOR,
    chi2_survival,
    corrected_alpha,
    fisher_combine,
    reg_inc_beta,
    t_test_unpaired,
)
from driftscope.tree import AdaptiveClusterTree


def _rbf_similarity(a, b, m=None):
    """exp(-||a - b||^2 / m), the paper's similarity of two m-vectors."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.exp(-float(d @ d) / (d.size if m is None else m))


def _dissimilar(a, b, gamma):
    """The cluster tree's form of sim(a, b) < gamma: a squared-distance threshold."""
    tree = AdaptiveClusterTree(len(a), DetectorConfig(gamma=gamma))
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(d @ d) > tree._dist2_threshold


def _direct_beta_cf(a, b, x):
    """Lentz's continued fraction with every factor recomputed in the loop and the guard as a call."""

    def nonzero(v):
        return 1e-300 if abs(v) < 1e-300 else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, 401):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = nonzero(1.0 + aa * d)
        c = nonzero(1.0 + aa / c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = nonzero(1.0 + aa * d)
        c = nonzero(1.0 + aa / c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise ArithmeticError("no convergence")


def _direct_reg_inc_beta(x, a, b):
    """I_x(a, b) with lgamma taken on every call, as ``reg_inc_beta`` computes it without its caches."""
    if x in (0.0, 1.0):
        return x
    ln_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _direct_beta_cf(a, b, x) / a
    return 1.0 - front * _direct_beta_cf(b, a, 1.0 - x) / b


def _direct_t_test(a, b):
    """(statistic, p-value) of the pooled t-test with means from ``ndarray.mean``."""
    na, nb = a.size, b.size
    df = na + nb - 2
    mean_a, mean_b = float(a.mean()), float(b.mean())
    pooled = (float(((a - mean_a) ** 2).sum()) + float(((b - mean_b) ** 2).sum())) / df
    if pooled <= 0.0:
        if mean_a == mean_b:
            return 0.0, 1.0
        return (math.inf if mean_a > mean_b else -math.inf), 0.0
    stat = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    return stat, min(max(_direct_reg_inc_beta(df / (df + stat * stat), df / 2.0, 0.5), 0.0), 1.0)


class TestRbfSimilarity:
    def test_identical_vectors_score_one(self):
        a = [0.2, 0.4, 0.9]
        assert _rbf_similarity(a, a) == 1.0
        assert not any(_dissimilar(a, a, gamma) for gamma in (0.01, 0.5, 0.95, 0.999999))

    def test_unit_square_diagonal(self):
        # m=2, a=(0,0), b=(1,1): exp(-(1/2)*2) = e^-1
        assert _rbf_similarity([0.0, 0.0], [1.0, 1.0]) == pytest.approx(0.36787944117144233, abs=1e-12)
        assert AdaptiveClusterTree(2, DetectorConfig(gamma=math.exp(-1.0)))._dist2_threshold == pytest.approx(2.0)
        assert _dissimilar([0.0, 0.0], [1.0, 1.0], 0.37)
        assert not _dissimilar([0.0, 0.0], [1.0, 1.0], 0.36)

    def test_scalar_unit_distance(self):
        assert _rbf_similarity([0.0], [1.0]) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert _dissimilar([0.0], [1.0], 0.37)
        assert not _dissimilar([0.0], [1.0], 0.36)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            a = rng.normal(size=m)
            b = rng.normal(size=m)
            s_ab = _rbf_similarity(a, b)
            assert s_ab == _rbf_similarity(b, a)
            assert 0.0 < s_ab <= 1.0
            for gamma in (0.5, 0.9, 0.95, 0.99):
                assert _dissimilar(a, b, gamma) == _dissimilar(b, a, gamma) == (s_ab < gamma)

    def test_explicit_m_parameter(self):
        # the tree's threshold -m * ln(gamma) grows with the feature count m
        assert _rbf_similarity([0.0], [2.0], m=4) == pytest.approx(math.exp(-1.0), abs=1e-12)
        for m in (1, 2, 4, 9):
            tree = AdaptiveClusterTree(m, DetectorConfig(gamma=math.exp(-1.0)))
            assert tree._dist2_threshold == pytest.approx(m)

    def test_rejects_mismatched_lengths(self):
        tree = AdaptiveClusterTree(2, DetectorConfig())
        with pytest.raises(ValueError):
            tree.update(np.array([0.0]), 0.0, 0)

    def test_rejects_non_finite(self):
        tree = AdaptiveClusterTree(2, DetectorConfig())
        with pytest.raises(ValueError):
            tree.update(np.array([0.0, float("nan")]), 0.0, 0)


class TestTTest:
    def test_frozen_example(self):
        res = t_test_unpaired([1, 2, 3, 4], [3, 4, 5, 6])
        assert res.statistic == pytest.approx(-2.1908902300206643, abs=1e-9)
        assert res.df == 6
        assert res.p_value == pytest.approx(0.070987654320987637, abs=1e-6)

    def test_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            na = int(rng.integers(5, 100))
            nb = int(rng.integers(5, 100))
            a = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2.0), size=na)
            b = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2.0), size=nb)
            res = t_test_unpaired(a, b)
            ref = stats.ttest_ind(a, b, equal_var=True)
            assert res.statistic == pytest.approx(float(ref.statistic), rel=1e-9)
            assert res.p_value == pytest.approx(float(ref.pvalue), abs=1e-6)

    def test_matches_direct_integration_of_t_density(self):
        # Independent brute-force oracle: integrate the t density directly.
        def t_pdf(u, df):
            c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
            return c * (1 + u * u / df) ** (-(df + 1) / 2)

        rng = np.random.default_rng(3)
        for _ in range(20):
            na = int(rng.integers(4, 30))
            nb = int(rng.integers(4, 30))
            a = rng.normal(size=na)
            b = rng.normal(loc=0.5, size=nb)
            res = t_test_unpaired(a, b)
            df = na + nb - 2
            tail, _ = integrate.quad(t_pdf, abs(res.statistic), np.inf, args=(df,))
            assert res.p_value == pytest.approx(2 * tail, abs=1e-6)

    def test_sign_antisymmetry(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=12)
        b = rng.normal(loc=1.0, size=9)
        fwd = t_test_unpaired(a, b)
        rev = t_test_unpaired(b, a)
        assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)

    def test_identical_samples_give_p_one(self):
        res = t_test_unpaired([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_constant_samples_with_different_means_give_p_zero(self):
        res = t_test_unpaired([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert res.p_value == 0.0
        assert res.statistic == -math.inf

    def test_rejects_short_samples(self):
        with pytest.raises(ValueError):
            t_test_unpaired([1.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "sample",
        [[1.0, math.nan], [math.inf, 1.0], [2.0, -math.inf], [math.inf, -math.inf], [1e308, 1e308, -math.inf]],
        ids=["nan", "inf", "-inf", "inf-and-minus-inf", "overflow-then-minus-inf"],
    )
    def test_rejects_non_finite_values_without_a_warning(self, sample):
        # the suite turns a RuntimeWarning into an error, so a warned sum would fail this test
        with pytest.raises(ValueError, match="finite inputs"):
            t_test_unpaired([0.5, 1.5, 2.5], sample)
        with pytest.raises(ValueError, match="finite inputs"):
            t_test_unpaired(sample, [0.5, 1.5, 2.5])

    @pytest.mark.parametrize(
        "sample", [[1e308, 1e308, 1.0], [1e200, -1e200, 0.0]], ids=["sum-overflows", "squares-overflow"]
    )
    def test_names_an_overflow_without_a_warning(self, sample):
        with pytest.raises(ValueError, match="t_test_unpaired overflows"):
            t_test_unpaired(sample, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="t_test_unpaired overflows"):
            t_test_unpaired([0.0, 1.0, 2.0], sample)

    def test_gives_the_bits_of_the_direct_form(self):
        rng = np.random.default_rng(101)
        pairs = []
        for _ in range(100):  # the acceptance check's pairs
            n = int(rng.integers(10, 200))
            pairs.append((rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=n),
                          rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=n)))
        for i in range(2000):
            na, nb = int(rng.integers(2, 120)), int(rng.integers(2, 120))
            scale = 10.0 ** int(rng.integers(-6, 7))
            a = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), size=na) * scale
            b = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), size=nb) * scale
            if i % 97 == 0:
                a, b = np.full(na, 1.5), np.full(nb, 1.5 + (i % 2))
            pairs.append((a, b))
        for a, b in pairs:
            res = t_test_unpaired(a, b)
            assert (res.statistic, res.p_value) == _direct_t_test(a, b)


class TestFisherCombine:
    def test_frozen_example(self):
        res = fisher_combine([0.05, 0.05])
        assert res.statistic == pytest.approx(11.982929094215963, rel=1e-12)
        assert res.df == 4
        assert res.p_value == pytest.approx(0.017478661367769956, abs=1e-6)

    def test_four_moderate_p_values(self):
        # Four p=0.05 combine well below the dependency-adjusted level
        # 0.00625 for alpha=0.01, so joint moderate evidence does alert.
        res = fisher_combine([0.05] * 4)
        assert res.statistic == pytest.approx(23.965858188431927, rel=1e-12)
        assert res.p_value == pytest.approx(0.0023221929148880805, abs=1e-6)
        assert res.p_value < corrected_alpha(0.01, 4)

    def test_single_p_value_is_identity(self):
        rng = np.random.default_rng(5)
        for p in rng.uniform(1e-6, 1.0, size=50):
            assert fisher_combine([p]).p_value == pytest.approx(p, abs=1e-9)

    def test_matches_scipy(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            ps = rng.uniform(1e-4, 1.0, size=int(rng.integers(1, 12)))
            res = fisher_combine(ps)
            ref_stat, ref_p = stats.combine_pvalues(ps, method="fisher")
            assert res.statistic == pytest.approx(float(ref_stat), rel=1e-9)
            assert res.p_value == pytest.approx(float(ref_p), abs=1e-6)

    def test_permutation_invariance(self):
        ps = [0.3, 0.01, 0.77, 0.5]
        a = fisher_combine(ps)
        b = fisher_combine(ps[::-1])
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)

    def test_zero_p_value_is_floored(self):
        res = fisher_combine([0.0])
        assert res.statistic == pytest.approx(-2.0 * math.log(P_VALUE_FLOOR))
        assert res.p_value < 1e-100

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fisher_combine([0.5, 1.5])
        with pytest.raises(ValueError):
            fisher_combine([])


class TestCorrectedAlpha:
    def test_single_test_identity(self):
        assert corrected_alpha(0.01, 1) == pytest.approx(0.01)

    def test_frozen_example(self):
        assert corrected_alpha(0.01, 4) == pytest.approx(0.00625)

    def test_bounded_between_half_alpha_and_alpha(self):
        for n in range(1, 200):
            c = corrected_alpha(0.05, n)
            assert 0.025 < c <= 0.05

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            corrected_alpha(0.0, 3)
        with pytest.raises(ValueError):
            corrected_alpha(0.01, 0)


class TestRegIncBeta:
    def test_frozen_example(self):
        # I_0.25(2, 3) has the exact closed form 0.26171875.
        assert reg_inc_beta(0.25, 2.0, 3.0) == pytest.approx(0.26171875, abs=1e-9)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 5.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 5.0) == 1.0

    def test_grid_against_mpmath(self):
        import mpmath as mp

        mp.mp.dps = 30
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            a = float(rng.uniform(0.1, 50.0))
            b = float(rng.uniform(0.1, 50.0))
            x = float(rng.uniform(0.0, 1.0))
            ref = float(mp.betainc(a, b, 0, x, regularized=True))
            assert reg_inc_beta(x, a, b) == pytest.approx(ref, abs=1e-9)
            checked += 1

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = float(rng.uniform(0.2, 20.0))
            b = float(rng.uniform(0.2, 20.0))
            x = float(rng.uniform(0.0, 1.0))
            assert reg_inc_beta(x, a, b) == pytest.approx(1.0 - reg_inc_beta(1.0 - x, b, a), abs=1e-12)

    def test_cached_factors_give_the_bits_of_the_direct_loop(self):
        rng = np.random.default_rng(31)
        cases = [(float(x), 0.5 + (i % 7), 0.75 + (i % 5)) for i, x in enumerate(np.linspace(0.02, 0.98, 50))]
        for _ in range(3000):
            a = float(rng.choice([rng.uniform(0.05, 5.0), rng.uniform(5.0, 300.0), int(rng.integers(1, 200)) / 2]))
            b = float(rng.choice([0.5, rng.uniform(0.05, 5.0), rng.uniform(5.0, 300.0)]))
            cases.append((float(rng.uniform(0.0, 1.0)), a, b))
        for x, a, b in cases:
            assert reg_inc_beta(x, a, b) == _direct_reg_inc_beta(x, a, b), (x, a, b)

    def test_factor_caches_stay_within_their_bound(self):
        for i in range(100):
            reg_inc_beta(0.4, 1.0 + i, 0.5)
        for cached in (numerics._beta_cf_factors, numerics._ln_inv_beta):
            info = cached.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize <= 8

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)


class TestChi2Survival:
    def test_frozen_example(self):
        assert chi2_survival(11.982929094215963, 4) == pytest.approx(0.017478661367769956, abs=1e-6)

    def test_df_two_closed_form(self):
        # For df=2 the survival function is exp(-x/2).
        x = -2.0 * math.log(0.3)
        assert chi2_survival(x, 2) == pytest.approx(0.3, abs=1e-12)

    def test_grid_against_scipy(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            df = float(rng.uniform(1.0, 300.0))
            x = float(rng.uniform(0.0, 4.0 * df))
            assert chi2_survival(x, df) == pytest.approx(float(stats.chi2.sf(x, df)), abs=1e-9)

    def test_grid_against_scipy_special_gamma(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            df = float(rng.uniform(0.5, 100.0))
            x = float(rng.uniform(0.0, 500.0))
            assert chi2_survival(x, df) == pytest.approx(float(special.gammaincc(df / 2.0, x / 2.0)), abs=1e-9)

    def test_boundaries(self):
        assert chi2_survival(0.0, 5) == 1.0
        assert chi2_survival(1e6, 2) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chi2_survival(-1.0, 2)
        with pytest.raises(ValueError):
            chi2_survival(1.0, 0)
