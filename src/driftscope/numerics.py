"""Statistical primitives used by the change detector.

Everything here is self-contained: the regularized incomplete beta and
gamma functions are evaluated with the classic series / continued-fraction
expansions (Lentz's algorithm) rather than pulled from an external numeric
stack, so the detector has no heavyweight runtime dependency. The test
suite checks these routines against independent high-precision oracles.

The incomplete beta's log of 1 / B(a, b) and its continued fraction's
per-iteration factors depend on the shapes alone, so each is cached for
the last few shape pairs: a detector's fixed test window meets one or
two, and the bound keeps many shapes from growing memory. Reusing them
changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

# Smallest p-value allowed into a log; avoids -inf when a local test
# returns an exact zero (degenerate-variance case).
P_VALUE_FLOOR = 1e-300

_MAX_ITER = 400
_EPS = 3e-16
_FPMIN = 1e-300


@dataclass(frozen=True)
class TestResult:
    """Outcome of a significance test."""

    statistic: float
    p_value: float
    df: float


def t_test_unpaired(sample_a: Sequence[float], sample_b: Sequence[float]) -> TestResult:
    """Two-sided unpaired t-test with pooled variance.

    df = n_a + n_b - 2 and the two-sided p-value comes from the
    regularized incomplete beta function, p = I_{df/(df+t^2)}(df/2, 1/2).
    When the pooled variance is exactly zero the test degenerates:
    equal means give p = 1, unequal means give p = 0.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size < 2 or b.size < 2:
        raise ValueError("t_test_unpaired needs two samples with at least 2 values each")
    na, nb = a.size, b.size
    df = na + nb - 2
    with np.errstate(all="ignore"):  # a non-finite value or an overflow is named below, not warned about
        sum_a, sum_b = float(np.add.reduce(a)), float(np.add.reduce(b))
        # a finite sum means finite values, so only a non-finite one needs the full check
        if not math.isfinite(sum_a + sum_b) and not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("t_test_unpaired requires finite inputs")
        mean_a = sum_a / na  # the bits of a.mean()
        mean_b = sum_b / nb
        ss_a = float(((a - mean_a) ** 2).sum())
        ss_b = float(((b - mean_b) ** 2).sum())
    pooled = (ss_a + ss_b) / df
    if pooled == math.inf:  # finite values whose sum or sum of squares leaves the float range
        raise ValueError("t_test_unpaired overflows: a sum or sum of squares of the samples exceeds the float range")
    if pooled <= 0.0:
        if mean_a == mean_b:
            return TestResult(0.0, 1.0, float(df))
        stat = math.inf if mean_a > mean_b else -math.inf
        return TestResult(stat, 0.0, float(df))
    se = math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    stat = (mean_a - mean_b) / se
    p = reg_inc_beta(df / (df + stat * stat), df / 2.0, 0.5)
    return TestResult(stat, min(max(p, 0.0), 1.0), float(df))


def fisher_combine(p_values: Sequence[float]) -> TestResult:
    """Combine independent p-values with Fisher's method.

    The statistic -2 * sum(ln p_i) follows a chi-square distribution with
    2N degrees of freedom under the null. Zero p-values are floored at
    ``P_VALUE_FLOOR`` before taking logs.
    """
    ps = list(p_values)
    if not ps:
        raise ValueError("fisher_combine needs at least one p-value")
    total = 0.0
    for p in ps:
        if not (0.0 <= p <= 1.0) or math.isnan(p):
            raise ValueError(f"p-values must lie in [0, 1], got {p}")
        total += math.log(max(p, P_VALUE_FLOOR))
    stat = -2.0 * total
    df = 2 * len(ps)
    return TestResult(stat, chi2_survival(stat, df), float(df))


def corrected_alpha(alpha: float, n_tests: int) -> float:
    """Dependency-adjusted significance level for combining N leaf tests.

    Returns alpha * (N + 1) / (2N), which interpolates from alpha at a
    single test down toward alpha/2 as the number of tests grows.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n_tests < 1:
        raise ValueError(f"n_tests must be >= 1, got {n_tests}")
    return alpha * (n_tests + 1) / (2.0 * n_tests)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Uses the continued-fraction expansion with the usual symmetry split:
    the fraction converges quickly for x < (a+1)/(a+b+2) and the
    complement is used otherwise.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(_ln_inv_beta(a, b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _nonzero(v: float) -> float:
    """Lentz's guard: a denominator closer to zero than _FPMIN becomes _FPMIN."""
    return _FPMIN if abs(v) < _FPMIN else v


@lru_cache(maxsize=8, typed=True)
def _ln_inv_beta(a: float, b: float) -> float:
    """lgamma(a + b) - lgamma(a) - lgamma(b), the log of 1 / B(a, b)."""
    return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)


@lru_cache(maxsize=8, typed=True)
def _beta_cf_factors(a: float, b: float) -> tuple[tuple[float, float, float, float], ...]:
    """Per iteration m of ``_beta_cf``: its two terms' numerators (less the factor x) and denominators."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    m = np.arange(1.0, _MAX_ITER + 1)  # numpy rounds each float operation as Python does
    factors = (m * (b - m), (qam + 2 * m) * (a + 2 * m), -(a + m) * (qab + m), (a + 2 * m) * (qap + 2 * m))
    return tuple(zip(*(f.tolist() for f in factors)))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated by Lentz's method.

    Lentz's guard (``_nonzero``) is written inline: it runs four times
    an iteration, and a call costs more than the test.
    """
    c = 1.0
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for num_even, den_even, num_odd, den_odd in _beta_cf_factors(a, b):
        aa = num_even * x / den_even
        d = 1.0 + aa * d
        if -_FPMIN < d < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if -_FPMIN < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = num_odd * x / den_odd
        d = 1.0 + aa * d
        if -_FPMIN < d < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if -_FPMIN < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def chi2_survival(x: float, df: float) -> float:
    """Survival function of the chi-square distribution, P(X >= x).

    Evaluated as the regularized upper incomplete gamma Q(df/2, x/2).
    """
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if x < 0.0 or math.isnan(x):
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    if math.isinf(x):
        return 0.0
    return _reg_upper_gamma(df / 2.0, x / 2.0)


def _reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def _gamma_series(a: float, x: float) -> float:
    """Lower incomplete gamma P(a, x) via its series expansion."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ArithmeticError(f"incomplete gamma series failed to converge (a={a}, x={x})")
    log_scale = -x + a * math.log(x) - math.lgamma(a)
    return total * math.exp(log_scale)


def _gamma_cf(a: float, x: float) -> float:
    """Upper incomplete gamma Q(a, x) via continued fraction (Lentz's method)."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if abs(b) >= _FPMIN else 1.0 / _FPMIN
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = _nonzero(an * d + b)
        c = _nonzero(b + an / c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(f"incomplete gamma continued fraction failed to converge (a={a}, x={x})")
    log_scale = -x + a * math.log(x) - math.lgamma(a)
    return h * math.exp(log_scale)
