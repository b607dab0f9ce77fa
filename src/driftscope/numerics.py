"""Statistical primitives used by the change detector.

Everything here is self-contained: the regularized incomplete beta and
gamma functions are evaluated with the classic series / continued-fraction
expansions (Lentz's algorithm) rather than pulled from an external numeric
stack, so the detector has no heavyweight runtime dependency. The test
suite checks these routines against independent high-precision oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("t_test_unpaired requires finite inputs")
    na, nb = a.size, b.size
    df = na + nb - 2
    mean_a = float(a.mean())
    mean_b = float(b.mean())
    ss_a = float(((a - mean_a) ** 2).sum())
    ss_b = float(((b - mean_b) ** 2).sum())
    pooled = (ss_a + ss_b) / df
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
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _nonzero(v: float) -> float:
    """Lentz's guard: a denominator closer to zero than _FPMIN becomes _FPMIN."""
    return _FPMIN if abs(v) < _FPMIN else v


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated by Lentz's method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
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
