"""Independent reference values for the benchmark's output checks.

Everything here uses numpy and scipy only and never imports fksim, so a
fault in the program cannot leak into the values it is checked against.
The references cover the configurations the benchmark runs: the Z^1 lattice
with nearest-neighbour jumps at rate q, the potential V(n) = |n|^alpha, and
either i.i.d. or power-decay Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, expm1, log, sqrt

import numpy as np
from scipy import stats

# Double-precision unit roundoff of exp(x) near 1: one ulp of 1.0 plus margin.
# Evaluating exp(x) - 1 instead of expm1(x) can be off by this much per term.
EXP_ROUNDING = 2.3e-16

# Weights e^{-t V} below e^{-60} (about 1e-26 of the central term) are dropped.
_LN_CUTOFF = 60.0


# -- jump-count tails -----------------------------------------------------------


def poisson_tail(rate_t, x):
    """P(N >= x) for N ~ Poisson(rate_t), the exact jump-count tail."""
    return float(stats.poisson.sf(x - 1, rate_t))


def chernoff_bound(rate_t, x):
    """e^{-qt} (q e t / x)^x, the Chernoff bound on P(N >= x) for x > qt."""
    return exp(-rate_t + x * (log(rate_t / x) + 1.0))


def binomial_tails(k, n, p):
    """(P(K <= k), P(K >= k)) for K ~ Binomial(n, p)."""
    return float(stats.binom.cdf(k, n, p)), float(stats.binom.sf(k - 1, n, p))


# -- exact Dirichlet truncations on Z^1 ------------------------------------------


def z1_dirichlet_base(radius, alpha, q):
    """Noise-free truncation of -H_X + V on {-radius..radius}: q + V on the
    diagonal, -q/2 to each neighbour, nothing across the boundary."""
    n = np.arange(-radius, radius + 1, dtype=float)
    off = np.full(len(n) - 1, -q / 2.0)
    return np.diag(q + np.abs(n) ** alpha) + np.diag(off, 1) + np.diag(off, -1)


def z1_ensemble_eigs(radius, alpha, gamma0, q, members, rng, chunk=4096):
    """Eigenvalues (members x dim) of truncations with i.i.d. N(0, gamma0)
    noise on the diagonal, one batched eigvalsh per chunk of members."""
    base = z1_dirichlet_base(radius, alpha, q)
    dim = base.shape[0]
    diag = np.arange(dim)
    out = np.empty((members, dim))
    for lo in range(0, members, chunk):
        k = min(chunk, members - lo)
        mats = np.repeat(base[None], k, axis=0)
        mats[:, diag, diag] += sqrt(gamma0) * rng.standard_normal((k, dim))
        out[lo:lo + k] = np.linalg.eigvalsh(mats)
    return out


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    n: int


def traces(eigs, t):
    """Tr e^{-tH} of every ensemble member."""
    return np.exp(-t * eigs).sum(axis=1)


def variance_estimate(samples):
    """Unbiased variance with its large-sample standard error
    sqrt((m4 - s^4 (m-3)/(m-1)) / m)."""
    x = np.asarray(samples, dtype=float)
    m = len(x)
    if m < 4:
        raise ValueError("variance estimate needs at least four samples")
    s2 = float(x.var(ddof=1))
    m4 = float(((x - x.mean()) ** 4).mean())
    return Estimate(s2, sqrt(max(m4 - s2 * s2 * (m - 3) / (m - 1), 0.0) / m),
                    m)


def mean_estimate(samples):
    x = np.asarray(samples, dtype=float)
    if len(x) < 2:
        raise ValueError("mean estimate needs at least two samples")
    return Estimate(float(x.mean()), float(x.std(ddof=1)) / sqrt(len(x)),
                    len(x))


# -- frozen-walk and lower-bound sums on Z^1 -------------------------------------


def _weights(t, alpha):
    """w(n) = e^{-t |n|^alpha} on {-R..R}, R past the e^{-60} cutoff."""
    big_r = int(ceil((_LN_CUTOFF / t) ** (1.0 / alpha)))
    n = np.arange(-big_r, big_r + 1, dtype=float)
    return np.exp(-t * np.abs(n) ** alpha)


def iid_frozen_sum(t, alpha, gamma0):
    """e^{t^2 g0} (e^{t^2 g0} - 1) sum_u e^{-2t V(u)}: independent sites
    leave only the diagonal u = v of the double sum."""
    w = _weights(t, alpha)
    t2g = t * t * gamma0
    return exp(t2g) * expm1(t2g) * float((w * w).sum())


def iid_lower_sum(t, delta, gamma0):
    """e^{-2t + t^2 g0} (e^{t^2 g0} - 1) sum_u e^{-2t d(u)^delta}."""
    return exp(-2.0 * t) * iid_frozen_sum(t, delta, gamma0)


@dataclass(frozen=True)
class PairSum:
    value: float
    rounding: float   # bound on the error of evaluating e^x - 1 as written


def power_decay_frozen_sum(t, alpha, beta, scale):
    """e^{t^2 g0} sum_{u,v} w(u) w(v) (e^{t^2 gamma(u,v)} - 1), with
    gamma = scale (|u - v| + 1)^{-beta}, as a correlation sum over lags:
    a(k) = sum_u w(u) w(u + k) counts every pair at distance k once."""
    w = _weights(t, alpha)
    a = np.correlate(w, w, mode="full")[len(w) - 1:]
    lag = np.arange(len(a), dtype=float)
    g = np.expm1(t * t * scale * (lag + 1.0) ** (-beta))
    pre = exp(t * t * scale)
    value = pre * float(a[0] * g[0] + 2.0 * (a[1:] @ g[1:]))
    return PairSum(value, pre * EXP_ROUNDING * float(w.sum()) ** 2)


def power_decay_lower_sum(t, delta, beta, scale):
    """e^{-2t} times the frozen sum with V = d^delta (the lower-bound preset)."""
    s = power_decay_frozen_sum(t, delta, beta, scale)
    return PairSum(exp(-2.0 * t) * s.value, exp(-2.0 * t) * s.rounding)


def fit_slope(ts, values):
    """OLS slope of log value against log t."""
    return float(np.polyfit(np.log(ts), np.log(values), 1)[0])
