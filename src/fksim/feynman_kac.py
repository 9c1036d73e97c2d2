"""Path-integral estimators of semigroup kernels and traces, the paired-walker
variance identity, and the deterministic sums behind the small-t scaling laws.

Monte Carlo routes describe the vertices a walk may visit once as a
``walker.Region`` and sample all paths in numpy batches with
``walker.sample_walks``.  Kernel and trace estimators weight each path by
e^{-integral of (V + xi)}; killed-trace walkers stop at their exit from the
ball of the ``operators.Truncation`` that the exact routes assemble, so the
field is needed on the ball alone.  The paired-walker variance
uses dense local-time rows, so that every start pair of a replicate comes
from one matrix product with the box covariance.  Deterministic routes
evaluate the frozen-walk double sums in closed radial form with certified box
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, e as _E, exp, expm1, gamma as _gamma_fn, nan, sqrt
from typing import Optional

import numpy as np
from scipy.special import comb as _comb, gammainc, gammaincc

from .errors import ConfigError, DomainError, InputError
from .lattice import ZD_L1, ZD_LINF
from .noise import (CONSTANT, IID, POWER_DECAY, covariance_matrix,
                    sample_field, variance_at_origin)
from .operators import Truncation, expm_neg
from .walker import _MAX_ELEMS, Region, sample_path, sample_walks

_LN_TAIL = 27.631021115928547  # ln(1e12): relative cutoff for the box tail
_EXACT_TERM_CAP = 20_000_000   # radial terms summed exactly before integral tails


@dataclass(frozen=True)
class TraceEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    n_paths: int
    t: float


@dataclass(frozen=True)
class VarianceEstimate:
    value: float
    stderr: float
    n_samples: int
    t: float
    radius: Optional[int] = None

    def ci95(self):
        return (self.value - 1.96 * self.stderr, self.value + 1.96 * self.stderr)


@dataclass(frozen=True)
class PairedSample:
    """Two independent trajectories with their range separation."""

    first: object
    second: object
    range_distance: int
    joint_stay: bool


def radius_for(t, alpha=2.0, kappa=1.0, q_sup=1.0):
    """Box radius making the truncated terms < 1e-12 of the central one,
    plus an allowance for walker displacement over the horizon."""
    if t <= 0:
        raise DomainError("t must be positive")
    core = ceil((_LN_TAIL / t) ** (1.0 / alpha) / kappa)
    return core + ceil(q_sup * _E * t) + 40


# -- Monte Carlo kernel and trace ---------------------------------------------


def _field_region(graph, spec, pot, xi):
    """The region of an unkilled walk, every vertex the field covers, and
    V + xi on it (+inf on Dirichlet vertices)."""
    region = Region.build(graph, spec, xi.vertices)
    return region, np.array([pot.value(graph, v) + xi[v]
                             for v in region.vertices])


def _region_id(region, v):
    try:
        return region.index[v]
    except KeyError:
        raise InputError(f"field has no value at vertex {v!r}") from None


def mc_kernel(graph, spec, pot, xi, u, v, t, n_paths, seed):
    """Estimate the kernel entry K_t(u, v) over n_paths walks from u."""
    if t <= 0:
        raise DomainError("t must be positive")
    if n_paths < 1:
        raise DomainError("need at least one path")
    region, cost = _field_region(graph, spec, pot, xi)
    walks = sample_walks(region, np.full(n_paths, _region_id(region, u)), t,
                         np.random.default_rng(seed), cost=cost)
    # These walkers never stop early, so no endpoint is -1.
    hit = walks.endpoint == region.index.get(v, -1)
    w = np.where(hit, np.exp(-walks.integral), 0.0)
    mean = float(w.mean())
    var = max(float((w * w).mean()) - mean * mean, 0.0)
    return TraceEstimate(mean=mean, stderr=sqrt(var / n_paths), n_paths=n_paths, t=t)


def _trace_samples(graph, spec, pot, xi, n, t, n_paths, seed, unkilled=True):
    """Per-start-vertex killed and unkilled return weights from shared paths.

    Returns (vertices, killed, unkilled) where killed/unkilled are lists of
    float arrays, one array per start vertex.  Without ``unkilled`` the
    walkers stop at their exit from the ball, the field is read on the ball
    alone, and the unkilled list is None.
    """
    trunc = Truncation.build(graph, spec, pot, n)
    starts = trunc.region.vertices
    per = max(1, ceil(n_paths / len(starts)))
    if unkilled:
        region, cost = _field_region(graph, spec, pot, xi)
        ids = np.repeat([_region_id(region, u) for u in starts], per)
    else:
        # Dirichlet vertices stay out of the region: entering one stops the
        # walker like an exit, and both leave a zero weight.
        region, cost = trunc.region, trunc.potential + trunc.field(xi)
        ids = np.repeat(np.arange(len(starts)), per)
    walks = sample_walks(region, ids, t, np.random.default_rng(seed),
                         cost=cost, kill_radius=n, stop_at_exit=not unkilled)
    uw = np.where(walks.endpoint == ids, np.exp(-walks.integral), 0.0)
    kw = np.where(walks.exited, 0.0, uw)
    killed = list(kw.reshape(len(starts), per))
    if not unkilled:
        return starts, killed, None
    return starts, killed, list(uw.reshape(len(starts), per))


def _stratified_estimate(weights, t):
    """Sum of the stratum means; the SE is NaN when a stratum has fewer than
    two paths, since its variance is then undefined."""
    n_total = sum(len(w) for w in weights)
    mean = sum(float(np.mean(w)) for w in weights)
    if any(len(w) < 2 for w in weights):
        se = nan
    else:
        se = sqrt(sum(float(np.var(w, ddof=1)) / len(w) for w in weights))
    return TraceEstimate(mean=mean, stderr=se, n_paths=n_total, t=t)


def mc_dirichlet_trace(graph, spec, pot, xi, n, t, n_paths, seed,
                       with_unkilled=False):
    """Estimate Tr e^{-tH_n}: paths killed on leaving the radius-n ball.

    Stratifies n_paths evenly across the ball's start vertices.  With
    ``with_unkilled`` also returns the no-killing trace estimate computed
    from the same sampled paths, which then walk on past their exit and need
    the field wherever they go; otherwise the field is read on the ball only.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    _, killed, unkilled = _trace_samples(graph, spec, pot, xi, n, t,
                                         n_paths, seed, unkilled=with_unkilled)
    est = _stratified_estimate(killed, t)
    if with_unkilled:
        return est, _stratified_estimate(unkilled, t)
    return est


# -- variance estimators -------------------------------------------------------


def exact_dirichlet_trace(graph, spec, pot, xi, n, t):
    """Tr e^{-tH_n} by dense matrix exponential."""
    return float(np.trace(expm_neg(
        Truncation.build(graph, spec, pot, n).assemble(xi).matrix, t)))


def member_fields(trunc, graph, model, seed, m):
    """Fields of m ensemble members on the truncation's vertices, one row
    each: member i draws on the truncation's ball from the i-th child of
    SeedSequence(seed)."""
    ball, _ = graph.ball(graph.root, trunc.radius)
    return np.array([
        trunc.field(sample_field(model, graph, ball,
                                 rng=np.random.default_rng(ss)))
        for ss in np.random.SeedSequence(seed).spawn(m)])


def ensemble_variance(graph, spec, pot, model, n, t, m_draws, seed):
    """Var over the noise of the exact truncated trace, with jackknife SE.

    Member traces are sum e^{-t lambda} over the eigenvalues on the
    symmetric eigen route and Tr e^{-tM} by matrix exponential otherwise.
    The variance and the leave-one-out variances are taken of the traces
    less the first member's, so identical members give exactly 0.
    """
    if m_draws < 3:
        raise DomainError("need at least three noise draws (the jackknife "
                          "divides by m - 2)")
    trunc = Truncation.build(graph, spec, pot, n)
    fields = member_fields(trunc, graph, model, seed, m_draws)
    if trunc.symmetric:
        traces = np.exp(-t * trunc.eigenvalues(fields)).sum(axis=1)
    else:
        traces = np.array([np.trace(expm_neg(trunc.matrices(f[None])[0], t))
                           for f in fields])
    d = traces - traces[0]
    value = float(np.var(d, ddof=1))
    # Leave-one-out variances from running sums.
    m = m_draws
    s1 = d.sum()
    s2 = (d ** 2).sum()
    loo = (s2 - d ** 2 - (s1 - d) ** 2 / (m - 1)) / (m - 2)
    se = sqrt((m - 1) / m * float(((loo - loo.mean()) ** 2).sum()))
    return VarianceEstimate(value=value, stderr=se, n_samples=m, t=t, radius=n)


def paired_walker_variance(graph, spec, pot, model, t, n_rep, box_radius,
                           seed):
    """Var[Tr e^{-tH_n}] via two independent walkers per box vertex.

    For each replicate, one pair of independent trajectories is drawn per
    start vertex; every ordered vertex pair contributes
    e^{-<L+L~,V>} * e^{(<L,L>+<L~,L~>)/2} (e^{<L,L~>} - 1)
    when both walkers return to their starts without leaving the box.
    With local-time rows L_a, L_b of a replicate's two families, all the
    <L,L~> of the replicate are the matrix L_a Gamma L_b^T.
    """
    if model.kind not in (IID, CONSTANT, POWER_DECAY):
        raise ConfigError(f"unsupported noise kind {model.kind!r} "
                          "(closed-form inner covariance is Gaussian-only)")
    if n_rep < 2:
        raise DomainError("need at least two replicates")
    # Dirichlet vertices stay out of the region: entering one stops the
    # walker like an exit, and both leave a zero weight.
    trunc = Truncation.build(graph, spec, pot, box_radius)
    region, pv = trunc.region, trunc.potential
    gamma = covariance_matrix(model, graph, region.vertices)
    rng = np.random.default_rng(seed)
    m = len(region.vertices)
    ids = np.arange(m)
    # Replicates per block: L, L Gamma and the m x m pair matrices.
    block = max(1, _MAX_ELEMS // max(1, 3 * m * m))
    totals = np.empty(n_rep)
    for lo in range(0, n_rep, block):
        r = min(block, n_rep - lo)
        block_ids = np.tile(ids, 2 * r)
        walks = sample_walks(region, block_ids, t, rng, stop_at_exit=True)
        loc = walks.local
        lg = loc @ gamma
        back = walks.endpoint == block_ids
        # e^{-<L,V> + <L,L>/2} for returning walkers, 0 for the rest.
        u = np.zeros(len(loc))
        u[back] = np.exp(-(loc[back] @ pv)
                         + 0.5 * np.einsum("ij,ij->i", lg[back], loc[back]))
        u = u.reshape(r, 2, m)
        ab = lg.reshape(r, 2, m, m)[:, 0] \
            @ loc.reshape(r, 2, m, m)[:, 1].transpose(0, 2, 1)
        totals[lo:lo + r] = np.einsum("ra,rab,rb->r", u[:, 0], np.expm1(ab),
                                      u[:, 1])
    value = float(totals.mean())
    se = float(totals.std(ddof=1)) / sqrt(n_rep)
    return VarianceEstimate(value=value, stderr=se, n_samples=n_rep, t=t,
                            radius=box_radius)


# -- deterministic radial sums -------------------------------------------------


def _coord_counts(graph, n):
    """Vectorized c_n for the lattice kinds (n: integer array, n >= 1)."""
    n = np.asarray(n, dtype=float)
    d = graph.d
    if graph.kind == ZD_L1:
        out = np.zeros_like(n)
        for k in range(1, d + 1):
            out += _comb(d, k, exact=True) * (2.0 ** k) * _comb(n - 1, k - 1)
        return out
    if graph.kind == ZD_LINF:
        return (2 * n + 1) ** d - (2 * n - 1) ** d
    raise DomainError("radial closed forms require a lattice kind")


def _coord_leading(graph):
    """Leading coefficient of c_n ~ const * n^(d-1)."""
    big = float(2 ** 20)
    return float(_coord_counts(graph, np.array([big]))[0]) / big ** (graph.d - 1)


def _radial_weight_sum(graph, value_fn, r, chunk=2_000_000):
    """sum over n = 0..r of c_n * value_fn(n), chunked over n."""
    total = float(value_fn(np.array([0.0]))[0])
    lo = 1
    while lo <= r:
        hi = min(r, lo + chunk - 1)
        ns = np.arange(lo, hi + 1, dtype=float)
        total += float(np.dot(_coord_counts(graph, ns), value_fn(ns)))
        lo = hi + 1
    return total


def _ball_arrays(graph, pot, model, r):
    """Potential vector and covariance matrix over the radius-r ball."""
    verts, _ = graph.ball(graph.root, r)
    m = len(verts)
    if m * m > 40_000_000:
        raise DomainError(f"pairwise sum over {m} vertices is too large")
    vvec = np.array([pot.value(graph, v) for v in verts])
    return vvec, covariance_matrix(model, graph, verts)


def frozen_variance_sum(t, graph, pot, model, r=None):
    """Double sum over the box of e^{-tV(u)-tV(v)} Cov[e^{-t xi(u)}, e^{-t xi(v)}].

    Independent and constant covariances collapse to radial single sums;
    power decay is evaluated as an explicit pairwise sum over the ball.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    required = radius_for(t, pot.alpha, pot.kappa)
    if r is None:
        r = required
    elif r < required:
        raise DomainError(f"box radius {r} below certified radius {required} "
                          f"for t={t}")
    t2 = t * t
    g0 = variance_at_origin(model)
    if model.kind == IID:
        factor = exp(t2 * g0) * expm1(t2 * g0)
        radial = _radial_weight_sum(
            graph, lambda ns: np.exp(-2.0 * t * (pot.kappa * ns) ** pot.alpha
                                     + 2.0 * t * pot.mu), r)
        return factor * radial
    if model.kind == CONSTANT:
        factor = exp(t2 * g0) * expm1(t2 * g0)
        radial = _radial_weight_sum(
            graph, lambda ns: np.exp(-t * (pot.kappa * ns) ** pot.alpha
                                     + t * pot.mu), r)
        return factor * radial * radial
    if model.kind == POWER_DECAY:
        vvec, gam = _ball_arrays(graph, pot, model, r)
        w = np.exp(-t * vvec)
        return float(exp(t2 * g0) * (w @ np.expm1(t2 * gam) @ w))
    raise DomainError(f"unknown noise kind {model.kind!r}")


def _radial_sum_with_tail(graph, t_coef, delta, r):
    """sum over n=0..r of c_n e^{-t_coef * n^delta}, exact to cap then a
    certified integral lower bound for the remainder (d = 1 only)."""
    n_exact = min(r, _EXACT_TERM_CAP)
    total = _radial_weight_sum(graph,
                               lambda ns: np.exp(-t_coef * ns ** delta),
                               n_exact)
    if r > n_exact:
        if graph.d != 1:
            raise DomainError(f"box radius {r} needs the integral tail, which "
                              "is certified for d = 1 only")
        # c_n = 2 for n >= 1 on both one-dimensional kinds; the integrand is
        # decreasing, so sum_{n=a}^{b} f(n) >= int_a^{b+1} f(x) dx.
        a, b = n_exact + 1, r + 1
        k = 1.0 / delta
        scale = _gamma_fn(k) * t_coef ** (-k) / delta
        total += 2.0 * scale * (gammainc(k, t_coef * b ** delta)
                                - gammainc(k, t_coef * a ** delta))
    return total


def lower_bound_sum(t, delta, model, graph, r=None):
    """Certified lower bound e^{-2t + t^2 g(0)} * sum of
    e^{-t d(u)^delta - t d(v)^delta} (e^{t^2 gamma(u,v)} - 1) over the box.

    The potential preset is V(v) = d(0, v)^delta; the covariance must be
    nonnegative for the bound to hold.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    if delta <= 0:
        raise DomainError("delta must be positive")
    if model.gamma0 < 0 or (model.kind == POWER_DECAY and model.decay_scale < 0):
        raise DomainError("covariance must be nonnegative for the lower bound")
    required = radius_for(t, delta, 1.0)
    if r is None:
        r = required
    elif r < required:
        raise DomainError(f"box radius {r} below certified radius {required} "
                          f"for t={t}")
    t2 = t * t
    g0 = variance_at_origin(model)
    pref = exp(-2.0 * t + t2 * g0)
    if model.kind == IID:
        inner = expm1(t2 * g0) * _radial_sum_with_tail(graph, 2.0 * t, delta,
                                                       r)
        return pref * inner
    if model.kind == CONSTANT:
        s = _radial_sum_with_tail(graph, t, delta, r)
        return pref * expm1(t2 * g0) * s * s
    if model.kind == POWER_DECAY:
        from .operators import PotentialSpec
        vvec, gam = _ball_arrays(graph, PotentialSpec(alpha=delta), model, r)
        w = np.exp(-t * vvec)
        return pref * float(w @ np.expm1(t2 * gam) @ w)
    raise DomainError(f"unknown noise kind {model.kind!r}")


def riemann_tail_sum(t, kappa, alpha, d=None, graph=None):
    """S(t) = sum_n c_n e^{-(kappa t^{1/alpha} n)^{min(alpha,1)}} and its
    normalization t^{d/alpha} S / c_lead, whose square tends to the
    kappa^{-2d} Gamma(d/min(1,alpha))^2 / min(1,alpha^2) limit."""
    if graph is None:
        from .lattice import GraphModel
        graph = GraphModel.zd_l1(d if d is not None else 1)
    d = graph.d
    if t <= 0 or kappa <= 0 or alpha <= 0:
        raise DomainError("t, kappa, alpha must be positive")
    m = min(alpha, 1.0)
    s = kappa * t ** (1.0 / alpha)
    lead = _coord_leading(graph)
    # Cutoff z with the relative integral tail below 1e-9.
    z = 25.0
    while 2.0 * gammaincc(d / m, z) > 1e-9 and z < 200.0:
        z += 5.0
    n_max = ceil(z ** (1.0 / m) / s)
    if n_max > 60_000_000:
        raise DomainError(f"tail certification needs {n_max} terms, above the "
                          "summation cap")
    total = _radial_weight_sum(graph, lambda ns: np.exp(-(s * ns) ** m), n_max)
    # Certified tail: c_n <= 2 * lead * n^(d-1) for large n; integral upper
    # bound of the decreasing summand.
    tail = (2.0 * lead / m) * s ** (-d) * _gamma_fn(d / m) \
        * gammaincc(d / m, (s * n_max) ** m)
    if tail > 1e-9 * total:
        raise DomainError(f"tail bound {tail:.3e} exceeds 1e-9 of the sum; "
                          f"increase the cutoff beyond {n_max}")
    normalized = t ** (d / alpha) * total / lead
    return total, normalized


# -- path-pair geometry ---------------------------------------------------------


def min_range_distance(graph, p1, p2):
    """Minimum graph distance between the two trajectories' ranges."""
    v1, v2 = p1.local_time, p2.local_time
    if not v1 or not v2:
        raise InputError("paths must record visited vertices")
    return min(graph.distance(x, y) for x in v1 for y in v2)


def paired_sample(graph, spec, u, v, t, rng):
    """Draw one independent trajectory pair and its range statistics."""
    p1 = sample_path(graph, spec, u, t, rng=rng, light=True)
    p2 = sample_path(graph, spec, v, t, rng=rng, light=True)
    return PairedSample(first=p1, second=p2,
                        range_distance=min_range_distance(graph, p1, p2),
                        joint_stay=(p1.jumps == 0 and p2.jumps == 0))
