"""Path-integral estimators of semigroup traces, the paired-walker variance
identity, and the deterministic sums behind the small-t scaling laws.

Monte Carlo routes walk on the region of an ``operators.Truncation`` and
sample all paths in numpy batches with ``walker.sample_walks``.  A field
is a float array on the truncation's vertices, as the exact routes take
it.  Trace estimators weight each path by e^{-integral of (V + xi)};
killed-trace walkers stop at their exit from the truncation's ball, so the
field is needed on the ball alone, unless the no-killing estimate is
wanted too: then they walk inside a larger truncation that carries the
field and are flagged past the ball's radius.  The paired-walker variance
uses dense local-time rows, so that every start pair of a replicate comes
from one matrix product with the box covariance.  Deterministic routes
evaluate the frozen-walk double sum on a certified box: in closed radial
form for independent and constant noise, and for power decay on the
lattices as one FFT autocorrelation of the weights against the covariance
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, e as _E, exp, expm1, gamma as _gamma_fn, nan, sqrt
from typing import Optional

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.special import gammaincc

from .errors import ConfigError, DomainError, InputError
from .lattice import ZD_L1, ZD_LINF
from .noise import (CONSTANT, IID, POWER_DECAY, _field_rows,
                    covariance_matrix, decay_kernel, variance_at_origin)
from .operators import PotentialSpec, Truncation, expm_neg
from .walker import _MAX_ELEMS, sample_walks

_LN_TAIL = 27.631021115928547  # ln(1e12): relative cutoff for the box tail
_EXACT_TERM_CAP = 20_000_000   # radial terms summed exactly before integral tails
_RADIAL_CHUNK = 2_000_000      # radial terms per vectorised block


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


def radius_for(t, alpha=2.0, kappa=1.0, q_sup=1.0):
    """Box radius making the truncated terms < 1e-12 of the central one,
    plus an allowance for walker displacement over the horizon."""
    if t <= 0:
        raise DomainError("t must be positive")
    core = ceil((_LN_TAIL / t) ** (1.0 / alpha) / kappa)
    return core + ceil(q_sup * _E * t) + 40


# -- Monte Carlo trace ---------------------------------------------------------


def _trace_samples(trunc, field, t, n_paths, seed, kill_radius=None):
    """Per-start-vertex killed and unkilled return weights from shared paths
    on the truncation ``trunc`` with ``field`` on its vertices.

    Returns (killed, unkilled), lists of float arrays with one array per
    start vertex.  Without
    ``kill_radius`` the walks start on every vertex of ``trunc``, are killed
    on leaving it and stop there, and unkilled is None.  With it, they start
    on the vertices within ``kill_radius`` of the root (the radius-n ball,
    in its order), are killed past it and walk on inside ``trunc``.
    """
    region = trunc.region
    field = np.asarray(field, dtype=float)
    if field.shape != trunc.potential.shape:
        raise InputError(f"field must have {len(trunc.potential)} values")
    if kill_radius is None:
        starts = np.arange(len(region.vertices))
    elif kill_radius < 0:
        raise DomainError("kill radius must be >= 0")
    else:
        starts = np.flatnonzero(region.dist <= kill_radius)
    per = max(1, ceil(n_paths / len(starts)))
    ids = np.repeat(starts, per)
    walks = sample_walks(region, ids, t, np.random.default_rng(seed),
                         cost=trunc.potential + field,
                         kill_radius=kill_radius)
    uw = np.where(walks.endpoint == ids, np.exp(-walks.integral), 0.0)
    kw = np.where(walks.exited, 0.0, uw)
    killed = list(kw.reshape(len(starts), per))
    if kill_radius is None:
        return killed, None
    return killed, list(uw.reshape(len(starts), per))


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


def mc_dirichlet_trace(trunc, field, t, n_paths, seed, kill_radius=None):
    """Estimate Tr e^{-tH_n} from paths killed on leaving the radius-n ball,
    stratified evenly over the ball's start vertices.

    Without ``kill_radius`` the ball is the truncation ``trunc`` and
    ``field`` its values there.  With ``kill_radius=n``, ``trunc`` is a
    larger truncation carrying the field, the killed walkers walk on inside
    it, and the no-killing estimate from the same paths is returned too.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    killed, unkilled = _trace_samples(trunc, field, t, n_paths, seed,
                                      kill_radius)
    est = _stratified_estimate(killed, t)
    if kill_radius is None:
        return est
    return est, _stratified_estimate(unkilled, t)


# -- variance estimators -------------------------------------------------------


def exact_dirichlet_trace(trunc, field, t):
    """Tr e^{-tH_n} on the truncation ``trunc``, with ``field`` on its
    vertices, by dense matrix exponential."""
    return float(np.trace(expm_neg(trunc.matrices([field])[0], t)))


def member_fields(trunc, graph, model, seed, m):
    """Fields of m ensemble members on the truncation's vertices, one row
    each: member i is row i of one (m, n) draw of ``default_rng(seed)``, so
    a member does not depend on m.  The covariance is factored once for all
    members."""
    return _field_rows(model, graph, trunc.region.vertices, m,
                       np.random.default_rng(seed))


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
        walks = sample_walks(region, block_ids, t, rng)
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


def _coord_leading(graph):
    """Leading coefficient of c_n ~ const * n^(d-1)."""
    big = float(2 ** 20)
    return float(graph.coordination_count(np.array([big]))[0]) \
        / big ** (graph.d - 1)


def _radial_weight_sum(graph, pot, c, r):
    """sum over n = 0..r of c_n e^{-c V(n)}, V(n) = (kappa n)^alpha - mu.

    The terms are summed exactly, in blocks of ``_RADIAL_CHUNK``.  On Z^1 a
    box radius past ``_EXACT_TERM_CAP`` adds the remainder as a certified
    integral lower bound instead: c_n = 2 for n >= 1 on both kinds, and the
    summand e^{c mu} e^{-b n^alpha}, b = c kappa^alpha, decreases, so its
    sum over n = cap + 1 .. r is at least its integral from cap + 1 to r + 1,
    a difference of upper incomplete gamma functions.  Other graphs sum
    every term.
    """
    n_exact = min(r, _EXACT_TERM_CAP) if graph.d == 1 else r
    total = float(np.exp(-c * pot.radial(np.array([0.0])))[0])
    for lo in range(1, n_exact + 1, _RADIAL_CHUNK):
        ns = np.arange(lo, min(n_exact, lo + _RADIAL_CHUNK - 1) + 1,
                       dtype=float)
        total += float(np.dot(graph.coordination_count(ns),
                              np.exp(-c * pot.radial(ns))))
    if r > n_exact:
        k, b = 1.0 / pot.alpha, c * pot.kappa ** pot.alpha
        total += 2.0 * exp(c * pot.mu) * _gamma_fn(k) * b ** -k / pot.alpha \
            * (gammaincc(k, b * (n_exact + 1) ** pot.alpha)
               - gammaincc(k, b * (r + 1) ** pot.alpha))
    return total


def _ball_arrays(graph, pot, model, r):
    """Potential vector and covariance matrix over the radius-r ball."""
    verts = graph.ball(graph.root, r)
    m = len(verts)
    if m * m > 40_000_000:
        raise DomainError(f"pairwise sum over {m} vertices is too large")
    vvec = np.array([pot.value(graph, v) for v in verts])
    return vvec, covariance_matrix(model, graph, verts)


def _grid_norms(graph, coords):
    """Lattice norm (l1 or l-infinity) of every point of coords^d, as a
    d-dimensional array indexed like the coordinate array along each axis."""
    a = np.abs(coords).astype(float)
    combine = np.add if graph.kind == ZD_L1 else np.maximum
    out = a
    for _ in range(graph.d - 1):
        out = combine.outer(out, a)
    return out


def _power_decay_pair_sum(t, graph, pot, model, r):
    """S = sum over u, v in the radius-r ball of
    w(u) w(v) expm1(t^2 gamma(u, v)), w = e^{-tV}, for power-decay gamma.

    On the lattices gamma depends on the norm of u - v alone, so S is
    sum_z K(z) A(z) over the lags z in [-2r, 2r]^d, with
    K(z) = expm1(t^2 scale (|z| + 1)^-beta) and A the autocorrelation of w
    on the (2r+1)^d box (0 outside the ball).  A is
    irfftn(|rfftn(w, s)|^2, s) with s = next_fast_len(4r + 1) per axis, so
    lags up to 2r do not alias; a grid of more than ``_MAX_ELEMS`` points is
    refused before anything is allocated.  Roundoff: the FFT leaves an
    absolute error of about eps log(s^d) A(0) at each lag, and since A and K
    are nonnegative, S >= K(0) A(0), so the relative error of S is at most
    about eps log(s^d) sum_z K(z) / K(0).  Explicit graphs have no
    translation invariance and take the pairwise sum over the ball.
    """
    t2 = t * t
    if graph.kind not in (ZD_L1, ZD_LINF):
        vvec, gam = _ball_arrays(graph, pot, model, r)
        w = np.exp(-t * vvec)
        return float(w @ np.expm1(t2 * gam) @ w)
    d = graph.d
    s = next_fast_len(4 * r + 1, real=True)
    if s ** d > _MAX_ELEMS:
        raise DomainError(f"FFT grid of {s}^{d} = {s ** d} points for box "
                          f"radius {r} exceeds the budget of {_MAX_ELEMS}")
    norm = _grid_norms(graph, np.arange(-r, r + 1))
    w = np.where(norm <= r, np.exp(-t * pot.radial(norm)), 0.0)
    spec = rfftn(w, (s,) * d)
    acf = irfftn(spec.real ** 2 + spec.imag ** 2, (s,) * d)
    # Lag -k sits at index s - k, which a negative index reads directly.
    lags = np.r_[0:2 * r + 1, -2 * r:0]
    kern = np.expm1(t2 * decay_kernel(model, _grid_norms(graph, lags)))
    return float((kern * acf[np.ix_(*[lags] * d)]).sum())


def frozen_variance_sum(t, graph, pot, model, r=None):
    """Double sum over the box of e^{-tV(u)-tV(v)} Cov[e^{-t xi(u)}, e^{-t xi(v)}].

    Independent and constant covariances collapse to radial single sums
    (``_radial_weight_sum``, with its integral tail on Z^1 past
    ``_EXACT_TERM_CAP`` terms); power decay is a convolution on the lattices
    and a pairwise sum over the ball on explicit graphs
    (``_power_decay_pair_sum``).  Every route assumes the radial potential
    V = (kappa d)^alpha - mu, so a potential with custom values is refused.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    if pot.custom is not None:
        raise DomainError("the frozen sum needs the radial potential; custom "
                          "values are not supported")
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
        return factor * _radial_weight_sum(graph, pot, 2.0 * t, r)
    if model.kind == CONSTANT:
        factor = exp(t2 * g0) * expm1(t2 * g0)
        radial = _radial_weight_sum(graph, pot, t, r)
        return factor * radial * radial
    if model.kind == POWER_DECAY:
        return exp(t2 * g0) * _power_decay_pair_sum(t, graph, pot, model, r)
    raise DomainError(f"unknown noise kind {model.kind!r}")


def lower_bound_sum(t, delta, model, graph, r=None):
    """Certified lower bound e^{-2t} * frozen sum for the preset
    V(v) = d(0, v)^delta and unit jump rate: each walker of a pair stays at
    its start with probability e^{-t}, and with a nonnegative covariance no
    other path pair contributes negatively.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    if model.gamma0 < 0 or (model.kind == POWER_DECAY and model.decay_scale < 0):
        raise DomainError("covariance must be nonnegative for the lower bound")
    return exp(-2.0 * t) * frozen_variance_sum(
        t, graph, PotentialSpec(alpha=delta), model, r)


def riemann_tail_sum(t, kappa, alpha, graph):
    """S(t) = sum_n c_n e^{-(kappa t^{1/alpha} n)^{min(alpha,1)}} and its
    normalization t^{d/alpha} S / c_lead, whose square tends to the
    kappa^{-2d} Gamma(d/min(1,alpha))^2 / min(1,alpha^2) limit."""
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
    total = _radial_weight_sum(graph, PotentialSpec(alpha=m, kappa=s), 1.0,
                               n_max)
    # Certified tail: c_n <= 2 * lead * n^(d-1) for large n; integral upper
    # bound of the decreasing summand.
    tail = (2.0 * lead / m) * s ** (-d) * _gamma_fn(d / m) \
        * gammaincc(d / m, (s * n_max) ** m)
    if tail > 1e-9 * total:
        raise DomainError(f"tail bound {tail:.3e} exceeds 1e-9 of the sum; "
                          f"increase the cutoff beyond {n_max}")
    normalized = t ** (d / alpha) * total / lead
    return total, normalized
