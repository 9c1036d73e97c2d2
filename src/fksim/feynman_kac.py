"""Path-integral estimators of semigroup traces, the paired-walker variance
identity, and the deterministic sums behind the small-t scaling laws.

Monte Carlo routes walk on an ``operators.Truncation`` and sample all
paths in numpy batches with ``walker.sample_walks``.  A field is a float
array on the truncation's vertices, as its exact traces take it; ensemble
members are rows of ``noise.sample_fields`` on those vertices.  Trace
estimators weight each path by e^{-integral of (V + xi)}.  A walk is
killed on leaving the truncation's ball and weighs 0, so the field is
needed on the ball alone.  A path that makes no jump has a known weight, so
the killed trace draws how many of each start's paths sit out and walks
only the others, conditioned on a first jump, as does the paired-walker
variance.  It takes the pair terms of its sitters in closed form and pairs
only the walked rows that return, through their products with the box
covariance; the rest weigh 0.  Deterministic routes evaluate the
frozen-walk double sum on a certified box: on the lattices in closed radial
form for independent and constant noise and for power decay as one FFT
autocorrelation of the weights against the covariance kernel, and on
explicit graphs as the pairwise sum over the ball for every kind.
``frozen_variance_sum`` is the one route to that sum, and it decides what
a sum may be: exactly 0.0 at gamma0 = 0, otherwise a normal float, or a
``DomainError`` that names the normal floats.  This module owns the array
budget ``_MAX_ELEMS`` that its walk blocks, pair chunks and FFT grids spend.
A ``NoiseModel`` is checked when it is made, so no estimator re-checks its
kind or the sign of its covariance.  Every t must be finite and >= 0, and
> 0 where a box is certified or a trace estimated; the jump rate q must be
finite and >= 0, and the exponents and scales alpha, kappa and delta finite
and > 0 (``errors.check_nonnegative``, which names each).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import (ceil, e as _E, exp, expm1, gamma as _gamma_fn, inf, log,
                  nan, sqrt)
from sys import float_info

import numpy as np

from .errors import DomainError, InputError, check_nonnegative
from .lattice import ZD_L1, ZD_LINF
from .noise import (IID, POWER_DECAY, covariance_matrix, decay_kernel,
                    sample_fields)
from .operators import PotentialSpec, Truncation
from .walker import sample_walks

_LN_TAIL = 27.631021115928547  # ln(1e12): relative cutoff for the box tail
_EXACT_TERM_CAP = 20_000_000   # radial terms summed exactly before integral tails
_RADIAL_CHUNK = 2_000_000      # radial terms per vectorised block
_TERM_CAP = 60_000_000         # radial terms any one sum may take
_PAIR_CAP = 40_000_000         # vertex pairs of one explicit-graph pairwise sum
# Entry budget of the estimators' array blocks and of the FFT grid (4.1
# million float64 entries, 33 MB): peak memory stays bounded whatever the
# number of replicates.
_MAX_ELEMS = 4_100_000
# The logs of the least normal and the largest float: a frozen sum with
# gamma0 > 0 is returned only between them.
_LN_MIN = log(float_info.min)   # -708.40
_LN_MAX = log(float_info.max)   # 709.78


@dataclass(frozen=True)
class TraceEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float


@dataclass(frozen=True)
class VarianceEstimate:
    value: float
    stderr: float
    n_samples: int

    def ci95(self):
        return (self.value - 1.96 * self.stderr, self.value + 1.96 * self.stderr)


def radius_for(t, alpha=2.0, kappa=1.0):
    """Box radius making the truncated terms < 1e-12 of the central one,
    plus an allowance for the displacement of a unit-rate walker over the
    horizon; without growth (alpha, kappa > 0) no box is certified."""
    check_nonnegative(t, positive=True)
    check_nonnegative(alpha, "alpha", positive=True)
    check_nonnegative(kappa, "kappa", positive=True)
    core = ceil((_LN_TAIL / t) ** (1.0 / alpha) / kappa)
    return core + ceil(_E * t) + 40


# -- Monte Carlo trace ---------------------------------------------------------


@dataclass(frozen=True)
class _Strata:
    """Path weights of ``per`` paths from each start: in stratum x,
    ``sits[x]`` paths make no jump and each weighs ``sit_weight[x]``, and
    ``weights`` are the sampled paths of the others, whose strata are
    ``owner`` (ascending)."""

    per: int
    sits: np.ndarray
    sit_weight: np.ndarray
    owner: np.ndarray
    weights: np.ndarray


def _trace_samples(trunc, field, t, n_paths, seed):
    """Per-start-vertex return weights of paths killed on leaving the
    truncation ``trunc``, with ``field`` on its vertices.

    Returns ``_Strata`` with ``per`` paths from each vertex of ``trunc``.
    Of those, Binomial(per, e^{-q(x) t}) make no jump (one ``binomial`` call
    over the starts): such a path sits at its start x and returns, with
    weight e^{-t c(x)}, c = V + field.  Only the others are walked, by
    ``sample_walks`` conditioned on a first jump, so each stratum's multiset
    of weights has the law of ``per`` plain walks.  A killed walk ends at -1,
    never at its start, so it weighs 0.
    """
    field = np.asarray(field, dtype=float)
    if field.shape != trunc.potential.shape:
        raise InputError(f"field must have {len(trunc.potential)} values")
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths!r}")
    per = ceil(n_paths / len(trunc.vertices))
    rng = np.random.default_rng(seed)
    cost = trunc.potential + field
    sits = rng.binomial(per, np.exp(-trunc.rate * t))
    owner = np.repeat(np.arange(len(trunc.vertices)), per - sits)
    walks = sample_walks(trunc, owner, t, rng, cost=cost)
    weights = np.where(walks.endpoint == owner, np.exp(-walks.integral), 0.0)
    return _Strata(per, sits, np.exp(-t * cost), owner, weights)


def _stratified_estimate(strata):
    """Sum of the stratum means, in stratum order, with its SE from each
    stratum's sum of squared deviations from its mean (two passes over the
    per-start sums); the SE is NaN when a stratum has fewer than two paths,
    since its variance is then undefined."""
    s = strata
    n = len(s.sits)
    # A stratum of sit-outs alone has the mean sit_weight and no spread.
    mean = (s.sits / s.per * s.sit_weight
            + np.bincount(s.owner, s.weights, minlength=n) / s.per)
    if s.per < 2:
        se = nan
    else:
        dev = (s.sits * (s.sit_weight - mean) ** 2
               + np.bincount(s.owner, (s.weights - mean[s.owner]) ** 2,
                             minlength=n))
        se = sqrt(sum((dev / ((s.per - 1) * s.per)).tolist()))
    return TraceEstimate(mean=sum(mean.tolist()), stderr=se)


def mc_dirichlet_trace(trunc, field, t, n_paths, seed):
    """Estimate Tr e^{-tH_n} from paths killed on leaving the ball of the
    truncation ``trunc``, with ``field`` its values there, stratified evenly
    over the ball's start vertices."""
    check_nonnegative(t, positive=True)
    return _stratified_estimate(_trace_samples(trunc, field, t, n_paths, seed))


# -- variance estimators -------------------------------------------------------


def ensemble_variance(graph, spec, pot, model, n, ts, m_draws, seed):
    """Var over the noise of the exact truncated trace, with jackknife SE,
    at each t of ``ts``: one truncation and one draw of members serve every
    t, and ``Truncation.traces`` takes their traces.

    Each t's variance and leave-one-out variances are taken of its trace
    column less the first member's, so identical members give exactly 0
    and a t's estimate is that of a one-t call.
    """
    if m_draws < 3:
        raise DomainError(f"m_draws = {m_draws!r}: need at least three noise "
                          "draws (the jackknife divides by m - 2)")
    for t in ts:
        check_nonnegative(t)
    trunc = Truncation.build(graph, spec, pot, n)
    traces = trunc.traces(
        sample_fields(model, graph, trunc.vertices, m_draws, seed), ts)
    out, m = [], m_draws
    for col in traces.T:
        d = col - col[0]
        value = float(np.var(d, ddof=1))
        # Leave-one-out variances from running sums.
        s1 = d.sum()
        s2 = (d ** 2).sum()
        loo = (s2 - d ** 2 - (s1 - d) ** 2 / (m - 1)) / (m - 2)
        se = sqrt((m - 1) / m * float(((loo - loo.mean()) ** 2).sum()))
        out.append(VarianceEstimate(value=value, stderr=se, n_samples=m))
    return out


def paired_walker_variance(graph, spec, pot, model, t, n_rep, box_radius,
                           seed):
    """Var[Tr e^{-tH_n}] via two independent walkers per box vertex.

    For each replicate, one pair of independent trajectories is drawn per
    start vertex; every ordered vertex pair contributes
    e^{-<L+L~,V>} * e^{(<L,L>+<L~,L~>)/2} (e^{<L,L~>} - 1)
    when both walkers return to their starts without leaving the box, with
    <L,L~> = L Gamma L~^T for local-time rows L, L~.  A box on which one
    replicate needs more than the array budget of elements (``_MAX_ELEMS``)
    is refused with ``DomainError`` before any work.  Walks are sampled in
    blocks of that budget, which fixes the random stream; walker i sits out
    when u_i < e^{-q(x_i) t}, and the others are walked conditioned on a
    jump, so each keeps the plain walk's law.  The pair algebra goes by
    walker kind.  A sitter at a has L = t e_a, so its weight and its term
    against another sitter are known in closed form, and a walk block's
    sitter pairs are one product with expm1(t^2 Gamma).  A walker that
    returned meets the other family's sitters through its row of L Gamma,
    and the returned walkers of the other family in its replicate through
    a ragged list of pairs, whose rows are gathered in chunks of what the
    block's arrays leave of the budget.  So a call holds at most about
    ``_MAX_ELEMS`` + 2 m^2 entries: Gamma and expm1(t^2 Gamma) come on
    top.  Walkers that do not return weigh 0 and enter no product.
    """
    if n_rep < 2:
        raise DomainError(f"n_rep = {n_rep!r}: need at least two replicates")
    check_nonnegative(t)
    trunc = Truncation.build(graph, spec, pot, box_radius)
    m = len(trunc.vertices)
    # A walk block gives each replicate 3 m^2 elements: up to 2 m^2 for its
    # walkers' local-time rows, and L Gamma of the walkers that return.
    if 3 * m * m > _MAX_ELEMS:
        raise DomainError(f"one replicate on a box of m = {m} vertices needs "
                          f"3 m^2 = {3 * m * m} array elements, above the "
                          f"budget of {_MAX_ELEMS}")
    gamma = covariance_matrix(model, graph, trunc.vertices)
    # A sitter at a has L = t e_a: its weight, and the pair term of two
    # sitters at a and b, expm1(t^2 Gamma_ab), are known in closed form.
    sit_weight = np.exp(0.5 * (t * np.diag(gamma) * t) - t * trunc.potential)
    sit_pair = np.expm1(t * gamma * t)
    rng = np.random.default_rng(seed)
    block = _MAX_ELEMS // (3 * m * m)   # replicates per walk block
    totals = np.empty(n_rep)
    for lo in range(0, n_rep, block):
        r = min(block, n_rep - lo)
        # Walker (i, a) starts at vertex a; row i is a replicate's family.
        moves = rng.random((2 * r, m)) >= np.exp(-trunc.rate * t)
        walker = np.flatnonzero(moves)
        starts = walker % m
        walks = sample_walks(trunc, starts, t, rng)
        sits = np.where(moves, 0.0, sit_weight).reshape(r, 2, m)
        total = ((sits[:, 0] @ sit_pair) * sits[:, 1]).sum(1)
        # Only the walkers that return carry weight; the others never enter.
        ret = np.flatnonzero(walks.endpoint == starts)
        loc = walks.local[ret]
        rep, fam = np.divmod(walker[ret] // m, 2)
        lg = loc @ gamma
        uw = np.exp(0.5 * np.einsum("ij,ij->i", lg, loc)
                    - loc @ trunc.potential)
        # A returned walker against the other family's sitters:
        # <L, t e_b> = t (L Gamma)_b.
        cross = (sits[rep, 1 - fam] * np.expm1(t * lg)).sum(1) * uw
        total += np.bincount(rep, cross, minlength=r)
        # Returned walkers of one replicate, family 0 against family 1, as a
        # ragged pair list: ret is ordered by replicate, then family.
        f0, f1 = np.flatnonzero(fam == 0), np.flatnonzero(fam == 1)
        n1 = np.bincount(rep[f1], minlength=r)
        first = np.cumsum(n1) - n1   # each replicate's first place in f1
        k = n1[rep[f0]]   # partners of each family-0 walker
        p0 = np.repeat(f0, k)
        # The j-th pair of a family-0 walker takes its replicate's j-th.
        p1 = f1[np.repeat(first[rep[f0]] - np.cumsum(k) + k, k)
                + np.arange(p0.size)]
        # Their gathered rows take what the block's arrays leave of the
        # budget: the walked rows, L and L Gamma of the returned walkers,
        # and the three temporaries of the cross term.
        step = max(1, (_MAX_ELEMS - walks.local.size - 5 * loc.size)
                   // (2 * m))
        for s in range(0, p0.size, step):
            a, b = p0[s:s + step], p1[s:s + step]
            pair = np.expm1(np.einsum("ij,ij->i", lg[a], loc[b]))
            total += np.bincount(rep[a], uw[a] * pair * uw[b], minlength=r)
        totals[lo:lo + r] = total
    value = float(totals.mean())
    se = float(totals.std(ddof=1)) / sqrt(n_rep)
    return VarianceEstimate(value=value, stderr=se, n_samples=n_rep)


# -- deterministic radial sums -------------------------------------------------


def _coord_leading(graph):
    """Leading coefficient of c_n ~ const * n^(d-1)."""
    big = float(2 ** 20)
    return float(graph.coordination_count(np.array([big]))[0]) \
        / big ** (graph.d - 1)


def _radial_weight_sum(graph, pot, c, r):
    """sum over n = 0..r of c_n e^{-c V(n)}, V(n) = (kappa n)^alpha; ``pot``
    has mu = 0.

    The terms are summed exactly, in blocks of ``_RADIAL_CHUNK``.  On Z^1 a
    box radius past ``_EXACT_TERM_CAP`` adds the remainder as a certified
    integral lower bound instead: c_n = 2 for n >= 1 on both kinds, and the
    summand e^{-b n^alpha}, b = c kappa^alpha, decreases, so its
    sum over n = cap + 1 .. r is at least its integral from cap + 1 to r + 1,
    a difference of upper incomplete gamma functions.  Other graphs sum
    every term, and refuse more than ``_TERM_CAP`` before summing.
    """
    n_exact = min(r, _EXACT_TERM_CAP) if graph.d == 1 else r
    if n_exact > _TERM_CAP:
        raise DomainError(f"alpha = {pot.alpha!r} and kappa = {pot.kappa!r} "
                          f"need {r} terms, over the cap of {_TERM_CAP}")
    total = float(np.exp(-c * pot.radial(np.array([0.0])))[0])
    for lo in range(1, n_exact + 1, _RADIAL_CHUNK):
        ns = np.arange(lo, min(n_exact, lo + _RADIAL_CHUNK - 1) + 1,
                       dtype=float)
        total += float(np.dot(graph.coordination_count(ns),
                              np.exp(-c * pot.radial(ns))))
    if r > n_exact:
        from scipy.special import gammaincc
        k, b = 1.0 / pot.alpha, c * pot.kappa ** pot.alpha
        # b (n + 1)^alpha may pass the largest float; gammaincc(k, inf) = 0.
        with np.errstate(over="ignore"):
            lo, hi = (b * np.float64(n + 1) ** pot.alpha for n in (n_exact, r))
        total += 2.0 * _gamma_fn(k) * b ** -k \
            / pot.alpha * (gammaincc(k, lo) - gammaincc(k, hi))
    return total


def _next_fast_len(n):
    """The smallest 5-smooth integer >= n (n >= 1): the FFT length that
    ``scipy.fft.next_fast_len(n, real=True)`` picks, without scipy."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The least power-of-two multiple of p35 that reaches n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _pair_kernel(xg, x):
    """expm1(xg) / expm1(x) for 0 <= xg <= x, 0 < x < inf: no step past 1."""
    return np.exp(xg - x) * np.expm1(-xg) / expm1(-x)


def _power_decay_pair_sum(t, graph, pot, model, r):
    """I = sum over u, v in the radius-r ball of w(u) w(v) k(u, v),
    w = e^{-tV}, k = _pair_kernel(t^2 gamma(u, v), t^2 gamma0), for
    power-decay gamma on a lattice.

    There gamma depends on the norm of u - v alone, so I is sum_z k(z) A(z)
    over the lags z in [-2r, 2r]^d, with k(z) at gamma0 (|z| + 1)^-beta and
    A the autocorrelation of w on the (2r+1)^d box (0 outside the ball).  A is
    irfftn(|rfftn(w, s)|^2, s) with s = _next_fast_len(4r + 1) per axis, so
    lags up to 2r do not alias; a grid of more than ``_MAX_ELEMS`` points is
    refused before anything is allocated.  Roundoff: the FFT leaves an
    absolute error of about eps log(s^d) A(0) at each lag, and since A and k
    are nonnegative and k(0) = 1, I >= A(0), so the relative error of I is
    at most about eps log(s^d) sum_z k(z).
    """
    d = graph.d
    s = _next_fast_len(4 * r + 1)
    if s ** d > _MAX_ELEMS:
        raise DomainError(f"FFT grid of {s}^{d} = {s ** d} points for box "
                          f"radius {r} exceeds the budget of {_MAX_ELEMS}")
    norm = graph.grid_norms(np.arange(-r, r + 1))
    w = np.where(norm <= r, np.exp(-t * pot.radial(norm)), 0.0)
    axes = tuple(range(d))
    spec = np.fft.rfftn(w, (s,) * d, axes)
    acf = np.fft.irfftn(spec.real ** 2 + spec.imag ** 2, (s,) * d, axes)
    # Lag -k sits at index s - k, which a negative index reads directly.
    lags = np.r_[0:2 * r + 1, -2 * r:0]
    kern = _pair_kernel(t * t * decay_kernel(model, graph.grid_norms(lags)),
                        t * t * model.gamma0)
    return float((kern * acf[np.ix_(*[lags] * d)]).sum())


def _log_frozen_sum(t, graph, pot, model):
    """log of ``frozen_variance_sum``, 2x + log(1 - e^{-x}) + log I + 2 t mu
    with x = t^2 gamma0, in which nothing overflows: each covariance e^x
    expm1(t^2 gamma) is e^{2x} (1 - e^{-x}) ``_pair_kernel``, and every term
    has e^{2 t mu} from V = (kappa d)^alpha - mu.  I >= 1 sums w(u) w(v)
    kernel(u, v), w = e^{-tV} at mu = 0, over the box of ``radius_for``: by
    the radial sums S(2t) and S(t)^2 on the lattices for independent and
    constant noise, a convolution for power decay, pairwise on explicit graphs.
    """
    r = radius_for(t, pot.alpha, pot.kappa)
    x = t * t * model.gamma0
    if not 0.0 < x < inf:
        return -inf if x == 0.0 else inf
    pot0 = PotentialSpec(pot.alpha, pot.kappa)
    if graph.kind not in (ZD_L1, ZD_LINF):
        verts = graph.ball(graph.root, r)
        if len(verts) ** 2 > _PAIR_CAP:
            raise DomainError(f"pairwise sum over {len(verts)} vertices is "
                              "too large")
        w = np.exp(-t * pot0.radial(graph.distances([graph.root], verts)[0]))
        kern = _pair_kernel(t * t * covariance_matrix(model, graph, verts), x)
        log_i = log(float(w @ kern @ w))
    elif model.kind == POWER_DECAY:
        log_i = log(_power_decay_pair_sum(t, graph, pot0, model, r))
    elif model.kind == IID:
        log_i = log(_radial_weight_sum(graph, pot0, 2.0 * t, r))
    else:
        log_i = 2.0 * log(_radial_weight_sum(graph, pot0, t, r))
    # Within eps of log(1 - e^-x) at any x > 0 (Maechler's log1p branch gains
    # digits past x = ln 2 that 2x swamps).
    return 2.0 * x + log(-expm1(-x)) + log_i + 2.0 * t * pot.mu


def frozen_variance_sum(t, graph, pot, model):
    """Double sum over the box of e^{-tV(u)-tV(v)} Cov[e^{-t xi(u)}, e^{-t xi(v)}].

    Exactly 0.0 at gamma0 = 0.  Otherwise e^{``_log_frozen_sum``} when that
    log lies in [ln(min normal), ln(max float)], and ``DomainError`` naming
    the normal floats when it does not: no positive sum is returned as 0.0,
    a subnormal float or inf.  The caps of ``_log_frozen_sum`` refuse a box
    too large to sum.
    """
    v = _log_frozen_sum(t, graph, pot, model)
    if model.gamma0 == 0.0:
        return 0.0
    if not _LN_MIN <= v <= _LN_MAX:
        raise DomainError(
            f"gamma0 = {model.gamma0!r}, kappa = {pot.kappa!r} and "
            f"mu = {pot.mu!r} give the frozen sum the log {v:.2f}, "
            f"outside [{_LN_MIN:.2f}, {_LN_MAX:.2f}] of the normal floats")
    return exp(v)


def stay_bound(frozen, q, t):
    """e^{-2qt} * frozen: the pairs in which neither walker jumps, each
    staying put with probability >= e^{-qt} at jump rates <= q.  Every
    admissible covariance is nonnegative, so no other path pair lowers the
    variance, and this bounds it below for any radial potential.  The
    frozen sum's rule holds: a positive bound below the normal floats is
    refused, as is a NaN, infinite or negative q or t."""
    out = exp(-2.0 * check_nonnegative(q, "q") * check_nonnegative(t)) * frozen
    if out < float_info.min and frozen > 0.0:
        raise DomainError(f"the lower bound e^(-2qt) x {frozen!r} = {out!r} "
                          f"at q = {q!r}, t = {t!r} is below the normal "
                          "floats")
    return out


def lower_bound_sum(t, delta, model, graph):
    """Certified lower bound e^{-2t} * frozen sum (``stay_bound`` at q = 1)
    for the preset V(v) = d(0, v)^delta and unit jump rate."""
    check_nonnegative(delta, "delta", positive=True)
    return stay_bound(
        frozen_variance_sum(t, graph, PotentialSpec(alpha=delta), model),
        1.0, t)


def riemann_tail_sum(t, kappa, alpha, graph):
    """S(t) = sum_n c_n e^{-(kappa t^{1/alpha} n)^{min(alpha,1)}} and its
    normalization t^{d/alpha} S / c_lead, whose square tends to the
    kappa^{-2d} Gamma(d/min(1,alpha))^2 / min(1,alpha^2) limit."""
    d = graph.d
    check_nonnegative(t, positive=True)
    check_nonnegative(kappa, "kappa", positive=True)
    check_nonnegative(alpha, "alpha", positive=True)
    m = min(alpha, 1.0)
    s = kappa * t ** (1.0 / alpha)
    lead = _coord_leading(graph)
    from scipy.special import gammaincc
    # Cutoff z with the relative integral tail below 1e-9.
    z = 25.0
    while 2.0 * gammaincc(d / m, z) > 1e-9 and z < 200.0:
        z += 5.0
    n_max = ceil(z ** (1.0 / m) / s)
    if n_max > _TERM_CAP:
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
