"""Continuous-time Markov walks with local times and jump-count tail bounds.

Walks are sampled exactly (Gillespie-style): an exponential holding time at
each visited vertex, then a jump drawn from the vertex's kernel; time is
never discretised.  ``sample_path`` draws one trajectory on the whole graph
and records its endpoint, jump count and local-time map: the single-path
reference that the batched sampler is tested against.  The Monte Carlo
estimators instead advance whole batches of walkers together in numpy with
``sample_walks``, over the arrays of an ``operators.Truncation`` (vertex
ids, neighbour table, cumulative jump table and rates).  It has one exit
rule: a walker is killed on leaving the truncation's ball and stops there,
with endpoint -1.  Every walker of ``sample_walks`` jumps before the
horizon: its first hold, on whole arrays, is the exponential truncated to
[0, horizon); rounds over the survivors' index arrays follow.  Each
estimator draws which of its walks make no jump, whose paths are known, and
walks only the others (conditional Monte Carlo), so every walk keeps the
plain walk's law.  ``sample_jump_counts`` gives the histogram of the jump
counts of constant-rate walks for the Poisson-tail checks, drawn the same
way.  Every horizon and every rate must be finite and >= 0, and a
constant rate q > 0 (``errors.check_nonnegative``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, exp, expm1, inf, isfinite, log, log1p, nextafter
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, check_count, check_nonnegative

# Walkers advanced together by sample_walks, so that its working arrays
# stay bounded whatever the number of walkers; the draws depend on it.
_BATCH = 1 << 17
# Paths per round of sample_jump_counts; the draws depend on it.
_JUMP_CHUNK = 100_000


@dataclass(frozen=True)
class MarkovSpec:
    """Site-dependent jump rates q(v) >= 0 and a row-stochastic jump kernel.

    ``kernel(v)`` returns ``(targets, cumulative_probs)`` over the neighbors
    of v (no self-transitions).  ``operators.Truncation.build`` checks this
    on its ball and refuses a spec that breaks it; a bound on the rates of
    a ball is ``trunc.rate.max()``.
    """

    rate: Callable
    kernel: Callable


def symmetric_walk(graph, q=1.0):
    """Constant-rate walk jumping uniformly to a neighbor."""
    check_nonnegative(q, "q", positive=True)
    cache = {}

    def kernel(v):
        hit = cache.get(v)
        if hit is not None:
            return hit
        targets = graph.neighbors(v)
        k = len(targets)
        cum = [(i + 1) / k for i in range(k)]
        entry = (targets, cum)
        cache[v] = entry
        return entry

    # Isolated vertices get rate 0 (nowhere to jump, so the walker sits).
    return MarkovSpec(rate=lambda v: q if graph.neighbors(v) else 0.0,
                      kernel=kernel)


@dataclass
class PathRecord:
    """One sampled trajectory up to a fixed horizon.

    ``endpoint`` is the vertex at the horizon and ``jumps`` the number of
    jumps.  ``local_time`` maps each visited vertex to its occupation time;
    the values sum to the horizon.
    """

    endpoint: object
    jumps: int
    local_time: dict


def sample_path(graph, spec, start, horizon, seed=None):
    """Sample one CTMC path on the whole graph; deterministic given (inputs,
    seed), where ``seed`` may be a ``Generator``, drawn from as it is.

    Holding times are exponential via inverse CDF on [0, 1); a vertex of
    rate 0 holds the walker to the horizon, with no draw.  The rate of each
    vertex reached is checked as it is read.
    """
    check_nonnegative(horizon, "horizon")
    rand = np.random.default_rng(seed).random
    rate = spec.rate
    kernel = spec.kernel

    cur = start
    elapsed = 0.0
    jumps = 0
    local = {}

    while True:
        r = check_nonnegative(rate(cur), f"rate at vertex {cur}")
        hold = -log1p(-rand()) / r if r else inf
        if elapsed + hold >= horizon:
            local[cur] = local.get(cur, 0.0) + (horizon - elapsed)
            break
        local[cur] = local.get(cur, 0.0) + hold
        elapsed += hold
        targets, cum = kernel(cur)
        cur = targets[bisect_right(cum, rand())]
        jumps += 1

    return PathRecord(endpoint=cur, jumps=jumps, local_time=local)


@dataclass(frozen=True)
class Walks:
    """Per-path results of ``sample_walks``, in the order of the starts.

    ``endpoint`` is the vertex row at the horizon, or -1 for a walker killed
    on leaving the ball, whose path stops at its exit.  Exactly one of
    ``integral`` (the integral of the cost along the path) and ``local`` (a
    dense row of local times over the ball) is set.
    """

    endpoint: np.ndarray
    integral: Optional[np.ndarray] = None
    local: Optional[np.ndarray] = None


def sample_walks(trunc, starts, horizon, rng, *, cost=None):
    """Sample one walk from each start (a vertex row of the truncation
    ``trunc``) up to the horizon, conditioned on a jump before it.

    All walkers of a batch advance together in numpy.  The first holding
    time is drawn from the exponential truncated to [0, horizon), as
    -log1p(-u (1 - e^{-q t})) / q of a uniform u (one ``random`` fill), kept
    strictly below the horizon, and every walker jumps; each later holding
    time and jump is drawn as in ``sample_path``.  That needs a positive
    horizon and a positive rate at every start.  A walker that leaves the
    ball is killed and stops there.  The result is deterministic given the
    generator state.

    With a ``cost`` vector over the ball each path carries the integral of
    the cost along it; without one it carries its local times.
    """
    check_nonnegative(horizon, "horizon")
    starts = np.asarray(starts, dtype=np.intp)
    n = len(starts)
    if n and not (horizon > 0 and trunc.rate[starts].min() > 0):
        raise DomainError("a walk conditioned on a jump needs a positive "
                          f"horizon (got {horizon!r}) and a positive rate at "
                          "its start")
    endpoint = starts.copy()
    if cost is None:
        acc = np.zeros((n, len(trunc.vertices)))
    else:
        cost = np.asarray(cost, dtype=float)
        acc = np.zeros(n)
    for lo in range(0, n, _BATCH):
        part = slice(lo, lo + _BATCH)
        _advance(trunc, endpoint[part], acc[part], horizon, rng, cost)
    if cost is None:
        return Walks(endpoint=endpoint, local=acc)
    return Walks(endpoint=endpoint, integral=acc)


def _advance(trunc, cur, acc, horizon, rng, cost):
    """Walk one batch in place: ``cur`` holds the start ids on entry and the
    endpoints on return; ``acc`` receives integrals or local-time rows."""
    rate, nbr, cum = trunc.rate, trunc.nbr, trunc.cum

    def charge(idx, verts, dt):
        if cost is None:
            acc[idx, verts] += dt    # idx holds each walker at most once
        else:
            acc[idx] += cost[verts] * dt

    def jump(live, at):
        """Move the walkers ``live`` on from ``at``; return those still in."""
        u = rng.random(live.size)
        nxt = nbr[at, (np.take(cum, at, axis=1) <= u).sum(axis=0)]
        cur[live] = nxt
        return live[nxt >= 0]

    # First step, on whole arrays: every walker draws its hold below the
    # horizon by inversion, and every one moves.
    at_rate = rate[cur]
    hold = _hold_below(rng.random(len(cur)), at_rate, horizon,
                       np.expm1(-at_rate * horizon))
    live = np.arange(len(cur))
    if cost is None:
        acc[live, cur] = hold
    else:
        acc += cost[cur] * hold   # added, so a -0.0 product reads +0.0
    left = horizon - hold
    live = jump(live, cur.copy())
    while live.size:
        at = cur[live]
        draw = rng.standard_exponential(live.size)
        sits = draw >= rate[at] * left[live]
        if sits.any():
            charge(live[sits], at[sits], left[live[sits]])
        moves = ~sits
        live, at = live[moves], at[moves]
        if not live.size:
            break
        hold = draw[moves] / rate[at]
        charge(live, at, hold)
        left[live] -= hold
        live = jump(live, at)


def _hold_below(u, rate, horizon, em1):
    """Exponential(rate) holds truncated to [0, horizon) at the uniforms u,
    in place: log1p(u em1) / -rate with the caller's em1 = expm1(-rate
    horizon) (numpy's and math's may differ by an ulp), kept below the
    horizon, to which it can round."""
    hold = np.log1p(np.multiply(u, em1, out=u), out=u)
    hold /= -rate
    return np.minimum(hold, nextafter(horizon, 0.0), out=hold)


def sample_jump_counts(q, horizon, n_paths, seed):
    """Histogram of the jump counts of n_paths constant-rate walks: entry k
    is the number of paths with k jumps, for k below the cap (an array of
    ``cap`` int64 entries, summing to n_paths).

    Holding times are i.i.d. exponential(q); the count is the number of
    arrivals before the horizon.  Per chunk of ``_JUMP_CHUNK`` paths, the
    number of paths with no arrival is drawn as Binomial(chunk, e^{-qt});
    each other path gets its first arrival from the exponential truncated
    to [0, horizon) (by inversion of one uniform, kept strictly below the
    horizon), and then rounds over the survivors' arrival times draw one
    more holding time each and count the paths that leave.  The output
    bits depend on the generator calls alone: per chunk one ``binomial``,
    one ``random`` fill of the movers' number, and one
    ``standard_exponential`` fill per round, of the survivors' number and
    scaled by 1/q.  A path with ``cap`` arrivals is refused.
    """
    check_nonnegative(q, "q", positive=True)
    check_nonnegative(horizon, "horizon")
    n_paths = check_count(n_paths, "n_paths", 1)
    # Cap chosen so the Poisson tail beyond it is negligible (~1e-17 or less).
    cap = int(ceil(q * horizon)) + max(40, int(10 * ceil(q * horizon)))
    hist = np.zeros(cap, dtype=np.int64)
    rng = np.random.default_rng(seed)
    scale = 1.0 / q
    sit, em1 = exp(-q * horizon), expm1(-q * horizon)
    for lo in range(0, n_paths, _JUMP_CHUNK):
        size = min(_JUMP_CHUNK, n_paths - lo)
        sits = int(rng.binomial(size, sit))
        hist[0] += sits
        arrival = _hold_below(rng.random(size - sits), q, horizon, em1)
        # Entering round k the survivors have k arrivals; those whose
        # (k+1)-th falls past the horizon have k jumps.
        k = 1
        while arrival.size:
            if k == cap:
                raise DomainError("jump-count cap saturated; horizon too "
                                  "large")
            arrival += rng.standard_exponential(arrival.size) * scale
            alive = arrival < horizon
            arrival = arrival[alive]
            hist[k] += alive.size - arrival.size
            k += 1
    return hist


def chernoff_jump_bound(q_sup, horizon, x):
    """Poisson-tail Chernoff bound e^{-qt} (q e t / x)^x, valid for x > q t.
    A NaN or infinite q_sup or x is refused by name."""
    check_nonnegative(horizon, "horizon")
    check_nonnegative(q_sup, "q_sup", positive=True)
    if not isfinite(x):
        raise DomainError(f"x = {x!r} is not finite")
    if x <= q_sup * horizon:
        raise DomainError(f"bound requires x > q_sup*t = {q_sup * horizon}")
    if horizon == 0:
        return 0.0
    return exp(-q_sup * horizon + x * (log(q_sup * horizon / x) + 1.0))
