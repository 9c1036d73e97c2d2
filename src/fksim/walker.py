"""Continuous-time Markov walks with local times and jump-count tail bounds.

Walks are sampled exactly (Gillespie-style): an exponential holding time at
each visited vertex, then a jump drawn from the vertex's kernel; time is
never discretised.  ``sample_path`` draws one trajectory with its local-time
map.  The Monte Carlo estimators instead describe the vertices a walk may
visit once as a ``Region`` of arrays and advance whole batches of walkers
together in numpy with ``sample_walks``; a walker stops on leaving the
region or, given a kill radius, is flagged past it and walks on.
``sample_jump_counts`` gives the jump counts of constant-rate walks for the
Poisson-tail checks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, exp, inf, log, log1p
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, InputError

# Walkers advanced together by sample_walks, and the entry budget of the
# estimators' array blocks (4.1 million float64 entries, 33 MB): peak memory
# stays bounded whatever the number of paths or replicates.
_BATCH = 1 << 17
_MAX_ELEMS = 4_100_000
# Paths per round of sample_jump_counts; the draws depend on it.
_JUMP_CHUNK = 100_000


@dataclass(frozen=True)
class MarkovSpec:
    """Site-dependent jump rates q(v) <= sup_rate and a row-stochastic jump kernel.

    ``kernel(v)`` returns ``(targets, cumulative_probs)`` over the neighbors
    of v (no self-transitions).
    """

    rate: Callable
    sup_rate: float
    kernel: Callable


def symmetric_walk(graph, q=1.0):
    """Constant-rate walk jumping uniformly to a neighbor."""
    if q <= 0:
        raise ConfigError("jump rate must be positive")
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
                      sup_rate=q, kernel=kernel)


def validate_markov_spec(graph, spec, vertices, tol=1e-12):
    """Check the kernel is row-stochastic, edge-supported and rate-bounded."""
    for v in vertices:
        if spec.rate(v) > spec.sup_rate + tol:
            raise ConfigError(f"rate at {v} exceeds declared supremum")
        targets, cum = spec.kernel(v)
        if not targets:
            if spec.rate(v) != 0.0:
                raise ConfigError(f"isolated vertex {v} must have rate 0")
            continue
        if abs(cum[-1] - 1.0) > tol:
            raise ConfigError(f"jump probabilities at {v} do not sum to 1")
        nbrs = set(graph.neighbors(v))
        for u in targets:
            if u == v:
                raise ConfigError(f"self-transition at {v}")
            if u not in nbrs:
                raise ConfigError(f"kernel at {v} puts mass on non-neighbor {u}")


@dataclass
class PathRecord:
    """One sampled trajectory up to a fixed horizon.

    ``local_time`` maps each visited vertex to its occupation time; the values
    sum to the horizon.  ``exit_time`` is None when no kill radius was given or
    the walker stayed inside over the whole horizon.
    """

    start: object
    horizon: float
    endpoint: object
    jumps: int
    local_time: dict
    exit_time: Optional[float] = None
    jump_times: Optional[list] = None
    states: Optional[list] = None


def sample_path(graph, spec, start, horizon, seed=None, *, kill_radius=None,
                light=False, rng=None):
    """Sample one CTMC path; deterministic given (inputs, seed).

    Holding times are exponential via inverse CDF on [0, 1); ``light`` skips
    the jump-time and state lists.
    """
    if horizon < 0:
        raise DomainError("horizon must be >= 0")
    if spec.rate(start) < 0:
        raise ConfigError(f"rate at start vertex {start} must be nonnegative")
    if spec.rate(start) == 0.0:
        return PathRecord(start=start, horizon=horizon, endpoint=start, jumps=0,
                          local_time={start: horizon},
                          jump_times=None if light else [],
                          states=None if light else [start])
    if rng is None:
        rng = np.random.default_rng(seed)
    rand = rng.random
    rate = spec.rate
    kernel = spec.kernel
    root = graph.root
    dist = graph.distance

    cur = start
    elapsed = 0.0
    jumps = 0
    local = {}
    jump_times = None if light else []
    states = None if light else [start]
    exit_time = None

    while True:
        hold = -log1p(-rand()) / rate(cur)
        if elapsed + hold >= horizon:
            local[cur] = local.get(cur, 0.0) + (horizon - elapsed)
            break
        local[cur] = local.get(cur, 0.0) + hold
        elapsed += hold
        targets, cum = kernel(cur)
        cur = targets[bisect_right(cum, rand())]
        jumps += 1
        if not light:
            jump_times.append(elapsed)
            states.append(cur)
        if kill_radius is not None and exit_time is None:
            if dist(root, cur) > kill_radius:
                exit_time = elapsed

    return PathRecord(start=start, horizon=horizon, endpoint=cur, jumps=jumps,
                      local_time=local, exit_time=exit_time,
                      jump_times=jump_times, states=states)


@dataclass(frozen=True)
class Region:
    """The vertices a walk may visit, as arrays indexed by region id.

    Row i describes ``vertices[i]``: ``nbr[i, k]`` is the region id of its
    k-th kernel target (-1 for a target outside the region, and as padding
    beyond its ``deg[i]`` targets), ``cum[i, k]`` the cumulative probability
    of targets 0..k, ``rate[i]`` its jump rate and ``dist[i]`` its graph
    distance to the root.
    """

    vertices: tuple
    nbr: np.ndarray
    cum: np.ndarray
    deg: np.ndarray
    rate: np.ndarray
    dist: np.ndarray

    @classmethod
    def build(cls, graph, spec, vertices):
        """Region over an ordered vertex list; calls ``spec.rate`` and
        ``spec.kernel`` once per vertex."""
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        m = len(vertices)
        kernels = [spec.kernel(v) for v in vertices]
        width = max([1] + [len(targets) for targets, _ in kernels])
        nbr = np.full((m, width), -1, dtype=np.intp)
        cum = np.full((m, width), inf)
        deg = np.empty(m, dtype=np.intp)
        rate = np.empty(m)
        for i, (v, (targets, probs)) in enumerate(zip(vertices, kernels)):
            r = spec.rate(v)
            if r < 0:
                raise ConfigError(f"rate at vertex {v} must be nonnegative")
            if r > 0 and not targets:
                raise ConfigError(f"vertex {v} has a positive rate but no "
                                  "jump targets")
            k = len(targets)
            deg[i] = k
            nbr[i, :k] = [index.get(u, -1) for u in targets]
            cum[i, :k] = probs
            rate[i] = r
        dist = np.fromiter((graph.distance(graph.root, v) for v in vertices),
                           dtype=np.int64, count=m)
        return cls(vertices=vertices, nbr=nbr, cum=cum, deg=deg, rate=rate,
                   dist=dist)


@dataclass(frozen=True)
class Walks:
    """Per-path results of ``sample_walks``, in the order of the starts.

    ``endpoint`` is the region id at the horizon (-1 for a walker stopped at
    its exit), ``exited`` whether the walker exited before it.  Exactly
    one of ``integral`` (the integral of the cost along the path) and
    ``local`` (a dense row of local times over the region) is set.
    """

    endpoint: np.ndarray
    exited: np.ndarray
    integral: Optional[np.ndarray] = None
    local: Optional[np.ndarray] = None


def sample_walks(region, starts, horizon, rng, *, cost=None, kill_radius=None):
    """Sample one walk from each start (a region id) up to the horizon.

    All walkers of a batch advance together in numpy; each live walker draws
    an exponential holding time and then its jump, as in ``sample_path``.
    The result is deterministic given the generator state.

    Without ``kill_radius`` a walker exits by leaving the region and stops
    there.  With it, a walker exits on reaching a vertex farther than
    ``kill_radius`` from the root and walks on, so the region must hold
    every vertex it reaches: a jump out of the region raises InputError.

    With a ``cost`` vector over the region each path carries the integral of
    the cost along it; without one it carries its local times.
    """
    if horizon < 0:
        raise DomainError("horizon must be >= 0")
    starts = np.asarray(starts, dtype=np.intp)
    n = len(starts)
    endpoint = starts.copy()
    # A walker that starts past the kill radius has exited, jump or not.
    exited = (np.zeros(n, dtype=bool) if kill_radius is None
              else region.dist[starts] > kill_radius)
    if cost is None:
        acc = np.zeros((n, len(region.vertices)))
    else:
        cost = np.asarray(cost, dtype=float)
        acc = np.zeros(n)
    for lo in range(0, n, _BATCH):
        part = slice(lo, lo + _BATCH)
        _advance(region, endpoint[part], exited[part], acc[part], horizon,
                 rng, cost, kill_radius)
    if cost is None:
        return Walks(endpoint=endpoint, exited=exited, local=acc)
    return Walks(endpoint=endpoint, exited=exited, integral=acc)


def _advance(region, cur, exited, acc, horizon, rng, cost, kill_radius):
    """Walk one batch in place: ``cur`` holds the start ids on entry and the
    endpoints on return; ``acc`` receives integrals or local-time rows."""
    rate, nbr, cum, deg, dist = (region.rate, region.nbr, region.cum,
                                 region.deg, region.dist)

    def charge(idx, verts, dt):
        if cost is None:
            acc[idx, verts] += dt    # idx holds each walker at most once
        else:
            acc[idx] += cost[verts] * dt

    left = np.full(len(cur), float(horizon))
    live = np.arange(len(cur))
    while live.size:
        at = cur[live]
        draw = rng.standard_exponential(live.size)
        # The holding time draw / rate outlasts the remaining time (always so
        # at rate 0): the walker sits until the horizon.
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
        u = rng.random(live.size)
        k = np.minimum((cum[at] <= u[:, None]).sum(axis=1), deg[at] - 1)
        nxt = nbr[at, k]
        cur[live] = nxt
        out = nxt < 0
        if kill_radius is None:
            exited[live[out]] = True
            live = live[~out]
        elif out.any():
            v = region.vertices[at[np.argmax(out)]]
            raise InputError(f"a walk left the region from vertex {v!r}")
        else:
            exited[live[dist[nxt] > kill_radius]] = True


def sample_jump_counts(q, horizon, n_paths, seed):
    """Jump counts of n_paths constant-rate walks, vectorized over paths.

    Holding times are i.i.d. exponential(q); the count is the number of
    arrivals before the horizon.  Each round draws one more holding time,
    only for the paths whose last arrival is still before the horizon.
    """
    if q <= 0:
        raise ConfigError("jump rate must be positive")
    if horizon == 0:
        return np.zeros(n_paths, dtype=np.int64)
    # Cap chosen so the Poisson tail beyond it is negligible (~1e-17 or less).
    cap = int(ceil(q * horizon)) + max(40, int(10 * ceil(q * horizon)))
    rng = np.random.default_rng(seed)
    out = np.zeros(n_paths, dtype=np.int64)
    for lo in range(0, n_paths, _JUMP_CHUNK):
        counts = out[lo:lo + _JUMP_CHUNK]
        elapsed = np.zeros(len(counts))
        live = np.arange(len(counts))
        for _ in range(cap):
            elapsed[live] += rng.exponential(1.0 / q, size=live.size)
            live = live[elapsed[live] < horizon]
            if not live.size:
                break
            counts[live] += 1
        if live.size:
            raise ConfigError("jump-count cap saturated; horizon too large")
    return out


def chernoff_jump_bound(q_sup, horizon, x):
    """Poisson-tail Chernoff bound e^{-qt} (q e t / x)^x, valid for x > q t."""
    if q_sup <= 0:
        raise DomainError("q_sup must be positive")
    if x <= q_sup * horizon:
        raise DomainError(f"bound requires x > q_sup*t = {q_sup * horizon}")
    if horizon == 0:
        return 0.0
    return exp(-q_sup * horizon + x * (log(q_sup * horizon / x) + 1.0))
