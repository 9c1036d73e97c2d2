import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fksim import walker
from fksim.errors import ConfigError, DomainError
from fksim.lattice import GraphModel
from fksim.operators import PotentialSpec, Truncation
from fksim.walker import (MarkovSpec, chernoff_jump_bound,
                          sample_jump_counts, sample_path, sample_walks,
                          symmetric_walk)

G1 = GraphModel.zd_l1(1)
SPEC = symmetric_walk(G1, 1.0)


def test_spec_is_valid_on_a_ball():
    Truncation.build(G1, SPEC, PotentialSpec(), 5)


def test_local_time_conserved():
    p = sample_path(G1, SPEC, (0,), 3.0, seed=1)
    assert math.isclose(sum(p.local_time.values()), 3.0, rel_tol=0, abs_tol=1e-12)


@given(st.integers(0, 10 ** 6), st.floats(0.1, 5.0))
@settings(max_examples=50, deadline=None)
def test_local_time_conservation_property(seed, horizon):
    p = sample_path(G1, SPEC, (0,), horizon, seed=seed)
    assert abs(sum(p.local_time.values()) - horizon) < 1e-9
    # Each vertex after the start is reached by a jump, and the walker sits
    # at its endpoint when the horizon comes.
    assert p.jumps >= len(p.local_time) - 1
    assert p.local_time.get(p.endpoint, 0.0) > 0.0


def test_deterministic_given_seed():
    p1 = sample_path(G1, SPEC, (0,), 2.0, seed=42)
    p2 = sample_path(G1, SPEC, (0,), 2.0, seed=42)
    assert p1.endpoint == p2.endpoint and p1.local_time == p2.local_time


def test_stay_probability_matches_simulation():
    n = 40000
    rng = np.random.default_rng(0)
    stays = sum(sample_path(G1, SPEC, (0,), 1.0, rng).jumps == 0
                for _ in range(n))
    p = math.exp(-1.0)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(stays / n - p) < 4 * se


def test_zero_rate_walker_sits():
    g = GraphModel.explicit(1, [])
    spec = symmetric_walk(g, 1.0)
    p = sample_path(g, spec, 0, 5.0, seed=0)
    assert p.jumps == 0 and p.local_time == {0: 5.0}


def test_a_walker_reaching_a_rate_zero_vertex_sits_there():
    # The hold there divided by the rate 0 and raised ZeroDivisionError.
    spec = MarkovSpec(rate=lambda v: 0.0 if v == (1,) else 1.0,
                      kernel=lambda v: ([(v[0] + 1,)], [1.0]))
    p = sample_path(G1, spec, (0,), 50.0, seed=0)
    assert p.endpoint == (1,) and p.jumps == 1
    assert math.fsum(p.local_time.values()) == pytest.approx(50.0)


def test_jump_counts_mean_is_poisson_like():
    hist = sample_jump_counts(1.0, 2.0, 100000, seed=1)
    assert hist.sum() == 100000
    k = np.arange(len(hist))
    mean = (k * hist).sum() / 100000
    # jump count of the constant-rate walk is Poisson(q t)
    assert abs(mean - 2.0) < 0.02
    assert abs((k * k * hist).sum() / 100000 - mean ** 2 - 2.0) < 0.05


def test_chernoff_bound_dominates_poisson_tail():
    from scipy import stats
    q, t = 1.0, 0.5
    for x in range(2, 11):
        exact = stats.poisson.sf(x - 1, q * t)   # P[S >= x]
        assert exact <= chernoff_jump_bound(q, t, x)


def test_chernoff_bound_domain():
    with pytest.raises(DomainError):
        chernoff_jump_bound(1.0, 2.0, 1)   # x below q*t


def test_negative_horizon_rejected():
    with pytest.raises(DomainError):
        sample_path(G1, SPEC, (0,), -1.0, seed=0)
    with pytest.raises(DomainError):
        sample_jump_counts(1.0, -1.0, 10, seed=0)


@pytest.mark.parametrize("horizon", [0.0, 0.5])
def test_jump_counts_refuse_a_negative_path_count(horizon):
    with pytest.raises(ConfigError, match="n_paths"):
        sample_jump_counts(1.0, horizon, -3, seed=0)


# -- batched sampler against the single-path reference ----------------------


def _reference_walks(graph, spec, start, horizon, ball, cost_of, n, seed):
    """Endpoints (None once killed), kill flags and cost integrals of the
    first n sample_path walks that jump before the horizon (rejection).  A
    walk is killed when its local times hold a vertex outside ``ball``."""
    rng = np.random.default_rng(seed)
    ends, kills, costs = [], [], []
    while len(ends) < n:
        p = sample_path(graph, spec, start, horizon, rng)
        if not p.jumps:
            continue
        killed = not p.local_time.keys() <= ball
        ends.append(None if killed else p.endpoint)
        kills.append(killed)
        costs.append(sum(lt * cost_of(x) for x, lt in p.local_time.items()))
    return ends, np.array(kills), np.array(costs)


def _two_sample_z(p1, n1, p2, n2):
    se = math.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
    return abs(p1 - p2) / se if se > 0 else 0.0


def _assert_matches_reference(graph, spec, radius, start, horizon, cost_of,
                              seed):
    n = 20000
    trunc = Truncation.build(graph, spec, PotentialSpec(), radius)
    cost = np.array([cost_of(v) for v in trunc.vertices])
    walks = sample_walks(trunc, np.full(n, trunc.vertices.index(start)),
                         horizon, np.random.default_rng(seed), cost=cost)
    ends, kills, costs = _reference_walks(graph, spec, start, horizon,
                                          set(trunc.vertices), cost_of, n,
                                          seed + 1)
    # Every endpoint probability (killed as one outcome), the kill frequency
    # and the mean integral of the walks that stay in agree within 5
    # two-sample SE (20000 paths per side); a killed walk's integral stops
    # at its exit, the reference's does not.
    killed = walks.endpoint < 0
    got = [None if i < 0 else trunc.vertices[i] for i in walks.endpoint]
    for v in set(got) | set(ends):
        assert _two_sample_z(got.count(v) / n, n, ends.count(v) / n, n) < 5, v
    assert _two_sample_z(killed.mean(), n, kills.mean(), n) < 5
    a, b = walks.integral[~killed], costs[~kills]
    se = math.sqrt(a.var() / a.size + b.var() / b.size)
    assert abs(a.mean() - b.mean()) < 5 * se
    assert 0 < kills.mean() < 1   # both outcomes occur, so the check bites


def _explicit_spec(graph):
    """Site-dependent rates and a non-uniform, non-symmetric kernel."""
    def kernel(v):
        targets = graph.neighbors(v)
        w = np.array([u + 1.0 for u in targets])
        return targets, list(np.cumsum(w / w.sum()))
    return MarkovSpec(rate=lambda v: 0.5 + 0.25 * v, kernel=kernel)


# 0-1-2-0 triangle with a tail 2-3-4-5 and a chord 1-4
G_EXPLICIT = GraphModel.explicit(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                     (4, 5), (1, 4)])


def test_batched_walks_local_times_agree_with_integrals():
    # The same stream gives the same conditioned paths with and without a
    # cost, so the local-time rows reproduce the integrals.  The rows of
    # walkers that stay in sum to the horizon; those of killed walkers,
    # whose paths stop at their exit, sum to less.  The radius-3 ball holds
    # every vertex, so no walker is killed there; the radius-1 ball holds
    # the triangle 0-1-2, and a jump to 3 or 4 kills the walker.
    spec = _explicit_spec(G_EXPLICIT)
    for radius in (3, 1):
        trunc = Truncation.build(G_EXPLICIT, spec, PotentialSpec(), radius)
        m = len(trunc.vertices)
        cost = np.linspace(-1.0, 2.0, m)
        starts = np.arange(3000) % m
        a = sample_walks(trunc, starts, 1.7, np.random.default_rng(32),
                         cost=cost)
        b = sample_walks(trunc, starts, 1.7, np.random.default_rng(32))
        assert np.array_equal(a.endpoint, b.endpoint)
        np.testing.assert_allclose(b.local @ cost, a.integral, rtol=1e-12,
                                   atol=1e-12)
        killed = a.endpoint < 0
        assert killed.any() == (radius == 1)
        np.testing.assert_allclose(b.local[~killed].sum(axis=1), 1.7,
                                   rtol=1e-12)
        assert np.all(b.local[killed].sum(axis=1) < 1.7)


def test_batched_walks_byte_identical_for_a_seed():
    trunc = Truncation.build(G1, SPEC, PotentialSpec(), 3)
    runs = [sample_walks(trunc, np.repeat(np.arange(7), 500), 2.0,
                         np.random.default_rng(33)) for _ in range(2)]
    assert (runs[0].endpoint < 0).any()
    for name in ("endpoint", "local"):
        assert getattr(runs[0], name).tobytes() == \
            getattr(runs[1], name).tobytes()


@pytest.mark.parametrize("form", ["cost", "local"])
def test_batched_walks_over_several_batches_continue_one_stream(monkeypatch,
                                                                form):
    # In batches of 5, 23 walkers are the walks of consecutive calls on 5,
    # 5, 5, 5 and 3 of them that share one generator: each batch draws
    # after the last, and no batch loses or repeats a draw.  One batch of
    # all 23 draws in another order, so the batch size is seen.
    trunc = Truncation.build(G_EXPLICIT, _explicit_spec(G_EXPLICIT),
                             PotentialSpec(), 3)
    starts = np.arange(23) % 6
    kw = {"cost": np.linspace(-1.0, 2.0, 6)} if form == "cost" else {}
    one = sample_walks(trunc, starts, 1.7, np.random.default_rng(34), **kw)
    monkeypatch.setattr(walker, "_BATCH", 5)
    got = sample_walks(trunc, starts, 1.7, np.random.default_rng(34), **kw)
    rng = np.random.default_rng(34)
    parts = [sample_walks(trunc, starts[lo:lo + 5], 1.7, rng, **kw)
             for lo in range(0, 23, 5)]
    names = ("endpoint", "integral" if form == "cost" else "local")
    for name in names:
        want = np.concatenate([getattr(p, name) for p in parts])
        assert getattr(got, name).tobytes() == want.tobytes()
    assert getattr(got, names[1]).tobytes() != \
        getattr(one, names[1]).tobytes()


def test_batched_walks_stop_or_refuse_at_the_region_edge():
    # A walker that leaves the ball is killed and stops there: its endpoint
    # is -1, and its local times end at its exit.  Over a short horizon a
    # walker jumps once and then sits, so one that starts at the edge of
    # the radius-1 ball is killed about half the time and one at the root
    # almost never is.
    trunc = Truncation.build(G1, SPEC, PotentialSpec(), 1)
    root, edge = trunc.vertices.index((0,)), trunc.vertices.index((1,))
    walks = sample_walks(trunc, np.repeat([root, edge], 1000), 1e-3,
                         np.random.default_rng(35))
    killed = walks.endpoint < 0
    assert killed[:1000].sum() < 10
    assert 400 < killed[1000:].sum() < 600
    assert np.all(walks.local[killed].sum(axis=1) < 1e-3)


def _stopped_at_five():
    """G_EXPLICIT's walk with rate 0 at vertex 5, which has a neighbour."""
    base = _explicit_spec(G_EXPLICIT)
    spec = MarkovSpec(rate=lambda v: 0.0 if v == 5 else base.rate(v),
                      kernel=base.kernel)
    return Truncation.build(G_EXPLICIT, spec, PotentialSpec(), 3), 5


def test_batched_walkers_at_a_rate_zero_vertex_sit_out_the_horizon():
    # Walkers start everywhere but at the rate-0 vertex 5.  One that reaches
    # it never jumps again, and its holding time there is never divided by
    # the rate, so no warning is raised.
    trunc, v = _stopped_at_five()
    i = trunc.vertices.index(v)
    starts = np.delete(np.arange(600) % 6, np.arange(i, 600, 6))
    cost = np.linspace(-1.0, 2.0, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = sample_walks(trunc, starts, 1.3, np.random.default_rng(37),
                         cost=cost)
        b = sample_walks(trunc, starts, 1.3, np.random.default_rng(37))
    reached = b.local[:, i] > 0.0
    assert reached.sum() > 50
    assert np.all(a.endpoint[reached] == i)
    np.testing.assert_allclose(b.local[reached].sum(axis=1), 1.3, rtol=1e-12)
    np.testing.assert_allclose(b.local @ cost, a.integral, rtol=1e-12,
                               atol=1e-12)


def test_jump_count_tail_matches_poisson(monkeypatch):
    from scipy import stats
    # Rounds of 30000 paths, so the 200000 paths span several rounds.
    monkeypatch.setattr(walker, "_JUMP_CHUNK", 30000)
    n = 200000
    hist = sample_jump_counts(1.0, 0.5, n, seed=36)
    for x in range(1, 6):
        p = stats.poisson.sf(x - 1, 0.5)
        assert abs(hist[x:].sum() / n - p) < 5 * math.sqrt(p * (1 - p) / n)


def _binomial_p(k, n, p):
    """Two-sided exact binomial tail of k successes in n trials: twice the
    smaller of P[K <= k] and P[K >= k], at most 1."""
    from scipy import stats
    return min(1.0, 2.0 * min(stats.binom.cdf(k, n, p),
                              stats.binom.sf(k - 1, n, p)))


# Two-sided normal tail at 5 SE (5.7e-7): the width of each exact test.
_TAIL_ALPHA = math.erfc(5.0 / math.sqrt(2.0))


@pytest.mark.parametrize("q, horizon, seed", [
    (1.0, 0.5, 50), (0.3, 2.0, 51), (2.7, 1.5, 52), (4.0, 0.05, 53)])
def test_jump_count_histogram_matches_poisson_exactly(monkeypatch, q,
                                                      horizon, seed):
    # 300 000 paths in chunks of 70 000 (four full chunks and a short one).
    # Each count hist[k] is Binomial(n, P[N = k]) and each tail sum
    # Binomial(n, P[N >= k]) for N ~ Poisson(q t); every k with a
    # probability above 1e-9 is tested with its exact binomial tails.
    from scipy import stats
    monkeypatch.setattr(walker, "_JUMP_CHUNK", 70_000)
    n = 300_000
    hist = sample_jump_counts(q, horizon, n, seed)
    assert hist.sum() == n
    lam = q * horizon
    tested = 0
    for k in range(len(hist)):
        p_at, p_tail = stats.poisson.pmf(k, lam), stats.poisson.sf(k - 1, lam)
        if p_tail < 1e-9:
            assert hist[k:].sum() == 0
            break
        assert _binomial_p(hist[k], n, p_at) > _TAIL_ALPHA, k
        assert _binomial_p(hist[k:].sum(), n, p_tail) > _TAIL_ALPHA, k
        tested += 1
    assert tested >= 4


# -- jump counts: the histogram against a per-path loop ----------------------


def _jump_hist_by_chunk_rounds(q, horizon, n_paths, seed):
    """sample_jump_counts as a loop over per-path counts that re-indexes the
    chunk's full arrival-time array every round and takes their bincount at
    the end.  It must make the same generator calls as the histogram
    sampler, in the same order and sizes: per chunk one binomial (the paths
    without a jump), one uniform fill of the others (their first arrivals,
    from the exponential truncated to the horizon), then one
    standard_exponential fill per round of the survivors."""
    cap = math.ceil(q * horizon) + max(40, int(10 * math.ceil(q * horizon)))
    counts = np.zeros(n_paths, dtype=np.int64)
    if horizon == 0:
        return np.bincount(counts, minlength=cap)
    rng = np.random.default_rng(seed)
    for lo in range(0, n_paths, walker._JUMP_CHUNK):
        chunk = counts[lo:lo + walker._JUMP_CHUNK]
        sits = rng.binomial(len(chunk), math.exp(-q * horizon))
        movers = chunk[sits:]   # a path's place in its chunk is immaterial
        u = rng.random(len(movers))
        elapsed = np.minimum(np.log1p(u * math.expm1(-q * horizon)) / -q,
                             math.nextafter(horizon, 0.0))
        movers[:] = 1
        live = np.arange(len(movers))
        for _ in range(cap - 1):
            if not live.size:
                break
            elapsed[live] += rng.standard_exponential(live.size) * (1.0 / q)
            live = live[elapsed[live] < horizon]
            movers[live] += 1
        if live.size:
            raise ConfigError("jump-count cap saturated")
    return np.bincount(counts, minlength=cap)


@pytest.mark.parametrize("q, horizon, n, seed", [
    (0.3, 0.5, 150_001, 41), (1.0, 0.5, 150_001, 42), (2.7, 0.5, 150_001, 43),
    (2.7, 1.5, 50_000, 44),     # q t >= 1
    (1.0, 0.0, 10, 45)])
def test_jump_counts_equal_the_chunk_loop(q, horizon, n, seed):
    hist = sample_jump_counts(q, horizon, n, seed)
    assert hist.dtype == np.int64 and hist.sum() == n
    assert np.array_equal(hist,
                          _jump_hist_by_chunk_rounds(q, horizon, n, seed))


@pytest.mark.parametrize("q", [0.3, 1.0, 2.7])
def test_jump_counts_equal_the_chunk_loop_over_small_chunks(monkeypatch, q):
    # 25 001 paths in rounds of 7000: three full chunks and a short one.
    monkeypatch.setattr(walker, "_JUMP_CHUNK", 7000)
    assert np.array_equal(sample_jump_counts(q, 0.8, 25_001, 46),
                          _jump_hist_by_chunk_rounds(q, 0.8, 25_001, 46))


class _EvenHolds:
    """A generator stand-in at q = 1 whose every holding time is ``hold``:
    no path sits out, and the uniform it gives inverts the first arrival,
    the exponential truncated to ``horizon``, to ``hold`` as well."""

    def __init__(self, hold, horizon):
        self.hold = hold
        self.u = math.expm1(-hold) / math.expm1(-horizon)

    def binomial(self, n, p):
        return 0

    def random(self, size):
        return np.full(size, self.u)

    def standard_exponential(self, size):
        return np.full(size, self.hold)


@pytest.mark.parametrize("arrivals", [40, 41])
def test_jump_count_cap_refuses_exactly_at_cap_arrivals(monkeypatch,
                                                        arrivals):
    # q = 1, t = 0.5: the cap is 41 arrivals.  Every path has `arrivals`
    # arrivals before the horizon, so the sampler refuses at 41 and
    # counts 40 everywhere at 40, as the per-path loop does.
    hold = 0.5 / (arrivals + 0.5)
    monkeypatch.setattr(walker.np.random, "default_rng",
                        lambda seed: _EvenHolds(hold, 0.5))
    if arrivals == 41:
        for sampler in (sample_jump_counts, _jump_hist_by_chunk_rounds):
            with pytest.raises(ConfigError):
                sampler(1.0, 0.5, 1000, 0)
    else:
        hist = sample_jump_counts(1.0, 0.5, 1000, 0)
        assert len(hist) == 41 and hist[40] == 1000 and hist.sum() == 1000
        assert np.array_equal(hist,
                              _jump_hist_by_chunk_rounds(1.0, 0.5, 1000, 0))


# -- the first holding time conditioned on a jump ----------------------------


_LAST_U = 1.0 - 2.0 ** -53   # the largest uniform below 1


class _LastUniform:
    """A generator stand-in: no path sits out, every uniform is 1 - 2^-53,
    and the holding times after the first are ``later``."""

    def __init__(self, later):
        self.later = later

    def binomial(self, n, p):
        return 0

    def random(self, size):
        return np.full(size, _LAST_U)

    def standard_exponential(self, size):
        return np.full(size, self.later)


# At q t = 3e-12 the unclamped inversion rounds to the horizon itself.
_EDGE_RATES = [(1.0, 1e-12), (1.0, 40.0), (3.0, 1e-12)]


@pytest.mark.parametrize("q, horizon", _EDGE_RATES)
def test_conditioned_first_hold_stays_below_the_horizon(q, horizon):
    # The first hold at the largest uniform is below the horizon, and the
    # walker jumps; its later holds outlast the horizon, so it sits there.
    trunc = Truncation.build(G1, symmetric_walk(G1, q), PotentialSpec(), 2)
    root = trunc.vertices.index((0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        walks = sample_walks(trunc, [root], horizon, _LastUniform(1e300))
    first = walks.local[0, root]
    end = walks.endpoint[0]
    assert 0.0 < first < horizon
    assert end != root and walks.local[0, end] == horizon - first > 0.0


@pytest.mark.parametrize("q, horizon", _EDGE_RATES)
def test_conditioned_first_arrival_stays_below_the_horizon(monkeypatch, q,
                                                           horizon):
    # A second arrival 0.0 after the first is still before the horizon
    # only if the first is, so every path then has exactly two jumps.
    calls = []

    def later(size):
        calls.append(size)
        return np.full(size, 0.0 if len(calls) == 1 else 1e300)

    fake = _LastUniform(0.0)
    fake.standard_exponential = later
    monkeypatch.setattr(walker.np.random, "default_rng", lambda seed: fake)
    hist = sample_jump_counts(q, horizon, 1000, 0)
    assert hist[2] == 1000 and hist.sum() == 1000


def test_a_row_ending_below_one_sends_the_rest_to_its_last_target():
    # Vertex 1's row ends at 1 - 2^-53, which build accepts within 1e-12.
    # A uniform at that end takes the last target, not the padding past
    # it, and the matrix keeps that target's probability, 1 - 2^-53 - 1/4.
    g = GraphModel.explicit(3, [(0, 1), (1, 2)])
    rows = {0: ([1], [1.0]), 1: ([0, 2], [0.25, _LAST_U]), 2: ([1], [1.0])}
    spec = MarkovSpec(rate=lambda v: 1.0, kernel=rows.__getitem__)
    trunc = Truncation.build(g, spec, PotentialSpec(), 2)
    one, two = trunc.vertices.index(1), trunc.vertices.index(2)
    walks = sample_walks(trunc, [one], 1.0, _LastUniform(1e300))
    assert walks.endpoint[0] == two
    r, c, vals = trunc.offdiag
    assert vals[(r == one) & (c == two)].tolist() == [-(_LAST_U - 0.25)]


def test_conditioned_walks_refuse_a_start_that_cannot_jump():
    trunc, v = _stopped_at_five()
    i = trunc.vertices.index(v)
    with pytest.raises(DomainError, match="positive rate"):
        sample_walks(trunc, [0, i], 1.0, np.random.default_rng(0))
    with pytest.raises(DomainError, match="positive horizon"):
        sample_walks(trunc, [0], 0.0, np.random.default_rng(0))
    # With no start there is nothing to condition.
    walks = sample_walks(trunc, [], 1.0, np.random.default_rng(0),
                         cost=np.zeros(6))
    assert walks.endpoint.size == 0 and walks.integral.size == 0


def test_conditioned_walks_match_sample_path_given_a_jump_on_z1():
    # Against the sample_path walks that jump; most walks sit at t = 0.3.
    _assert_matches_reference(G1, SPEC, 1, (1,), 0.3,
                              lambda v: float(v[0] ** 2), seed=60)


def test_conditioned_walks_match_sample_path_given_a_jump_on_explicit_graph():
    _assert_matches_reference(G_EXPLICIT, _explicit_spec(G_EXPLICIT), 1, 0,
                              0.8, lambda v: 0.3 * v - 0.5, seed=61)


# A horizon is finite and >= 0 at every entry point, which names what it
# refuses: (horizon, id, message).
_BAD_HORIZONS = ((math.nan, "nan", "horizon = nan is not finite"),
                 (math.inf, "inf", "horizon = inf is not finite"),
                 (-math.inf, "minus-inf", "horizon = -inf is not finite"),
                 (-0.5, "negative", "horizon must be >= 0, got -0.5"))
_TIMED = {
    "path": lambda h: sample_path(G1, SPEC, (0,), h, 0),
    "jump-counts": lambda h: sample_jump_counts(1.0, h, 10, 0),
    "chernoff": lambda h: chernoff_jump_bound(1.0, h, 3),
    "walks": lambda h: sample_walks(Truncation.build(
        G1, SPEC, PotentialSpec(), 2), [0, 1], h, np.random.default_rng(0))}


@pytest.mark.parametrize("call, exc, named", [
    (lambda: sample_walks(Truncation.build(G1, SPEC, PotentialSpec(), 2),
                          [0, 1], -0.5, np.random.default_rng(0)),
     DomainError, "got -0.5"),
    (lambda: sample_path(G1, MarkovSpec(rate=lambda v: -2.0,
                                        kernel=SPEC.kernel), (0,), 1.0, 0),
     DomainError, "rate at vertex (0,) must be >= 0, got -2.0"),
    (lambda: chernoff_jump_bound(0.0, 1.0, 3), DomainError, "got 0.0"),
    (lambda: chernoff_jump_bound(-1.0, 1.0, 3), DomainError, "got -1.0"),
    # These returned nan, or raised a bare "math domain error" at x = inf.
    *[(lambda q=q, x=x: chernoff_jump_bound(q, 0.5, x), DomainError, named)
      for q, x, named in ((math.nan, 3, "q_sup = nan is not finite"),
                          (math.inf, 3, "q_sup = inf is not finite"),
                          (1.0, math.nan, "x = nan is not finite"),
                          (1.0, math.inf, "x = inf is not finite"),
                          (1.0, -math.inf, "x = -inf is not finite"))],
    *[(lambda call=call, h=h: call(h), DomainError, named)
      for call in _TIMED.values() for h, _, named in _BAD_HORIZONS]],
    ids=["walks-horizon", "path-start-rate", "chernoff-q-zero",
         "chernoff-q-negative", "chernoff-q-nan", "chernoff-q-inf",
         "chernoff-x-nan", "chernoff-x-inf", "chernoff-x-minus-inf",
         *[f"{name}-horizon-{label}" for name in _TIMED
           for _, label, _ in _BAD_HORIZONS]])
def test_walker_refusals_name_the_value(call, exc, named):
    with pytest.raises(exc, match=re.escape(named)):
        call()


@pytest.mark.parametrize("horizon", [h for h, _, _ in _BAD_HORIZONS],
                         ids=[label for _, label, _ in _BAD_HORIZONS])
def test_a_bad_horizon_is_refused_before_any_draw(monkeypatch, horizon):
    # No hold reaches a NaN or infinite horizon, so sample_path would draw
    # for ever.  The samplers refuse it before they seed a generator;
    # sample_walks, given no generator, before it would draw from it.
    def seeded(*args, **kwargs):
        raise AssertionError("a generator was seeded before the check")

    trunc = Truncation.build(G1, SPEC, PotentialSpec(), 2)
    monkeypatch.setattr(walker.np.random, "default_rng", seeded)
    with pytest.raises(DomainError, match="horizon"):
        sample_path(G1, SPEC, (0,), horizon, 0)
    with pytest.raises(DomainError, match="horizon"):
        sample_jump_counts(1.0, horizon, 10, 0)
    with pytest.raises(DomainError, match="horizon"):
        sample_walks(trunc, [0, 1], horizon, None)


def test_a_zero_horizon_is_admissible():
    # At t = 0 a path sits at its start, every count is 0 and the tail
    # bound is 0.
    assert sample_path(G1, SPEC, (1,), 0.0, 0) == walker.PathRecord(
        endpoint=(1,), jumps=0, local_time={(1,): 0.0})
    hist = sample_jump_counts(1.0, 0.0, 7, 0)
    assert hist[0] == 7 and hist.sum() == 7
    assert chernoff_jump_bound(1.0, 0.0, 3) == 0.0
