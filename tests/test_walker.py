import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fksim import walker
from fksim.errors import ConfigError, DomainError, InputError
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
    stays = sum(sample_path(G1, SPEC, (0,), 1.0, rng=rng).jumps == 0
                for _ in range(n))
    p = math.exp(-1.0)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(stays / n - p) < 4 * se


def test_kill_radius_records_exit():
    rng = np.random.default_rng(3)
    seen_exit = False
    for _ in range(200):
        p = sample_path(G1, SPEC, (0,), 4.0, rng=rng, kill_radius=1)
        if p.exit_time is not None:
            seen_exit = True
            assert 0 < p.exit_time <= 4.0
    assert seen_exit


def test_zero_rate_walker_sits():
    g = GraphModel.explicit(1, [])
    spec = symmetric_walk(g, 1.0)
    p = sample_path(g, spec, 0, 5.0, seed=0)
    assert p.jumps == 0 and p.local_time == {0: 5.0}


def test_jump_counts_mean_is_poisson_like():
    counts = sample_jump_counts(1.0, 2.0, 100000, seed=1)
    # jump count of the constant-rate walk is Poisson(q t)
    assert abs(counts.mean() - 2.0) < 0.02
    assert abs(counts.var() - 2.0) < 0.05


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


def _reference_walks(graph, spec, start, horizon, kill_radius, cost_of, n,
                     seed):
    """Endpoints, exit flags and cost integrals of n sample_path walks."""
    rng = np.random.default_rng(seed)
    ends, exits, costs = [], [], []
    for _ in range(n):
        p = sample_path(graph, spec, start, horizon, rng=rng,
                        kill_radius=kill_radius)
        ends.append(p.endpoint)
        exits.append(p.exit_time is not None)
        costs.append(sum(lt * cost_of(x) for x, lt in p.local_time.items()))
    return ends, np.array(exits), np.array(costs)


def _two_sample_z(p1, n1, p2, n2):
    se = math.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
    return abs(p1 - p2) / se if se > 0 else 0.0


def _assert_matches_reference(graph, spec, radius, start, horizon,
                              kill_radius, cost_of, seed):
    n = 20000
    trunc = Truncation.build(graph, spec, PotentialSpec(), radius)
    cost = np.array([cost_of(v) for v in trunc.vertices])
    walks = sample_walks(trunc, np.full(n, trunc.vertices.index(start)),
                         horizon, np.random.default_rng(seed), cost=cost,
                         kill_radius=kill_radius)
    ends, exits, costs = _reference_walks(graph, spec, start, horizon,
                                          kill_radius, cost_of, n, seed + 1)
    # Every endpoint probability, the exit frequency and the mean integral
    # agree within 5 two-sample SE (20000 paths per side).
    got = [trunc.vertices[i] for i in walks.endpoint]
    for v in set(got) | set(ends):
        assert _two_sample_z(got.count(v) / n, n, ends.count(v) / n, n) < 5, v
    assert _two_sample_z(walks.exited.mean(), n, exits.mean(), n) < 5
    se = math.sqrt(walks.integral.var() / n + costs.var() / n)
    assert abs(walks.integral.mean() - costs.mean()) < 5 * se
    assert 0 < exits.mean() < 1   # both outcomes occur, so the check bites


def test_batched_walks_match_sample_path_on_z1():
    _assert_matches_reference(G1, SPEC, 15, (1,), 1.5, 2,
                              lambda v: float(v[0] ** 2), seed=30)


def _explicit_spec(graph):
    """Site-dependent rates and a non-uniform, non-symmetric kernel."""
    def kernel(v):
        targets = graph.neighbors(v)
        w = np.array([u + 1.0 for u in targets])
        return targets, list(np.cumsum(w / w.sum()))
    return MarkovSpec(rate=lambda v: 0.5 + 0.25 * v, sup_rate=2.0,
                      kernel=kernel)


# 0-1-2-0 triangle with a tail 2-3-4-5 and a chord 1-4
G_EXPLICIT = GraphModel.explicit(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                     (4, 5), (1, 4)])


def test_batched_walks_match_sample_path_on_explicit_graph():
    spec = _explicit_spec(G_EXPLICIT)
    assert len(Truncation.build(G_EXPLICIT, spec, PotentialSpec(),
                                3).vertices) == 6
    _assert_matches_reference(G_EXPLICIT, spec, 3, 0, 2.0, 1,
                              lambda v: 0.3 * v - 0.5, seed=31)


def test_batched_walks_local_times_agree_with_integrals():
    # The same stream gives the same paths in both modes, so the local-time
    # rows reproduce the integrals and sum to the horizon.
    spec = _explicit_spec(G_EXPLICIT)
    trunc = Truncation.build(G_EXPLICIT, spec, PotentialSpec(), 3)
    cost = np.linspace(-1.0, 2.0, 6)
    starts = np.arange(3000) % 6
    a = sample_walks(trunc, starts, 1.7, np.random.default_rng(32), cost=cost)
    b = sample_walks(trunc, starts, 1.7, np.random.default_rng(32))
    assert np.array_equal(a.endpoint, b.endpoint)
    np.testing.assert_allclose(b.local @ cost, a.integral, rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose(b.local.sum(axis=1), 1.7, rtol=1e-12)


def test_batched_walks_byte_identical_for_a_seed():
    trunc = Truncation.build(G1, SPEC, PotentialSpec(), 3)
    runs = [sample_walks(trunc, np.repeat(np.arange(7), 500), 2.0,
                         np.random.default_rng(33)) for _ in range(2)]
    assert runs[0].exited.any()
    for name in ("endpoint", "exited", "local"):
        assert getattr(runs[0], name).tobytes() == \
            getattr(runs[1], name).tobytes()


def test_batched_walks_stop_or_refuse_at_the_region_edge():
    # Without a kill radius a walker exits by leaving the ball and stops;
    # with one it walks on, so leaving the ball is refused.
    trunc = Truncation.build(G1, SPEC, PotentialSpec(), 1)
    starts = np.full(200, trunc.vertices.index((0,)))
    walks = sample_walks(trunc, starts, 5.0, np.random.default_rng(34),
                         cost=np.zeros(3))
    assert walks.exited.any()
    assert np.all(walks.endpoint[walks.exited] == -1)
    with pytest.raises(InputError):
        sample_walks(trunc, starts, 5.0, np.random.default_rng(34),
                     cost=np.zeros(3), kill_radius=1)


def test_batched_walks_started_past_the_kill_radius_have_exited():
    # Over a short horizon most walkers never jump; each is still flagged.
    trunc = Truncation.build(G1, SPEC, PotentialSpec(), 3)
    starts = np.repeat([trunc.vertices.index((0,)), trunc.vertices.index((2,))],
                       1000)
    walks = sample_walks(trunc, starts, 1e-3, np.random.default_rng(35),
                         cost=np.zeros(7), kill_radius=1)
    assert np.array_equal(walks.exited[1000:], np.ones(1000, dtype=bool))
    assert walks.exited[:1000].sum() < 10


def _stopped_at_five():
    """G_EXPLICIT's walk with rate 0 at vertex 5, which has a neighbour."""
    base = _explicit_spec(G_EXPLICIT)
    spec = MarkovSpec(rate=lambda v: 0.0 if v == 5 else base.rate(v),
                      sup_rate=2.0, kernel=base.kernel)
    return Truncation.build(G_EXPLICIT, spec, PotentialSpec(), 3), 5


def _isolated_root():
    g = GraphModel.explicit(1, [])
    return Truncation.build(g, symmetric_walk(g, 1.0), PotentialSpec(), 3), 0


@pytest.mark.parametrize("build", [_isolated_root, _stopped_at_five])
def test_batched_walkers_at_a_rate_zero_vertex_sit_out_the_horizon(build):
    # A walker at a rate-0 vertex never jumps, and its holding time is
    # never divided by the rate, so no warning is raised.
    trunc, v = build()
    m = len(trunc.vertices)
    i = trunc.vertices.index(v)
    starts = np.arange(600) % m
    cost = np.linspace(-1.0, 2.0, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = sample_walks(trunc, starts, 1.3, np.random.default_rng(37),
                         cost=cost)
        b = sample_walks(trunc, starts, 1.3, np.random.default_rng(37))
    at_v = starts == i
    assert np.all(a.endpoint[at_v] == i)
    assert np.all(a.integral[at_v] == cost[i] * 1.3)
    assert np.all(b.local[at_v, i] == 1.3)
    assert np.all(np.delete(b.local[at_v], i, axis=1) == 0.0)
    assert m == 1 or not np.all(a.endpoint == starts)   # the others move


@pytest.mark.parametrize("horizon", [0.0, -0.0])
def test_batched_walks_over_no_time_charge_positive_zeros(horizon):
    # A negative cost times a zero holding time is -0.0; the integrals and
    # the local times still read +0.0.
    trunc = Truncation.build(G1, SPEC, PotentialSpec(), 3)
    starts = np.arange(7)
    a = sample_walks(trunc, starts, horizon, np.random.default_rng(38),
                     cost=-np.arange(1.0, 8.0))
    b = sample_walks(trunc, starts, horizon, np.random.default_rng(38))
    assert a.integral.tobytes() == np.zeros(7).tobytes()
    assert b.local.tobytes() == np.zeros((7, 7)).tobytes()
    assert np.array_equal(a.endpoint, starts)


def test_jump_count_tail_matches_poisson(monkeypatch):
    from scipy import stats
    # Rounds of 30000 paths, so the 200000 paths span several rounds.
    monkeypatch.setattr(walker, "_JUMP_CHUNK", 30000)
    n = 200000
    counts = sample_jump_counts(1.0, 0.5, n, seed=36)
    for x in range(1, 6):
        p = stats.poisson.sf(x - 1, 0.5)
        assert abs((counts >= x).mean() - p) < 5 * math.sqrt(p * (1 - p) / n)


# -- jump counts: survivor arrays against the whole-chunk loop --------------


def _jump_counts_by_chunk_rounds(q, horizon, n_paths, seed):
    """sample_jump_counts as a loop that re-indexes the chunk's full
    elapsed-time array every round; the survivor-array sampler must make the
    same generator calls, in the same order and sizes."""
    cap = math.ceil(q * horizon) + max(40, int(10 * math.ceil(q * horizon)))
    rng = np.random.default_rng(seed)
    out = np.zeros(n_paths, dtype=np.int64)
    for lo in range(0, n_paths, walker._JUMP_CHUNK):
        counts = out[lo:lo + walker._JUMP_CHUNK]
        elapsed = np.zeros(len(counts))
        live = np.arange(len(counts))
        for _ in range(cap):
            elapsed[live] += rng.exponential(1.0 / q, size=live.size)
            live = live[elapsed[live] < horizon]
            if not live.size:
                break
            counts[live] += 1
        if live.size:
            raise ConfigError("jump-count cap saturated")
    return out


@pytest.mark.parametrize("q, horizon, n, seed", [
    (0.3, 0.5, 150_001, 41), (1.0, 0.5, 150_001, 42), (2.7, 0.5, 150_001, 43),
    (2.7, 1.5, 50_000, 44),     # q t >= 1
    (1.0, 0.0, 10, 45)])
def test_jump_counts_equal_the_chunk_loop(q, horizon, n, seed):
    assert np.array_equal(sample_jump_counts(q, horizon, n, seed),
                          _jump_counts_by_chunk_rounds(q, horizon, n, seed))


@pytest.mark.parametrize("q", [0.3, 1.0, 2.7])
def test_jump_counts_equal_the_chunk_loop_over_small_chunks(monkeypatch, q):
    # 25 001 paths in rounds of 7000: three full chunks and a short one.
    monkeypatch.setattr(walker, "_JUMP_CHUNK", 7000)
    assert np.array_equal(sample_jump_counts(q, 0.8, 25_001, 46),
                          _jump_counts_by_chunk_rounds(q, 0.8, 25_001, 46))


class _EvenHolds:
    """A generator stand-in whose every holding time is ``hold``."""

    def __init__(self, hold):
        self.hold = hold

    def exponential(self, scale, size):
        return np.full(size, self.hold)

    def standard_exponential(self, size):
        return np.full(size, self.hold)   # at q = 1, the same holds


@pytest.mark.parametrize("arrivals", [40, 41])
def test_jump_count_cap_refuses_exactly_at_cap_arrivals(monkeypatch,
                                                        arrivals):
    # q = 1, t = 0.5: the cap is 41 arrivals.  Every path has `arrivals`
    # arrivals before the horizon, so the sampler refuses at 41 and
    # returns 40 everywhere at 40, as the chunk loop does.
    hold = 0.5 / (arrivals + 0.5)
    monkeypatch.setattr(walker.np.random, "default_rng",
                        lambda seed: _EvenHolds(hold))
    if arrivals == 41:
        for sampler in (sample_jump_counts, _jump_counts_by_chunk_rounds):
            with pytest.raises(ConfigError):
                sampler(1.0, 0.5, 1000, 0)
    else:
        counts = sample_jump_counts(1.0, 0.5, 1000, 0)
        assert np.array_equal(counts, np.full(1000, 40))
        assert np.array_equal(counts,
                              _jump_counts_by_chunk_rounds(1.0, 0.5, 1000, 0))
