import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fksim import walker
from fksim.errors import DomainError, InputError
from fksim.lattice import GraphModel
from fksim.walker import (MarkovSpec, Region, chernoff_jump_bound,
                          sample_jump_counts, sample_path, sample_walks,
                          symmetric_walk, validate_markov_spec)

G1 = GraphModel.zd_l1(1)
SPEC = symmetric_walk(G1, 1.0)


def test_spec_is_valid_on_a_ball():
    verts = G1.ball((0,), 5)
    validate_markov_spec(G1, SPEC, verts)


def test_local_time_conserved():
    p = sample_path(G1, SPEC, (0,), 3.0, seed=1)
    assert math.isclose(sum(p.local_time.values()), 3.0, rel_tol=0, abs_tol=1e-12)


@given(st.integers(0, 10 ** 6), st.floats(0.1, 5.0))
@settings(max_examples=50, deadline=None)
def test_local_time_conservation_property(seed, horizon):
    p = sample_path(G1, SPEC, (0,), horizon, seed=seed)
    assert abs(sum(p.local_time.values()) - horizon) < 1e-9
    assert p.jumps == len(p.jump_times)
    assert p.states[-1] == p.endpoint


def test_deterministic_given_seed():
    p1 = sample_path(G1, SPEC, (0,), 2.0, seed=42)
    p2 = sample_path(G1, SPEC, (0,), 2.0, seed=42)
    assert p1.endpoint == p2.endpoint and p1.local_time == p2.local_time


def test_stay_probability_matches_simulation():
    n = 40000
    rng = np.random.default_rng(0)
    stays = sum(sample_path(G1, SPEC, (0,), 1.0, rng=rng, light=True).jumps == 0
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


# -- batched sampler against the single-path reference ----------------------


def _reference_walks(graph, spec, start, horizon, kill_radius, cost_of, n,
                     seed):
    """Endpoints, exit flags and cost integrals of n sample_path walks."""
    rng = np.random.default_rng(seed)
    ends, exits, costs = [], [], []
    for _ in range(n):
        p = sample_path(graph, spec, start, horizon, rng=rng, light=True,
                        kill_radius=kill_radius)
        ends.append(p.endpoint)
        exits.append(p.exit_time is not None)
        costs.append(sum(lt * cost_of(x) for x, lt in p.local_time.items()))
    return ends, np.array(exits), np.array(costs)


def _two_sample_z(p1, n1, p2, n2):
    se = math.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
    return abs(p1 - p2) / se if se > 0 else 0.0


def _assert_matches_reference(graph, spec, region_verts, start, horizon,
                              kill_radius, cost_of, seed):
    n = 20000
    region = Region.build(graph, spec, region_verts)
    cost = np.array([cost_of(v) for v in region.vertices])
    walks = sample_walks(region, np.full(n, region.vertices.index(start)),
                         horizon, np.random.default_rng(seed), cost=cost,
                         kill_radius=kill_radius)
    ends, exits, costs = _reference_walks(graph, spec, start, horizon,
                                          kill_radius, cost_of, n, seed + 1)
    # Every endpoint probability, the exit frequency and the mean integral
    # agree within 5 two-sample SE (20000 paths per side).
    got = [region.vertices[i] for i in walks.endpoint]
    for v in set(got) | set(ends):
        assert _two_sample_z(got.count(v) / n, n, ends.count(v) / n, n) < 5, v
    assert _two_sample_z(walks.exited.mean(), n, exits.mean(), n) < 5
    se = math.sqrt(walks.integral.var() / n + costs.var() / n)
    assert abs(walks.integral.mean() - costs.mean()) < 5 * se
    assert 0 < exits.mean() < 1   # both outcomes occur, so the check bites


def test_batched_walks_match_sample_path_on_z1():
    verts = G1.ball((0,), 15)
    _assert_matches_reference(G1, SPEC, verts, (1,), 1.5, 2,
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
    validate_markov_spec(G_EXPLICIT, spec, range(6))
    _assert_matches_reference(G_EXPLICIT, spec, range(6), 0, 2.0, 1,
                              lambda v: 0.3 * v - 0.5, seed=31)


def test_batched_walks_local_times_agree_with_integrals():
    # The same stream gives the same paths in both modes, so the local-time
    # rows reproduce the integrals and sum to the horizon.
    spec = _explicit_spec(G_EXPLICIT)
    region = Region.build(G_EXPLICIT, spec, range(6))
    cost = np.linspace(-1.0, 2.0, 6)
    starts = np.arange(3000) % 6
    a = sample_walks(region, starts, 1.7, np.random.default_rng(32), cost=cost)
    b = sample_walks(region, starts, 1.7, np.random.default_rng(32))
    assert np.array_equal(a.endpoint, b.endpoint)
    np.testing.assert_allclose(b.local @ cost, a.integral, rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose(b.local.sum(axis=1), 1.7, rtol=1e-12)


def test_batched_walks_byte_identical_for_a_seed():
    verts = G1.ball((0,), 3)
    region = Region.build(G1, SPEC, verts)
    runs = [sample_walks(region, np.repeat(np.arange(7), 500), 2.0,
                         np.random.default_rng(33)) for _ in range(2)]
    assert runs[0].exited.any()
    for name in ("endpoint", "exited", "local"):
        assert getattr(runs[0], name).tobytes() == \
            getattr(runs[1], name).tobytes()


def test_batched_walks_stop_or_refuse_at_the_region_edge():
    # Without a kill radius a walker exits by leaving the region and stops;
    # with one it walks on, so leaving the region is refused.
    verts = G1.ball((0,), 1)
    region = Region.build(G1, SPEC, verts)
    starts = np.full(200, verts.index((0,)))
    walks = sample_walks(region, starts, 5.0, np.random.default_rng(34),
                         cost=np.zeros(3))
    assert walks.exited.any()
    assert np.all(walks.endpoint[walks.exited] == -1)
    with pytest.raises(InputError):
        sample_walks(region, starts, 5.0, np.random.default_rng(34),
                     cost=np.zeros(3), kill_radius=1)


def test_batched_walks_started_past_the_kill_radius_have_exited():
    # Over a short horizon most walkers never jump; each is still flagged.
    verts = G1.ball((0,), 3)
    region = Region.build(G1, SPEC, verts)
    starts = np.repeat([verts.index((0,)), verts.index((2,))], 1000)
    walks = sample_walks(region, starts, 1e-3, np.random.default_rng(35),
                         cost=np.zeros(7), kill_radius=1)
    assert np.array_equal(walks.exited[1000:], np.ones(1000, dtype=bool))
    assert walks.exited[:1000].sum() < 10


def test_jump_count_tail_matches_poisson(monkeypatch):
    from scipy import stats
    # Rounds of 30000 paths, so the 200000 paths span several rounds.
    monkeypatch.setattr(walker, "_JUMP_CHUNK", 30000)
    n = 200000
    counts = sample_jump_counts(1.0, 0.5, n, seed=36)
    for x in range(1, 6):
        p = stats.poisson.sf(x - 1, 0.5)
        assert abs((counts >= x).mean() - p) < 5 * math.sqrt(p * (1 - p) / n)
