import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fksim.errors import DomainError, InputError
from fksim.lattice import GraphModel
from fksim.noise import (constant_gaussian, iid_gaussian,
                         power_decay_gaussian, sample_field)
from fksim.operators import PotentialSpec, Truncation, expm_neg
from fksim.walker import symmetric_walk
from fksim import feynman_kac as fk, noise

G1 = GraphModel.zd_l1(1)
SPEC = symmetric_walk(G1, 1.0)
POT = PotentialSpec(alpha=2.0)


def _trunc(n):
    return Truncation.build(G1, SPEC, POT, n)


def test_dirichlet_root_only():
    # radius 0: the walker must not jump at all, and the expectation is the
    # 1x1 semigroup value e^{-t (q + V(0) + xi(0))}
    verts = G1.ball((0,), 50)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=6)
    at_root = xi[verts.index((0,))]
    t = 0.5
    est = fk.mc_dirichlet_trace(_trunc(0), [at_root], t, 40000, seed=7)
    expected = math.exp(-t * (1.0 + 0.0 + at_root))
    assert abs(est.mean - expected) < 3 * est.stderr


def test_killed_below_unkilled_pathwise():
    verts = G1.ball((0,), 60)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=8)
    killed, unkilled = fk._trace_samples(_trunc(60), xi, 0.8, 5000, seed=9,
                                         kill_radius=3)
    for kw, uw in zip(killed, unkilled):
        assert np.all(kw <= uw + 1e-15)


def test_killing_immaterial_for_huge_radius():
    k, u = fk.mc_dirichlet_trace(_trunc(80), np.zeros(161), 0.5, 3000,
                                 seed=10, kill_radius=40)
    assert k.mean == u.mean


def test_ensemble_variance_degenerate_noise():
    est = fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(0.0), 4, 0.5,
                               50, seed=11)
    assert est.value == 0.0


@pytest.mark.parametrize("m", [7, 50])
def test_ensemble_variance_identical_members_give_zero(m):
    # Zero noise makes every member the same matrix.  The mean of m equal
    # traces need not round back to the trace, so an unshifted variance
    # reads about 1e-31 in many of these cases.
    for n in range(1, 9):
        for t in (1.0, 0.5, 0.25, 0.125):
            est = fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(0.0), n,
                                       t, m, seed=11)
            assert (est.value, est.stderr) == (0.0, 0.0), (n, t)


def _traces_by_expm(graph, spec, pot, model, n, t, m, seed):
    trunc = Truncation.build(graph, spec, pot, n)
    return trunc, np.array([
        np.trace(expm_neg(trunc.matrices(f[None])[0], t))
        for f in fk.member_fields(trunc, graph, model, seed, m)])


# 0-1-2-0 triangle with a tail 2-3-4-5 and a chord 1-4: uniform jumps on
# vertices of degree 1 to 3 make the truncation non-symmetric.
G_IRREGULAR = GraphModel.explicit(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                      (4, 5), (1, 4)])


@pytest.mark.parametrize("graph, n, symmetric", [
    (GraphModel.zd_l1(2), 3, True), (G_IRREGULAR, 2, False)])
def test_ensemble_variance_matches_expm_traces(graph, n, symmetric):
    spec = symmetric_walk(graph, 1.0)
    pot = PotentialSpec(custom={v: 0.2 * i for i, v in
                                enumerate(graph.ball(graph.root, n))})
    t, m = 0.5, 40
    trunc, traces = _traces_by_expm(graph, spec, pot, iid_gaussian(1.0), n,
                                    t, m, seed=47)
    assert trunc.symmetric == symmetric
    eigs = trunc.eigenvalues(fk.member_fields(trunc, graph,
                                              iid_gaussian(1.0), 47, m))
    assert np.allclose(np.exp(-t * eigs).sum(axis=1), traces, rtol=1e-12,
                       atol=0.0)
    est = fk.ensemble_variance(graph, spec, pot, iid_gaussian(1.0), n, t, m,
                               seed=47)
    assert est.value == pytest.approx(np.var(traces, ddof=1), rel=1e-12)


def test_ensemble_variance_single_vertex_lognormal():
    g = GraphModel.explicit(1, [])
    spec = symmetric_walk(g, 1.0)
    pot = PotentialSpec(custom={0: 0.0})
    t = 0.7
    est = fk.ensemble_variance(g, spec, pot, iid_gaussian(1.0), 0, t,
                               100000, seed=12)
    exact = math.exp(t * t) * (math.exp(t * t) - 1.0)
    assert abs(est.value - exact) < 3 * est.stderr


def test_ensemble_variance_repeats_for_a_seed():
    a = fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(1.0), 4, 0.5, 60,
                             seed=13)
    b = fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(1.0), 4, 0.5, 60,
                             seed=13)
    assert a == b and a.value > 0.0


def test_paired_walker_single_vertex_lognormal():
    g = GraphModel.explicit(1, [])
    spec = symmetric_walk(g, 1.0)
    pot = PotentialSpec(custom={0: 0.0})
    t = 0.7
    est = fk.paired_walker_variance(g, spec, pot, iid_gaussian(1.0), t,
                                    10, 0, seed=14)
    exact = math.exp(t * t) * (math.exp(t * t) - 1.0)
    # deterministic here: single vertex paths are degenerate
    assert est.value == pytest.approx(exact)
    assert est.stderr == pytest.approx(0.0)


@pytest.mark.parametrize("model", [iid_gaussian(1.0), constant_gaussian(1.0)])
def test_variance_estimators_agree(model):
    t = 0.5
    ens = fk.ensemble_variance(G1, SPEC, POT, model, 6, t, 3000, seed=15)
    pw = fk.paired_walker_variance(G1, SPEC, POT, model, t, 1200, 6, seed=16)
    lo1, hi1 = ens.ci95()
    lo2, hi2 = pw.ci95()
    assert max(lo1, lo2) <= min(hi1, hi2)


def test_frozen_sum_iid_reduction():
    t = 2.0 ** -7
    got = fk.frozen_variance_sum(t, G1, POT, iid_gaussian(1.0))
    r = fk.radius_for(t, 2.0, 1.0)
    direct = sum(math.exp(-2 * t * n * n) * (2 if n else 1)
                 for n in range(r + 1))
    factor = math.exp(t * t) * (math.exp(t * t) - 1.0)
    assert got == pytest.approx(factor * direct)


def test_frozen_sum_constant_reduction():
    t = 2.0 ** -7
    got = fk.frozen_variance_sum(t, G1, POT, constant_gaussian(1.0))
    r = fk.radius_for(t, 2.0, 1.0)
    s = sum(math.exp(-t * n * n) * (2 if n else 1) for n in range(r + 1))
    factor = math.exp(t * t) * (math.exp(t * t) - 1.0)
    assert got == pytest.approx(factor * s * s)


def test_frozen_sum_power_decay_brute_force():
    t = 1.0
    model = power_decay_gaussian(beta=1.0)
    r = fk.radius_for(t)
    verts = G1.ball((0,), r)
    brute = 0.0
    for u in verts:
        for v in verts:
            gam = 1.0 / (abs(u[0] - v[0]) + 1.0)
            brute += (math.exp(-t * u[0] ** 2 - t * v[0] ** 2)
                      * math.exp(t * t) * (math.exp(t * t * gam) - 1.0))
    got = fk.frozen_variance_sum(t, G1, POT, model, r)
    assert got == pytest.approx(brute)


def test_frozen_sum_refuses_small_box():
    with pytest.raises(DomainError):
        fk.frozen_variance_sum(2.0 ** -8, G1, POT, iid_gaussian(1.0), 5)


def test_lower_bound_zero_covariance():
    assert fk.lower_bound_sum(0.25, 0.5, iid_gaussian(0.0), G1) == 0.0


def test_lower_bound_below_ensemble():
    # certified lower bound stays below the exact-route estimate on the
    # same box (iid noise, quadratic-exponent preset shares delta=2)
    t = 0.5
    delta = 2.0
    r = 6
    ens = fk.ensemble_variance(G1, SPEC, PotentialSpec(alpha=delta),
                               iid_gaussian(1.0), r, t, 3000, seed=17)
    low = fk.lower_bound_sum(t, delta, iid_gaussian(1.0), G1)
    assert low <= ens.value + 3 * ens.stderr


def test_lower_bound_negative_covariance_rejected():
    with pytest.raises(DomainError):
        fk.lower_bound_sum(0.25, 0.5, iid_gaussian(-1.0), G1)


def test_lower_bound_decays_for_large_delta():
    # delta = 2 > d/2: the bound must vanish like t^{1.5}
    vals = [fk.lower_bound_sum(2.0 ** -k, 2.0, iid_gaussian(1.0), G1)
            for k in range(6, 11)]
    ratios = [vals[i + 1] / vals[i] for i in range(len(vals) - 1)]
    for rho in ratios:
        assert rho == pytest.approx(2.0 ** -1.5, rel=0.05)


@pytest.mark.parametrize("model", [iid_gaussian(1.0), constant_gaussian(1.0)],
                         ids=["iid", "constant"])
@pytest.mark.parametrize("pot", [PotentialSpec(alpha=0.5),
                                 PotentialSpec(alpha=0.7, kappa=0.8, mu=0.2)],
                         ids=["alpha0.5", "shifted"])
def test_radial_tail_is_a_close_lower_bound(monkeypatch, model, pot):
    # Past the cap, Z^1 adds the integral of the decreasing summand from the
    # first omitted term on: never above the all-terms sum, and close to it.
    t = 2.0 ** -4
    assert fk.radius_for(t, pot.alpha, pot.kappa) > 1000
    every = fk.frozen_variance_sum(t, G1, pot, model)
    monkeypatch.setattr(fk, "_EXACT_TERM_CAP", 1000)
    capped = fk.frozen_variance_sum(t, G1, pot, model)
    assert every * (1.0 - 1e-3) <= capped < every


def test_radial_sum_ignores_the_cap_off_z1(monkeypatch):
    g2 = GraphModel.zd_l1(2)
    t = 2.0 ** -4
    every = fk.lower_bound_sum(t, 1.0, iid_gaussian(1.0), g2)
    monkeypatch.setattr(fk, "_EXACT_TERM_CAP", 10)
    assert fk.lower_bound_sum(t, 1.0, iid_gaussian(1.0), g2) == every


def test_lower_bound_is_the_stay_put_frozen_sum():
    # Criterion 04's smallest t: a box radius of about 1.3e10, summed
    # exactly to the cap and then by the integral tail.
    t = 2.0 ** -12
    model = iid_gaussian(1.0)
    assert fk.radius_for(t, 0.5, 1.0) > 10 ** 10
    assert fk.lower_bound_sum(t, 0.5, model, G1) == math.exp(-2.0 * t) \
        * fk.frozen_variance_sum(t, G1, PotentialSpec(alpha=0.5), model)


def test_riemann_limits():
    _, norm1 = fk.riemann_tail_sum(1e-6, 1.0, 2.0, graph=G1)
    assert norm1 ** 2 == pytest.approx(1.0, rel=0.01)
    _, norm2 = fk.riemann_tail_sum(1e-6, 2.0, 2.0, graph=G1)
    assert norm2 ** 2 == pytest.approx(0.25, rel=0.01)


def test_riemann_z2_alpha_one():
    g2 = GraphModel.zd_l1(2)
    _, norm = fk.riemann_tail_sum(1e-5, 1.0, 1.0, graph=g2)
    # Gamma(2)^2 = 1 after the kappa and coordination normalizations
    assert norm ** 2 == pytest.approx(1.0, rel=0.01)


def test_paired_walker_rejects_short_runs():
    with pytest.raises(DomainError):
        fk.paired_walker_variance(G1, SPEC, POT, iid_gaussian(1.0), 0.5, 1,
                                  2, seed=22)


def test_radius_for_monotone_in_t():
    assert fk.radius_for(2.0 ** -12) > fk.radius_for(2.0 ** -6)
    with pytest.raises(DomainError):
        fk.radius_for(0.0)


def test_killed_trace_needs_the_field_on_the_ball_only():
    # Killed walkers stop at their exit, so a field on ball(2) suffices even
    # for a long horizon.
    verts = G1.ball((0,), 2)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=3)
    est = fk.mc_dirichlet_trace(_trunc(2), xi, 5.0, 2000, seed=2)
    assert math.isfinite(est.mean) and est.mean > 0
    assert math.isfinite(est.stderr) and est.stderr > 0


def test_unkilled_trace_refuses_walks_beyond_the_field():
    verts = G1.ball((0,), 2)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=3)
    with pytest.raises(InputError):
        fk.mc_dirichlet_trace(_trunc(2), xi, 5.0, 2000, seed=2,
                              kill_radius=2)


@pytest.mark.parametrize("field", [[0.3], np.zeros(4), np.zeros((1, 5))])
def test_trace_refuses_a_field_of_another_shape(field):
    # Radius 2 on Z^1 has 5 vertices; a length-1 row would broadcast.
    with pytest.raises(InputError):
        fk.mc_dirichlet_trace(_trunc(2), field, 0.5, 100, seed=2)
    with pytest.raises(InputError):
        fk.exact_dirichlet_trace(_trunc(2), field, 0.5)


def test_trace_refuses_a_negative_kill_radius():
    with pytest.raises(DomainError):
        fk.mc_dirichlet_trace(_trunc(2), np.zeros(5), 0.5, 100, seed=2,
                              kill_radius=-1)


def test_stratified_se_undefined_with_one_path_per_stratum():
    verts = G1.ball((0,), 10)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=4)
    est = fk.mc_dirichlet_trace(_trunc(10), xi, 0.25, 5, seed=5)
    assert math.isnan(est.stderr)


def test_paired_walker_power_decay_agrees_with_ensemble():
    t = 0.5
    model = power_decay_gaussian(beta=1.0)
    ens = fk.ensemble_variance(G1, SPEC, POT, model, 4, t, 3000, seed=15)
    pw = fk.paired_walker_variance(G1, SPEC, POT, model, t, 1200, 4, seed=16)
    lo1, hi1 = ens.ci95()
    lo2, hi2 = pw.ci95()
    assert max(lo1, lo2) <= min(hi1, hi2)


def test_ensemble_variance_rejects_two_draws():
    with pytest.raises(DomainError):
        fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(1.0), 4, 0.5, 2,
                             seed=23)


def test_power_decay_pair_terms_use_expm1():
    # t = 2^-17: t^2 gamma is about 6e-11, where exp(x) - 1 keeps only five
    # significant digits.  Steep potentials keep the certified balls small.
    t = 2.0 ** -17
    model = power_decay_gaussian(beta=0.5)
    t2 = t * t

    def pair_sum(verts, weight):
        return sum(weight(u) * weight(v)
                   * math.expm1(t2 * (abs(u[0] - v[0]) + 1.0) ** -0.5)
                   for u in verts for v in verts)

    pot = PotentialSpec(alpha=2.0, kappa=1000.0)
    verts = G1.ball((0,), fk.radius_for(t, 2.0, 1000.0))
    frozen = math.exp(t2) * pair_sum(
        verts, lambda u: math.exp(-t * (1000.0 * abs(u[0])) ** 2))
    got = fk.frozen_variance_sum(t, G1, pot, model)
    assert got == pytest.approx(frozen, rel=1e-12, abs=0.0)

    delta = 8.0
    verts = G1.ball((0,), fk.radius_for(t, delta, 1.0))
    lower = math.exp(-2.0 * t + t2) * pair_sum(
        verts, lambda u: math.exp(-t * abs(u[0]) ** delta))
    assert fk.lower_bound_sum(t, delta, model, G1) == \
        pytest.approx(lower, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model", [iid_gaussian(1.0), constant_gaussian(1.0),
                                   power_decay_gaussian(beta=1.0)],
                         ids=["iid", "constant", "power_decay"])
@pytest.mark.parametrize("pot", [
    PotentialSpec(alpha=2.0, custom={(0,): 0.0})], ids=["custom"])
def test_frozen_sum_refuses_non_radial_potential(model, pot):
    # Every route assumes V = (kappa d)^alpha - mu.
    with pytest.raises(DomainError, match="radial potential"):
        fk.frozen_variance_sum(0.25, G1, pot, model)


def _pairwise_power_decay(graph, pot, beta, t, r):
    """The double sum over the radius-r ball, pair by pair."""
    norm = (lambda x: sum(map(abs, x))) if graph.kind == "zd_l1" \
        else (lambda x: max(map(abs, x)))
    verts = [v for v in itertools.product(range(-r, r + 1), repeat=graph.d)
             if norm(v) <= r]
    w = [math.exp(-t * ((pot.kappa * norm(v)) ** pot.alpha - pot.mu))
         for v in verts]
    return math.fsum(
        wu * wv * math.expm1(t * t * (norm([a - b for a, b in zip(u, v)])
                                      + 1.0) ** -beta)
        for u, wu in zip(verts, w) for v, wv in zip(verts, w))


@pytest.mark.parametrize("r", [0, 1, 5, 12])
@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("graph", [G1, GraphModel.zd_l1(2),
                                   GraphModel.zd_linf(2)],
                         ids=["z1", "z2_l1", "z2_linf"])
def test_power_decay_convolution_matches_pairwise(graph, beta, r):
    t = 0.25
    pot = PotentialSpec(alpha=1.5, kappa=0.5, mu=0.3)
    got = fk._power_decay_pair_sum(t, graph, pot, power_decay_gaussian(beta),
                                   r)
    want = _pairwise_power_decay(graph, pot, beta, t, r)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_power_decay_explicit_path_graph_takes_the_pairwise_route():
    # A path graph rooted in its middle is Z^1 out to the certified radius,
    # so the explicit graph's pairwise sum is a second route to the lattice
    # convolution at a certified radius.
    t = 2.0 ** -6
    r = fk.radius_for(t)
    path = GraphModel.explicit(2 * r + 1, [(i, i + 1) for i in range(2 * r)],
                               root=r)
    model = power_decay_gaussian(beta=0.5)
    assert fk.frozen_variance_sum(t, path, POT, model) == pytest.approx(
        fk.frozen_variance_sum(t, G1, POT, model), rel=1e-12, abs=0.0)
    assert fk.lower_bound_sum(t, 2.0, model, path) == pytest.approx(
        fk.lower_bound_sum(t, 2.0, model, G1), rel=1e-12, abs=0.0)


def test_power_decay_grid_refused_before_allocation():
    # Z^3 at t = 2^-6: r = 84, s = next_fast_len(337) = 360, and 360^3 is
    # about 47M points, above the array budget.
    t = 2.0 ** -6
    assert fk.radius_for(t) == 84
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"360\^3 = 46656000 .* 84"):
            fk.frozen_variance_sum(t, GraphModel.zd_l1(3), POT,
                                   power_decay_gaussian(beta=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_power_decay_lower_bound_is_shifted_frozen_sum():
    # The power-decay sweep (Z^1, alpha = 2, beta = 0.5, t = 2^-6..2^-17)
    # has kappa = 1 and mu = 0, where both sums share the weights and the
    # radius: the lower column is e^{-2t} times the frozen one.
    model = power_decay_gaussian(beta=0.5)
    for k in range(6, 18):
        t = 2.0 ** -k
        assert fk.lower_bound_sum(t, 2.0, model, G1) == pytest.approx(
            math.exp(-2.0 * t) * fk.frozen_variance_sum(t, G1, POT, model),
            rel=1e-15, abs=0.0)


# -- member fields -----------------------------------------------------------------


def _single_draw(model, graph, vertices, rng):
    """One field draw as sample_field made it with its own sampler."""
    n = len(vertices)
    if model.kind == noise.IID:
        return math.sqrt(model.gamma0) * rng.standard_normal(n)
    if model.kind == noise.CONSTANT:
        return np.full(n, math.sqrt(model.gamma0) * rng.standard_normal())
    chol = noise._psd_factor(noise.covariance_matrix(model, graph, vertices))
    return chol @ rng.standard_normal(n)


def _member_fields_reference(trunc, graph, model, seed, m):
    """member_fields written out: row i of one (m, n) standard-normal draw
    of default_rng(seed) on the ball (one normal per row for constant
    noise), correlated row by row as a single draw is, and read back on the
    truncation's vertices."""
    ball = graph.ball(graph.root, trunc.radius)
    n = len(ball)
    rng = np.random.default_rng(seed)
    if model.kind == noise.IID:
        rows = math.sqrt(model.gamma0) * rng.standard_normal((m, n))
    elif model.kind == noise.CONSTANT:
        z = rng.standard_normal((m, 1))
        rows = np.repeat(math.sqrt(model.gamma0) * z, n, axis=1)
    else:
        chol = noise._psd_factor(noise.covariance_matrix(model, graph, ball))
        rows = [chol @ z for z in rng.standard_normal((m, n))]
    return np.array(rows)[:, [ball.index(v) for v in trunc.region.vertices]]


def _field_cases():
    # The explicit graph's ball keeps BFS order, not sorted order.
    explicit = Truncation.build(
        G_IRREGULAR, symmetric_walk(G_IRREGULAR, 1.0),
        PotentialSpec(custom={v: 0.1 * v for v in range(6)}), 3)
    assert explicit.region.vertices == (0, 1, 2, 4, 3, 5)
    g2 = GraphModel.zd_l1(2)
    return [(G1, Truncation.build(G1, SPEC, POT, 5)),
            (g2, Truncation.build(g2, symmetric_walk(g2, 1.0), POT, 3)),
            (G_IRREGULAR, explicit)]


_FIELD_MODELS = [iid_gaussian(1.7), constant_gaussian(0.6),
                 power_decay_gaussian(1.0, decay_scale=0.8)]


@pytest.mark.parametrize("case", [0, 1, 2])
@pytest.mark.parametrize("model", _FIELD_MODELS, ids=lambda m: m.kind)
def test_member_fields_equal_single_draws(case, model):
    """Members are the rows of a single draw of one generator per ensemble,
    and the public single draw keeps its bits."""
    graph, trunc = _field_cases()[case]
    got = fk.member_fields(trunc, graph, model, 49, 9)
    want = _member_fields_reference(trunc, graph, model, 49, 9)
    assert got.shape == (9, len(trunc.region.vertices))
    assert got.tobytes() == want.tobytes()
    ball = graph.ball(graph.root, trunc.radius)
    ss = np.random.SeedSequence(50)
    one = sample_field(model, graph, ball, rng=np.random.default_rng(ss))
    ref = _single_draw(model, graph, ball, np.random.default_rng(ss))
    assert one.tobytes() == ref.tobytes()


@pytest.mark.parametrize("model", _FIELD_MODELS, ids=lambda m: m.kind)
def test_member_fields_are_prefixes_of_larger_ensembles(model):
    for graph, trunc in _field_cases():
        many = fk.member_fields(trunc, graph, model, 53, 200)
        for m in (1, 2, 5, 12):
            few = fk.member_fields(trunc, graph, model, 53, m)
            assert few.tobytes() == many[:m].tobytes(), m


def test_member_fields_use_one_generator(monkeypatch):
    made, spawned, drawn = [], [], []
    default_rng, field_rows = np.random.default_rng, fk._field_rows

    class CountingSeedSequence(np.random.SeedSequence):
        def spawn(self, n):
            spawned.append(n)
            return super().spawn(n)

    def counting_rng(*a):
        made.append(a)
        return default_rng(*a)

    def recording_rows(model, graph, vertices, m, rng):
        drawn.append((m, type(rng)))
        return field_rows(model, graph, vertices, m, rng)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    monkeypatch.setattr(fk, "_field_rows", recording_rows)
    for model in _FIELD_MODELS:
        for graph, trunc in _field_cases():
            made.clear()
            drawn.clear()
            fk.member_fields(trunc, graph, model, 54, 13)
            assert made == [(54,)]
            assert drawn == [(13, np.random.Generator)]
    assert spawned == []


@pytest.mark.parametrize("model", _FIELD_MODELS, ids=lambda m: m.kind)
def test_member_fields_do_not_depend_on_m(model):
    for graph, trunc in _field_cases():
        few = fk.member_fields(trunc, graph, model, 51, 5)
        many = fk.member_fields(trunc, graph, model, 51, 12)
        assert few.tobytes() == many[:5].tobytes()


def test_member_fields_factor_the_covariance_once(monkeypatch):
    calls, real = [], noise.covariance_matrix
    monkeypatch.setattr(noise, "covariance_matrix",
                        lambda *a: calls.append(a) or real(*a))
    for graph, trunc in _field_cases():
        calls.clear()
        fk.member_fields(trunc, graph, power_decay_gaussian(1.0), 52, 11)
        assert len(calls) == 1
