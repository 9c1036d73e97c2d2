import itertools
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fksim.errors import DomainError, InputError
from fksim.lattice import GraphModel
from fksim.noise import (constant_gaussian, iid_gaussian,
                         power_decay_gaussian, sample_field)
from fksim.operators import PotentialSpec, Truncation, expm_neg
from fksim.walker import (MarkovSpec, sample_path, sample_walks,
                          symmetric_walk)
from fksim import feynman_kac as fk, noise
from gasket import sierpinski_gasket

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


def test_ensemble_variance_degenerate_noise():
    est, = fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(0.0), 4, (0.5,),
                                50, seed=11)
    assert est.value == 0.0


@pytest.mark.parametrize("m", [7, 50])
def test_ensemble_variance_identical_members_give_zero(m):
    # Zero noise makes every member the same matrix.  The mean of m equal
    # traces need not round back to the trace, so an unshifted variance
    # reads about 1e-31 in many of these cases.
    ts = (1.0, 0.5, 0.25, 0.125)
    for n in range(1, 9):
        ests = fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(0.0), n, ts,
                                    m, seed=11)
        for t, est in zip(ts, ests, strict=True):
            assert (est.value, est.stderr) == (0.0, 0.0), (n, t)


def _traces_by_expm(graph, spec, pot, model, n, t, m, seed):
    trunc = Truncation.build(graph, spec, pot, n)
    return trunc, np.array([
        np.trace(expm_neg(trunc.matrices(f[None])[0], t))
        for f in noise.sample_fields(model, graph, trunc.vertices, m, seed)])


# 0-1-2-0 triangle with a tail 2-3-4-5 and a chord 1-4: uniform jumps on
# vertices of degree 1 to 3 make the truncation non-symmetric.
G_IRREGULAR = GraphModel.explicit(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                      (4, 5), (1, 4)])


@pytest.mark.parametrize("graph, n, symmetric", [
    (GraphModel.zd_l1(2), 3, True), (G_IRREGULAR, 2, False)])
def test_ensemble_variance_matches_expm_traces(graph, n, symmetric):
    spec = symmetric_walk(graph, 1.0)
    pot = PotentialSpec(alpha=1.0, kappa=0.2)
    t, m = 0.5, 40
    trunc, traces = _traces_by_expm(graph, spec, pot, iid_gaussian(1.0), n,
                                    t, m, seed=47)
    assert trunc.symmetric == symmetric
    eigs = trunc.eigenvalues(noise.sample_fields(iid_gaussian(1.0), graph,
                                                 trunc.vertices, m, 47))
    assert np.allclose(np.exp(-t * eigs).sum(axis=1), traces, rtol=1e-12,
                       atol=0.0)
    est, = fk.ensemble_variance(graph, spec, pot, iid_gaussian(1.0), n, (t,),
                                m, seed=47)
    assert est.value == pytest.approx(np.var(traces, ddof=1), rel=1e-12)


@pytest.mark.parametrize("graph, n", [(G1, 5), (GraphModel.zd_l1(2), 2),
                                      (G_IRREGULAR, 2)],
                         ids=["z1", "z2", "irregular"])
def test_ensemble_variance_over_a_grid_is_one_t_calls(graph, n):
    # One truncation and one draw serve every t.  On the symmetric route
    # each t's estimate has the bits of a one-t call with the same seed; the
    # general route squares e^{-tM} where the grid doubles t, so it agrees
    # to roundoff.
    spec, pot, model = symmetric_walk(graph, 1.0), PotentialSpec(), \
        iid_gaussian(1.0)
    symmetric = Truncation.build(graph, spec, pot, n).symmetric
    assert symmetric == (graph is not G_IRREGULAR)
    ts = (1.0, 0.5, 0.25, 0.125)
    got = fk.ensemble_variance(graph, spec, pot, model, n, ts, 30, seed=49)
    assert len(got) == len(ts)
    for t, est in zip(ts, got):
        want, = fk.ensemble_variance(graph, spec, pot, model, n, (t,), 30,
                                     seed=49)
        if symmetric:
            assert est == want, t
        else:
            assert est.value == pytest.approx(want.value, rel=1e-12), t
            assert est.stderr == pytest.approx(want.stderr, rel=1e-9), t


def test_ensemble_variance_single_vertex_lognormal():
    g = GraphModel.explicit(1, [])
    spec = symmetric_walk(g, 1.0)
    pot = PotentialSpec()
    t = 0.7
    est, = fk.ensemble_variance(g, spec, pot, iid_gaussian(1.0), 0, (t,),
                                100000, seed=12)
    exact = math.exp(t * t) * (math.exp(t * t) - 1.0)
    assert abs(est.value - exact) < 3 * est.stderr


def test_ensemble_variance_repeats_for_a_seed():
    a = fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(1.0), 4, (0.5, 1.0),
                             60, seed=13)
    b = fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(1.0), 4, (0.5, 1.0),
                             60, seed=13)
    assert a == b and a[0].value > 0.0


def test_paired_walker_benchmark_estimate_is_pinned():
    # perfbench's mc_paired.cfg at seed 41: the walk stream, the local-time
    # rows and the pair weights all feed these two floats.
    from fksim.cli import parse_config
    cfg = parse_config(Path(__file__).resolve().parents[1] / "perfbench"
                       / "configs" / "mc_paired.cfg")
    assert (cfg["graph"], cfg["d"], cfg["noise"]) == ("zd_l1", "1", "iid")
    g = GraphModel.zd_l1(1)
    est = fk.paired_walker_variance(
        g, symmetric_walk(g, float(cfg["q"])),
        PotentialSpec(alpha=float(cfg["alpha"])),
        iid_gaussian(float(cfg["gamma0"])), float(cfg["t"]),
        int(cfg["n_rep"]), int(cfg["box_radius"]), seed=41)
    assert (est.value, est.stderr) == (0.26599660347883064,
                                       0.004003435742837548)


@pytest.mark.parametrize("model, pinned", [
    (power_decay_gaussian(0.5), (0.6396107839554696, 0.023598834321390573)),
    (constant_gaussian(0.7), (0.5531790519091987, 0.019521105747642768))],
    ids=["power_decay", "constant"])
def test_paired_walker_correlated_estimate_is_pinned(model, pinned):
    # The box covariance matrix of each correlated kind feeds every pair
    # weight, so a change to its prefactor or its kind dispatch shows here.
    est = fk.paired_walker_variance(G1, SPEC, POT, model, 0.5, 300, 6,
                                    seed=41)
    assert (est.value, est.stderr) == pinned


def _count_walkers(monkeypatch):
    """Route fk.sample_walks through a wrapper; the returned list collects
    the number of starts of each call."""
    walked = []

    def counted(trunc, starts, *args, **kwargs):
        walked.append(len(starts))
        return sample_walks(trunc, starts, *args, **kwargs)
    monkeypatch.setattr(fk, "sample_walks", counted)
    return walked


def test_paired_walker_single_vertex_lognormal(monkeypatch):
    # The isolated root has rate 0: every walker sits out and none is walked.
    walked = _count_walkers(monkeypatch)
    g = GraphModel.explicit(1, [])
    spec = symmetric_walk(g, 1.0)
    pot = PotentialSpec()
    t = 0.7
    est = fk.paired_walker_variance(g, spec, pot, iid_gaussian(1.0), t,
                                    10, 0, seed=14)
    assert sum(walked) == 0
    exact = math.exp(t * t) * (math.exp(t * t) - 1.0)
    # deterministic here: single vertex paths are degenerate
    assert est.value == pytest.approx(exact)
    assert est.stderr == pytest.approx(0.0)


@pytest.mark.parametrize("model", [iid_gaussian(1.0), constant_gaussian(1.0)])
def test_variance_estimators_agree(model):
    t = 0.5
    ens, = fk.ensemble_variance(G1, SPEC, POT, model, 6, (t,), 3000, seed=15)
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
    got = fk.frozen_variance_sum(t, G1, POT, model)
    assert got == pytest.approx(brute)


@pytest.mark.parametrize("graph, r", [
    (G1, 200), (GraphModel.zd_linf(2), 20), (G_IRREGULAR, 3)],
    ids=["z1", "z2_linf", "explicit"])
def test_exact_route_and_radial_sums_share_v(graph, r):
    # One implementation of V: the truncation's potential vector has the
    # bits of pot.radial on its root distances, and on Z^1 those of the
    # distance grid that _radial_weight_sum reads.  A per-vertex scalar pow
    # is one ulp off numpy's power for some of these distances.
    pot = PotentialSpec(alpha=1.5, kappa=0.8, mu=0.3)
    trunc = Truncation.build(graph, symmetric_walk(graph, 1.0), pot, r)
    assert trunc.potential.tobytes() == pot.radial(trunc.dist).tobytes()
    if graph is G1:
        grid = pot.radial(np.arange(r + 1.0))
        assert trunc.potential.tobytes() == grid[trunc.dist].tobytes()


def test_lower_bound_zero_covariance():
    assert fk.lower_bound_sum(0.25, 0.5, iid_gaussian(0.0), G1) == 0.0


def test_lower_bound_below_ensemble():
    # certified lower bound stays below the exact-route estimate on the
    # same box (iid noise, quadratic-exponent preset shares delta=2)
    t = 0.5
    delta = 2.0
    r = 6
    ens, = fk.ensemble_variance(G1, SPEC, PotentialSpec(alpha=delta),
                                iid_gaussian(1.0), r, (t,), 3000, seed=17)
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


@pytest.mark.parametrize("t, named", [
    (-0.5, "got -0.5"), (math.nan, "t = nan is not finite"),
    (math.inf, "t = inf is not finite")])
def test_paired_walker_refuses_a_bad_t_by_name(monkeypatch, t, named):
    # Refused before the box is built, the generator seeded or a walk drawn.
    def started(*args, **kwargs):
        raise AssertionError("work began before the t check")
    for name in ("Truncation", "sample_walks"):
        monkeypatch.setattr(fk, name, started)
    monkeypatch.setattr(fk.np.random, "default_rng", started)
    with pytest.raises(DomainError, match=re.escape(named)):
        fk.paired_walker_variance(G1, SPEC, POT, iid_gaussian(1.0), t, 10, 2,
                                  seed=22)


@pytest.mark.parametrize("t", [0.0, -0.0])
def test_paired_walker_at_t_zero_walks_no_walker(monkeypatch, t):
    # Every walker sits out with probability e^{-q 0} = 1, so no walker is
    # walked, every <L,L~> is 0 and each pair term is 0.
    walked = _count_walkers(monkeypatch)
    est = fk.paired_walker_variance(G1, SPEC, POT, iid_gaussian(1.0), t, 50,
                                    3, seed=23)
    assert (est.value, est.stderr, est.n_samples) == (0.0, 0.0, 50)
    assert sum(walked) == 0


def test_paired_walker_refuses_a_replicate_above_the_array_budget(
        monkeypatch):
    # Z^2 l1, box radius 25: m = 1301 starts, and one replicate's share of a
    # walk block, 3 m^2 = 5 077 803 elements (2 m^2 for its walkers'
    # local-time rows, m^2 for L Gamma of the walkers that return), passes
    # the 4.1M budget.  Refused before the covariance is built or a walk is
    # sampled.
    def started(*args, **kwargs):
        raise AssertionError("work began before the budget check")
    monkeypatch.setattr(fk, "covariance_matrix", started)
    monkeypatch.setattr(fk, "sample_walks", started)
    g2 = GraphModel.zd_l1(2)
    with pytest.raises(DomainError, match=r"m = 1301 vertices .* budget of "
                                          r"4100000"):
        fk.paired_walker_variance(g2, symmetric_walk(g2, 1.0), POT,
                                  iid_gaussian(1.0), 0.5, 10, 25, seed=0)


def test_paired_walker_benchmark_peak_stays_bounded():
    # mc_paired.cfg's parameters: 2500 replicates of 2 x 13 walks in one walk
    # block.  The traced peak is 5.7 MiB: 5.65 inside sample_walks and 5.68
    # in the pair algebra, which holds the 2.5 MiB of walked rows.  The dense
    # pair algebra of every replicate at once took 21.6 MiB, which the bound
    # refuses.
    tracemalloc.start()
    try:
        fk.paired_walker_variance(G1, SPEC, POT, iid_gaussian(1.0), 0.5, 2500,
                                  6, seed=41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


@pytest.mark.parametrize("model", [iid_gaussian(1.0),
                                   power_decay_gaussian(1.0)],
                         ids=["iid", "power_decay"])
def test_paired_walker_peak_stays_within_the_budget(model):
    # Z^2 l1, box radius 20 (m = 841) at t = 2: 6 walk blocks of one
    # replicate, each with about 1450 walked rows and 4700 returned pairs.
    # The pair rows took a full budget on top of the walked rows and L Gamma,
    # a traced peak of 55.1 MiB (iid) and 53.8 MiB (power decay).  Sized
    # from what the block leaves of the budget, they peak at 41.3 and
    # 40.0 MiB: only Gamma and expm1(t^2 Gamma), m^2 entries each, come on
    # top of the budget.
    g2 = GraphModel.zd_l1(2)
    m = 841
    tracemalloc.start()
    try:
        fk.paired_walker_variance(g2, symmetric_walk(g2, 1.0), POT, model,
                                  2.0, 6, 20, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (fk._MAX_ELEMS + 2 * m * m)


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


@pytest.mark.parametrize("field", [[0.3], np.zeros(4), np.zeros((1, 5))])
def test_trace_refuses_a_field_of_another_shape(field):
    # Radius 2 on Z^1 has 5 vertices; a length-1 row would broadcast.
    with pytest.raises(InputError):
        fk.mc_dirichlet_trace(_trunc(2), field, 0.5, 100, seed=2)
    with pytest.raises(InputError):
        _trunc(2).traces([field], [0.5])


def test_stratified_se_undefined_with_one_path_per_stratum():
    verts = G1.ball((0,), 10)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=4)
    est = fk.mc_dirichlet_trace(_trunc(10), xi, 0.25, 5, seed=5)
    assert math.isnan(est.stderr)


# -- the sit-outs drawn in bulk against the plain per-walker estimator -------


def _plain_killed_trace(trunc, field, t, n_paths, seed):
    """The killed trace with every path drawn on its own: each of ``per``
    paths per start sits out when its uniform is below e^{-q(x) t} (weight
    e^{-t c(x)}) and is walked, conditioned on a first jump, otherwise,
    which is the plain walk's law.  One row of path weights per start, its
    mean summed and its SE taken from the rows' sample variances (the
    estimator before the sit-outs were drawn in bulk)."""
    m = len(trunc.vertices)
    per = max(1, math.ceil(n_paths / m))
    ids = np.repeat(np.arange(m), per)
    rng = np.random.default_rng(seed)
    cost = trunc.potential + field
    w = np.exp(-t * cost[ids])
    moves = rng.random(ids.size) >= np.exp(-trunc.rate[ids] * t)
    walks = sample_walks(trunc, ids[moves], t, rng, cost=cost)
    w[moves] = np.where(walks.endpoint == ids[moves],
                        np.exp(-walks.integral), 0.0)
    w = w.reshape(m, per)
    return (float(w.mean(axis=1).sum()),
            math.sqrt(float((w.var(axis=1, ddof=1) / per).sum())))


def _site_rate_spec(graph):
    """Rates 0.5 + 0.25 v and a kernel tilted toward larger targets."""
    def kernel(v):
        targets = graph.neighbors(v)
        w = np.array([u + 1.0 for u in targets])
        return targets, list(np.cumsum(w / w.sum()))
    return MarkovSpec(rate=lambda v: 0.5 + 0.25 * v, kernel=kernel)


# 0-1-2-0 triangle with a tail 2-3-4-5 and a chord 1-4
G_EXPLICIT = GraphModel.explicit(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                     (4, 5), (1, 4)])
_LAW_CASES = {
    "z1-short": (G1, SPEC, 6, 0.25),
    "z1-long": (G1, SPEC, 4, 1.0),
    "z2": (GraphModel.zd_l1(2), symmetric_walk(GraphModel.zd_l1(2), 1.0), 3,
           0.5),
    "explicit-site-rates": (G_EXPLICIT, _site_rate_spec(G_EXPLICIT), 3, 0.8),
}


@pytest.mark.parametrize("case", list(_LAW_CASES))
def test_bulk_sit_outs_keep_the_law_of_the_killed_trace(case):
    # 40 runs of 20 000 paths per route: seeds 1000..1039 for
    # mc_dirichlet_trace (sit-outs drawn in bulk) and 2000..2039 for the
    # plain estimator, on one field (seed 3).  In SE units of the mean of 40
    # runs, within 4: the bulk mean from the exact trace, the bulk mean from
    # the plain mean, and the two routes' mean SEs (the SE of a mean SE from
    # the runs' spread).  The bulk runs' sum of z^2 lies between the 1e-4
    # and 1 - 1e-4 quantiles of chi^2(40), so their SEs are honest.
    from scipy import stats
    graph, spec, radius, t = _LAW_CASES[case]
    trunc = Truncation.build(graph, spec, POT, radius)
    xi = sample_field(iid_gaussian(1.0), graph, trunc.vertices, seed=3)
    exact = trunc.traces([xi], [t])[0, 0]
    runs = 40
    bulk = np.array([[e.mean, e.stderr] for e in (
        fk.mc_dirichlet_trace(trunc, xi, t, 20_000, 1000 + s)
        for s in range(runs))])
    plain = np.array([_plain_killed_trace(trunc, xi, t, 20_000, 2000 + s)
                      for s in range(runs)])
    se_bulk = math.sqrt((bulk[:, 1] ** 2).mean() / runs)
    se_plain = math.sqrt((plain[:, 1] ** 2).mean() / runs)
    assert abs(bulk[:, 0].mean() - exact) <= 4 * se_bulk
    assert abs(bulk[:, 0].mean() - plain[:, 0].mean()) \
        <= 4 * math.hypot(se_bulk, se_plain)
    se_of_se = math.sqrt((bulk[:, 1].var(ddof=1)
                          + plain[:, 1].var(ddof=1)) / runs)
    assert abs(bulk[:, 1].mean() - plain[:, 1].mean()) <= 4 * se_of_se
    chi2 = float((((bulk[:, 0] - exact) / bulk[:, 1]) ** 2).sum())
    assert stats.chi2.ppf(1e-4, runs) < chi2 < stats.chi2.ppf(1 - 1e-4, runs)


def _stopped_at_five():
    """G_EXPLICIT's walk with rate 0 at vertex 5, which has a neighbour."""
    base = _site_rate_spec(G_EXPLICIT)
    spec = MarkovSpec(rate=lambda v: 0.0 if v == 5 else base.rate(v),
                      kernel=base.kernel)
    return G_EXPLICIT, spec


def _isolated_root():
    g = GraphModel.explicit(1, [])
    return g, symmetric_walk(g, 1.0)


@pytest.mark.parametrize("build", [_isolated_root, _stopped_at_five])
def test_rate_zero_starts_sit_out_without_a_conditioned_draw(build):
    # A start of rate 0 sits out with probability 1, so every one of its
    # paths is a sit-out (e^{-t c} each) and none reaches the conditioned
    # draw, which would divide by the rate: no warning is raised.  On the
    # isolated root every weight is e^{-t c(0)}, so the SE is 0; with
    # moving starts beside it, the estimate meets the exact trace.
    graph, spec = build()
    trunc = Truncation.build(graph, spec, POT, 3)
    xi = np.linspace(-0.5, 0.5, len(trunc.vertices))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        killed = fk._trace_samples(trunc, xi, 1.3, 6000, seed=12)
        est = fk.mc_dirichlet_trace(trunc, xi, 1.3, 6000, seed=12)
    zero = np.flatnonzero(trunc.rate == 0.0)
    assert zero.size == 1
    assert killed.sits[zero[0]] == killed.per
    assert not np.any(killed.owner == zero[0])
    exact = trunc.traces([xi], [1.3])[0, 0]
    if len(trunc.vertices) == 1:
        assert est.mean == math.exp(-1.3 * (trunc.potential[0] + xi[0]))
        assert est.stderr == 0.0
    else:
        assert abs(est.mean - exact) <= 4 * est.stderr


def test_sit_outs_follow_the_binomial_law_per_start():
    # 200 runs on G_EXPLICIT (rates 0.5 to 1.75) at t = 0.8: each start's
    # total of sit-outs over the runs is Binomial(200 per, e^{-q(x) t}),
    # within 5 SE.
    trunc = Truncation.build(G_EXPLICIT, _site_rate_spec(G_EXPLICIT), POT, 3)
    xi = np.zeros(len(trunc.vertices))
    total = sum(fk._trace_samples(trunc, xi, 0.8, 600, seed=s).sits
                for s in range(300, 500))
    n = 200 * 100
    p = np.exp(-trunc.rate * 0.8)
    assert np.all(np.abs(total - n * p) <= 5 * np.sqrt(n * p * (1 - p)))


def _dense_pair_totals(loc, back, gamma, potential):
    """Per-replicate pair sums from dense local-time rows ``loc`` of shape
    (replicates, 2, m, m), one row per family and start, and the mask
    ``back`` of walkers that returned: L Gamma, the weights
    e^{<L,L>/2 - <L,V>} of the returned rows (0 for the rest), the batched
    pair matrices L_0 Gamma L_1^T, their expm1, and one einsum."""
    lg = loc @ gamma
    expo = 0.5 * np.einsum("rfij,rfij->rfi", lg, loc) - loc @ potential
    u = np.exp(expo, out=np.zeros(back.shape), where=back)
    ab = lg[:, 0] @ loc[:, 1].transpose(0, 2, 1)
    return np.einsum("ra,rab,rb->r", u[:, 0], np.expm1(ab), u[:, 1])


def _sample_path_paired_variance(graph, spec, pot, model, t, n_rep,
                                 box_radius, seed):
    """The paired-walker variance with every walker a plain ``sample_path``
    walk: per replicate and family one path from each box vertex, which
    returns when it ends at its start and its local times hold no vertex
    outside the box.  Returns the mean of the replicates' pair sums and its
    SE."""
    trunc = Truncation.build(graph, spec, pot, box_radius)
    verts = trunc.vertices
    m = len(verts)
    col = {v: i for i, v in enumerate(verts)}
    rng = np.random.default_rng(seed)
    loc = np.zeros((n_rep, 2, m, m))
    back = np.zeros((n_rep, 2, m), dtype=bool)
    for r, f, a in itertools.product(range(n_rep), range(2), range(m)):
        p = sample_path(graph, spec, verts[a], t, rng)
        if p.endpoint == verts[a] and p.local_time.keys() <= col.keys():
            back[r, f, a] = True
            for x, lt in p.local_time.items():
                loc[r, f, a, col[x]] = lt
    totals = _dense_pair_totals(
        loc, back, noise.covariance_matrix(model, graph, verts),
        trunc.potential)
    return float(totals.mean()), float(totals.std(ddof=1)) / math.sqrt(n_rep)


@pytest.mark.parametrize("model, seeds", [
    (iid_gaussian(1.0), (70, 80)), (power_decay_gaussian(1.0), (71, 81))],
    ids=["iid", "power_decay"])
def test_paired_walker_agrees_with_plain_sample_path_walkers(model, seeds):
    # Z^1 box of radius 2 (5 vertices) at t = 0.5, 4000 replicates a side:
    # the estimator, whose walkers sit out in bulk and otherwise jump, at
    # the first seed, and the plain walks of sample_path at the second agree
    # within 4 combined SE, and so do their SEs within a fifth of either.
    n_rep = 4000
    est = fk.paired_walker_variance(G1, SPEC, POT, model, 0.5, n_rep, 2,
                                    seed=seeds[0])
    ref, ref_se = _sample_path_paired_variance(G1, SPEC, POT, model, 0.5,
                                               n_rep, 2, seeds[1])
    assert abs(est.value - ref) <= 4 * math.hypot(est.stderr, ref_se)
    assert abs(est.stderr - ref_se) <= 0.2 * min(est.stderr, ref_se)


def _dense_paired_variance(graph, spec, pot, model, t, n_rep, box_radius,
                           seed):
    """The paired-walker variance with the estimator's random stream (per
    walk block one ``random`` fill and one ``sample_walks`` call), each
    walker given its dense local-time row (t at its start for a sitter)
    and every replicate summed by ``_dense_pair_totals``."""
    trunc = Truncation.build(graph, spec, pot, box_radius)
    m = len(trunc.vertices)
    gamma = noise.covariance_matrix(model, graph, trunc.vertices)
    rng = np.random.default_rng(seed)
    block = fk._MAX_ELEMS // (3 * m * m)
    totals = []
    for lo in range(0, n_rep, block):
        r = min(block, n_rep - lo)
        moves = (rng.random((2 * r, m)) >= np.exp(-trunc.rate * t)).ravel()
        walker = np.flatnonzero(moves)
        walks = sample_walks(trunc, walker % m, t, rng)
        loc = np.zeros((2 * r * m, m))
        loc[walker] = walks.local
        idle = np.flatnonzero(~moves)
        loc[idle, idle % m] = t
        back = ~moves
        back[walker] = walks.endpoint == walker % m
        totals.append(_dense_pair_totals(loc.reshape(r, 2, m, m),
                                         back.reshape(r, 2, m), gamma,
                                         trunc.potential))
    totals = np.concatenate(totals)
    return float(totals.mean()), float(totals.std(ddof=1)) / math.sqrt(n_rep)


_Z2 = GraphModel.zd_l1(2)
_DENSE_CASES = {
    **{f"z1-{kind}-t{t}": (G1, SPEC, model, t, 300, 6)
       for kind, model in (("iid", iid_gaussian(1.0)),
                           ("constant", constant_gaussian(0.7)),
                           ("power", power_decay_gaussian(0.5)))
       for t in (0.125, 0.5, 2.0)},
    "z2-iid": (_Z2, symmetric_walk(_Z2, 1.0), iid_gaussian(1.0), 0.5, 200, 4),
    "z2-power": (_Z2, symmetric_walk(_Z2, 1.0), power_decay_gaussian(1.0),
                 0.5, 200, 4),
    # m = 313 starts: walk blocks of 13 replicates, so three blocks.
    "z2-power-blocks": (_Z2, symmetric_walk(_Z2, 1.0),
                        power_decay_gaussian(1.0), 0.5, 27, 12),
    # m = 421 starts at t = 2: 6668 returned pairs in the first walk block of
    # 7 replicates, in 6 chunks of the 1236 whose rows fit what the block's
    # arrays leave of the budget.
    "z2-iid-pair-chunks": (_Z2, symmetric_walk(_Z2, 1.0), iid_gaussian(1.0),
                           2.0, 10, 14),
    "explicit-site-rates": (G_EXPLICIT, _site_rate_spec(G_EXPLICIT),
                            power_decay_gaussian(1.0), 0.8, 300, 3),
}


@pytest.mark.parametrize("case", list(_DENSE_CASES))
def test_paired_walker_matches_dense_pair_algebra(case):
    # The estimator's stream replayed through the dense pair algebra: the
    # sitters in closed form, the returned walkers' ragged pair list and the
    # walkers that do not return (left out) give the same value and SE.
    graph, spec, model, t, n_rep, box = _DENSE_CASES[case]
    est = fk.paired_walker_variance(graph, spec, POT, model, t, n_rep, box,
                                    seed=41)
    value, se = _dense_paired_variance(graph, spec, POT, model, t, n_rep,
                                       box, seed=41)
    assert est.value == pytest.approx(value, rel=1e-13, abs=0.0)
    assert est.stderr == pytest.approx(se, rel=1e-13, abs=0.0)


def test_paired_walker_power_decay_agrees_with_ensemble():
    t = 0.5
    model = power_decay_gaussian(beta=1.0)
    ens, = fk.ensemble_variance(G1, SPEC, POT, model, 4, (t,), 3000, seed=15)
    pw = fk.paired_walker_variance(G1, SPEC, POT, model, t, 1200, 4, seed=16)
    lo1, hi1 = ens.ci95()
    lo2, hi2 = pw.ci95()
    assert max(lo1, lo2) <= min(hi1, hi2)


def test_ensemble_variance_rejects_two_draws():
    with pytest.raises(DomainError):
        fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(1.0), 4, (0.5,), 2,
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
    # The convolution sums the kernel expm1(t^2 gamma) / expm1(t^2 gamma0).
    t = 0.25
    pot = PotentialSpec(alpha=1.5, kappa=0.5, mu=0.3)
    got = fk._power_decay_pair_sum(t, graph, pot, power_decay_gaussian(beta),
                                   r) * math.expm1(t * t)
    want = _pairwise_power_decay(graph, pot, beta, t, r)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model", [iid_gaussian(1.0), constant_gaussian(0.7),
                                   power_decay_gaussian(beta=0.5)],
                         ids=["iid", "constant", "power_decay"])
def test_explicit_path_graph_takes_the_pairwise_route(model):
    # A path graph rooted in its middle is Z^1 out to the certified radius,
    # so the explicit graph's routes are second routes to the lattice ones:
    # the radial sums over its ball's shells for independent and constant
    # noise, and the pairwise sum against the convolution for power decay.
    t = 2.0 ** -6
    r = fk.radius_for(t)
    path = GraphModel.explicit(2 * r + 1, [(i, i + 1) for i in range(2 * r)],
                               root=r)
    assert fk.frozen_variance_sum(t, path, POT, model) == pytest.approx(
        fk.frozen_variance_sum(t, G1, POT, model), rel=1e-12, abs=0.0)
    assert fk.lower_bound_sum(t, 2.0, model, path) == pytest.approx(
        fk.lower_bound_sum(t, 2.0, model, G1), rel=1e-12, abs=0.0)


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    assert [fk._next_fast_len(n) for n in range(1, 3000)] == \
        [next_fast_len(n, real=True) for n in range(1, 3000)]


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


def _member_fields_reference(trunc, graph, radius, model, seed, m):
    """sample_fields on the truncation's vertices written out: row i of
    one (m, n) standard-normal draw of default_rng(seed) on the radius
    ball (one normal per row for constant noise), correlated row by row as
    a single draw is, and read back on the truncation's vertices."""
    ball = graph.ball(graph.root, radius)
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
    return np.array(rows)[:, [ball.index(v) for v in trunc.vertices]]


def _field_cases():
    """(graph, radius, truncation of that radius) triples."""
    # The explicit graph's ball keeps BFS order, not sorted order.
    explicit = Truncation.build(
        G_IRREGULAR, symmetric_walk(G_IRREGULAR, 1.0),
        PotentialSpec(alpha=1.0, kappa=0.1), 3)
    assert explicit.vertices == (0, 1, 2, 4, 3, 5)
    g2 = GraphModel.zd_l1(2)
    return [(G1, 5, Truncation.build(G1, SPEC, POT, 5)),
            (g2, 3, Truncation.build(g2, symmetric_walk(g2, 1.0), POT, 3)),
            (G_IRREGULAR, 3, explicit)]


_FIELD_MODELS = [iid_gaussian(1.7), constant_gaussian(0.6),
                 power_decay_gaussian(1.0, gamma0=0.8)]


@pytest.mark.parametrize("case", [0, 1, 2])
@pytest.mark.parametrize("model", _FIELD_MODELS, ids=lambda m: m.kind)
def test_member_fields_equal_single_draws(case, model):
    """Members are the rows of a single draw of one generator per ensemble,
    and the public single draw keeps its bits."""
    graph, radius, trunc = _field_cases()[case]
    got = noise.sample_fields(model, graph, trunc.vertices, 9, 49)
    want = _member_fields_reference(trunc, graph, radius, model, 49, 9)
    assert got.shape == (9, len(trunc.vertices))
    assert got.tobytes() == want.tobytes()
    ball = graph.ball(graph.root, radius)
    ss = np.random.SeedSequence(50)
    one = sample_field(model, graph, ball, np.random.default_rng(ss))
    ref = _single_draw(model, graph, ball, np.random.default_rng(ss))
    assert one.tobytes() == ref.tobytes()


@pytest.mark.parametrize("model", _FIELD_MODELS, ids=lambda m: m.kind)
def test_member_fields_are_prefixes_of_larger_ensembles(model):
    for graph, _, trunc in _field_cases():
        many = noise.sample_fields(model, graph, trunc.vertices, 200, 53)
        for m in (1, 2, 5, 12):
            few = noise.sample_fields(model, graph, trunc.vertices, m, 53)
            assert few.tobytes() == many[:m].tobytes(), m


def test_member_fields_use_one_generator(monkeypatch):
    made, spawned, drawn = [], [], []
    default_rng = np.random.default_rng

    class CountingSeedSequence(np.random.SeedSequence):
        def spawn(self, n):
            spawned.append(n)
            return super().spawn(n)

    class RecordingRng:
        """The generator default_rng made, recording the rows of each
        normal draw and the type of the generator that makes it."""

        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size):
            drawn.append((size[0], type(self.rng)))
            return self.rng.standard_normal(size)

    def counting_rng(*a):
        made.append(a)
        return RecordingRng(default_rng(*a))

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    for model in _FIELD_MODELS:
        for graph, _, trunc in _field_cases():
            made.clear()
            drawn.clear()
            noise.sample_fields(model, graph, trunc.vertices, 13, 54)
            assert made == [(54,)]
            assert drawn == [(13, np.random.Generator)]
    assert spawned == []


@pytest.mark.parametrize("model", _FIELD_MODELS, ids=lambda m: m.kind)
def test_member_fields_do_not_depend_on_m(model):
    for graph, _, trunc in _field_cases():
        few = noise.sample_fields(model, graph, trunc.vertices, 5, 51)
        many = noise.sample_fields(model, graph, trunc.vertices, 12, 51)
        assert few.tobytes() == many[:5].tobytes()


def test_member_fields_factor_the_covariance_once(monkeypatch):
    calls, real = [], noise.covariance_matrix
    monkeypatch.setattr(noise, "covariance_matrix",
                        lambda *a: calls.append(a) or real(*a))
    for graph, _, trunc in _field_cases():
        calls.clear()
        noise.sample_fields(power_decay_gaussian(1.0), graph, trunc.vertices,
                            11, 52)
        assert len(calls) == 1


@pytest.mark.parametrize("model", [iid_gaussian(0.8), constant_gaussian(0.6),
                                   power_decay_gaussian(beta=0.7, gamma0=1.2)],
                         ids=["iid", "constant", "power_decay"])
@pytest.mark.parametrize("graph", [G1, G_IRREGULAR], ids=["z1", "explicit"])
@pytest.mark.parametrize("mu", [0.0, 0.7, -2.5])
def test_frozen_sum_matches_the_pair_loop_with_mu(graph, model, mu):
    # V = (kappa d)^alpha - mu: mu enters every route as one factor e^{2 t mu}.
    t = 0.5
    pot = PotentialSpec(alpha=1.5, kappa=0.8, mu=mu)
    verts = graph.ball(graph.root, fk.radius_for(t, pot.alpha, pot.kappa))
    w = [math.exp(-t * ((pot.kappa * graph.distance(graph.root, u))
                        ** pot.alpha - mu)) for u in verts]
    want = math.exp(t * t * model.gamma0) * math.fsum(
        w[i] * w[j] * math.expm1(t * t * noise.covariance(model, graph, u, v))
        for i, u in enumerate(verts) for j, v in enumerate(verts))
    got = fk.frozen_variance_sum(t, graph, pot, model)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model", [
    iid_gaussian(1500.0), constant_gaussian(1500.0),
    power_decay_gaussian(beta=0.7, gamma0=1500.0)],
    ids=["iid", "constant", "power_decay"])
@pytest.mark.parametrize("graph", [G1, G_IRREGULAR], ids=["z1", "explicit"])
def test_frozen_sum_past_an_overflowing_noise_factor(graph, model):
    # At t = 1/2, e^{t^2 gamma0} (e^{t^2 gamma0} - 1) = e^750 passes the
    # largest float, and mu = -46 brings every sum back below it: each route
    # forms the sum in logs, so none raises.  The pair loop adds the
    # exponents in logs too.
    t, mu = 0.5, -46.0
    pot = PotentialSpec(alpha=1.5, kappa=0.8, mu=mu)
    verts = graph.ball(graph.root, fk.radius_for(t, pot.alpha, pot.kappa))
    w = [math.exp(-t * (pot.kappa * graph.distance(graph.root, u))
                  ** pot.alpha) for u in verts]
    pairs = math.fsum(
        w[i] * w[j] * math.expm1(t * t * noise.covariance(model, graph, u, v))
        for i, u in enumerate(verts) for j, v in enumerate(verts))
    want = math.exp(t * t * model.gamma0 + math.log(pairs) + 2.0 * t * mu)
    got = fk.frozen_variance_sum(t, graph, pot, model)
    assert want > 1e300
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_explicit_frozen_route_takes_root_distances_in_one_call(monkeypatch):
    path = GraphModel.explicit(9, [(i, i + 1) for i in range(8)], root=4)
    t = 0.5
    models = (iid_gaussian(1.0), power_decay_gaussian(beta=0.5))
    want = [fk.frozen_variance_sum(t, path, POT, m) for m in models]

    def per_vertex(u, v):
        raise AssertionError("per-vertex distance call")

    monkeypatch.setattr(path, "distance", per_vertex)
    assert [fk.frozen_variance_sum(t, path, POT, m) for m in models] == want


# A time is finite and >= 0 at every estimator, and > 0 where a box is
# certified or a trace estimated: (t, id, message).
_BAD_TIMES = ((math.nan, "nan", "t = nan is not finite"),
              (math.inf, "inf", "t = inf is not finite"),
              (-math.inf, "minus-inf", "t = -inf is not finite"),
              (-0.5, "negative", "got -0.5"))
_TIMED = {
    "radius": lambda t: fk.radius_for(t),
    "mc-trace": lambda t: fk.mc_dirichlet_trace(
        _trunc(2), np.zeros(5), t, 10, 1),
    "paired": lambda t: fk.paired_walker_variance(
        G1, SPEC, POT, iid_gaussian(1.0), t, 10, 2, seed=22),
    "ensemble": lambda t: fk.ensemble_variance(
        G1, SPEC, POT, iid_gaussian(1.0), 2, [0.5, t], 3, 0),
    "frozen": lambda t: fk.frozen_variance_sum(t, G1, POT, iid_gaussian(1.0)),
    "lower": lambda t: fk.lower_bound_sum(t, 2.0, iid_gaussian(1.0), G1),
    "riemann": lambda t: fk.riemann_tail_sum(t, 1.0, 2.0, G1)}


@pytest.mark.parametrize("call, named", [
    (lambda: fk.mc_dirichlet_trace(_trunc(2), np.zeros(5), 0.0, 10, 1),
     "got 0.0"),
    (lambda: fk.mc_dirichlet_trace(_trunc(2), np.zeros(5), -0.5, 10, 1),
     "got -0.5"),
    (lambda: fk.riemann_tail_sum(0.0, 1.0, 2.0, G1),
     "t must be positive, got 0.0"),
    (lambda: fk.riemann_tail_sum(0.1, -1.0, 2.0, G1),
     "kappa must be positive, got -1.0"),
    (lambda: fk.riemann_tail_sum(0.1, 1.0, 0.0, G1),
     "alpha must be positive, got 0.0"),
    (lambda: fk.lower_bound_sum(0.25, 0, iid_gaussian(1.0), G1),
     "delta must be positive, got 0"),
    (lambda: fk.lower_bound_sum(0.25, -0.5, iid_gaussian(1.0), G1),
     "delta must be positive, got -0.5"),
    # stay_bound(1, -1, 1/2) returned e^{+1}.
    (lambda: fk.stay_bound(1.0, -1.0, 0.5), "q must be >= 0, got -1.0"),
    *[(lambda call=_TIMED[name]: call(0.0), "t must be positive, got 0.0")
      for name in ("radius", "frozen", "lower")],
    *[(lambda call=call, t=t: call(t), named)
      for call in _TIMED.values() for t, _, named in _BAD_TIMES]],
    ids=["trace-t-zero", "trace-t-negative", "riemann-t", "riemann-kappa",
         "riemann-alpha", "lower-delta-zero", "lower-delta-negative",
         "stay-q-negative",
         "radius-t-zero", "frozen-t-zero", "lower-t-zero",
         *[f"{name}-t-{label}" for name in _TIMED
           for _, label, _ in _BAD_TIMES]])
def test_estimator_refusals_name_the_value(call, named):
    with pytest.raises(DomainError, match=re.escape(named)):
        call()


@pytest.mark.parametrize("t", [t for t, _, _ in _BAD_TIMES],
                         ids=[label for _, label, _ in _BAD_TIMES])
def test_a_bad_t_is_refused_before_any_build_draw_or_sum(monkeypatch, t):
    trunc = _trunc(2)

    def started(*args, **kwargs):
        raise AssertionError("work began before the t check")

    for name in ("Truncation", "sample_fields", "sample_walks",
                 "_radial_weight_sum"):
        monkeypatch.setattr(fk, name, started)
    monkeypatch.setattr(fk.np.random, "default_rng", started)
    with pytest.raises(DomainError):
        fk.ensemble_variance(G1, SPEC, POT, iid_gaussian(1.0), 2, [0.5, t],
                             3, 0)
    with pytest.raises(DomainError):
        fk.mc_dirichlet_trace(trunc, np.zeros(5), t, 10, 1)
    with pytest.raises(DomainError):
        fk.frozen_variance_sum(t, G1, POT, iid_gaussian(1.0))
    with pytest.raises(DomainError):
        fk.riemann_tail_sum(t, 1.0, 2.0, G1)


def test_a_frozen_sum_past_the_floats_is_refused():
    # e^{t^2 gamma0} (e^{t^2 gamma0} - 1) = e^708 is finite, but the radial
    # sum of kappa = 0.1 (about 12.5) takes the product past the floats: a
    # bare OverflowError, now refused by name with its log.
    with pytest.raises(DomainError, match=r"the log 710\.53, outside "
                                          r"\[-708\.40, 709\.78\] of the "
                                          r"normal floats"):
        fk.frozen_variance_sum(1.0, G1, PotentialSpec(kappa=0.1),
                               iid_gaussian(354.0))


def test_an_infinite_2_t_mu_leaves_the_floats():
    # 2 t mu = +-8e308 is infinite: the factor e^{2 t mu} overflows, or
    # underflows to 0, rather than failing on the infinite exponent.  The
    # sum at mu = -1e308 was returned as 0.0; both are refused by name.
    model = iid_gaussian(1.0)
    for mu, log in ((1e308, "inf"), (-1e308, "-inf")):
        with pytest.raises(DomainError, match=rf"the log {log}, .* normal "
                                              r"floats"):
            fk.frozen_variance_sum(4.0, G1, PotentialSpec(mu=mu), model)


@pytest.mark.parametrize("pot, gamma0, log", [
    (PotentialSpec(mu=-800.0), 1.0, "-800.44"),
    (POT, 1e-320, "-737.64")], ids=["mu", "gamma0"])
def test_a_frozen_sum_below_the_normal_floats_is_refused(pot, gamma0, log):
    # At t = 1/2 these sums were returned as 0.0 and as the subnormal
    # 4.43e-321: a positive sum read as none, or with most of its digits
    # gone.  Refused by name, with its log.
    with pytest.raises(DomainError, match=rf"the log {log}, .* normal "
                                          r"floats"):
        fk.frozen_variance_sum(0.5, G1, pot, iid_gaussian(gamma0))


@pytest.mark.parametrize("t, gamma0", [(2.0 ** -10, 1e-310),
                                       (400.0, 1e-10)])
def test_a_lower_bound_below_the_normal_floats_is_refused(t, gamma0):
    # At t = 2^-10 the frozen sum is subnormal and the bound was the
    # subnormal 9.98e-311; at t = 400 the frozen sum is about 1.6e-5 and
    # e^{-800} took the bound to 0.0.  At gamma0 = 0 both sums are exactly
    # 0.0.
    with pytest.raises(DomainError, match="normal floats"):
        fk.lower_bound_sum(t, 0.5, iid_gaussian(gamma0), G1)
    assert fk.lower_bound_sum(t, 0.5, iid_gaussian(0.0), G1) == 0.0
    assert fk.frozen_variance_sum(t, G1, PotentialSpec(alpha=0.5),
                                  iid_gaussian(0.0)) == 0.0


def test_explicit_pairwise_sum_refuses_too_many_vertices(monkeypatch):
    # A star of 6400 leaves: its ball holds 6401 vertices at any radius
    # >= 1, 6401^2 = 40 972 801 pairs, over the pairwise cap of 40 million.
    # Only power decay takes the pairwise sum on an explicit graph, so only
    # it meets the cap; it is refused before the covariance matrix is built.
    star = GraphModel.explicit(6401, [(0, k) for k in range(1, 6401)])

    def started(*args, **kwargs):
        raise AssertionError("the covariance was built before the pair cap")

    monkeypatch.setattr(fk, "covariance_matrix", started)
    assert fk._PAIR_CAP == 40_000_000
    with pytest.raises(DomainError, match="pairwise sum over 6401 vertices "
                                          "is too large"):
        fk.frozen_variance_sum(0.5, star, POT, power_decay_gaussian(1.0))


def _no_covariance(*args, **kwargs):
    raise AssertionError("a covariance matrix was built")


def _star_frozen(t, gamma0, leaves):
    """The frozen sum on a star rooted at its centre, V = d^2: a ball of
    radius >= 1 holds the centre (V = 0) and every leaf (V = 1), so with
    x = t^2 gamma0 it is e^{2x} (1 - e^{-x}) (1 + leaves e^{-2t}) for
    independent noise."""
    x = t * t * gamma0
    return math.exp(2.0 * x) * -math.expm1(-x) \
        * (1.0 + leaves * math.exp(-2.0 * t))


def test_independent_noise_on_a_star_over_the_pair_cap(monkeypatch):
    # The pairwise route refused this star (6401^2 pairs over the cap);
    # independent noise takes the radial sum of its two shells, and no
    # covariance matrix is built.
    star = GraphModel.explicit(6401, [(0, k) for k in range(1, 6401)])

    monkeypatch.setattr(fk, "covariance_matrix", _no_covariance)
    assert _star_frozen(0.5, 1.0, 6400) == pytest.approx(859.0149804723721,
                                                         rel=1e-15)
    for t in (0.5, 2.0 ** -3, 2.0 ** -6):
        assert fk.frozen_variance_sum(t, star, POT, iid_gaussian(1.0)) == \
            pytest.approx(_star_frozen(t, 1.0, 6400), rel=1e-14, abs=0.0)


# -- one frozen-sum route per covariance structure -------------------------------


def _pairwise_frozen(t, graph, pot, model):
    """The frozen sum by the dense pairwise route, which explicit graphs
    took for every noise kind until independent and constant noise moved to
    the radial sum: w @ _pair_kernel(t^2 Gamma, x) @ w over the ball of
    ``radius_for``, w = e^{-tV} at mu = 0 and x = t^2 gamma0, in logs."""
    x = t * t * model.gamma0
    verts = graph.ball(graph.root, fk.radius_for(t, pot.alpha, pot.kappa))
    w = np.exp(-t * PotentialSpec(pot.alpha, pot.kappa).radial(
        graph.distances([graph.root], verts)[0]))
    kern = fk._pair_kernel(
        t * t * noise.covariance_matrix(model, graph, verts), x)
    return math.exp(2.0 * x + math.log(-math.expm1(-x))
                    + math.log(float(w @ kern @ w)) + 2.0 * t * pot.mu)


def _grid_graph(n):
    """The n x n grid as an explicit graph, rooted at a corner."""
    edges = [(i * n + j, i * n + j + 1) for i in range(n) for j in range(n - 1)]
    edges += [(i * n + j, (i + 1) * n + j)
              for i in range(n - 1) for j in range(n)]
    return GraphModel.explicit(n * n, edges)


_EXPLICIT_GRAPHS = {
    "irregular": G_IRREGULAR,
    "grid12": _grid_graph(12),
    # The root 0 is isolated: its ball is itself at every radius.
    "isolated-root": GraphModel.explicit(5, [(1, 2), (2, 3), (3, 4)]),
    "star": GraphModel.explicit(641, [(0, k) for k in range(1, 641)]),
    "gasket6": sierpinski_gasket(6)}


@pytest.mark.parametrize("model", [iid_gaussian(0.8), constant_gaussian(1.3)],
                         ids=["iid", "constant"])
@pytest.mark.parametrize("name", _EXPLICIT_GRAPHS)
def test_explicit_radial_route_matches_the_pairwise_sum(monkeypatch, name,
                                                        model):
    # Independent and constant noise take the radial sum over the ball's
    # shells on explicit graphs, and agree with the pairwise sum they took
    # before to roundoff, with no covariance matrix built.
    graph = _EXPLICIT_GRAPHS[name]
    pot = PotentialSpec(alpha=1.5, kappa=0.8, mu=0.3)
    ts = (0.5, 2.0 ** -3, 2.0 ** -5, 2.0 ** -7)
    want = [_pairwise_frozen(t, graph, pot, model) for t in ts]

    monkeypatch.setattr(fk, "covariance_matrix", _no_covariance)
    for t, pairwise in zip(ts, want):
        assert fk.frozen_variance_sum(t, graph, pot, model) == \
            pytest.approx(pairwise, rel=1e-13, abs=0.0), t


def test_explicit_radial_route_stops_at_the_certified_radius(monkeypatch):
    # Every graph above fits in its certified ball (radius >= 41); on the
    # level-7 gasket (side 128) the ball is a part of the graph, and its
    # shells beyond the radius are not counted.
    graph = sierpinski_gasket(7)
    pot = PotentialSpec(alpha=1.5, kappa=0.8, mu=0.3)
    ts = (0.5, 0.25)
    models = (iid_gaussian(0.8), constant_gaussian(1.3))
    want = [_pairwise_frozen(t, graph, pot, model)
            for t in ts for model in models]
    for t in ts:
        r = fk.radius_for(t, pot.alpha, pot.kappa)
        assert len(graph.ball(graph.root, r)) < len(graph.adjacency)
    monkeypatch.setattr(fk, "covariance_matrix", _no_covariance)
    assert [fk.frozen_variance_sum(t, graph, pot, model)
            for t in ts for model in models] == \
        pytest.approx(want, rel=1e-13, abs=0.0)


def test_explicit_power_decay_sum_keeps_its_bits_on_the_level_8_gasket():
    # Power decay on an explicit graph reads distances(ball, ball), whose
    # searches stop once answered and keep nothing.  The sum keeps the bits
    # it had when each of the 618 ball vertices (of 9843) kept a
    # whole-graph search (beta = 1, alpha = 2, gamma0 = 1, t = 1).
    graph = sierpinski_gasket(8)
    assert len(graph.ball(graph.root, fk.radius_for(1.0))) == 618
    assert fk.frozen_variance_sum(1.0, graph, POT, power_decay_gaussian(
        beta=1.0)) == 9.25870741162422


def test_explicit_radial_sum_needs_no_term_cap():
    # alpha = 1/2 at t = 2^-10 certifies a radius of 800 559 850, past the
    # term cap of 60 million; the 21-vertex path's ball is the whole path,
    # so the sum has 11 shells.  The pairwise route gave this value.
    t, pot = 2.0 ** -10, PotentialSpec(alpha=0.5)
    assert fk.radius_for(t, 0.5, 1.0) == 800_559_850 > fk._TERM_CAP
    path = GraphModel.explicit(21, [(i, i + 1) for i in range(20)], root=10)
    assert fk.frozen_variance_sum(t, path, pot, iid_gaussian(1.0)) == \
        pytest.approx(1.9943688066799255e-05, rel=1e-14, abs=0.0)


def test_explicit_sums_ignore_the_exact_term_cap(monkeypatch):
    # The Z^1 integral tail past _EXACT_TERM_CAP is the lattice's alone: an
    # explicit graph reports d = 1, yet sums its ball's shells exactly.
    models = (iid_gaussian(1.0), constant_gaussian(1.0),
              power_decay_gaussian(beta=0.5))
    pots = (POT, PotentialSpec(alpha=0.5))
    cases = [(t, graph, pot, model) for graph in _EXPLICIT_GRAPHS.values()
             for t in (0.5, 2.0 ** -6) for pot in pots for model in models]
    every = [fk.frozen_variance_sum(*case) for case in cases]
    monkeypatch.setattr(fk, "_EXACT_TERM_CAP", 10)
    assert [fk.frozen_variance_sum(*case) for case in cases] == every


def test_riemann_tail_sum_needs_a_lattice():
    # Its certified tail reads the lattice's leading coordination constant;
    # an explicit graph is refused by name, not by a ZeroDivisionError.
    with pytest.raises(DomainError, match="lattice kind"):
        fk.riemann_tail_sum(0.1, 1.0, 2.0, G_IRREGULAR)


# Lattice frozen sums at POT, gamma0 = 1 and beta = 0.5, as float.hex at
# t = 2^-2, 2^-6 and 2^-10, taken at the commit before independent and
# constant noise left the pairwise route on explicit graphs: the lattices'
# routes kept every bit when the dispatch was reordered by noise kind, and
# none of them builds a covariance matrix.
_LATTICE_FROZEN_BITS = {
    ("z1", "iid"): ("0x1.6070beb16cc60p-3", "0x1.40f747d271a4ap-9",
                    "0x1.40d95013c0966p-15"),
    ("z1", "constant"): ("0x1.b9b7f29cf1c12p-1", "0x1.92456a1275eb6p-5",
                         "0x1.921fdaf73da4bp-9"),
    ("z1", "power_decay"): ("0x1.2c947365bbd4cp-1", "0x1.67d5cd3506cb6p-6",
                            "0x1.a1addd211e2ddp-11"),
    ("z2_l1", "iid"): ("0x1.46bb21aacc4fbp-2", "0x1.02c1d89fb8bddp-6",
                       "0x1.002ac19d7a22ep-10"),
    ("z2_l1", "constant"): ("0x1.4959fe27e9c21p+2", "0x1.02c42950c0379p+2",
                            "0x1.002ac3ed2c59ep+2"),
    ("z2_l1", "power_decay"): ("0x1.76d281a13a7eap+1", "0x1.582bdbe6b8e6ep+0",
                               "0x1.68eb00a45bd10p-1"),
    ("z2_linf", "iid"): ("0x1.239483e39433dp-1", "0x1.00c1a89d63549p-5",
                         "0x1.000ac19a7a22fp-9"),
    ("z2_linf", "constant"): ("0x1.2468af73120cfp+4", "0x1.00c24f04d6535p+4",
                              "0x1.000ac23f8a10ap+4"),
    ("z2_linf", "power_decay"): ("0x1.4601e6600be8cp+3",
                                 "0x1.5453f9f3d02a5p+2",
                                 "0x1.688c71bdd87e0p+1")}


@pytest.mark.parametrize("key", _LATTICE_FROZEN_BITS,
                         ids=lambda key: "-".join(key))
def test_lattice_frozen_sums_keep_their_bits(monkeypatch, key):
    monkeypatch.setattr(fk, "covariance_matrix", _no_covariance)
    graph = {"z1": G1, "z2_l1": GraphModel.zd_l1(2),
             "z2_linf": GraphModel.zd_linf(2)}[key[0]]
    model = {"iid": iid_gaussian(1.0), "constant": constant_gaussian(1.0),
             "power_decay": power_decay_gaussian(beta=0.5)}[key[1]]
    got = tuple(fk.frozen_variance_sum(2.0 ** -k, graph, POT, model).hex()
                for k in (2, 6, 10))
    assert got == _LATTICE_FROZEN_BITS[key]
