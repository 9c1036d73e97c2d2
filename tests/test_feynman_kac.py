import math

import numpy as np
import pytest

from fksim.errors import DomainError, InputError
from fksim.lattice import GraphModel
from fksim.noise import (FieldSample, constant_gaussian, iid_gaussian,
                         power_decay_gaussian, sample_field)
from fksim.operators import PotentialSpec, Truncation, expm_neg
from fksim.walker import sample_path, symmetric_walk
from fksim import feynman_kac as fk

G1 = GraphModel.zd_l1(1)
SPEC = symmetric_walk(G1, 1.0)
POT = PotentialSpec(alpha=2.0)


def _zero_field(verts):
    return FieldSample(tuple(verts), {v: 0.0 for v in verts})


def _wide_zero_field(radius=80):
    verts, _ = G1.ball((0,), radius)
    return _zero_field(verts)


def test_mc_kernel_reduces_to_walk_probability():
    # zero potential: estimate of K_t(u,u) is the return probability
    xi = _wide_zero_field()
    pot = PotentialSpec(alpha=1.0, kappa=0.0)
    est = fk.mc_kernel(G1, SPEC, pot, xi, (0,), (0,), 1.0, 40000, seed=1)
    # exact return probability from a large truncation of the walk generator
    from fksim.operators import assemble, expm_neg
    asm = assemble(G1, SPEC, pot, xi, 30)
    k = expm_neg(asm.matrix, 1.0)[asm.index[(0,)], asm.index[(0,)]]
    assert abs(est.mean - k) < 4 * est.stderr


def test_mc_kernel_small_t_is_identity():
    verts, _ = G1.ball((0,), 50)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=2)
    est = fk.mc_kernel(G1, SPEC, POT, xi, (0,), (0,), 1e-3, 20000, seed=3)
    assert abs(est.mean - 1.0) < max(3 * est.stderr, 5e-3)


def test_mc_kernel_matches_matrix_exponential():
    from fksim.operators import assemble, expm_neg
    verts, _ = G1.ball((0,), 60)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=4)
    est = fk.mc_kernel(G1, SPEC, POT, xi, (0,), (0,), 0.25, 100000, seed=5)
    asm = assemble(G1, SPEC, POT, xi, 12)
    k = expm_neg(asm.matrix, 0.25)[asm.index[(0,)], asm.index[(0,)]]
    assert abs(est.mean - k) < 4 * est.stderr


def test_dirichlet_root_only():
    # radius 0: the walker must not jump at all, and the expectation is the
    # 1x1 semigroup value e^{-t (q + V(0) + xi(0))}
    verts, _ = G1.ball((0,), 50)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=6)
    t = 0.5
    est = fk.mc_dirichlet_trace(G1, SPEC, POT, xi, 0, t, 40000, seed=7)
    expected = math.exp(-t * (1.0 + 0.0 + xi[(0,)]))
    assert abs(est.mean - expected) < 3 * est.stderr


def test_killed_below_unkilled_pathwise():
    verts, _ = G1.ball((0,), 60)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=8)
    starts, killed, unkilled = fk._trace_samples(G1, SPEC, POT, xi, 3, 0.8,
                                                 5000, seed=9)
    for kw, uw in zip(killed, unkilled):
        assert np.all(kw <= uw + 1e-15)


def test_killing_immaterial_for_huge_radius():
    xi = _wide_zero_field()
    k, u = fk.mc_dirichlet_trace(G1, SPEC, POT, xi, 40, 0.5, 3000, seed=10,
                                 with_unkilled=True)
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
                                enumerate(graph.ball(graph.root, n)[0])})
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
    verts, _ = G1.ball((0,), r)
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


def test_min_range_distance():
    p1 = sample_path(G1, SPEC, (0,), 0.0, seed=0)
    p2 = sample_path(G1, SPEC, (5,), 0.0, seed=0)
    assert fk.min_range_distance(G1, p1, p2) == 5


def test_range_distance_under_bounded_displacement():
    # both walkers displaced at most 2 from starts 8 apart: ranges stay
    # at least 4 apart
    rng = np.random.default_rng(20)
    found = 0
    for _ in range(500):
        p1 = sample_path(G1, SPEC, (0,), 0.5, rng=rng, light=True)
        p2 = sample_path(G1, SPEC, (8,), 0.5, rng=rng, light=True)
        if p1.max_displacement(G1) <= 2 and p2.max_displacement(G1) <= 2:
            found += 1
            assert fk.min_range_distance(G1, p1, p2) >= 4
    assert found > 0


def test_paired_sample_joint_stay():
    rng = np.random.default_rng(21)
    s = fk.paired_sample(G1, SPEC, (0,), (3,), 0.1, rng)
    if s.joint_stay:
        assert s.range_distance == 3


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
    verts, _ = G1.ball((0,), 2)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=3)
    est = fk.mc_dirichlet_trace(G1, SPEC, POT, xi, 2, 5.0, 2000, seed=2)
    assert math.isfinite(est.mean) and est.mean > 0
    assert math.isfinite(est.stderr) and est.stderr > 0


def test_unkilled_trace_refuses_walks_beyond_the_field():
    verts, _ = G1.ball((0,), 2)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=3)
    with pytest.raises(InputError):
        fk.mc_dirichlet_trace(G1, SPEC, POT, xi, 2, 5.0, 2000, seed=2,
                              with_unkilled=True)


def test_stratified_se_undefined_with_one_path_per_stratum():
    verts, _ = G1.ball((0,), 10)
    xi = sample_field(iid_gaussian(1.0), G1, verts, seed=4)
    est = fk.mc_dirichlet_trace(G1, SPEC, POT, xi, 10, 0.25, 5, seed=5)
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
    verts, _ = G1.ball((0,), fk.radius_for(t, 2.0, 1000.0))
    frozen = math.exp(t2) * pair_sum(
        verts, lambda u: math.exp(-t * (1000.0 * abs(u[0])) ** 2))
    got = fk.frozen_variance_sum(t, G1, pot, model)
    assert got == pytest.approx(frozen, rel=1e-12, abs=0.0)

    delta = 8.0
    verts, _ = G1.ball((0,), fk.radius_for(t, delta, 1.0))
    lower = math.exp(-2.0 * t + t2) * pair_sum(
        verts, lambda u: math.exp(-t * abs(u[0]) ** delta))
    assert fk.lower_bound_sum(t, delta, model, G1) == \
        pytest.approx(lower, rel=1e-12, abs=0.0)
