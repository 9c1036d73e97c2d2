import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fksim.errors import DomainError
from fksim import noise
from fksim.lattice import GraphModel
from fksim.noise import (constant_gaussian, covariance,
                         covariance_matrix, iid_gaussian, moment_bound_probe,
                         power_decay_gaussian, sample_field,
                         taylor_bound_check, variance_at_origin)

G1 = GraphModel.zd_l1(1)


def test_covariance_values():
    assert covariance(iid_gaussian(2.0), G1, (0,), (0,)) == 2.0
    assert covariance(iid_gaussian(2.0), G1, (0,), (1,)) == 0.0
    assert covariance(constant_gaussian(0.7), G1, (0,), (9,)) == 0.7
    m = power_decay_gaussian(beta=1.0)
    assert covariance(m, G1, (0,), (3,)) == pytest.approx(0.25)
    assert variance_at_origin(m) == 1.0


_EXPLICIT = GraphModel.explicit(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                    (4, 5), (1, 4)])


@pytest.mark.parametrize("model", [
    iid_gaussian(1.3), constant_gaussian(0.7),
    power_decay_gaussian(beta=1.0), power_decay_gaussian(beta=0.7,
                                                         decay_scale=2.5)])
@pytest.mark.parametrize("graph", [GraphModel.zd_l1(2), GraphModel.zd_linf(2),
                                   _EXPLICIT])
def test_covariance_matrix_matches_scalar_covariance(model, graph):
    verts = graph.ball(graph.root, 3)
    ref = np.array([[covariance(model, graph, u, v) for v in verts]
                    for u in verts])
    got = covariance_matrix(model, graph, verts)
    # numpy's and Python's pow may differ in the last bit for non-integer beta.
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)
    assert np.array_equal(np.diag(got), np.diag(ref))


def test_power_decay_requires_positive_parameters():
    with pytest.raises(DomainError):
        power_decay_gaussian(beta=-1.0)
    with pytest.raises(DomainError):
        power_decay_gaussian(beta=1.0, decay_scale=0.0)


def test_iid_sample_variance():
    verts = G1.ball((0,), 0)
    rng = np.random.default_rng(0)
    draws = np.array([sample_field(iid_gaussian(1.0), G1, verts, rng=rng)[0]
                      for _ in range(100000)])
    se = math.sqrt(2.0 / len(draws))   # var of the sample variance, gaussian
    assert abs(draws.var() - 1.0) < 3 * se


def test_power_decay_empirical_covariance():
    verts = G1.ball((0,), 5)
    i0, i3 = verts.index((0,)), verts.index((3,))
    model = power_decay_gaussian(beta=1.0)
    rng = np.random.default_rng(1)
    a = np.empty(100000)
    b = np.empty(100000)
    for i in range(len(a)):
        f = sample_field(model, G1, verts, rng=rng)
        a[i], b[i] = f[i0], f[i3]
    cov = np.cov(a, b)[0, 1]
    assert abs(cov - 0.25) < 3 * 4.0 / math.sqrt(len(a))


def test_constant_field_is_flat():
    verts = G1.ball((0,), 4)
    f = sample_field(constant_gaussian(1.0), G1, verts, seed=2)
    assert f.shape == (len(verts),)
    assert len(set(f)) == 1


def test_power_decay_order_certificate():
    model = power_decay_gaussian(beta=2.0, decay_scale=1.5)
    for n in range(0, 6):
        got = covariance(model, G1, (0,), (n,))
        assert abs(got) <= 1.5 * (n + 1.0) ** (-2.0) + 1e-15


def test_taylor_bound_check_passes():
    f = {(0,): 0.2, (1,): -0.1}
    rep = taylor_bound_check(f, iid_gaussian(1.0), G1, n_samples=40000, seed=3)
    assert rep.passed


def test_moment_bound_probe():
    ratio = moment_bound_probe(iid_gaussian(1.0), G1, p_max=8,
                               n_samples=200000, seed=4)
    assert ratio <= 1.0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_sampling_deterministic_given_seed(seed):
    verts = G1.ball((0,), 3)
    m = power_decay_gaussian(beta=1.0)
    f1 = sample_field(m, G1, verts, seed=seed)
    f2 = sample_field(m, G1, verts, seed=seed)
    assert f1.tobytes() == f2.tobytes()


def _old_field_matrix(model, graph, vertices, n_samples, rng):
    """The Taylor and moment checks' own sampler before they shared the
    ensemble's: one stacked draw, correlated as Z @ chol.T."""
    n = len(vertices)
    if model.kind == "iid":
        return math.sqrt(model.gamma0) * rng.standard_normal((n_samples, n))
    if model.kind == "constant":
        z = rng.standard_normal((n_samples, 1))
        return math.sqrt(model.gamma0) \
            * np.broadcast_to(z, (n_samples, n)).copy()
    chol = np.linalg.cholesky(covariance_matrix(model, graph, vertices))
    return rng.standard_normal((n_samples, n)) @ chol.T


@pytest.mark.parametrize("model", [
    iid_gaussian(1.7), constant_gaussian(0.6),
    power_decay_gaussian(1.0, decay_scale=0.8)], ids=lambda m: m.kind)
def test_bound_checks_keep_their_draws(model):
    g2 = GraphModel.zd_l1(2)
    support = tuple(g2.ball(g2.root, 1)) + ((2, 0),)
    f = {v: 0.05 * (-1) ** i * (i + 1) / 3 for i, v in enumerate(support)}
    coeffs = np.array([f[v] for v in support])
    rows = _old_field_matrix(model, g2, support, 5000,
                             np.random.default_rng(17))
    vals = np.exp(rows @ coeffs)
    lhs, se = abs(vals.mean() - 1.0), vals.std(ddof=1) / math.sqrt(5000)
    rep = taylor_bound_check(f, model, g2, n_samples=5000, seed=17)
    draws = _old_field_matrix(model, g2, (g2.root,), 20000,
                              np.random.default_rng(18))[:, 0]
    worst = max((np.abs(draws) ** p).mean() / math.factorial(p)
                for p in (2, 4, 6, 8))
    ratio = moment_bound_probe(model, g2, p_max=8, n_samples=20000, seed=18)
    if model.kind == "power_decay":
        got = noise._field_rows(model, g2, support, 5000,
                                np.random.default_rng(17))
        assert np.abs(got - rows).max() <= 1e-15 * np.abs(rows).max()
        # lhs = |mean - 1| is about 5e-3 here, so draws 1e-15 apart may
        # move it by some 1e-13 relative.
        assert (rep.lhs, rep.stderr) == pytest.approx((lhs, se), rel=1e-12)
        assert ratio == pytest.approx(worst, rel=1e-15)
    else:
        assert (rep.lhs, rep.stderr, ratio) == (lhs, se, worst)
