import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fksim.errors import DomainError, NumericalError
from fksim import noise
from fksim.lattice import GraphModel
from fksim.noise import (NoiseModel, constant_gaussian, covariance,
                         covariance_matrix, iid_gaussian, moment_bound_probe,
                         power_decay_gaussian, sample_field,
                         taylor_bound_check)

G1 = GraphModel.zd_l1(1)


def test_covariance_values():
    assert covariance(iid_gaussian(2.0), G1, (0,), (0,)) == 2.0
    assert covariance(iid_gaussian(2.0), G1, (0,), (1,)) == 0.0
    assert covariance(constant_gaussian(0.7), G1, (0,), (9,)) == 0.7
    m = power_decay_gaussian(beta=1.0)
    assert covariance(m, G1, (0,), (3,)) == pytest.approx(0.25)
    assert m.gamma0 == 1.0


_EXPLICIT = GraphModel.explicit(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                    (4, 5), (1, 4)])


@pytest.mark.parametrize("model", [
    iid_gaussian(1.3), constant_gaussian(0.7),
    power_decay_gaussian(beta=1.0), power_decay_gaussian(beta=0.7,
                                                         gamma0=2.5)])
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
        power_decay_gaussian(beta=1.0, gamma0=0.0)


@pytest.mark.parametrize("params, match", [
    ({"kind": "laplace"}, "unknown noise kind 'laplace'"),
    ({"kind": "iid", "gamma0": -1.0}, "gamma0"),
    ({"kind": "iid", "gamma0": math.nan}, "gamma0"),
    ({"kind": "iid", "gamma0": math.inf}, "gamma0"),
    ({"kind": "constant", "gamma0": -math.inf}, "gamma0"),
    ({"kind": "power_decay", "gamma0": math.inf, "beta": 1.0}, "gamma0"),
    ({"kind": "constant", "gamma0": -0.5}, "gamma0"),
    ({"kind": "power_decay", "gamma0": -2.0, "beta": 1.0}, "gamma0"),
    ({"kind": "power_decay"}, "noise kind 'power_decay' needs a beta"),
    ({"kind": "power_decay", "beta": 0.0}, "beta must be positive"),
    ({"kind": "power_decay", "beta": -1.0}, "beta must be positive"),
    ({"kind": "power_decay", "beta": math.inf}, "beta = inf is not finite"),
    ({"kind": "power_decay", "beta": math.nan}, "beta = nan is not finite"),
    ({"kind": "power_decay", "gamma0": 0.0, "beta": 1.0},
     "gamma0 must be positive, got 0.0"),
    ({"kind": "iid", "beta": 0.5}, "noise kind 'iid' takes no beta"),
    ({"kind": "constant", "beta": 0.5}, "noise kind 'constant' takes no beta")],
    ids=["unknown-kind", "iid-negative", "iid-nan", "iid-inf",
         "constant-negative-inf", "power-inf", "constant-negative",
         "power-negative", "power-no-beta", "power-zero-beta",
         "power-negative-beta", "power-inf-beta", "power-nan-beta",
         "power-zero-scale", "iid-beta", "constant-beta"])
def test_noise_model_refuses_bad_parameters(params, match):
    # The model is checked when it is made, so no estimator re-checks it.
    with pytest.raises(DomainError, match=match):
        NoiseModel(**params)


def test_iid_sample_variance():
    verts = G1.ball((0,), 0)
    rng = np.random.default_rng(0)
    draws = np.array([sample_field(iid_gaussian(1.0), G1, verts, rng)[0]
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
        f = sample_field(model, G1, verts, rng)
        a[i], b[i] = f[i0], f[i3]
    cov = np.cov(a, b)[0, 1]
    assert abs(cov - 0.25) < 3 * 4.0 / math.sqrt(len(a))


def test_constant_field_is_flat():
    verts = G1.ball((0,), 4)
    f = sample_field(constant_gaussian(1.0), G1, verts, seed=2)
    assert f.shape == (len(verts),)
    assert len(set(f)) == 1


def test_power_decay_order_certificate():
    model = power_decay_gaussian(beta=2.0, gamma0=1.5)
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


@pytest.mark.parametrize("gamma0", [4.0, 0.25])
@pytest.mark.parametrize("make", [iid_gaussian, constant_gaussian,
                                  lambda g: power_decay_gaussian(1.0, g)],
                         ids=["iid", "constant", "power_decay"])
def test_moment_constant_is_the_noise_standard_deviation(make, gamma0):
    # The bound E|xi|^p <= p! m^p is a property of the noise law: with
    # m = 1 whatever gamma0, this probe read 1.998 at gamma0 = 4.
    model = make(gamma0)
    assert model.moment_constant == math.sqrt(gamma0)
    assert moment_bound_probe(model, G1, p_max=8, n_samples=200000,
                              seed=4) <= 1.0


@pytest.mark.parametrize("make", [iid_gaussian, constant_gaussian])
def test_bound_checks_take_noise_free_fields(make):
    # gamma0 = 0 gives m = 0 and xi = 0: both bounds hold with equality,
    # and neither check divides by m (pytest turns a warning into an error).
    model = make(0.0)
    assert model.moment_constant == 0.0
    rep = taylor_bound_check({(0,): 0.5, (3,): -2.0}, model, G1,
                             n_samples=100, seed=3)
    assert (rep.lhs, rep.rhs, rep.stderr, rep.passed) == (0.0, 0.0, 0.0, True)
    assert moment_bound_probe(model, G1, p_max=8, n_samples=100,
                              seed=4) == 0.0


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
    power_decay_gaussian(1.0, gamma0=0.8)], ids=lambda m: m.kind)
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
    m = math.sqrt(model.gamma0)
    worst = max((np.abs(draws) ** p).mean() / (math.factorial(p) * m ** p)
                for p in (2, 4, 6, 8))
    ratio = moment_bound_probe(model, g2, p_max=8, n_samples=20000, seed=18)
    if model.kind == "power_decay":
        got = noise.sample_fields(model, g2, support, 5000,
                                  np.random.default_rng(17))
        assert np.abs(got - rows).max() <= 1e-15 * np.abs(rows).max()
        # lhs = |mean - 1| is about 5e-3 here, so draws 1e-15 apart may
        # move it by some 1e-13 relative.
        assert (rep.lhs, rep.stderr) == pytest.approx((lhs, se), rel=1e-12)
        assert ratio == pytest.approx(worst, rel=1e-15)
    else:
        assert (rep.lhs, rep.stderr, ratio) == (lhs, se, worst)


def test_psd_factor_retries_a_singular_matrix_with_a_ridge():
    # The all-ones matrix is PSD of rank 1: plain Cholesky fails on it, and
    # the factor of the ridged matrix reproduces it to the ridge's size.
    cov = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    chol = noise._psd_factor(cov)
    assert np.abs(chol @ chol.T - cov).max() <= 1.1e-12


def test_psd_factor_names_the_first_indefinite_minor():
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1; its 1x1 minor is fine.
    with pytest.raises(NumericalError, match=r"leading minor 2\)"):
        noise._psd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("call, named", [
    # m = 1, so |f|_1 may be at most 1/2.
    (lambda: taylor_bound_check({(0,): 0.25, (1,): -0.375}, iid_gaussian(1.0),
                                G1, 100, 0), "|f|_1 = 0.625"),
    (lambda: moment_bound_probe(iid_gaussian(1.0), G1, 12, 100, 0),
     "p_max = 12"),
    # Below 2 no moment is taken, and the probe returned 0.0, which meets
    # every bound with no evidence.
    *[(lambda p=p: moment_bound_probe(iid_gaussian(1.0), G1, p, 100, 0),
       f"p_max = {p}") for p in (1, 0, -4)]],
    ids=["taylor-norm", "moment-order", "moment-order-1", "moment-order-0",
         "moment-order-minus-4"])
def test_bound_check_refusals_name_the_value(monkeypatch, call, named):
    def drawn(*args, **kwargs):
        raise AssertionError("a field was drawn before the refusal")

    monkeypatch.setattr(noise, "sample_fields", drawn)
    with pytest.raises(DomainError, match=re.escape(named)):
        call()
