"""The benchmark's reference computations on hand-checkable cases."""

from math import e, exp, expm1

import numpy as np
import pytest

import bench_refs as br


def test_poisson_tail_small_cases():
    assert br.poisson_tail(0.5, 1) == pytest.approx(1 - exp(-0.5), rel=1e-14)
    assert br.poisson_tail(2.0, 2) == pytest.approx(1 - 3 * exp(-2.0),
                                                    rel=1e-14)


def test_chernoff_bound_value_and_domination():
    assert br.chernoff_bound(1.0, 2) == pytest.approx(e / 4, rel=1e-14)
    for x in range(1, 15):
        assert br.poisson_tail(0.5, x) <= br.chernoff_bound(0.5, x)


def test_binomial_tails_at_zero():
    lo, hi = br.binomial_tails(0, 10, 0.1)
    assert lo == pytest.approx(0.9 ** 10, rel=1e-14)
    assert hi == 1.0


def test_dirichlet_base_radius_one():
    want = [[2.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 2.0]]
    np.testing.assert_array_equal(br.z1_dirichlet_base(1, 2.0, 1.0), want)


def test_ensemble_without_noise_is_the_base_spectrum():
    eigs = br.z1_ensemble_eigs(3, 2.0, 0.0, 1.0, 5, np.random.default_rng(0),
                               chunk=2)
    want = np.linalg.eigvalsh(br.z1_dirichlet_base(3, 2.0, 1.0))
    np.testing.assert_allclose(eigs, np.tile(want, (5, 1)), atol=1e-13)


def test_single_site_variance_is_lognormal():
    # Radius 0: H = q + xi, so Tr e^{-tH} = e^{-t} e^{-t xi} and
    # Var = e^{-2t} e^{t^2 g} (e^{t^2 g} - 1).  Seed 1, 5 SE.
    t, g = 0.5, 1.0
    eigs = br.z1_ensemble_eigs(0, 2.0, g, 1.0, 200_000,
                               np.random.default_rng(1))
    est = br.variance_estimate(br.traces(eigs, t))
    want = exp(-2 * t) * exp(t * t * g) * expm1(t * t * g)
    assert abs(est.value - want) <= 5 * est.stderr
    mean = br.mean_estimate(br.traces(eigs, t))
    assert abs(mean.value - exp(-t + t * t * g / 2)) <= 5 * mean.stderr


def test_variance_estimate_normal_samples():
    x = np.random.default_rng(2).standard_normal(100_000)
    est = br.variance_estimate(x)
    assert est.n == 100_000
    assert est.stderr == pytest.approx(np.sqrt(2 / 100_000), rel=0.05)


def test_iid_sums_match_explicit_sum():
    t, alpha, g = 1.0, 2.0, 1.0
    radial = sum(exp(-2 * t * abs(n) ** alpha) for n in range(-10, 11))
    want = exp(t * t * g) * expm1(t * t * g) * radial
    assert br.iid_frozen_sum(t, alpha, g) == pytest.approx(want, rel=1e-14)
    assert br.iid_lower_sum(t, alpha, g) == pytest.approx(exp(-2 * t) * want,
                                                          rel=1e-14)


def test_power_decay_sum_matches_double_loop():
    t, alpha, beta, scale = 0.5, 2.0, 0.5, 1.5
    r = 12   # e^{-t r^2} = e^{-72}, past the reference cutoff
    w = {u: exp(-t * u * u) for u in range(-r, r + 1)}
    want = exp(t * t * scale) * sum(
        wu * wv * expm1(t * t * scale * (abs(u - v) + 1.0) ** (-beta))
        for u, wu in w.items() for v, wv in w.items())
    got = br.power_decay_frozen_sum(t, alpha, beta, scale)
    assert got.value == pytest.approx(want, rel=1e-13)
    assert 0 < got.rounding < 1e-13 * got.value
    low = br.power_decay_lower_sum(t, alpha, beta, scale)
    assert low.value == pytest.approx(exp(-2 * t) * want, rel=1e-13)


def test_fit_slope_exact_power_law():
    ts = [2.0 ** -k for k in range(1, 6)]
    assert br.fit_slope(ts, [3 * t ** 1.25 for t in ts]) == pytest.approx(1.25)
