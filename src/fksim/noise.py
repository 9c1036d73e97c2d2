"""Gaussian noise fields on vertex sets and covariance machinery.

Three covariance structures are shipped: independent sites, distance power
decay, and a fully correlated (constant) field.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, sqrt
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError
from .lattice import ZD_L1, ZD_LINF

IID = "iid"
POWER_DECAY = "power_decay"
CONSTANT = "constant"


@dataclass(frozen=True)
class NoiseModel:
    """Centered Gaussian field specification.

    ``decay_scale`` is the power-decay prefactor (also its covariance-decay
    certificate constant); ``moment_constant`` certifies the p-th moment bound
    p! * moment_constant**p.
    """

    kind: str
    gamma0: float = 1.0
    beta: Optional[float] = None
    decay_scale: float = 1.0
    moment_constant: float = 1.0


def iid_gaussian(gamma0=1.0, moment_constant=1.0):
    return NoiseModel(IID, gamma0=gamma0, moment_constant=moment_constant)


def power_decay_gaussian(beta, decay_scale=1.0, moment_constant=1.0):
    if beta <= 0:
        raise DomainError("decay exponent beta must be positive")
    if decay_scale <= 0:
        raise DomainError("decay scale must be positive")
    return NoiseModel(POWER_DECAY, gamma0=decay_scale, beta=beta,
                      decay_scale=decay_scale, moment_constant=moment_constant)


def constant_gaussian(gamma0=1.0, moment_constant=1.0):
    return NoiseModel(CONSTANT, gamma0=gamma0, moment_constant=moment_constant)


def covariance(model, graph, u, v):
    """gamma(u, v) = E[xi(u) xi(v)] for the given model."""
    if model.kind == IID:
        return model.gamma0 if u == v else 0.0
    if model.kind == CONSTANT:
        return model.gamma0
    if model.kind == POWER_DECAY:
        return decay_kernel(model, graph.distance(u, v))
    raise DomainError(f"unknown noise kind {model.kind!r}")


def covariance_matrix(model, graph, vertices):
    """gamma(u, v) over an ordered vertex list, as a dense matrix."""
    m = len(vertices)
    if model.kind == IID:
        return model.gamma0 * np.eye(m)
    if model.kind == CONSTANT:
        return np.full((m, m), model.gamma0)
    if model.kind != POWER_DECAY:
        raise DomainError(f"unknown noise kind {model.kind!r}")
    if graph.kind in (ZD_L1, ZD_LINF):
        coords = np.array(vertices, dtype=float).reshape(m, graph.d)
        dist = np.abs(coords[:, None, :] - coords[None, :, :])
        dist = dist.sum(axis=2) if graph.kind == ZD_L1 else dist.max(axis=2)
    else:
        dist = np.array([[graph.distance(u, v) for v in vertices]
                         for u in vertices], dtype=float).reshape(m, m)
    return decay_kernel(model, dist)


def decay_kernel(model, dist):
    """Power-decay covariance decay_scale * (dist + 1)^-beta at graph
    distance ``dist`` (elementwise for an array)."""
    return model.decay_scale * (dist + 1.0) ** -model.beta


def variance_at_origin(model):
    """gamma(v, v), identical for all v by stationarity."""
    if model.kind == POWER_DECAY:
        return model.decay_scale
    return model.gamma0


def sample_field(model, graph, vertices, seed=None, rng=None):
    """One realization of the field on an ordered vertex list: a float
    array whose i-th value is the field at ``vertices[i]``."""
    if rng is None:
        rng = np.random.default_rng(seed)
    return _field_rows(model, graph, tuple(vertices), 1, rng)[0]


def _field_rows(model, graph, vertices, m, rng):
    """m draws of the field on an ordered vertex list from one generator,
    one row each, with the covariance factored once.

    Row i comes from row i of one (m, n) standard-normal draw (one normal
    per row for constant noise), and a power-decay row is ``chol @ z`` as
    a batched product (a stacked ``Z @ chol.T`` is one BLAS call whose last
    bits depend on m), so the rows for m are a prefix of those for any
    larger m.
    """
    n = len(vertices)
    if model.kind == IID:
        return sqrt(model.gamma0) * rng.standard_normal((m, n))
    if model.kind == CONSTANT:
        z = rng.standard_normal((m, 1))
        return np.repeat(sqrt(model.gamma0) * z, n, axis=1)
    if model.kind == POWER_DECAY:
        chol = _psd_factor(covariance_matrix(model, graph, vertices))
        z = rng.standard_normal((m, n))
        return np.matmul(chol, z[:, :, None])[..., 0]
    raise DomainError(f"unknown noise kind {model.kind!r}")


def _psd_factor(cov):
    """Cholesky factor, retried once with a small ridge before failing."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    n = cov.shape[0]
    ridge = 1e-12 * np.trace(cov) / n
    try:
        return np.linalg.cholesky(cov + ridge * np.eye(n))
    except np.linalg.LinAlgError:
        minor = _first_bad_minor(cov)
        raise NumericalError(
            f"covariance matrix not PSD after regularization "
            f"(leading minor {minor})") from None


def _first_bad_minor(cov):
    for k in range(1, cov.shape[0] + 1):
        try:
            np.linalg.cholesky(cov[:k, :k])
        except np.linalg.LinAlgError:
            return k
    return cov.shape[0]


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    stderr: float
    passed: bool


def taylor_bound_check(f, model, graph, n_samples, seed):
    """Monte Carlo check of |E e^{<f,xi>} - 1| <= 2 m^2 |f|_1^2."""
    m = model.moment_constant
    norm1 = sum(abs(x) for x in f.values())
    if norm1 > 1.0 / (2.0 * m):
        raise DomainError("requires |f|_1 <= 1/(2m)")
    rhs = 2.0 * m * m * norm1 * norm1
    support = tuple(v for v, c in f.items() if c != 0.0)
    if not support:
        return BoundReport(lhs=0.0, rhs=rhs, stderr=0.0, passed=True)
    coeffs = np.array([f[v] for v in support])
    rng = np.random.default_rng(seed)
    fields = _field_rows(model, graph, support, n_samples, rng)
    vals = np.exp(fields @ coeffs)
    lhs = abs(vals.mean() - 1.0)
    se = vals.std(ddof=1) / sqrt(n_samples)
    return BoundReport(lhs=lhs, rhs=rhs, stderr=se, passed=lhs <= rhs + 3.0 * se)


def moment_bound_probe(model, graph, p_max, n_samples, seed):
    """Max over even p <= p_max of empirical E|xi|^p / (p! m^p) at one vertex."""
    if p_max > 10:
        raise DomainError("sampling accuracy limits the probe to p <= 10")
    rng = np.random.default_rng(seed)
    draws = _field_rows(model, graph, (graph.root,), n_samples, rng)[:, 0]
    m = model.moment_constant
    worst = 0.0
    for p in range(2, p_max + 1, 2):
        worst = max(worst, (np.abs(draws) ** p).mean() / (factorial(p) * m ** p))
    return worst
