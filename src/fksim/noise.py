"""Gaussian noise fields on vertex sets and covariance machinery.

Three covariance structures are shipped: independent sites, distance power
decay, and a fully correlated (constant) field.  ``NoiseModel`` refuses
any other kind and any bad parameter when it is made (gamma0 and beta by
``errors.check_nonnegative``), so the functions that take a model never
re-check it.  Every kind has variance gamma0 at
each site, so the moment constant of the noise law is derived from it,
not set.  ``sample_fields`` is the one field sampler: m rows from one
generator with the covariance factored once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, sqrt
from typing import Optional

import numpy as np

from .errors import (DomainError, NumericalError, check_count,
                     check_nonnegative)

IID = "iid"
POWER_DECAY = "power_decay"
CONSTANT = "constant"


@dataclass(frozen=True)
class NoiseModel:
    """Centered Gaussian field specification.

    ``gamma0`` is the variance gamma(v, v) at every vertex, and for power
    decay also the prefactor of gamma0 * (dist + 1)^-beta; every admissible
    covariance is therefore nonnegative.  ``beta`` is power decay's alone.
    """

    kind: str
    gamma0: float = 1.0
    beta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (IID, POWER_DECAY, CONSTANT):
            raise DomainError(f"unknown noise kind {self.kind!r}")
        # Power decay's gamma0 is also its decay scale, so it is positive.
        check_nonnegative(self.gamma0, "gamma0",
                          positive=self.kind == POWER_DECAY)
        if self.kind != POWER_DECAY:
            if self.beta is not None:
                raise DomainError(f"noise kind {self.kind!r} takes no beta")
        elif self.beta is None:
            raise DomainError("noise kind 'power_decay' needs a beta")
        else:
            check_nonnegative(self.beta, "beta", positive=True)

    @property
    def moment_constant(self):
        """m = sqrt(gamma0), with E|xi(v)|^p <= p! m^p at every vertex: each
        xi(v) is a centred Gaussian of variance gamma0, and for one of
        standard deviation s, E|xi|^p <= p! s^p."""
        return sqrt(self.gamma0)


def iid_gaussian(gamma0=1.0):
    return NoiseModel(IID, gamma0=gamma0)


def power_decay_gaussian(beta, gamma0=1.0):
    return NoiseModel(POWER_DECAY, gamma0=gamma0, beta=beta)


def constant_gaussian(gamma0=1.0):
    return NoiseModel(CONSTANT, gamma0=gamma0)


def covariance(model, graph, u, v):
    """gamma(u, v) = E[xi(u) xi(v)] for the given model."""
    if model.kind == IID:
        return model.gamma0 if u == v else 0.0
    if model.kind == CONSTANT:
        return model.gamma0
    return decay_kernel(model, graph.distance(u, v))


def covariance_matrix(model, graph, vertices):
    """gamma(u, v) over an ordered vertex list, as a dense matrix."""
    m = len(vertices)
    if model.kind == IID:
        return model.gamma0 * np.eye(m)
    if model.kind == CONSTANT:
        return np.full((m, m), model.gamma0)
    return decay_kernel(model, graph.distances(vertices, vertices))


def decay_kernel(model, dist):
    """Power-decay covariance gamma0 * (dist + 1)^-beta at graph distance
    ``dist`` (elementwise for an array)."""
    return model.gamma0 * (dist + 1.0) ** -model.beta


def sample_field(model, graph, vertices, seed):
    """One realization of the field on an ordered vertex list: a float
    array whose i-th value is the field at ``vertices[i]``; the first row
    of ``sample_fields`` (``seed`` may be a Generator)."""
    return sample_fields(model, graph, vertices, 1, seed)[0]


def sample_fields(model, graph, vertices, m, seed):
    """m draws of the field on an ordered vertex list from one generator,
    ``default_rng(seed)`` (a Generator is used as it is), one row each,
    with the covariance factored once.

    Row i comes from row i of one (m, n) standard-normal draw (one normal
    per row for constant noise), and a power-decay row is ``chol @ z`` as
    a batched product (a stacked ``Z @ chol.T`` is one BLAS call whose last
    bits depend on m), so the rows for m are a prefix of those for any
    larger m.
    """
    rng = np.random.default_rng(seed)
    n = len(vertices)
    if model.kind == IID:
        return sqrt(model.gamma0) * rng.standard_normal((m, n))
    if model.kind == CONSTANT:
        z = rng.standard_normal((m, 1))
        return np.repeat(sqrt(model.gamma0) * z, n, axis=1)
    chol = _psd_factor(covariance_matrix(model, graph, vertices))
    z = rng.standard_normal((m, n))
    return np.matmul(chol, z[:, :, None])[..., 0]


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
    """Monte Carlo check of |E e^{<f,xi>} - 1| <= 2 m^2 |f|_1^2, for
    |f|_1 <= 1/(2m) (any f when m = 0)."""
    m = model.moment_constant
    norm1 = sum(abs(x) for x in f.values())
    if 2.0 * m * norm1 > 1.0:
        raise DomainError(f"requires |f|_1 <= 1/(2m) = {0.5 / m!r}, got "
                          f"|f|_1 = {norm1!r}")
    n_samples = check_count(n_samples, "n_samples", 2)   # the SE takes n - 1
    rhs = 2.0 * m * m * norm1 * norm1
    support = tuple(v for v, c in f.items() if c != 0.0)
    if not support:
        return BoundReport(lhs=0.0, rhs=rhs, stderr=0.0, passed=True)
    coeffs = np.array([f[v] for v in support])
    fields = sample_fields(model, graph, support, n_samples, seed)
    vals = np.exp(fields @ coeffs)
    lhs = abs(vals.mean() - 1.0)
    se = vals.std(ddof=1) / sqrt(n_samples)
    return BoundReport(lhs=lhs, rhs=rhs, stderr=se, passed=lhs <= rhs + 3.0 * se)


def moment_bound_probe(model, graph, p_max, n_samples, seed):
    """Max over even p <= p_max of empirical E|xi|^p / (p! m^p) at one
    vertex; 0 when m = 0, where xi = 0 meets every bound p! m^p = 0.  A
    p_max below 2, which would take no moment, is refused."""
    if p_max < 2:
        raise DomainError(f"the probe takes even p from 2, got p_max = "
                          f"{p_max!r}")
    if p_max > 10:
        raise DomainError(f"sampling accuracy limits the probe to p <= 10, "
                          f"got p_max = {p_max!r}")
    n_samples = check_count(n_samples, "n_samples", 1)
    m = model.moment_constant
    if m == 0.0:
        return 0.0
    draws = sample_fields(model, graph, (graph.root,), n_samples, seed)[:, 0]
    worst = 0.0
    for p in range(2, p_max + 1, 2):
        worst = max(worst, (np.abs(draws) ** p).mean() / (factorial(p) * m ** p))
    return worst
