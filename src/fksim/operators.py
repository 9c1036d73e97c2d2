"""Finite Dirichlet truncations of H = -H_X + V + xi and their spectra.

The truncated operator lives on the radius-n ball around the root with the
infinite-potential vertices removed entirely.  ``Truncation`` describes that
region once as arrays (a ``walker.Region`` and the potential vector), which
the dense assembly and the killed Monte Carlo walks share.  Matrix
exponentials use degree-13 Pade approximation with scaling and squaring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, log2
from typing import Optional

import numpy as np

from .errors import DomainError, InputError, NumericalError
from .walker import Region


@dataclass(frozen=True)
class PotentialSpec:
    """Deterministic potential V(v) = (kappa * d(0, v))**alpha - mu.

    Vertices in ``dirichlet`` carry V = +inf and are removed from every
    truncation.  A ``custom`` map overrides the radial rule entirely.
    """

    alpha: float = 2.0
    kappa: float = 1.0
    mu: float = 0.0
    dirichlet: frozenset = frozenset()
    custom: Optional[dict] = None

    def value(self, graph, v):
        if v in self.dirichlet:
            return inf
        if self.custom is not None:
            try:
                return self.custom[v]
            except KeyError:
                raise InputError(f"custom potential has no value at {v!r}") from None
        return (self.kappa * graph.distance(graph.root, v)) ** self.alpha - self.mu


@dataclass(frozen=True)
class OperatorAssembly:
    """Dense truncation matrix with its vertex ordering and potential floor."""

    vertices: tuple
    index: dict
    matrix: np.ndarray
    radius: int
    omega0: float


@dataclass(frozen=True)
class Truncation:
    """The radius-n ball minus its Dirichlet vertices, as arrays.

    ``region`` holds the walk's vertices, neighbour table, jump rates and
    distances; ``potential[i]`` is V at ``region.vertices[i]``.  Built once
    per (graph, walk, potential, radius), it serves any number of fields.
    """

    region: Region
    potential: np.ndarray
    radius: int

    @classmethod
    def build(cls, graph, spec, pot, n):
        if n < 0:
            raise DomainError("truncation radius must be >= 0")
        ball, _ = graph.ball(graph.root, n)
        values = [pot.value(graph, v) for v in ball]
        vertices = [v for v, p in zip(ball, values) if p != inf]
        if not vertices:
            raise InputError("empty vertex list after Dirichlet removal")
        return cls(region=Region.build(graph, spec, vertices),
                   potential=np.array([p for p in values if p != inf]),
                   radius=n)

    def field(self, xi):
        """The field's values on the truncation's vertices."""
        return np.fromiter(map(xi.__getitem__, self.region.vertices),
                           dtype=float, count=len(self.region.vertices))

    def assemble(self, xi):
        """Dense matrix of -H_X + V + xi on the truncation."""
        reg = self.region
        diag = self.potential + self.field(xi)
        h = np.diag(reg.rate + diag)
        # Targets inside the region (nbr -1 marks the others and the padding),
        # with their jump probabilities from the cumulative rows.
        rows, k = np.nonzero(reg.nbr >= 0)
        prob = reg.cum[rows, k] - np.where(k > 0, reg.cum[rows, k - 1], 0.0)
        hit = prob > 0.0
        rows, k = rows[hit], k[hit]
        h[rows, reg.nbr[rows, k]] = -reg.rate[rows] * prob[hit]
        return OperatorAssembly(vertices=reg.vertices, index=reg.index,
                                matrix=h, radius=self.radius,
                                omega0=float(diag.min()))


def assemble(graph, spec, pot, xi, n):
    """Build the radius-n Dirichlet truncation of -H_X + V + xi."""
    return Truncation.build(graph, spec, pot, n).assemble(xi)


def omega0(pot, graph, xi, region):
    """min of V + xi over the region, Dirichlet vertices excluded."""
    vals = [pot.value(graph, v) + xi[v] for v in region
            if pot.value(graph, v) != inf]
    if not vals:
        raise InputError("region empty after Dirichlet removal")
    return min(vals)


# -- matrix exponential ------------------------------------------------------

_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm_neg(mat, t=1.0):
    """e^{-t M} by degree-13 Pade approximation with scaling and squaring."""
    a = np.asarray(mat)
    if not np.issubdtype(a.dtype, np.complexfloating):
        a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    a = -t * a
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        raise NumericalError("overflow forming -t*M")
    squarings = max(0, int(ceil(log2(norm / _THETA13)))) if norm > _THETA13 else 0
    a = a / (2.0 ** squarings)
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    try:
        r = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"Pade solve failed: {err}") from None
    for _ in range(squarings):
        r = r @ r
    if not np.all(np.isfinite(r)):
        raise NumericalError("overflow during squaring phase")
    return r


# -- spectra ------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalue clusters (value, algebraic multiplicity) and the tolerance used."""

    clusters: tuple
    tol: float

    @property
    def total_multiplicity(self):
        return sum(m for _, m in self.clusters)

    def linear_statistic(self, t):
        """sum of m_a * e^{-t lambda} over the clusters."""
        return sum(m * np.exp(-t * lam) for lam, m in self.clusters)


def default_cluster_tol(eigenvalues):
    radius = max((abs(e) for e in eigenvalues), default=0.0)
    return 1e-6 * (1.0 + radius)


def spectrum(mat, cluster_tol=None):
    """Eigenvalues with algebraic multiplicities obtained by clustering.

    The dense solver (balanced Hessenberg reduction plus shifted QR, via
    LAPACK) provides the raw eigenvalues; values within the tolerance of a
    cluster's running mean are merged.
    """
    a = np.asarray(mat)
    if a.shape[0] > 2000:
        raise DomainError("dense solver limited to dimension <= 2000")
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"QR iteration failed: {err}") from None
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(eigs)
    order = np.lexsort((eigs.imag, eigs.real))
    centers = []   # running means
    counts = []
    for lam in eigs[order]:
        placed = False
        for k in range(len(centers)):
            if abs(lam - centers[k]) <= cluster_tol:
                centers[k] = (centers[k] * counts[k] + lam) / (counts[k] + 1)
                counts[k] += 1
                placed = True
                break
        if not placed:
            centers.append(lam)
            counts.append(1)
    clusters = tuple(sorted(
        ((complex(c), m) for c, m in zip(centers, counts)),
        key=lambda cm: (cm[0].real, cm[0].imag)))
    return SpectrumResult(clusters=clusters, tol=cluster_tol)


def trace_identity_residual(mat, t, cluster_tol=None):
    """Relative gap between Tr e^{-tM} and the exponential linear statistic."""
    if t <= 0:
        raise DomainError("t must be positive")
    a = getattr(mat, "matrix", mat)
    tr = np.trace(expm_neg(a, t))
    spec = spectrum(a, cluster_tol)
    stat = spec.linear_statistic(t)
    return abs(tr - stat) / abs(tr)


@dataclass(frozen=True)
class ClusterCheck:
    image: complex
    mult_image: int
    mult_summed: int
    sources: tuple
    aliased: bool

    @property
    def passed(self):
        return self.mult_image == self.mult_summed


def multiplicity_pushforward(mat, t, cluster_tol=1e-6):
    """Verify m_a(mu, e^{-tM}) = sum of m_a(lambda, M) over e^{-t lambda} = mu.

    Source eigenvalue clusters whose images coincide within tolerance while
    the sources stay separated are flagged as aliased and counted toward the
    summed side.
    """
    a = np.asarray(mat)
    if a.shape[0] > 50:
        raise DomainError("exactness regime limited to dimension <= 50")
    src = spectrum(a, cluster_tol)
    img = spectrum(expm_neg(a, t), cluster_tol)
    checks = []
    for mu, m_img in img.clusters:
        sources = [(lam, m) for lam, m in src.clusters
                   if abs(np.exp(-t * lam) - mu) <= max(cluster_tol, img.tol)]
        summed = sum(m for _, m in sources)
        aliased = any(abs(sources[i][0] - sources[j][0]) > src.tol
                      for i in range(len(sources))
                      for j in range(i + 1, len(sources)))
        checks.append(ClusterCheck(image=mu, mult_image=m_img,
                                   mult_summed=summed,
                                   sources=tuple(sources), aliased=aliased))
    return checks


# -- plain-text matrix dump ---------------------------------------------------

def dump_matrix(mat, path):
    """Write 'n' then n rows of shortest-repr decimals; round-trip exact."""
    a = np.asarray(mat, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]}\n")
        for row in a:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_matrix(path):
    with open(path) as fh:
        n = int(fh.readline())
        rows = [list(map(float, fh.readline().split())) for _ in range(n)]
    a = np.array(rows)
    if a.shape != (n, n):
        raise InputError(f"matrix file {path} is malformed")
    return a
