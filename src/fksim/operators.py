"""Finite Dirichlet truncations of H = -H_X + V + xi and their spectra.

The truncated operator lives on the radius-n ball around the root; a walk
is killed when it leaves the ball.  ``Truncation`` describes that ball once
as arrays (a ``walker.Region``, the potential vector and the off-diagonal
entries), which the dense assembly, the batched eigenvalues and the killed
Monte Carlo walks share.  At build it decides the eigen route:
a truncation whose off-diagonal part is symmetric up to roundoff (the
lattices) takes LAPACK's symmetric solver, any other the general one.
Matrix exponentials are a degree-16 Taylor polynomial, evaluated with six
matrix products (Paterson-Stockmeyer), with scaling and squaring and a
diagonal shift folded into the scale; no linear solve.  Traces over a t
grid square e^{-tM} where the grid doubles t instead of exponentiating
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, factorial, isfinite, log2
from typing import Optional

import numpy as np

from .errors import DomainError, InputError, NumericalError
from .walker import _MAX_ELEMS, Region


@dataclass(frozen=True)
class PotentialSpec:
    """Deterministic potential V(v) = (kappa * d(0, v))**alpha - mu.

    A ``custom`` map overrides the radial rule entirely; its values must be
    finite.
    """

    alpha: float = 2.0
    kappa: float = 1.0
    mu: float = 0.0
    custom: Optional[dict] = None

    def __post_init__(self):
        if self.custom is not None and not all(map(isfinite,
                                                   self.custom.values())):
            raise InputError("custom potential values must be finite")

    def value(self, graph, v):
        if self.custom is not None:
            try:
                return self.custom[v]
            except KeyError:
                raise InputError(f"custom potential has no value at {v!r}") from None
        return self.radial(graph.distance(graph.root, v))

    def radial(self, dist):
        """(kappa * dist)**alpha - mu, elementwise for an array of distances."""
        return (self.kappa * dist) ** self.alpha - self.mu


# Off-diagonal entries that differ by at most this fraction of the largest
# one count as symmetric: jump probabilities are differences of cumulative
# rows, so Z^3 l1 entries differ by 1.1e-16 where the exact values agree.
_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Truncation:
    """The radius-n ball, as arrays in ``graph.ball`` order.

    ``region`` holds the walk's vertices, neighbour table, jump rates and
    distances; ``potential[i]`` is V at ``region.vertices[i]``; ``offdiag``
    is the (rows, cols, values) of -H_X off the diagonal.  ``symmetric``
    says whether those entries are symmetric up to roundoff, which selects
    the eigen route.  Built once per (graph, walk, potential, radius), it
    serves any number of fields; a field is a float array with one value
    per vertex, in ``region.vertices`` order.
    """

    region: Region
    potential: np.ndarray
    radius: int
    offdiag: tuple
    symmetric: bool

    @classmethod
    def build(cls, graph, spec, pot, n):
        if n < 0:
            raise DomainError("truncation radius must be >= 0")
        vertices = graph.ball(graph.root, n)
        potential = np.array([pot.value(graph, v) for v in vertices])
        reg = Region.build(graph, spec, vertices)
        # Targets inside the region (nbr -1 marks the others and the padding),
        # with their jump probabilities from the cumulative rows.
        rows, k = np.nonzero(reg.nbr >= 0)
        prob = reg.cum[rows, k] - np.where(k > 0, reg.cum[rows, k - 1], 0.0)
        hit = prob > 0.0
        rows, k = rows[hit], k[hit]
        cols, vals = reg.nbr[rows, k], -reg.rate[rows] * prob[hit]
        # Symmetric when the transposed pattern is the same pattern and each
        # entry matches its mirror image.
        flat, mirror = rows * len(vertices) + cols, cols * len(vertices) + rows
        a, b = np.argsort(flat), np.argsort(mirror)
        tol = _SYMMETRY_RTOL * np.abs(vals).max(initial=0.0)
        symmetric = bool(np.array_equal(flat[a], mirror[b])
                         and np.all(np.abs(vals[a] - vals[b]) <= tol))
        return cls(region=reg, potential=potential, radius=n,
                   offdiag=(rows, cols, vals), symmetric=symmetric)

    def matrices(self, fields):
        """Dense matrices of -H_X + V + xi, one per row of ``fields`` (the
        field's values on the truncation's vertices)."""
        fields = np.asarray(fields, dtype=float)
        size = len(self.potential)
        if fields.ndim != 2 or fields.shape[1] != size:
            raise InputError(f"fields must be rows of {size} values")
        h = np.zeros((len(fields), size, size))
        diag = np.arange(size)
        h[:, diag, diag] = self.region.rate + (self.potential + fields)
        rows, cols, vals = self.offdiag
        h[:, rows, cols] = vals
        return h

    def eigenvalues(self, fields):
        """Ascending eigenvalues of the matrix of each row of ``fields``.

        The symmetric route (``eigvalsh``) gives real rows; the general one
        (``eigvals``) gives rows sorted by real then imaginary part.  The
        matrices are filled in stacks of at most ``_MAX_ELEMS`` entries.
        """
        fields = np.asarray(fields, dtype=float)
        size = len(self.potential)
        solve = np.linalg.eigvalsh if self.symmetric else np.linalg.eigvals
        step = max(1, _MAX_ELEMS // (size * size))
        parts = [solve(self.matrices(fields[lo:lo + step]))
                 for lo in range(0, len(fields), step)]
        return np.sort(np.concatenate(parts or [np.empty((0, size))]), axis=1)


def assemble(graph, spec, pot, field, n):
    """Dense matrix of the radius-n Dirichlet truncation of -H_X + V + xi,
    with ``field`` the values of xi in ``graph.ball`` order."""
    return Truncation.build(graph, spec, pot, n).matrices([field])[0]


# -- matrix exponential ------------------------------------------------------

# The largest theta with sum_{k>16} theta^k / k! <= 2^-53: for ||X||_1 <=
# theta the degree-16 Taylor remainder of e^X is below unit roundoff.
_THETA_16 = 0.8246
# 1/k! for k = 4j + i in row j, column i: the Paterson-Stockmeyer blocks
# B_j = sum_i c_{4j+i} X^i of T(X) = B_0 + X^4 (B_1 + X^4 (B_2 + X^4 (B_3
# + c_16 X^4))).
_TAYLOR_BLOCKS = np.array([[1.0 / factorial(4 * j + i) for i in range(4)]
                           for j in range(4)])
_TAYLOR_16 = 1.0 / factorial(16)


def expm_neg(mat, t=1.0):
    """e^{-t M} by Taylor scaling and squaring (Higham 2005's shift).

    With A = -tM and mu the midpoint of the real parts of A's diagonal,
    e^A = e^mu e^{A - mu I}.  X = (A - mu I) / 2^s has ||X||_1 <= 0.8246;
    its degree-16 Taylor polynomial (six products, Paterson-Stockmeyer with
    block 4) times e^{mu / 2^s} is squared s times.  Folding e^mu into the
    scaled factor keeps every intermediate within the size of the unshifted
    method's, so the shift adds no overflow.  Real and complex M; a
    non-finite or overflowing result raises ``NumericalError``.
    """
    a = np.asarray(mat)
    if not np.issubdtype(a.dtype, np.complexfloating):
        a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    a = -t * a
    if not np.all(np.isfinite(a)):
        raise NumericalError("overflow forming -t*M")
    n = len(a)
    if n == 0:
        return a
    diag = np.arange(n)
    real = a.real.diagonal()
    mu = 0.5 * (real.max() + real.min())
    a[diag, diag] -= mu
    norm = np.abs(a).sum(axis=0).max()
    if not isfinite(norm):
        raise NumericalError("overflow in the matrix exponential")
    s = max(0, ceil(log2(norm / _THETA_16))) if norm > 0.0 else 0
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.empty((3, n, n), dtype=a.dtype)
        np.multiply(a, 2.0 ** -s, out=powers[0])
        np.matmul(powers[0], powers[0], out=powers[1])
        np.matmul(powers[1], powers[0], out=powers[2])
        x4 = powers[1] @ powers[1]
        blocks = np.tensordot(_TAYLOR_BLOCKS[:, 1:], powers, axes=1)
        blocks[:, diag, diag] += _TAYLOR_BLOCKS[:, :1]
        r = _TAYLOR_16 * x4 + blocks[3]
        for j in (2, 1, 0):
            r = x4 @ r
            r += blocks[j]
        r *= np.exp(mu * 2.0 ** -s)
        for _ in range(s):
            r = r @ r
    if not np.all(np.isfinite(r)):
        raise NumericalError("overflow in the matrix exponential")
    return r


def _expm_traces(mat, t_grid):
    """Tr e^{-tM} for each t of ``t_grid``, in grid order.

    The distinct t are walked in ascending order.  When t/2 is in the grid
    (halving is exact in binary), E = e^{-(t/2)M} is at hand and the trace
    is Tr E^2 = sum_ij E_ij E_ji, an elementwise product; E @ E itself is
    formed only when 2t is in the grid too.  Any other t takes ``expm_neg``,
    so a grid of successive doublings costs one matrix exponential.  A
    trace that overflows raises, as ``expm_neg`` does.
    """
    wanted = set(t_grid)
    traces, halves = {}, {}
    for t in sorted(wanted):
        e = halves.pop(t / 2, None)
        if e is None:
            e = expm_neg(mat, t)
            tr = np.trace(e)
        else:
            tr = np.sum(e * e.T)
            if 2 * t in wanted:
                e = e @ e
        if not np.isfinite(tr):
            raise NumericalError("overflow in the matrix exponential")
        traces[t] = tr
        if 2 * t in wanted:
            halves[t] = e
    return [traces[t] for t in t_grid]


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


def spectrum(mat, cluster_tol=None):
    """Eigenvalues with algebraic multiplicities obtained by clustering.

    The dense solver (balanced Hessenberg reduction plus shifted QR, via
    LAPACK) provides the raw eigenvalues.  Sorted by real part, they split
    where consecutive real parts are more than the tolerance apart; each run,
    sorted by imaginary part, splits the same way.  A cluster is reported at
    the mean of its eigenvalues.
    """
    a = np.asarray(mat)
    if a.shape[0] > 2000:
        raise DomainError("dense solver limited to dimension <= 2000")
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"QR iteration failed: {err}") from None
    if cluster_tol is None:
        cluster_tol = 1e-6 * (1.0 + float(np.abs(eigs).max(initial=0.0)))
    eigs = eigs[np.argsort(eigs.real)]
    run = np.concatenate(([0], np.cumsum(np.diff(eigs.real) > cluster_tol)))
    order = np.lexsort((eigs.imag, run))
    eigs, run = eigs[order], run[order]
    label = np.concatenate(([0], np.cumsum(
        (np.diff(run) != 0) | (np.diff(eigs.imag) > cluster_tol))))
    counts = np.bincount(label)
    centers = (np.bincount(label, eigs.real)
               + 1j * np.bincount(label, eigs.imag)) / counts
    clusters = tuple(sorted(
        ((complex(c), int(m)) for c, m in zip(centers, counts)),
        key=lambda cm: (cm[0].real, cm[0].imag)))
    return SpectrumResult(clusters=clusters, tol=cluster_tol)


def trace_identity_residual(mat, t, cluster_tol=None):
    """Relative gap between Tr e^{-tM} and the exponential linear statistic."""
    if t <= 0:
        raise DomainError("t must be positive")
    tr = np.trace(expm_neg(mat, t))
    stat = spectrum(mat, cluster_tol).linear_statistic(t)
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
