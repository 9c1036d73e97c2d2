"""Finite Dirichlet truncations of H = -H_X + V + xi and their spectra.

The truncated operator lives on the radius-n ball around the root; a walk
is killed when it leaves the ball.  ``Truncation`` describes that ball once
as arrays (vertices, neighbour table, cumulative jump table, rates,
distances, the potential vector and the off-diagonal entries), which the
dense assembly, the batched eigenvalues, the exact traces and the Monte
Carlo walks share.  At build it decides the eigen route: a truncation
whose off-diagonal part is symmetric up to roundoff (the lattices) takes
LAPACK's symmetric solver, any other the general one, and
``Truncation.traces`` takes the exact traces Tr e^{-tM} over a t grid the
same way.  ``Truncation.blocks`` fills and solves ensemble members a block
of at most ``_BLOCK_ELEMS`` matrix entries at a time; this module owns that
budget.  Matrix exponentials are a degree-16 Taylor polynomial, evaluated
with five matrix products, three of them squares (Sastre's scheme,
B_1 + (B_2 + A_8) A_8 with A_8 = B_3 + B_4^2, its constant term moved out
of A_8), with scaling and squaring and a diagonal shift folded into the
scale; no linear solve, real matrices alone.  On a large exactly symmetric
matrix, the squares among those products are R R^T (BLAS syrk, half the
flops).  ``expm_traces`` takes the traces of one matrix over a t grid from
exponentials alone, squaring e^{-tM} where the grid doubles t instead of
exponentiating again: the second route that ``spectral-check`` holds
against the eigenvalues.  Every t, every vertex rate and the potential's
alpha (> 0) and kappa must be finite and >= 0 (``errors.check_nonnegative``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, isfinite, log2

import numpy as np

from .errors import (ConfigError, DomainError, InputError, NumericalError,
                     check_nonnegative)

# Entries of one cache-sized working block (512 KiB of float64) of the
# ensemble matrices that Truncation.blocks solves; no output depends on it.
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class PotentialSpec:
    """Deterministic potential V(v) = (kappa * d(0, v))**alpha - mu, the one
    law that the truncations, the radial sums and ``radius_for`` assume.

    Refuses, naming the field, a non-finite value, alpha <= 0 and
    kappa < 0; kappa = 0 is the constant potential -mu.
    """

    alpha: float = 2.0
    kappa: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        check_nonnegative(self.alpha, "alpha", positive=True)
        check_nonnegative(self.kappa, "kappa")
        if not isfinite(self.mu):
            raise DomainError(f"mu = {self.mu!r} is not finite")

    def radial(self, dist):
        """(kappa * dist)**alpha - mu, elementwise, as floats."""
        return (self.kappa * np.asarray(dist, float)) ** self.alpha - self.mu


# Off-diagonal entries that differ by at most this fraction of the largest
# one count as symmetric: jump probabilities are differences of cumulative
# rows, so Z^3 l1 entries differ by 1.1e-16 where the exact values agree.
_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Truncation:
    """The radius-n ball, as arrays in ``graph.ball`` order.

    Row i describes ``vertices[i]``: ``nbr[i, k]`` is the row of its k-th
    kernel target (-1 for a target outside the ball, and as padding),
    ``cum[k, i]`` the cumulative probability of targets 0..k, +inf at the
    last and as padding (the walker counts a column's entries <= u),
    ``rate[i]`` its jump rate, ``dist[i]`` its graph distance to the root
    and ``potential[i]`` V there.  ``offdiag`` is the (rows, cols, values)
    of -H_X off the diagonal, and ``symmetric`` says whether those entries
    are symmetric up to roundoff, which selects the eigen route.  Built
    once per (graph, walk, potential, radius), it serves the walker and any
    number of fields; a field is a float array with one value per vertex,
    in ``vertices`` order.
    """

    vertices: tuple
    nbr: np.ndarray
    cum: np.ndarray
    rate: np.ndarray
    dist: np.ndarray
    potential: np.ndarray
    offdiag: tuple
    symmetric: bool

    @classmethod
    def build(cls, graph, spec, pot, n):
        """Truncation of the radius-n ball; calls ``spec.rate``,
        ``spec.kernel`` and ``graph.neighbors`` once per vertex, and
        ``graph.distances`` and ``pot.radial`` once, for the root distances,
        and refuses a walk that breaks ``MarkovSpec``'s rules."""
        vertices = tuple(graph.ball(graph.root, n))
        index = {v: i for i, v in enumerate(vertices)}
        m = len(vertices)
        kernels = [spec.kernel(v) for v in vertices]
        width = max([1] + [len(targets) for targets, _ in kernels])
        nbr = np.full((m, width), -1, dtype=np.intp)
        cum = np.full((m, width), inf)
        deg = np.empty(m, dtype=np.intp)
        rate = np.empty(m)
        for i, (v, (targets, probs)) in enumerate(zip(vertices, kernels)):
            r = check_nonnegative(spec.rate(v), f"rate at vertex {v}")
            if r > 0 and not targets:
                raise ConfigError(f"vertex {v} has a positive rate {r!r} but "
                                  "no jump targets")
            k = len(targets)
            deg[i] = k
            nbr[i, :k] = [index.get(u, -1) for u in targets]
            cum[i, :k] = probs
            rate[i] = r
        # A self-jump entry would overwrite the matrix diagonal, and in a row
        # that does not end at 1 the walk and the matrix would give the last
        # target different probabilities.
        own = np.flatnonzero((nbr == np.arange(m)[:, None]).any(axis=1))
        if own.size:
            raise ConfigError(f"vertex {vertices[own[0]]} lists itself as a "
                              "jump target")
        ends = cum[np.arange(m), deg - 1]
        short = np.flatnonzero((deg > 0) & ~(np.abs(ends - 1.0) <= 1e-12))
        if short.size:
            i = short[0]
            raise ConfigError(f"jump probabilities at vertex {vertices[i]} "
                              f"end at {float(ends[i])!r}, not 1")
        # The walk jumps along the graph's edges alone.
        for v, (targets, _) in zip(vertices, kernels):
            nbrs = set(graph.neighbors(v))
            for u in targets:
                if u not in nbrs:
                    raise ConfigError(f"vertex {v} lists {u}, not a graph "
                                      "neighbour, as a jump target")
        dist = graph.distances([graph.root], vertices)[0]
        potential = pot.radial(dist)
        # Targets inside the ball (nbr -1 marks the others and the padding),
        # with their jump probabilities from the cumulative rows.
        rows, k = np.nonzero(nbr >= 0)
        prob = cum[rows, k] - np.where(k > 0, cum[rows, k - 1], 0.0)
        hit = prob > 0.0
        rows, k = rows[hit], k[hit]
        cols, vals = nbr[rows, k], -rate[rows] * prob[hit]
        # Symmetric when the transposed pattern is the same pattern and each
        # entry matches its mirror image.
        flat, mirror = rows * m + cols, cols * m + rows
        a, b = np.argsort(flat), np.argsort(mirror)
        tol = _SYMMETRY_RTOL * np.abs(vals).max(initial=0.0)
        symmetric = bool(np.array_equal(flat[a], mirror[b])
                         and np.all(np.abs(vals[a] - vals[b]) <= tol))
        # Any u past the other ends takes the last target (a row without
        # targets, read at column -1, is +inf throughout already).
        cum[np.arange(m), deg - 1] = inf
        return cls(vertices=vertices, nbr=nbr,
                   cum=np.ascontiguousarray(cum.T), rate=rate, dist=dist,
                   potential=potential,
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
        h[:, diag, diag] = self.rate + (self.potential + fields)
        rows, cols, vals = self.offdiag
        h[:, rows, cols] = vals
        return h

    def blocks(self, fields):
        """Yield (matrices, ascending eigenvalues) for the rows of ``fields``
        in order, a block at a time: a block holds at most ``_BLOCK_ELEMS``
        matrix entries, or one member that alone has more.

        The symmetric route (``eigvalsh``) gives real rows; the general one
        (``eigvals``) gives rows sorted by real then imaginary part.  Each
        matrix is solved alone, so no row depends on the block size.
        """
        fields = np.asarray(fields, dtype=float)
        size = len(self.potential)
        solve = np.linalg.eigvalsh if self.symmetric else np.linalg.eigvals
        step = max(1, _BLOCK_ELEMS // (size * size))
        for lo in range(0, len(fields), step):
            h = self.matrices(fields[lo:lo + step])
            yield h, np.sort(solve(h), axis=1)

    def eigenvalues(self, fields):
        """Ascending eigenvalues of the matrix of each row of ``fields``,
        one row each, from ``blocks``."""
        parts = [eigs for _, eigs in self.blocks(fields)]
        return np.concatenate(parts or [np.empty((0, len(self.potential)))])

    def traces(self, fields, ts):
        """Tr e^{-tM}, M the matrix of each row of ``fields`` (rows), at
        each t of ``ts`` (columns).  The symmetric route sums e^{-t lambda}
        over one ``eigenvalues`` call, a column at a time, so a column has
        the bits of a one-t call; the general one takes ``expm_traces`` one
        member at a time, so no more than one matrix is held."""
        for t in ts:
            check_nonnegative(t)
        fields = np.asarray(fields, dtype=float)
        out = np.empty((len(fields), len(ts)))
        if self.symmetric:
            eigs = self.eigenvalues(fields)
            for j, t in enumerate(ts):
                out[:, j] = np.exp(-t * eigs).sum(axis=1)
        else:
            for i, f in enumerate(fields):
                out[i] = expm_traces(self.matrices(f[None])[0], ts)
        return out


def assemble(graph, spec, pot, field, n):
    """Dense matrix of the radius-n Dirichlet truncation of -H_X + V + xi,
    with ``field`` the values of xi in ``graph.ball`` order."""
    return Truncation.build(graph, spec, pot, n).matrices([field])[0]


# -- matrix exponential ------------------------------------------------------

# The largest theta with sum_{k>16} theta^k / k! <= 2^-53: for ||X||_1 <=
# theta the degree-16 Taylor remainder of e^X is below unit roundoff.
_THETA_16 = 0.8246
# The degree-16 Taylor polynomial T(X) = sum_{k<=16} X^k / k! in five
# products, T = B_1 + (B_2 + A_8) A_8 with A_8 = B_3 + B_4^2 (Sastre, Linear
# Algebra Appl. 539, 2018; Bader, Blanes and Casas, Mathematics 7, 2019):
# row j - 1 holds the coefficients of I, X, .., X^4 in B_j.  Derived at 50
# digits and rounded to float.  P = A_8 + B_2/2 satisfies T = P^2 + (B_1 -
# B_2^2/4), so P's coefficients p_8 .. p_1 (p_8 = +sqrt(1/16!)) follow one at
# a time from T's degrees 16 .. 9, with p_0 = 4.3 free; -B_2^2/4 = T - P^2
# on degrees 8 .. 5 gives B_2 (leading coefficient positive, B_2(0) = 0) and
# B_4^2 = P on degrees 8 .. 5 gives B_4 (the same, B_4(0) = 0); B_1 and B_3
# are what remains on degrees 0 .. 4.  Last, A_8's constant a = p_0 is moved
# out (A_8 - a, B_2 + 2a, B_1 + a B_2 + a^2): with P(0) near 4 the terms
# would otherwise be ~10 times the result and lose most of a digit.
_TAYLOR_BLOCKS = np.array([
    [1.0, 0.4291905284949576, 0.27521634838827314, 0.03579296805128414,
     0.004310123447520192],
    [8.6, 1.8499880303489713, 0.3066413697749773, 0.021029161802194565,
     0.0016379638000869174],
    [0.0, 0.06637319436105144, -0.014523119208874493, 0.004820311435975411,
     0.000517224503414974],
    [0.0, 0.16084351082268095, 0.016832460434931727, 0.0018702733816590808,
     0.0004675683454147702]])
# From this dimension on, an exactly symmetric X is squared as X @ X.T,
# which numpy hands to BLAS syrk (half of gemm's flops).  With one OpenBLAS
# thread syrk took 1.19 times gemm's time at n = 100, where OpenBLAS's
# small-matrix gemm (n^3 <= 10^6) still runs, and 0.74 at n = 101.
_SYRK_MIN_DIM = 101


def expm_neg(mat, t=1.0):
    """e^{-t M} by Taylor scaling and squaring (Higham 2005's shift).

    With A = -tM and mu the midpoint of A's diagonal, e^A = e^mu
    e^{A - mu I}.  X = (A - mu I) / 2^s has ||X||_1 <= 0.8246; its
    degree-16 Taylor polynomial, B_1 + (B_2 + A_8) A_8 with A_8 = B_3 +
    B_4^2 and each B_j a combination of I, X, .., X^4 (five products:
    X^2, X^3, X^4, B_4^2 and the last), times e^{mu / 2^s} is squared s
    times.  Folding e^mu into the scaled factor keeps every intermediate
    within the size of the unshifted method's, so the shift adds no
    overflow.  X^2, X^4, B_4^2 and the s squarings are R R^T when X is
    exactly symmetric and n >= ``_SYRK_MIN_DIM``.  A t below 0 or not
    finite raises ``DomainError``, a complex M ``InputError``, a non-finite
    or overflowing result ``NumericalError``.  The result is a fresh array.
    """
    check_nonnegative(t)
    a = np.asarray(mat)
    if np.iscomplexobj(a):
        raise InputError(f"expm_neg takes a real matrix, not {a.dtype}")
    a = a.astype(float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    n = len(a)
    if n == 0:
        return np.empty_like(a)
    buf = np.empty((9, n, n))   # X .. X^4, 4 blocks, a product buffer
    x, x2, x3, x4, blocks = buf[0], buf[1], buf[2], buf[3], buf[4:8]
    # A non-finite M or -tM, or an overflow, makes the norm inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a, -t, out=x)
        diag = x.diagonal()
        mu = 0.5 * (diag.max() + diag.min())
        x.reshape(-1)[::n + 1] -= mu
        norm = np.abs(x).sum(axis=0).max()
        if not isfinite(norm):
            raise NumericalError(
                "matrix has non-finite entries" if not np.isfinite(a).all()
                else "overflow forming -t*M" if not np.isfinite(a * -t).all()
                else "overflow in the matrix exponential")
    s = max(0, ceil(log2(norm / _THETA_16))) if norm > 0.0 else 0
    sym = n >= _SYRK_MIN_DIM and np.array_equal(x, x.T)

    def square(m, out):
        return np.matmul(m, m.T if sym else m, out=out)

    # r passes between ``out`` and buf[8] over the s squarings after its
    # first value; it starts where the last product lands in ``out``.
    out = np.empty_like(x)
    r, spare = (buf[8], out) if s % 2 else (out, buf[8])
    with np.errstate(over="ignore", invalid="ignore"):
        x *= 2.0 ** -s
        square(x, x2)
        np.matmul(x2, x, out=x3)
        square(x2, x4)
        np.matmul(_TAYLOR_BLOCKS[:, 1:], buf[:4].reshape(4, -1),
                  out=blocks.reshape(4, -1))
        blocks.reshape(4, -1)[:, ::n + 1] += _TAYLOR_BLOCKS[:, :1]
        b1, b2, b3, b4 = blocks
        a8 = square(b4, x)      # X is spent once the blocks are formed
        a8 += b3
        b2 += a8
        np.matmul(b2, a8, out=r)
        r += b1
        r *= np.exp(mu * 2.0 ** -s)
        for _ in range(s):
            r, spare = square(r, spare), r
    if not np.all(np.isfinite(r)):
        raise NumericalError("overflow in the matrix exponential")
    return r


def expm_traces(mat, t_grid):
    """Tr e^{-tM} for each t of ``t_grid``, in grid order.

    The distinct t are walked in ascending order.  When t/2 is in the grid
    (halving is exact in binary), E = e^{-(t/2)M} is at hand and the trace
    is Tr E^2 = sum_ij E_ij E_ji, an elementwise product; E @ E itself is
    formed only when 2t is in the grid too.  Any other t takes ``expm_neg``,
    so a grid of successive doublings costs one matrix exponential.  A
    trace that overflows raises, as ``expm_neg`` does, and a negative or
    non-finite t is refused before any exponential.
    """
    for t in t_grid:
        check_nonnegative(t)
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

# Eigenvalues whose real parts, and then imaginary parts, lie within this of
# a neighbour's form one cluster; images and sources match within it too.
_CLUSTER_TOL = 1e-6


def spectrum(mat):
    """Eigenvalue clusters (value, algebraic multiplicity), sorted by real
    then imaginary part.

    The dense solver (balanced Hessenberg reduction plus shifted QR, via
    LAPACK) provides the raw eigenvalues.  Sorted by real part, they split
    where consecutive real parts are more than ``_CLUSTER_TOL`` apart; each
    run, sorted by imaginary part, splits the same way.  A cluster is
    reported at the mean of its eigenvalues.
    """
    a = np.asarray(mat)
    if a.shape[0] > 2000:
        raise DomainError("dense solver limited to dimension <= 2000")
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"QR iteration failed: {err}") from None
    eigs = eigs[np.argsort(eigs.real)]
    run = np.concatenate(([0], np.cumsum(np.diff(eigs.real) > _CLUSTER_TOL)))
    order = np.lexsort((eigs.imag, run))
    eigs, run = eigs[order], run[order]
    label = np.concatenate(([0], np.cumsum(
        (np.diff(run) != 0) | (np.diff(eigs.imag) > _CLUSTER_TOL))))
    counts = np.bincount(label)
    centers = (np.bincount(label, eigs.real)
               + 1j * np.bincount(label, eigs.imag)) / counts
    return tuple(sorted(
        ((complex(c), int(m)) for c, m in zip(centers, counts)),
        key=lambda cm: (cm[0].real, cm[0].imag)))


@dataclass(frozen=True)
class ClusterCheck:
    image: complex
    mult_image: int
    mult_summed: int
    aliased: bool

    @property
    def passed(self):
        return self.mult_image == self.mult_summed


def multiplicity_pushforward(mat, t):
    """Verify m_a(mu, e^{-tM}) = sum of m_a(lambda, M) over e^{-t lambda} = mu.

    Source eigenvalue clusters whose images coincide within
    ``_CLUSTER_TOL`` while the sources stay separated are flagged as aliased
    and counted toward the summed side.  A complex M = B + iC takes
    e^{-tM} from the real [[B, -C], [C, B]], whose exponential is
    [[Re, -Im], [Im, Re]] of it.
    """
    check_nonnegative(t)
    a = np.asarray(mat)
    n = a.shape[0]
    if n > 50:
        raise DomainError("exactness regime limited to dimension <= 50")
    src = spectrum(a)
    if np.iscomplexobj(a):
        e = expm_neg(np.block([[a.real, -a.imag], [a.imag, a.real]]), t)
        e = e[:n, :n] + 1j * e[n:, :n]
    else:
        e = expm_neg(a, t)
    checks = []
    for mu, m_img in spectrum(e):
        sources = [(lam, m) for lam, m in src
                   if abs(np.exp(-t * lam) - mu) <= _CLUSTER_TOL]
        aliased = any(abs(sources[i][0] - sources[j][0]) > _CLUSTER_TOL
                      for i in range(len(sources))
                      for j in range(i + 1, len(sources)))
        checks.append(ClusterCheck(image=mu, mult_image=m_img,
                                   mult_summed=sum(m for _, m in sources),
                                   aliased=aliased))
    return checks
