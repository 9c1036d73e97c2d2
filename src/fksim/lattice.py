"""Graph geometry: lattices Z^d (l1 or l∞ adjacency) and explicit finite graphs.

Vertices of lattice graphs are integer coordinate tuples of arity d (a
vertex of another shape, a bare number included, is refused by name);
vertices of explicit graphs are 0-based integer indices, whose BFS hop
counts are cached as one int64 array per source.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce
from math import comb

import numpy as np

from .errors import ConfigError, DomainError, InputError

ZD_L1 = "zd_l1"
ZD_LINF = "zd_linf"
EXPLICIT = "explicit"

_LATTICE_KINDS = (ZD_L1, ZD_LINF)


def _index(v, name):
    """``v`` as a Python int (numpy's too), or InputError naming it."""
    try:
        return operator.index(v)
    except TypeError:
        raise InputError(f"{name} {v!r} is not an integer") from None


class GraphModel:
    """A rooted graph with distance, ball enumeration and lattice coordination counts.

    Immutable after construction (distance caches aside).
    """

    def __init__(self, kind, d, root, adjacency=None):
        if kind not in (_LATTICE_KINDS + (EXPLICIT,)):
            raise ConfigError(f"unknown graph kind {kind!r}")
        if d < 1:
            raise ConfigError(f"growth dimension d must be >= 1, got {d!r}")
        self.kind = kind
        self.d = int(d)
        self.root = root
        self.adjacency = adjacency
        self._dist_cache = {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zd_l1(cls, d):
        return cls(ZD_L1, d, root=(0,) * d)

    @classmethod
    def zd_linf(cls, d):
        return cls(ZD_LINF, d, root=(0,) * d)

    @classmethod
    def explicit(cls, n_vertices, edges, root=0):
        """Vertices 0..n_vertices - 1; n_vertices, edges and root may be any
        integers (numpy's too), which are stored as Python ints."""
        n_vertices = _index(n_vertices, "n_vertices")
        adj = [set() for _ in range(n_vertices)]
        for u, v in edges:
            u, v = _index(u, "vertex"), _index(v, "vertex")
            if u == v:
                raise ConfigError(f"self-loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise InputError(f"edge ({u},{v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        adjacency = tuple(tuple(sorted(s)) for s in adj)
        root = _index(root, "vertex")
        if not 0 <= root < n_vertices:
            raise InputError(f"root {root} not a vertex")
        return cls(EXPLICIT, 1, root, adjacency=adjacency)

    @classmethod
    def from_edge_list(cls, path):
        """Load an explicit graph: first line 'n_vertices root', then 'u v'
        pairs ('#' starts a comment).  A line that is not two integers is a
        ``ConfigError`` naming ``path:line``."""
        rows = []
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                parts = raw.split("#", 1)[0].split()
                if not parts:
                    continue
                try:
                    u, v = map(int, parts)
                except ValueError:
                    want = "an edge 'u v'" if rows else "'n_vertices root'"
                    raise ConfigError(f"{path}:{lineno}: expected {want}, got "
                                      f"{raw.strip()!r}") from None
                rows.append((u, v))
        if not rows:
            raise ConfigError(f"empty edge-list file {path}")
        (n, root), *edges = rows
        return cls.explicit(n, edges, root=root)

    # -- basic queries ----------------------------------------------------

    def check_vertex(self, v):
        """``v`` (an explicit graph's as a Python int, a lattice's as a
        tuple of Python ints), or InputError naming it."""
        if self.kind == EXPLICIT:
            i = _index(v, "vertex")
            if not 0 <= i < len(self.adjacency):
                raise InputError(f"vertex {v!r} not in graph")
            return i
        try:
            arity = len(v)
        except TypeError:   # a bare number
            arity = None
        if arity != self.d:
            raise InputError(f"vertex {v!r} is not a tuple of d={self.d} "
                             "coordinates")
        return tuple(_index(c, "coordinate") for c in v)

    def neighbors(self, v):
        if self.kind == ZD_L1:
            out = []
            for i in range(self.d):
                for s in (-1, 1):
                    w = list(v)
                    w[i] += s
                    out.append(tuple(w))
            return out
        if self.kind == ZD_LINF:
            out = []
            for off in itertools.product((-1, 0, 1), repeat=self.d):
                if any(off):
                    out.append(tuple(a + b for a, b in zip(v, off)))
            return out
        return list(self.adjacency[v])

    def distance(self, u, v):
        """Graph distance; raises InputError for invalid or disconnected pairs."""
        u, v = self.check_vertex(u), self.check_vertex(v)
        if self.kind == ZD_L1:
            return sum(abs(a - b) for a, b in zip(u, v))
        if self.kind == ZD_LINF:
            return max(abs(a - b) for a, b in zip(u, v))
        hops = self._bfs_from(u)[v]
        if hops < 0:
            raise InputError(f"no path between {u} and {v}")
        return int(hops)

    def distances(self, us, vs):
        """Graph distances as an int64 matrix, a row per vertex of ``us`` and
        a column per vertex of ``vs``: the lattice norm of the coordinate
        differences, or BFS distances; each vertex is refused as
        ``check_vertex`` refuses it, and a pair as ``distance`` does."""
        if self.kind in _LATTICE_KINDS:
            a, b = (np.array([self.check_vertex(w) for w in ws],
                             dtype=np.int64).reshape(-1, self.d)
                    for ws in (us, vs))
            diff = np.abs(a[:, None] - b[None])
            return diff.sum(axis=2) if self.kind == ZD_L1 else diff.max(axis=2)
        us = [self.check_vertex(u) for u in us]
        vs = [self.check_vertex(v) for v in vs]
        out = np.empty((len(us), len(vs)), dtype=np.int64)
        cols = np.array(vs, dtype=np.intp)
        for i, u in enumerate(us):
            out[i] = self._bfs_from(u)[cols]
        if (out < 0).any():
            i, j = np.argwhere(out < 0)[0]
            raise InputError(f"no path between {us[i]} and {vs[j]}")
        return out

    def grid_norms(self, coords):
        """Lattice norm of every point of coords^d, as a d-dimensional array
        indexed like ``coords`` along each axis."""
        if self.kind not in _LATTICE_KINDS:
            raise DomainError(f"grid norms need a lattice kind, not "
                              f"{self.kind!r}")
        a = np.abs(coords).astype(float)
        combine = np.add if self.kind == ZD_L1 else np.maximum
        return reduce(combine.outer, [a] * self.d)

    def _bfs_from(self, u):
        """Hop counts from the vertex ``u`` of an explicit graph to every
        vertex, -1 where there is no path, as one int64 array cached per
        source."""
        dist = self._dist_cache.get(u)
        if dist is None:
            dist = np.full(len(self.adjacency), -1, dtype=np.int64)
            layers = self._spheres(u, len(self.adjacency) - 1)
            for k, layer in enumerate(layers):
                dist[layer] = k
            self._dist_cache[u] = dist
        return dist

    # -- spheres and balls -------------------------------------------------

    def _spheres(self, center, n):
        """Spheres 0..n via breadth-first layers, to the last nonempty one."""
        if n < 0:
            raise DomainError(f"radius must be >= 0, got {n}")
        center = self.check_vertex(center)
        layers = [[center]]
        seen = {center}
        for _ in range(n):
            nxt = []
            for v in layers[-1]:
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if not nxt:   # a finite graph's radius may pass its diameter
                break
            layers.append(nxt)
        return layers

    def ball(self, center, n):
        """Ordered vertex list of the radius-n ball.

        Lattice kinds are lexicographically ordered for reproducible matrices;
        explicit graphs keep BFS insertion order.  Either way the radius-k
        ball, k <= n, is the radius-n ball's vertices within k, in order.
        """
        verts = [v for layer in self._spheres(center, n) for v in layer]
        if self.kind in _LATTICE_KINDS:
            verts.sort()
        return verts

    def coordination_count(self, n):
        """c_n: number of vertices at distance exactly n from the root of a
        lattice, in closed form.

        ``n`` may also be an array of n >= 1, which gives float counts.  Both
        closed forms are sums of positive terms, so nothing cancels: an
        integer n gives the exact count, an array the count to roundoff
        (exact below 2**53).
        """
        if self.kind not in _LATTICE_KINDS:
            raise DomainError("radial closed forms require a lattice kind")
        if np.ndim(n):
            n = np.asarray(n, dtype=float)
        elif n < 0:
            raise InputError(f"n must be >= 0, got {n!r}")
        elif n == 0:
            return 1
        d = self.d
        if self.kind == ZD_L1:
            # sum over k of C(d, k) 2^k C(n-1, k-1); binom steps through
            # C(n-1, k-1), which is 0 from k = n + 1 on.
            total = 0
            binom = np.ones_like(n) if np.ndim(n) else 1
            for k in range(1, d + 1):
                total = total + comb(d, k) * 2 ** k * binom
                binom = binom * (n - k) // k
            return total
        # (2n+1)^d - (2n-1)^d as the sum of its odd binomial terms.
        return sum(2 * comb(d, k) * (2 * n) ** (d - k)
                   for k in range(1, d + 1, 2))
