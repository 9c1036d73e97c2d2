"""Graph geometry: lattices Z^d (l1 or l∞ adjacency) and explicit finite graphs.

Vertices of lattice graphs are integer coordinate tuples of arity d;
vertices of explicit graphs are 0-based integer indices.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import comb

import numpy as np

from .errors import ConfigError, DomainError, InputError

ZD_L1 = "zd_l1"
ZD_LINF = "zd_linf"
EXPLICIT = "explicit"

_LATTICE_KINDS = (ZD_L1, ZD_LINF)


class GraphModel:
    """A rooted graph with distance, sphere/ball enumeration and coordination counts.

    Immutable after construction (distance caches aside).
    """

    def __init__(self, kind, d, root, adjacency=None):
        if kind not in (_LATTICE_KINDS + (EXPLICIT,)):
            raise ConfigError(f"unknown graph kind {kind!r}")
        if d < 1:
            raise ConfigError("growth dimension d must be >= 1")
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
    def explicit(cls, n_vertices, edges, root=0, d=1):
        adj = [set() for _ in range(n_vertices)]
        for u, v in edges:
            if u == v:
                raise ConfigError(f"self-loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise InputError(f"edge ({u},{v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        adjacency = tuple(tuple(sorted(s)) for s in adj)
        if not 0 <= root < n_vertices:
            raise InputError(f"root {root} not a vertex")
        return cls(EXPLICIT, d, root, adjacency=adjacency)

    @classmethod
    def from_edge_list(cls, path, d=1):
        """Load an explicit graph: first line 'n_vertices root', then 'u v' pairs."""
        with open(path) as fh:
            lines = [ln.split("#")[0].strip() for ln in fh]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise ConfigError(f"empty edge-list file {path}")
        head = lines[0].split()
        if len(head) != 2:
            raise ConfigError("first line must be 'n_vertices root_index'")
        n, root = int(head[0]), int(head[1])
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ConfigError(f"bad edge line {ln!r}")
            edges.append((int(parts[0]), int(parts[1])))
        return cls.explicit(n, edges, root=root, d=d)

    # -- basic queries ----------------------------------------------------

    def check_vertex(self, v):
        if self.kind == EXPLICIT:
            if not (isinstance(v, int) and 0 <= v < len(self.adjacency)):
                raise InputError(f"vertex {v!r} not in graph")
        else:
            if len(v) != self.d:
                raise InputError(f"vertex {v!r} has arity != d={self.d}")

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
        self.check_vertex(u)
        self.check_vertex(v)
        if self.kind == ZD_L1:
            return sum(abs(a - b) for a, b in zip(u, v))
        if self.kind == ZD_LINF:
            return max(abs(a - b) for a, b in zip(u, v))
        dist = self._bfs_from(u)
        if v not in dist:
            raise InputError(f"no path between {u} and {v}")
        return dist[v]

    def _bfs_from(self, u):
        cached = self._dist_cache.get(u)
        if cached is not None:
            return cached
        dist = {u: 0}
        queue = deque([u])
        while queue:
            w = queue.popleft()
            for x in self.adjacency[w]:
                if x not in dist:
                    dist[x] = dist[w] + 1
                    queue.append(x)
        self._dist_cache[u] = dist
        return dist

    # -- spheres and balls -------------------------------------------------

    def sphere(self, center, n):
        """All vertices at graph distance exactly n from center."""
        if n < 0:
            raise DomainError(f"sphere radius must be >= 0, got {n}")
        return self._spheres(center, n)[n]

    def _spheres(self, center, n):
        """Spheres 0..n via breadth-first layers."""
        self.check_vertex(center)
        layers = [[center]]
        seen = {center}
        for _ in range(n):
            nxt = []
            for v in layers[-1]:
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
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
        """c_n: number of vertices at distance exactly n from the root.

        Closed forms for the lattice kinds; BFS for explicit graphs.  On the
        lattices ``n`` may also be an array of n >= 1, which gives float
        counts.  Both closed forms are sums of positive terms, so nothing
        cancels: an integer n gives the exact count, an array the count to
        roundoff (exact below 2**53).
        """
        if np.ndim(n):
            if self.kind not in _LATTICE_KINDS:
                raise DomainError("radial closed forms require a lattice kind")
            n = np.asarray(n, dtype=float)
        elif n < 0:
            raise InputError("n must be >= 0")
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
        if self.kind == ZD_LINF:
            # (2n+1)^d - (2n-1)^d as the sum of its odd binomial terms.
            return sum(2 * comb(d, k) * (2 * n) ** (d - k)
                       for k in range(1, d + 1, 2))
        return len(self._spheres(self.root, n)[n])
