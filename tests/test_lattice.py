import itertools
import re
import tracemalloc
from math import comb

import numpy as np
import pytest

from fksim.errors import ConfigError, DomainError, InputError
from fksim.feynman_kac import frozen_variance_sum
from fksim.lattice import GraphModel
from fksim.noise import power_decay_gaussian
from fksim.operators import PotentialSpec, Truncation
from fksim.walker import symmetric_walk


def test_z1_neighbors_and_distance():
    g = GraphModel.zd_l1(1)
    assert sorted(g.neighbors((0,))) == [(-1,), (1,)]
    assert g.distance((-3,), (4,)) == 7


def test_z2_l1_vs_linf_degree():
    g1 = GraphModel.zd_l1(2)
    g8 = GraphModel.zd_linf(2)
    assert len(g1.neighbors((0, 0))) == 4
    assert len(g8.neighbors((0, 0))) == 8
    assert g1.distance((0, 0), (2, 3)) == 5
    assert g8.distance((0, 0), (2, 3)) == 3


def test_coordination_counts_z1():
    g = GraphModel.zd_l1(1)
    assert g.coordination_count(0) == 1
    assert all(g.coordination_count(n) == 2 for n in range(1, 6))


def test_coordination_counts_z2():
    g = GraphModel.zd_l1(2)
    # 4n for the l1 lattice in dimension two
    assert [g.coordination_count(n) for n in range(1, 5)] == [4, 8, 12, 16]
    # match brute-force sphere sizes
    for n in range(1, 4):
        assert g.coordination_count(n) == _bfs_count(g, n)


def test_coordination_counts_linf():
    g = GraphModel.zd_linf(2)
    for n in range(1, 4):
        assert g.coordination_count(n) == (2 * n + 1) ** 2 - (2 * n - 1) ** 2
        assert g.coordination_count(n) == _bfs_count(g, n)


def _bfs_count(graph, n):
    """The number of vertices at distance n >= 1, from two BFS balls."""
    return len(graph.ball(graph.root, n)) - len(graph.ball(graph.root, n - 1))


def _exact_count(graph, n):
    """c_n in Python integers."""
    d = graph.d
    if graph.kind == "zd_l1":
        return sum(comb(d, k) * 2 ** k * comb(n - 1, k - 1)
                   for k in range(1, d + 1))
    return (2 * n + 1) ** d - (2 * n - 1) ** d


@pytest.mark.parametrize("make", [GraphModel.zd_l1, GraphModel.zd_linf])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_coordination_count_arrays_are_exact(make, d):
    g = make(d)
    large = [10 ** 5, 10 ** 6, 2 ** 20, 12_345_677]
    ns = list(range(1, 5000)) + large
    got = g.coordination_count(np.array(ns))
    assert got.dtype == float
    assert got.tolist() == [float(_exact_count(g, n)) for n in ns]
    assert [g.coordination_count(n) for n in large] == \
        [_exact_count(g, n) for n in large]
    # Nothing cancels: elsewhere above 2**53 the counts stay within roundoff.
    ns = np.random.default_rng(d).integers(5000, 60_000_000, 200)
    want = np.array([float(_exact_count(g, int(n))) for n in ns])
    err = np.abs(g.coordination_count(ns) - want) / want
    assert err.max() <= 4 * np.finfo(float).eps


def test_coordination_count_arrays_need_a_lattice():
    # Explicit graphs take the pairwise frozen sum, so nothing counts their
    # spheres: a scalar n is refused as an array is.
    g = GraphModel.explicit(4, [(0, 1), (1, 2), (2, 3)])
    for n in (2, np.arange(1, 3)):
        with pytest.raises(DomainError, match="lattice kind"):
            g.coordination_count(n)


def test_ball_sizes_and_index():
    g = GraphModel.zd_l1(1)
    verts = g.ball((0,), 3)
    index = {v: i for i, v in enumerate(verts)}
    assert len(verts) == 7
    assert verts == sorted(verts)
    assert all(index[v] == i for i, v in enumerate(verts))


def test_ball_ordering_reproducible():
    g = GraphModel.zd_l1(2)
    assert g.ball((0, 0), 4) == g.ball((0, 0), 4)


@pytest.mark.parametrize("g", [
    GraphModel.zd_l1(2), GraphModel.zd_linf(2),
    GraphModel.explicit(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                            (1, 4)])], ids=["l1", "linf", "explicit"])
def test_smaller_ball_is_the_larger_balls_order(g):
    """The radius-k ball is the radius-n ball's vertices within k, in
    order: walks started on an outer ball's inner vertices keep the inner
    ball's stratum order."""
    outer = g.ball(g.root, 4)
    for k in range(5):
        assert g.ball(g.root, k) == [v for v in outer
                                     if g.distance(g.root, v) <= k]


def test_explicit_graph_bfs_distance():
    # path graph 0-1-2-3
    g = GraphModel.explicit(4, [(0, 1), (1, 2), (2, 3)])
    assert g.distance(0, 3) == 3
    assert g.ball(0, 2) == [0, 1, 2]


def test_explicit_disconnected_raises():
    g = GraphModel.explicit(4, [(0, 1), (2, 3)])
    with pytest.raises(InputError):
        g.distance(0, 3)


def test_edge_list_round_trip(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("4 0\n0 1\n1 2\n2 3\n")
    g = GraphModel.from_edge_list(p)
    assert g.root == 0
    assert g.distance(0, 3) == 3


@pytest.mark.parametrize("text, line", [
    ("3 0\n0 x\n", 2),             # not an integer
    ("3 0\n0 1 2\n", 2),           # three tokens
    ("# a path\n3\n0 1\n", 2),     # a header without its root
    ("3 0\n0 1\n\n1\n", 4)])       # blank lines keep their numbers
def test_edge_list_names_the_bad_line(tmp_path, text, line):
    # A bad token used to surface as int()'s "invalid literal", naming
    # neither the file nor the line.
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(ConfigError, match=rf"g\.txt:{line}: expected "):
        GraphModel.from_edge_list(p)


def test_bad_edge_list(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3 0\n0 5\n")
    with pytest.raises(InputError):
        GraphModel.from_edge_list(p)


# Vertex 6 has no edge, so every pair with it is disconnected.
_EXPLICIT = GraphModel.explicit(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                    (4, 5), (1, 4)], root=2)


@pytest.mark.parametrize("g, n", [
    (GraphModel.zd_l1(1), 5), (GraphModel.zd_l1(2), 3),
    (GraphModel.zd_linf(2), 3), (GraphModel.zd_l1(3), 2), (_EXPLICIT, 3)],
    ids=["z1", "z2-l1", "z2-linf", "z3-l1", "explicit"])
def test_distances_match_distance_pair_by_pair(g, n):
    us = g.ball(g.root, n)
    # Columns: the ball around a neighbour of the root, in reverse order.
    vs = g.ball(g.neighbors(g.root)[0], n)[::-1]
    got = g.distances(us, vs)
    assert got.dtype == np.int64 and got.shape == (len(us), len(vs))
    assert got.tolist() == [[g.distance(u, v) for v in vs] for u in us]
    assert g.distances([g.root], []).shape == (1, 0)


@pytest.mark.parametrize("us, vs, named", [
    ([0, 1], [2, 6], "no path between 0 and 6"),
    ([6], [6, 0], "no path between 6 and 0"),
    ([0], [7], "vertex 7 not in graph"),
    ([-1], [0], "vertex -1 not in graph")],
    ids=["disconnected", "isolated-row", "no-vertex", "negative-vertex"])
def test_explicit_distances_raise_what_distance_raises(us, vs, named):
    with pytest.raises(InputError, match=re.escape(named)):
        _EXPLICIT.distances(us, vs)


def test_lattice_vertices_must_have_integer_coordinates():
    # ball((0.5,), 1) gave [(-0.5,), (0.5,), (1.5,)], and distance gave 1.5
    # where distances cast the point to int64 and gave 2.  Numpy integers
    # and an empty vertex list stay accepted.
    g = GraphModel.zd_l1(1)
    for call in (lambda: g.check_vertex((0.5,)), lambda: g.ball((0.5,), 1),
                 lambda: g.distance((0.5,), (2,)),
                 lambda: g.distances([(0.5,)], [(2,)]),
                 lambda: g.distances([(2,)], [(0.5,)])):
        with pytest.raises(InputError, match="integer"):
            call()
    assert g.check_vertex((np.int64(3),)) == (3,)
    assert g.distance((np.int32(1),), (4,)) == 3
    assert g.distances([(np.int32(1),)], [(4,)]).tolist() == [[3]]
    assert g.distances([], [(4,)]).shape == (0, 1)


@pytest.mark.parametrize("us", [[(0, 0), (1, 2, 3)], [(0, 0, 0)], [(1,)]])
def test_lattice_distances_refuse_vertices_of_another_arity(us):
    # These raised numpy's bare "cannot reshape array" ValueError.
    bad = next(v for v in us if len(v) != 2)
    message = re.escape(f"vertex {bad} is not a tuple of d=2 coordinates")
    with pytest.raises(InputError, match=message):
        GraphModel.zd_l1(2).distances(us, [(0, 0)])
    with pytest.raises(InputError, match=message):
        GraphModel.zd_l1(2).distances([(0, 0)], us)


def test_a_bare_int_is_no_vertex_of_z1():
    # distances([0], [3]) returned [[3]] while distance(0, 3) died on
    # "object of type 'int' has no len()".
    g = GraphModel.zd_l1(1)
    message = re.escape("vertex 0 is not a tuple of d=1 coordinates")
    for call in (lambda: g.check_vertex(0), lambda: g.distance(0, (3,)),
                 lambda: g.distances([0], [(3,)]),
                 lambda: g.distances([(3,)], [0])):
        with pytest.raises(InputError, match=message):
            call()
    with pytest.raises(InputError, match=re.escape(
            "vertex 4 is not a tuple of d=2 coordinates")):
        GraphModel.zd_l1(2).distances([(0, 0), 4], [(0, 0)])


def _grid_graph(side):
    edges = [(r * side + c, r * side + c + 1)
             for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c)
              for r in range(side - 1) for c in range(side)]
    return GraphModel.explicit(side * side, edges)


def test_explicit_distances_cache_one_array_per_source():
    # Every source's BFS is cached for the life of the graph.  As one int64
    # array of hop counts each, the cache and the result matrix are n^2
    # entries apiece; as one dict per source the peak was 6.7 n^2 entries.
    g = _grid_graph(16)
    n = 256
    tracemalloc.start()
    try:
        got = g.distances(range(n), range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8
    rows = np.arange(n)
    manhattan = (np.abs(rows[:, None] // 16 - rows // 16)
                 + np.abs(rows[:, None] % 16 - rows % 16))
    assert np.array_equal(got, manhattan)
    assert g.distance(0, 255) == 30 and type(g.distance(0, 255)) is int


@pytest.mark.parametrize("make", [GraphModel.zd_l1, GraphModel.zd_linf])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_norms_are_the_distances_to_the_origin(make, d):
    g = make(d)
    coords = np.arange(-3, 4)
    points = list(itertools.product(coords.tolist(), repeat=d))
    want = g.distances([g.root], points)[0].reshape((len(coords),) * d)
    assert np.array_equal(g.grid_norms(coords), want)


def _empty_edge_list(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# no header, no edges\n\n")
    return GraphModel.from_edge_list(p)


@pytest.mark.parametrize("call, exc, named", [
    (lambda tmp: GraphModel("zd_l3", 1, (0,)), ConfigError, "'zd_l3'"),
    (lambda tmp: GraphModel.zd_l1(0), ConfigError, "got 0"),
    (lambda tmp: GraphModel.explicit(3, [(0, 1), (2, 2)]), ConfigError,
     "self-loop at vertex 2"),
    (lambda tmp: GraphModel.explicit(3, [(0, 1)], root=3), InputError,
     "root 3"),
    (lambda tmp: GraphModel.explicit(2.0, [(0, 1)]), InputError,
     "n_vertices 2.0"),
    (_empty_edge_list, ConfigError, "empty.txt"),
    (lambda tmp: _EXPLICIT.check_vertex(9), InputError, "vertex 9"),
    (lambda tmp: GraphModel.zd_l1(2).check_vertex((1,)), InputError,
     "vertex (1,)"),
    (lambda tmp: GraphModel.zd_l1(1).ball((0,), -1), DomainError, "got -1"),
    (lambda tmp: GraphModel.zd_l1(2).coordination_count(-1), InputError,
     "got -1"),
    (lambda tmp: _EXPLICIT.grid_norms(np.arange(3)), DomainError,
     "'explicit'")],
    ids=["kind", "dimension", "self-loop", "root", "n-vertices", "empty-file",
         "explicit-vertex", "lattice-vertex", "ball", "coordination",
         "grid-norms"])
def test_graph_refusals_name_the_value(tmp_path, call, exc, named):
    with pytest.raises(exc, match=re.escape(named)):
        call(tmp_path)


@pytest.mark.parametrize("g", [GraphModel.zd_l1(2), _EXPLICIT],
                         ids=["z2-l1", "explicit"])
def test_ball_refuses_a_negative_radius(g):
    # The ball of radius -1 was [root]: the sphere's refusal did not reach it.
    with pytest.raises(DomainError, match=re.escape("radius must be >= 0, "
                                                    "got -1")):
        g.ball(g.root, -1)


def test_explicit_ball_stops_at_the_last_layer():
    # A radius past the diameter ends the BFS at its last nonempty layer:
    # the radius of a tiny t (10^12) used to step through every empty one.
    assert _EXPLICIT.ball(2, 10 ** 12) == _EXPLICIT.ball(2, 3)
    assert len(_EXPLICIT.ball(6, 10 ** 12)) == 1


def test_explicit_graph_takes_numpy_integers():
    # np.int64 vertices were kept, and check_vertex refused them as "not in
    # graph"; the numpy-built graph is the list-built one.
    pairs = [(i, i + 1) for i in range(8)]
    plain = GraphModel.explicit(9, pairs, root=4)
    numpy = GraphModel.explicit(np.int64(9), np.array(pairs),
                                root=np.int64(4))
    assert numpy.root == 4 and type(numpy.root) is int
    assert numpy.adjacency == plain.adjacency
    assert {type(v) for nbrs in numpy.adjacency for v in nbrs} == {int}
    pot = PotentialSpec()
    for t in (0.5, 0.125):
        assert frozen_variance_sum(t, numpy, pot, power_decay_gaussian(0.5)) \
            == frozen_variance_sum(t, plain, pot, power_decay_gaussian(0.5))
    for r in range(5):
        assert numpy.ball(numpy.root, r) == plain.ball(plain.root, r)
        a, b = (Truncation.build(g, symmetric_walk(g, 1.0), pot, r)
                for g in (numpy, plain))
        assert a.vertices == b.vertices
        assert a.potential.tobytes() == b.potential.tobytes()
        assert all(np.array_equal(x, y) for x, y in zip(a.offdiag, b.offdiag))


def test_explicit_graph_queries_take_numpy_integers():
    # ball refused an np.int64 centre as "not in graph"; a query now takes
    # it as the Python int it equals, so no numpy integer enters the ball.
    g = GraphModel.explicit(3, [(0, 1), (1, 2)])
    got = g.ball(np.int64(0), 1)
    assert got == [0, 1] and {type(v) for v in got} == {int}
    assert g.distance(np.int64(0), np.int32(2)) == 2
    assert g.check_vertex(np.uint8(2)) == 2


@pytest.mark.parametrize("edges, root, named", [
    ([(0, 1.0)], 0, "vertex 1.0"),
    ([(0, 1)], 0.5, "vertex 0.5"),
    (np.array([(0.0, 1.0)]), 0, "vertex np.float64(0.0)")],
    ids=["float-edge", "float-root", "numpy-float-edges"])
def test_explicit_graph_refuses_a_non_integer_vertex(edges, root, named):
    with pytest.raises(InputError, match=re.escape(named)):
        GraphModel.explicit(3, edges, root=root)
