from math import comb

import numpy as np
import pytest

from fksim.errors import ConfigError, DomainError, InputError
from fksim.lattice import GraphModel


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
        assert g.coordination_count(n) == len(g.sphere((0, 0), n))


def test_coordination_counts_linf():
    g = GraphModel.zd_linf(2)
    for n in range(1, 4):
        assert g.coordination_count(n) == (2 * n + 1) ** 2 - (2 * n - 1) ** 2
        assert g.coordination_count(n) == len(g.sphere((0, 0), n))


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
    g = GraphModel.explicit(4, [(0, 1), (1, 2), (2, 3)])
    assert g.coordination_count(2) == 1
    with pytest.raises(DomainError):
        g.coordination_count(np.arange(1, 3))


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
    assert g.sphere(0, 2) == [2]


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
