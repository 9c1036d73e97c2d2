import math

import numpy as np
import pytest

from fksim import operators
from fksim.errors import DomainError, InputError, NumericalError
from fksim.feynman_kac import member_fields
from fksim.lattice import GraphModel
from fksim.noise import iid_gaussian, sample_field
from fksim.operators import (PotentialSpec, Truncation, assemble, expm_neg,
                             multiplicity_pushforward, spectrum,
                             trace_identity_residual)
from fksim.walker import MarkovSpec, symmetric_walk

G1 = GraphModel.zd_l1(1)
SPEC = symmetric_walk(G1, 1.0)


def test_two_vertex_assembly():
    g = GraphModel.explicit(2, [(0, 1)])
    spec = symmetric_walk(g, 1.0)
    h = assemble(g, spec, PotentialSpec(custom={0: 0.0, 1: 0.0}),
                 np.zeros(2), 1)
    assert np.allclose(h, [[1.0, -1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_custom_potential_must_be_finite(bad):
    # An infinite value would otherwise reach the matrices and the walks.
    with pytest.raises(InputError, match="finite"):
        PotentialSpec(custom={0: 0.0, 1: bad})


def test_z1_quadratic_potential_assembly():
    assert G1.ball((0,), 1) == [(-1,), (0,), (1,)]
    h = assemble(G1, SPEC, PotentialSpec(alpha=2.0), np.zeros(3), 1)
    expected = np.array([[2.0, -0.5, 0.0],
                         [-0.5, 1.0, -0.5],
                         [0.0, -0.5, 2.0]])
    assert np.allclose(h, expected)


def _rotation_blocks(parts):
    """Block-diagonal real matrix of [[a, b], [-b, a]] blocks (eigenvalues
    a -+ ib) and e^{-t} of it in closed form."""
    def pair(t):
        n = 2 * len(parts)
        b, e = np.zeros((n, n)), np.zeros((n, n))
        for k, (re, im) in enumerate(parts):
            i = slice(2 * k, 2 * k + 2)
            b[i, i] = [[re, im], [-im, re]]
            c, s = math.cos(t * im), math.sin(t * im)
            e[i, i] = math.exp(-t * re) * np.array([[c, -s], [s, c]])
        return b, e
    return pair


def test_expm_matches_eigendecomposition():
    # M = V B V^-1 with B diagonal, or block-diagonal with complex pairs,
    # so that e^{-tM} = V e^{-tB} V^-1 is known without any expm routine.
    rng = np.random.default_rng(0)
    for n in (4, 10, 40):
        v = rng.standard_normal((n, n)) + n ** 0.5 * np.eye(n)
        v_inv = np.linalg.inv(v)
        lam = rng.uniform(-3.0, 3.0, n)
        pairs = _rotation_blocks(list(zip(rng.uniform(-3.0, 3.0, n // 2),
                                          rng.uniform(0.5, 4.0, n // 2))))
        for t in (0.1, 1.0, 4.0):
            blocks, e_blocks = pairs(t)
            for b, e in ((np.diag(lam), np.diag(np.exp(-t * lam))),
                         (blocks, e_blocks)):
                ref = v @ e @ v_inv
                got = expm_neg(v @ b @ v_inv, t)
                assert np.allclose(got, ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())


def test_expm_jordan_block_closed_form():
    # e^{-tJ} = e^{-t lam} [[1, -t], [0, 1]] for J = [[lam, 1], [0, lam]],
    # also conjugated into a dense non-normal matrix.
    v = np.array([[2.0, 1.0], [1.0, 3.0]])
    for lam in (-1.5, 0.0, 2.0):
        j = np.array([[lam, 1.0], [0.0, lam]])
        for t in (0.25, 1.0, 3.0):
            ref = math.exp(-t * lam) * np.array([[1.0, -t], [0.0, 1.0]])
            assert np.allclose(expm_neg(j, t), ref, rtol=1e-13, atol=0.0)
            conj = v @ ref @ np.linalg.inv(v)
            assert np.allclose(expm_neg(v @ j @ np.linalg.inv(v), t), conj,
                               rtol=1e-12, atol=1e-12 * np.abs(conj).max())


def test_expm_identity_at_t_zero():
    m = np.diag([1.0, 2.0])
    assert np.allclose(expm_neg(m, 0.0), np.eye(2))


def test_expm_rejects_nonfinite():
    with pytest.raises(NumericalError):
        expm_neg(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_expm_rejects_nonsquare():
    with pytest.raises(InputError):
        expm_neg(np.zeros((2, 3)))


def test_expm_complex_hermitian_matches_eigh():
    # e^{-tH} = Q e^{-t Lambda} Q* for a complex Hermitian H = Q Lambda Q*.
    rng = np.random.default_rng(1)
    for n in (3, 12, 40):
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = c + c.conj().T + np.diag(rng.uniform(0.0, 10.0, n))
        lam, q = np.linalg.eigh(h)
        for t in (0.1, 1.0, 4.0):
            ref = (q * np.exp(-t * lam)) @ q.conj().T
            got = expm_neg(h, t)
            assert got.dtype == complex
            assert np.allclose(got, ref, rtol=0.0,
                               atol=1e-12 * np.abs(ref).max())


def test_expm_wide_diagonal_needs_no_overflow():
    # The shift by the diagonal's midpoint (-1000) is folded into the scaled
    # factor, so e^{-2000} underflows to 0 and nothing overflows on the way.
    got = expm_neg(np.diag([0.0, 2000.0]), 1.0)
    assert np.allclose(got, [[1.0, 0.0], [0.0, 0.0]], rtol=1e-12, atol=0.0)


def test_expm_traces_match_eigenvalues_at_benchmark_scale():
    # The Z^2 radius-10 ball (dimension 221) with i.i.d. noise, as the
    # exact_spectral_check config runs it.
    graph = GraphModel.zd_l1(2)
    trunc = Truncation.build(graph, symmetric_walk(graph, 1.0),
                             PotentialSpec(alpha=2.0), 10)
    for seed in range(5):
        field = member_fields(trunc, graph, iid_gaussian(1.0), seed, 1)
        mat = trunc.matrices(field)[0]
        lam = np.linalg.eigvalsh(mat)
        got = operators._expm_traces(mat, (0.5, 1.0))
        for t, tr in zip((0.5, 1.0), got):
            assert tr == pytest.approx(np.exp(-t * lam).sum(), rel=1e-12,
                                       abs=0.0)


def test_spectrum_multiplicities():
    res = spectrum(np.diag([1.0, 1.0, 2.0]))
    assert res.total_multiplicity == 3
    vals = sorted((lam.real, m) for lam, m in res.clusters)
    assert vals == [(pytest.approx(1.0), 2), (pytest.approx(2.0), 1)]


def test_spectrum_clusters_interleaved_complex_pairs():
    # Two copies of 1 -+ 2i and one 1: real parts tie up to roundoff, so a
    # split on real gaps alone would see the pairs in any order.
    b = np.zeros((5, 5))
    b[:4, :4] = np.kron(np.eye(2), [[1.0, 2.0], [-2.0, 1.0]])
    b[4, 4] = 1.0
    v = np.random.default_rng(3).standard_normal((5, 5)) + 3.0 * np.eye(5)
    res = spectrum(v @ b @ np.linalg.inv(v))
    got = sorted((round(lam.real, 6), round(lam.imag, 6), m)
                 for lam, m in res.clusters)
    assert got == [(1.0, -2.0, 2), (1.0, 0.0, 1), (1.0, 2.0, 2)]


def test_spectrum_clusters_near_degenerate():
    res = spectrum(np.diag([1.0, 1.0 + 1e-9, 5.0]))
    assert res.total_multiplicity == 3
    assert len(res.clusters) == 2


def test_trace_identity_on_random_assemblies():
    verts = G1.ball((0,), 8)
    rng = np.random.default_rng(7)
    for _ in range(10):
        xi = sample_field(iid_gaussian(1.0), G1, verts, rng=rng)
        h = assemble(G1, SPEC, PotentialSpec(alpha=2.0), xi, 8)
        for t in (0.5, 1.0):
            assert trace_identity_residual(h, t) < 1e-8


def test_multiplicity_pushforward_diagonal():
    t = 0.5
    m = np.diag([0.0, math.log(4.0) / t, math.log(4.0) / t])
    checks = multiplicity_pushforward(m, t)
    by_image = {round(c.image.real, 6): c for c in checks}
    assert by_image[0.25].mult_image == 2 and by_image[0.25].passed
    assert by_image[1.0].mult_image == 1 and by_image[1.0].passed


def test_multiplicity_pushforward_jordan_block():
    j = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    for t in (0.5, 1.0):
        checks = multiplicity_pushforward(j, t)
        assert len(checks) == 1
        assert checks[0].mult_image == 3 and checks[0].passed


def test_multiplicity_pushforward_aliased():
    # rotation block gives +-2*pi*i, which e^{-M} maps onto the same image
    # as the eigenvalue 0
    th = 2.0 * math.pi
    m = np.zeros((3, 3))
    m[0, 1], m[1, 0] = th, -th
    checks = multiplicity_pushforward(m, 1.0)
    assert len(checks) == 1
    assert checks[0].aliased and checks[0].passed
    assert checks[0].mult_image == 3


def test_pushforward_dimension_cap():
    with pytest.raises(DomainError):
        multiplicity_pushforward(np.eye(60), 1.0)


def test_assemble_missing_field_value():
    verts = G1.ball((0,), 2)
    xi = np.zeros(len(verts) - 1)
    with pytest.raises(InputError):
        assemble(G1, SPEC, PotentialSpec(alpha=2.0), xi, 2)


def _reference_assembly(graph, spec, pot, xi, n):
    """The per-vertex loop that filled the truncation matrix entry by entry;
    ``xi[i]`` is the field at the i-th vertex of the ball."""
    vertices = graph.ball(graph.root, n)
    index = {v: i for i, v in enumerate(vertices)}
    m = len(vertices)
    h = np.zeros((m, m))
    for v, i in index.items():
        h[i, i] = spec.rate(v) + (pot.value(graph, v) + xi[i])
        targets, cum = spec.kernel(v)
        prev = 0.0
        for u, c in zip(targets, cum):
            p = c - prev
            prev = c
            j = index.get(u)
            if j is not None and p > 0.0:
                h[i, j] = -spec.rate(v) * p
    return h


def _assert_same_assembly(h, ref):
    assert np.array_equal(h, ref)
    assert h.tobytes() == ref.tobytes()   # zeros keep their sign too


# 0-1-2-0 triangle with a tail 2-3-4-5 and a chord 1-4
G_EXPLICIT = GraphModel.explicit(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                     (4, 5), (1, 4)])


def _explicit_spec(graph):
    """Site-dependent rates and a non-uniform, non-symmetric kernel; vertex 0
    is a target of probability zero."""
    def kernel(v):
        targets = graph.neighbors(v)
        w = np.array([float(u) for u in targets])
        return targets, list(np.cumsum(w / w.sum()))
    return MarkovSpec(rate=lambda v: 0.5 + 0.25 * v, sup_rate=2.0,
                      kernel=kernel)


def _random_field(verts, seed):
    return np.random.default_rng(seed).standard_normal(len(verts))


def test_truncation_matches_loop_on_explicit_graph():
    # Radius 2 leaves vertex 5 outside, so targets drop out; the kernel
    # makes the matrix non-symmetric.
    spec = _explicit_spec(G_EXPLICIT)
    pot = PotentialSpec(custom={v: 0.3 * v - 0.4 for v in range(6)})
    trunc = Truncation.build(G_EXPLICIT, spec, pot, 2)
    assert trunc.region.vertices == (0, 1, 2, 4, 3)
    # The values drawn for vertices 0..5, read on the ball.
    xi = _random_field(list(range(6)), seed=40)[list(trunc.region.vertices)]
    h = assemble(G_EXPLICIT, spec, pot, xi, 2)
    _assert_same_assembly(h, _reference_assembly(G_EXPLICIT, spec, pot, xi,
                                                 2))
    assert not np.array_equal(h, h.T)
    assert np.array_equal(trunc.potential,
                          [0.3 * v - 0.4 for v in (0, 1, 2, 4, 3)])


def test_truncation_matches_loop_on_z2_linf_ball():
    g = GraphModel.zd_linf(2)
    spec = symmetric_walk(g, 1.5)
    pot = PotentialSpec(alpha=2.0, kappa=0.5, mu=1.0)
    verts = g.ball(g.root, 3)
    xi = _random_field(verts, seed=41)
    h = assemble(g, spec, pot, xi, 3)
    assert h.shape == (49, 49)
    _assert_same_assembly(h, _reference_assembly(g, spec, pot, xi, 3))


def test_one_truncation_serves_many_fields():
    g = GraphModel.zd_l1(2)
    spec = symmetric_walk(g, 1.0)
    pot = PotentialSpec(alpha=2.0)
    verts = g.ball(g.root, 4)
    trunc = Truncation.build(g, spec, pot, 4)
    for seed in (42, 43):
        xi = _random_field(verts, seed)
        assert np.array_equal(trunc.matrices([xi])[0],
                              assemble(g, spec, pot, xi, 4))


# -- eigen route ----------------------------------------------------------------


def _build(graph, n, pot=PotentialSpec(alpha=2.0)):
    return Truncation.build(graph, symmetric_walk(graph, 1.0), pot, n)


@pytest.mark.parametrize("graph, n", [
    (GraphModel.zd_l1(1), 5), (GraphModel.zd_l1(2), 3),
    (GraphModel.zd_linf(2), 3), (GraphModel.zd_l1(3), 2)])
def test_lattice_truncations_take_the_symmetric_route(graph, n):
    assert _build(graph, n).symmetric


def test_z3_route_allows_roundoff_asymmetry():
    # Z^3 l1 jump probabilities are differences of sixths: some mirror
    # entries differ in the last bits and the route is still symmetric.
    trunc = _build(GraphModel.zd_l1(3), 2)
    h = trunc.matrices(np.zeros((1, len(trunc.potential))))[0]
    assert 0.0 < np.abs(h - h.T).max() < 1e-15
    assert trunc.symmetric


def test_non_regular_graph_takes_the_general_route():
    # Uniform jumps on vertices of degree 2, 3 and 1 give rates 1/deg that
    # differ between an edge's two directions.
    pot = PotentialSpec(custom={v: 0.0 for v in range(6)})
    trunc = _build(G_EXPLICIT, 3, pot)
    h = trunc.matrices(np.zeros((1, 6)))[0]
    assert not np.allclose(h, h.T)
    assert not trunc.symmetric


def _route_cases():
    z2 = _build(GraphModel.zd_l1(2), 3)
    pot = PotentialSpec(custom={v: 0.1 * v for v in range(6)})
    return [(z2, np.linalg.eigvalsh), (_build(G_EXPLICIT, 3, pot),
                                       np.linalg.eigvals)]


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("per_stack", [1, 2, 3, 7, 100])
def test_batched_eigenvalues_match_per_member(monkeypatch, case, per_stack):
    # The entry budget sets how many of the 7 members share a stack, so a
    # member lands first, inside or last in a full or a partial stack.
    trunc, solve = _route_cases()[case]
    size = len(trunc.potential)
    monkeypatch.setattr(operators, "_MAX_ELEMS", per_stack * size * size)
    fields = np.random.default_rng(44).standard_normal((7, size))
    stacks, fill = [], Truncation.matrices
    monkeypatch.setattr(Truncation, "matrices",
                        lambda self, f: stacks.append(len(f)) or fill(self, f))
    got = trunc.eigenvalues(fields)
    monkeypatch.setattr(Truncation, "matrices", fill)
    assert stacks == [min(per_stack, 7 - lo) for lo in range(0, 7, per_stack)]
    for f, row in zip(fields, got):
        want = np.sort(solve(trunc.matrices(f[None])[0]))
        assert np.array_equal(row, want)
    assert got.shape == fields.shape


@pytest.mark.parametrize("case", [0, 1])
def test_eigen_traces_match_matrix_exponential(case):
    trunc, _ = _route_cases()[case]
    fields = np.random.default_rng(45).standard_normal(
        (5, len(trunc.potential)))
    eigs = trunc.eigenvalues(fields)
    for t in (0.125, 1.0):
        got = np.exp(-t * eigs).sum(axis=1)
        want = [np.trace(expm_neg(trunc.matrices(f[None])[0], t))
                for f in fields]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_assemble_is_one_row_of_matrices():
    g = GraphModel.zd_l1(2)
    trunc = _build(g, 3)
    xi = _random_field(g.ball((0, 0), 3), seed=46)
    stack = trunc.matrices(xi[None])
    h = assemble(g, symmetric_walk(g, 1.0), PotentialSpec(alpha=2.0), xi, 3)
    assert stack.tobytes() == h.tobytes()
    with pytest.raises(InputError):
        trunc.matrices(np.zeros((2, 3)))


# -- traces over a t grid --------------------------------------------------------


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("grid, n_expm", [
    ((0.5, 1.0), 1), ((1.0, 0.5, 0.25, 0.125), 1), ((0.3, 0.7), 2),
    ((0.5, 0.5, 1.0), 1)])
def test_grid_traces_match_per_t_expm(monkeypatch, case, grid, n_expm):
    # Case 1 is non-symmetric, where sum_ij E_ij E_ij (no transpose) is not
    # Tr E^2; t/2 in the grid must reuse e^{-(t/2)M}, anything else not.
    trunc, _ = _route_cases()[case]
    fields = np.random.default_rng(48).standard_normal(
        (3, len(trunc.potential)))
    calls, real = [], operators.expm_neg
    monkeypatch.setattr(operators, "expm_neg",
                        lambda mat, t: calls.append(t) or real(mat, t))
    for f in fields:
        mat = trunc.matrices(f[None])[0]
        assert np.array_equal(mat, mat.T) == (case == 0)
        got = operators._expm_traces(mat, grid)
        want = [np.trace(real(mat, t)) for t in grid]
        assert len(got) == len(grid)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert len(calls) == n_expm * len(fields)


def test_grid_traces_refuse_overflow_in_the_square():
    # e^{400} is finite, its square e^{800} is not: as expm_neg at t = 2.
    mat = np.array([[-400.0]])
    assert operators._expm_traces(mat, (1.0,))[0] == pytest.approx(
        math.exp(400.0))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            expm_neg(mat, 2.0)
        with pytest.raises(NumericalError):
            operators._expm_traces(mat, (1.0, 2.0))
