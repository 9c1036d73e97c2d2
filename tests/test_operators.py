import math
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fksim import operators
from fksim.errors import (ConfigError, DomainError, InputError,
                          NumericalError)
from fksim.lattice import GraphModel
from fksim.noise import iid_gaussian, sample_fields
from fksim.operators import (PotentialSpec, Truncation, assemble, expm_neg,
                             multiplicity_pushforward, spectrum)
from fksim.walker import MarkovSpec, symmetric_walk

G1 = GraphModel.zd_l1(1)
SPEC = symmetric_walk(G1, 1.0)


def test_two_vertex_assembly():
    g = GraphModel.explicit(2, [(0, 1)])
    spec = symmetric_walk(g, 1.0)
    h = assemble(g, spec, PotentialSpec(kappa=0.0), np.zeros(2), 1)
    assert np.allclose(h, [[1.0, -1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("kwargs, message", [
    ({"alpha": math.nan}, "alpha = nan is not finite"),
    ({"kappa": math.inf}, "kappa = inf is not finite"),
    ({"mu": -math.inf}, "mu = -inf is not finite"),
    ({"alpha": 0.0}, "alpha must be positive, got 0.0"),
    ({"alpha": -1.5}, "alpha must be positive, got -1.5"),
    ({"kappa": -1.0, "alpha": 1.5}, "kappa must be >= 0, got -1.0")])
def test_potential_refuses_bad_parameters(kwargs, message):
    # A non-finite value would reach the matrices and the walks, and a
    # negative kappa or a non-positive alpha gives no growing potential.
    with pytest.raises(DomainError, match=message):
        PotentialSpec(**kwargs)


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


def test_expm_refuses_a_complex_matrix():
    h = np.array([[1.0, 1j], [-1j, 2.0]])
    with pytest.raises(InputError, match="real matrix"):
        expm_neg(h, 0.5)


@pytest.mark.parametrize("mat, t, message", [
    ([[1e300, 0.0], [0.0, 1.0]], 1e10, "overflow forming -t*M"),
    # -t M is finite, but its diagonal's midpoint overflows.
    ([[1.5e308, 0.0], [1.5e308, 1.5e308]], 1.0,
     "overflow in the matrix exponential"),
    # The norm's one test also catches a NaN or infinite entry of M.
    ([[1.0, math.nan], [0.0, 1.0]], 0.5, "matrix has non-finite entries"),
    ([[math.inf, 0.0], [0.0, 1.0]], 0.5, "matrix has non-finite entries"),
    ([[1.0, 0.0], [-math.inf, 1.0]], 0.5, "matrix has non-finite entries")])
def test_expm_overflow_is_refused_without_a_warning(mat, t, message):
    # numpy's overflow warning came first, and under warnings-as-errors it
    # was raised in place of the refusal.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=re.escape(message)):
            expm_neg(np.array(mat), t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_non_finite_t_is_refused_by_name(monkeypatch, t):
    # Refused before any work: no product, no exponential of a grid's
    # finite t, and not reported as an overflow forming -t*M.
    def no_work(*args, **kwargs):
        raise AssertionError("work before the refusal")

    monkeypatch.setattr(np, "matmul", no_work)
    named = re.escape(f"t = {t!r} is not finite")
    m = np.diag([1.0, 2.0])
    with pytest.raises(DomainError, match=named):
        expm_neg(m, t)
    monkeypatch.setattr(operators, "expm_neg", no_work)
    with pytest.raises(DomainError, match=named):
        operators.expm_traces(m, (0.5, t))


def test_expm_of_an_empty_matrix_is_empty():
    got = expm_neg(np.zeros((0, 0)), 0.5)
    assert got.shape == (0, 0)


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
        field = sample_fields(iid_gaussian(1.0), graph, trunc.vertices, 1,
                              seed)
        mat = trunc.matrices(field)[0]
        lam = np.linalg.eigvalsh(mat)
        got = operators.expm_traces(mat, (0.5, 1.0))
        for t, tr in zip((0.5, 1.0), got):
            assert tr == pytest.approx(np.exp(-t * lam).sum(), rel=1e-12,
                                       abs=0.0)


def _z2_matrix(n, seed=3):
    """The leading n x n block of a radius-11 Z^2 truncation's matrix (265
    vertices) with an i.i.d. field: real, exactly symmetric, 1-norm ~ 250."""
    graph = GraphModel.zd_l1(2)
    trunc = Truncation.build(graph, symmetric_walk(graph, 1.0),
                             PotentialSpec(alpha=2.0), 11)
    field = sample_fields(iid_gaussian(1.0), graph, trunc.vertices, 1, seed)
    return trunc.matrices(field)[0][:n, :n].copy()


@pytest.mark.parametrize("n", [operators._SYRK_MIN_DIM - 1,
                               operators._SYRK_MIN_DIM, 221])
def test_expm_syrk_route_matches_eigh(monkeypatch, n):
    # From _SYRK_MIN_DIM on, an exactly symmetric real X is squared as
    # R R^T (syrk); its squarings leave the result exactly symmetric, which
    # the gemm route does not.  Both routes agree with Q e^{-t Lambda} Q^T.
    mat = _z2_matrix(n)
    lam, q = np.linalg.eigh(mat)
    for t in (0.05, 0.5):
        ref = (q * np.exp(-t * lam)) @ q.T
        got = expm_neg(mat, t)
        routes = {}
        for gate in (0, n + 1):
            monkeypatch.setattr(operators, "_SYRK_MIN_DIM", gate)
            routes[gate] = expm_neg(mat, t)
            assert np.allclose(routes[gate], ref, rtol=1e-13,
                               atol=1e-13 * np.abs(ref).max()), gate
        monkeypatch.undo()
        assert np.array_equal(routes[0], routes[0].T)
        assert not np.array_equal(routes[n + 1], routes[n + 1].T)
        taken = routes[0] if n >= operators._SYRK_MIN_DIM else routes[n + 1]
        assert got.tobytes() == taken.tobytes()


def test_expm_near_symmetric_takes_gemm(monkeypatch):
    # One ulp off symmetric (as Z^3 l1 is) is not symmetric: the gemm route,
    # bit for bit.
    mat = _z2_matrix(221)
    i, j = np.argwhere(np.triu(mat, 1))[0]
    mat[i, j] = np.nextafter(mat[i, j], np.inf)
    got = expm_neg(mat, 0.5)
    monkeypatch.setattr(operators, "_SYRK_MIN_DIM", 10 ** 9)
    assert got.tobytes() == expm_neg(mat, 0.5).tobytes()


def _taylor_16_blocks(p0):
    """B_1 .. B_4 of T = B_1 + (B_2 + A_8) A_8, A_8 = B_3 + B_4^2, by the
    recipe beside ``operators._TAYLOR_BLOCKS``, in the current decimal
    context."""
    t = [Decimal(1) / math.factorial(k) for k in range(17)]

    def conv(a, b, k):
        return sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i
                   < len(b))

    def root_of(c, top, lead):
        # The degree-<= top r with r^2 = c on degrees 2 top .. top + 1.
        r = [Decimal(0)] * (top + 1)
        r[top] = lead
        for j in range(top - 1, 0, -1):
            r[j] = (c[top + j] - conv(r, r, top + j)) / (2 * lead)
        return r

    p = root_of(t, 8, t[16].sqrt())
    p[0] = p0
    rest = [t[k] - conv(p, p, k) for k in range(9)]          # T - P^2
    b2 = root_of([-4 * v for v in rest], 4, 2 * (-rest[8]).sqrt())
    b4 = root_of(p, 4, p[8].sqrt())
    b1 = [rest[k] + conv(b2, b2, k) / 4 for k in range(5)]
    b3 = [p[k] - b2[k] / 2 - conv(b4, b4, k) for k in range(5)]
    a = b3[0]                                                 # A_8(0)
    b3[0] -= a
    b1 = [b1[k] + a * b2[k] + (a * a if k == 0 else 0) for k in range(5)]
    b2[0] += 2 * a
    return [b1, b2, b3, b4]


def test_taylor_blocks_are_the_recipe_rounded_to_float():
    with localcontext() as ctx:
        ctx.prec = 50
        want = _taylor_16_blocks(Decimal("4.3"))
    got = operators._TAYLOR_BLOCKS
    assert got.shape == (4, 5)
    for j in range(4):
        for i in range(5):
            assert got[j, i] == float(want[j][i]), (j, i)


def test_taylor_blocks_expand_to_the_degree_16_taylor_polynomial():
    # B_1 + (B_2 + A_8) A_8 from the float entries, in exact arithmetic.
    b1, b2, b3, b4 = ([Fraction(float(v)) for v in row]
                      for row in operators._TAYLOR_BLOCKS)

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    def add(a, b):
        a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
        return [u + v for u, v in zip(a, b)]

    a8 = add(b3, mul(b4, b4))
    poly = add(b1, mul(add(b2, a8), a8))
    assert len(poly) == 17
    for k, c in enumerate(poly):
        assert abs(c * math.factorial(k) - 1) <= Fraction(1, 10 ** 15), k


def _expected_squarings(mat, t):
    x = -t * np.asarray(mat, float)
    d = x.diagonal()
    x -= 0.5 * (d.max() + d.min()) * np.eye(len(x))
    norm = np.abs(x).sum(axis=0).max()
    return max(0, math.ceil(math.log2(norm / operators._THETA_16)))


@pytest.mark.parametrize("n, t, syrk", [(21, 0.25, False), (85, 1.0, False),
                                        (221, 0.5, True), (221, 0.02, True)])
def test_expm_makes_five_products_and_s_squarings(monkeypatch, n, t, syrk):
    # X^2, X^3, X^4, B_4^2, (B_2 + A_8) A_8 and s squarings; on the syrk
    # route X^2, X^4, B_4^2 and the squarings are R R^T.
    mat = _z2_matrix(n)
    calls, real = [], np.matmul

    def counted(a, b, *args, **kwargs):
        if a.shape == b.shape == (n, n):
            calls.append(a.ctypes.data == b.ctypes.data
                         and b.strides == a.strides[::-1])
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    expm_neg(mat, t)
    monkeypatch.undo()
    s = _expected_squarings(mat, t)
    assert len(calls) == 5 + s
    assert sum(calls) == (3 + s if syrk else 0)


def test_spectrum_multiplicities():
    res = spectrum(np.diag([1.0, 1.0, 2.0]))
    assert sum(m for _, m in res) == 3
    vals = sorted((lam.real, m) for lam, m in res)
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
                 for lam, m in res)
    assert got == [(1.0, -2.0, 2), (1.0, 0.0, 1), (1.0, 2.0, 2)]


def test_spectrum_clusters_near_degenerate():
    res = spectrum(np.diag([1.0, 1.0 + 1e-9, 5.0]))
    assert sum(m for _, m in res) == 3
    assert len(res) == 2


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


def test_multiplicity_pushforward_complex_matrix():
    # A spectrum {i, 2} not closed under conjugation, through the real
    # [[B, -C], [C, B]]: e^{-i} has the source i, and e^{+i} would have none.
    m = np.array([[1j, 0.5], [0.0, 2.0]])
    checks = multiplicity_pushforward(m, 1.0)
    assert len(checks) == 2 and all(c.passed for c in checks)
    assert min(abs(c.image - np.exp(-1j)) for c in checks) < 1e-12


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
        h[i, i] = spec.rate(v) + (pot.radial(graph.distance(graph.root, v))
                                  + xi[i])
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
    return MarkovSpec(rate=lambda v: 0.5 + 0.25 * v, kernel=kernel)


def _z1_spec(kernel):
    return MarkovSpec(rate=lambda v: 1.0, kernel=kernel)


def test_truncation_refuses_a_self_jump():
    # A self-jump of probability 1/2 would write the matrix diagonal over
    # the rate and the potential: the Monte Carlo trace then read 1.978
    # against an "exact" 11.717.
    def kernel(v):
        return [v, (v[0] - 1,), (v[0] + 1,)], [0.5, 0.75, 1.0]
    with pytest.raises(ConfigError,
                       match=r"vertex \(-4,\) lists itself as a jump target"):
        Truncation.build(G1, _z1_spec(kernel), PotentialSpec(), 4)


def test_truncation_refuses_a_row_that_ends_below_one():
    # The walk would send the missing 0.2 to the last target, the matrix
    # nowhere: the Monte Carlo trace then sat 6.75 SE off the exact one.
    def kernel(v):
        return [(v[0] - 1,), (v[0] + 1,)], [0.4, 0.8]
    with pytest.raises(ConfigError, match=r"vertex \(-4,\) end at 0\.8,"):
        Truncation.build(G1, _z1_spec(kernel), PotentialSpec(), 4)


def test_truncation_refuses_a_target_that_is_not_a_neighbour():
    # A jump from v to v + 2 is no edge of Z^1: the walk X runs on edges.
    def kernel(v):
        return [(v[0] - 1,), (v[0] + 2,)], [0.5, 1.0]
    with pytest.raises(ConfigError, match=r"vertex \(-4,\) lists \(-2,\), "
                                          "not a graph neighbour"):
        Truncation.build(G1, _z1_spec(kernel), PotentialSpec(), 4)


def _random_field(verts, seed):
    return np.random.default_rng(seed).standard_normal(len(verts))


def test_truncation_matches_loop_on_explicit_graph():
    # Radius 2 leaves vertex 5 outside, so targets drop out; the kernel
    # makes the matrix non-symmetric.
    spec = _explicit_spec(G_EXPLICIT)
    pot = PotentialSpec(alpha=1.0, kappa=0.3, mu=0.4)
    trunc = Truncation.build(G_EXPLICIT, spec, pot, 2)
    assert trunc.vertices == (0, 1, 2, 4, 3)
    # The values drawn for vertices 0..5, read on the ball.
    xi = _random_field(list(range(6)), seed=40)[list(trunc.vertices)]
    h = assemble(G_EXPLICIT, spec, pot, xi, 2)
    _assert_same_assembly(h, _reference_assembly(G_EXPLICIT, spec, pot, xi,
                                                 2))
    assert not np.array_equal(h, h.T)
    assert np.array_equal(trunc.dist, [0, 1, 1, 2, 2])
    assert np.array_equal(trunc.potential, pot.radial(trunc.dist))


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
    trunc = _build(G_EXPLICIT, 3, PotentialSpec(kappa=0.0))
    h = trunc.matrices(np.zeros((1, 6)))[0]
    assert not np.allclose(h, h.T)
    assert not trunc.symmetric


def _route_cases():
    z2 = _build(GraphModel.zd_l1(2), 3)
    pot = PotentialSpec(alpha=1.0, kappa=0.1)
    return [(z2, np.linalg.eigvalsh), (_build(G_EXPLICIT, 3, pot),
                                       np.linalg.eigvals)]


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("per_stack", [1, 2, 3, 7, 100])
def test_batched_eigenvalues_match_per_member(monkeypatch, case, per_stack):
    # The block budget sets how many of the 7 members share a stack, so a
    # member lands first, inside or last in a full or a partial stack.
    trunc, solve = _route_cases()[case]
    size = len(trunc.potential)
    monkeypatch.setattr(operators, "_BLOCK_ELEMS", per_stack * size * size)
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
def test_eigen_traces_match_matrix_exponential(monkeypatch, case):
    trunc, _ = _route_cases()[case]
    fields = np.random.default_rng(45).standard_normal(
        (5, len(trunc.potential)))
    eigs = trunc.eigenvalues(fields)
    for t in (0.125, 1.0):
        got = np.exp(-t * eigs).sum(axis=1)
        want = [np.trace(expm_neg(trunc.matrices(f[None])[0], t))
                for f in fields]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        # The one trace route: the eigenvalue sum on the symmetric route,
        # the trace of expm_neg on the general one.
        stacks, fill = [], Truncation.matrices
        monkeypatch.setattr(Truncation, "matrices",
                            lambda self, f: stacks.append(len(f))
                            or fill(self, f))
        traces = trunc.traces(fields, [t])[:, 0]
        monkeypatch.setattr(Truncation, "matrices", fill)
        assert traces.tobytes() == np.asarray(
            got if trunc.symmetric else want).tobytes()
        if not trunc.symmetric:
            # One member's matrix at a time.
            assert stacks == [1] * len(fields)


@pytest.mark.parametrize("case", [0, 1])
def test_grid_traces_are_one_t_traces(monkeypatch, case):
    # One row per field, one column per t.  The symmetric route solves each
    # member's eigenvalues once for the whole grid, and each column has the
    # bits of a one-t call; the general route is expm_traces per member.
    trunc, _ = _route_cases()[case]
    fields = np.random.default_rng(50).standard_normal(
        (4, len(trunc.potential)))
    ts = (1.0, 0.5, 0.25, 0.3)
    solves, real = [], Truncation.eigenvalues
    monkeypatch.setattr(Truncation, "eigenvalues",
                        lambda self, f: solves.append(len(f)) or real(self, f))
    got = trunc.traces(fields, ts)
    assert got.shape == (len(fields), len(ts))
    assert solves == ([len(fields)] if trunc.symmetric else [])
    for j, t in enumerate(ts):
        one = trunc.traces(fields, [t])[:, 0]
        if trunc.symmetric:
            assert got[:, j].tobytes() == one.tobytes(), t
        else:
            assert np.allclose(got[:, j], one, rtol=1e-12, atol=0.0), t
    if not trunc.symmetric:
        for f, row in zip(fields, got):
            want = operators.expm_traces(trunc.matrices(f[None])[0], ts)
            assert row.tobytes() == np.asarray(want).tobytes()


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
    ((0.5, 0.5, 1.0), 1), ((0.3, 0.35, 0.6), 2)])
def test_grid_traces_match_per_t_expm(monkeypatch, case, grid, n_expm):
    # Case 1 is non-symmetric, where sum_ij E_ij E_ij (no transpose) is not
    # Tr E^2; t/2 in the grid must reuse e^{-(t/2)M}, anything else not.
    # e^{-0.3 M} outlives the exponential at 0.35 that reuses it.
    trunc, _ = _route_cases()[case]
    fields = np.random.default_rng(48).standard_normal(
        (3, len(trunc.potential)))
    calls, real = [], operators.expm_neg
    monkeypatch.setattr(operators, "expm_neg",
                        lambda mat, t: calls.append(t) or real(mat, t))
    for f in fields:
        mat = trunc.matrices(f[None])[0]
        assert np.array_equal(mat, mat.T) == (case == 0)
        got = operators.expm_traces(mat, grid)
        want = [np.trace(real(mat, t)) for t in grid]
        assert len(got) == len(grid)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert len(calls) == n_expm * len(fields)


def test_grid_traces_refuse_overflow_in_the_square():
    # e^{400} is finite, its square e^{800} is not: as expm_neg at t = 2.
    mat = np.array([[-400.0]])
    assert operators.expm_traces(mat, (1.0,))[0] == pytest.approx(
        math.exp(400.0))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            expm_neg(mat, 2.0)
        with pytest.raises(NumericalError):
            operators.expm_traces(mat, (1.0, 2.0))


@pytest.mark.parametrize("g", [GraphModel.zd_l1(2), GraphModel.explicit(
    5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], root=2)],
    ids=["z2", "explicit"])
def test_build_takes_root_distances_in_one_call(monkeypatch, g):
    # The build asks the graph for its root distances once, as an array.
    want = [g.distance(g.root, v) for v in g.ball(g.root, 2)]

    def per_vertex(u, v):
        raise AssertionError("per-vertex distance call")

    monkeypatch.setattr(g, "distance", per_vertex)
    trunc = Truncation.build(g, symmetric_walk(g, 1.0), PotentialSpec(), 2)
    assert trunc.dist.tolist() == want


def _without_targets_at_origin(v):
    return ((), ()) if v == (0,) else SPEC.kernel(v)


# A time is finite and >= 0 at every entry point, which names what it
# refuses: (t, id, message).
_BAD_TIMES = ((math.nan, "nan", "t = nan is not finite"),
              (math.inf, "inf", "t = inf is not finite"),
              (-math.inf, "minus-inf", "t = -inf is not finite"),
              (-0.5, "negative", "t must be >= 0, got -0.5"))
_TIMED = {
    "expm": lambda t: expm_neg(np.eye(2), t),
    "expm-traces": lambda t: operators.expm_traces(np.eye(2), (0.5, t)),
    "traces": lambda t: Truncation.build(G1, SPEC, PotentialSpec(), 2).traces(
        np.zeros((1, 5)), [0.5, t]),
    "pushforward": lambda t: multiplicity_pushforward(np.eye(2), t)}
_CYCLE = GraphModel.explicit(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.mark.parametrize("call, exc, named", [
    (lambda: Truncation.build(G1, MarkovSpec(
        rate=lambda v: -0.5 if v == (1,) else 1.0,
        kernel=SPEC.kernel), PotentialSpec(), 3), DomainError,
     "rate at vertex (1,) must be >= 0, got -0.5"),
    (lambda: Truncation.build(G1, MarkovSpec(
        rate=lambda v: 1.0, kernel=_without_targets_at_origin),
        PotentialSpec(), 3), ConfigError,
     "vertex (0,) has a positive rate 1.0 but no jump targets"),
    (lambda: Truncation.build(G1, SPEC, PotentialSpec(), -1), DomainError,
     "radius must be >= 0, got -1"),
    (lambda: Truncation.build(_CYCLE, symmetric_walk(_CYCLE), PotentialSpec(),
                              -1), DomainError, "radius must be >= 0, got -1"),
    *[(lambda call=call, t=t: call(t), DomainError, named)
      for call in _TIMED.values() for t, _, named in _BAD_TIMES]],
    ids=["negative-rate", "rate-without-targets", "build-radius-lattice",
         "build-radius-explicit",
         *[f"{name}-t-{label}" for name in _TIMED
           for _, label, _ in _BAD_TIMES]])
def test_operator_refusals_name_the_value(call, exc, named):
    with pytest.raises(exc, match=re.escape(named)):
        call()


@pytest.mark.parametrize("t", [t for t, _, _ in _BAD_TIMES],
                         ids=[label for _, label, _ in _BAD_TIMES])
def test_a_bad_t_is_refused_before_any_solve_or_product(monkeypatch, t):
    # The exact traces and the push-forward check every t before they solve
    # a spectrum or form a product.
    trunc = Truncation.build(G1, SPEC, PotentialSpec(), 2)

    def no_work(*args, **kwargs):
        raise AssertionError("work before the refusal")

    for name in ("eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, no_work)
    monkeypatch.setattr(np, "matmul", no_work)
    with pytest.raises(DomainError):
        trunc.traces(np.zeros((1, 5)), [0.5, t])
    with pytest.raises(DomainError):
        multiplicity_pushforward(np.eye(2), t)
