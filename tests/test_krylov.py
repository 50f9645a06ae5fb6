import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dds.errors import ConfigError, NumericalError
from dds.krylov import cgls
from dds.operators import (
    LinearMap,
    MaskSpec,
    RadonGeometry,
    diff_z_operator,
    identity_map,
    make_coil_maps,
    make_mask,
    radon_operator,
    sense_operator,
)
from dds.tensor import COMPLEX, REAL, RngStream, norm
from oracles import (
    IndefiniteOperatorError,
    cg,
    jacobi_residual_sequence,
    krylov_basis,
    matrix_operator,
    subspace_distance,
)
from test_operators import normal_map, op_to_matrix


def random_spd_operator(n, seed, shift=1.0):
    b = RngStream(seed).randn((n, n))
    return matrix_operator(b.T @ b / n + shift * np.eye(n))


def test_cg_identity_one_step():
    op = identity_map((4,), dtype=np.float64)
    b = RngStream(0).randn((4,))
    x, rep = cg(op, b, np.zeros(4), 1)
    assert np.array_equal(x, b)
    assert rep.iterations == 1


def test_cg_2x2_worked_example():
    # direct inverse oracle: [[4,1],[1,3]]^-1 [1,2] = [1/11, 7/11]
    op = matrix_operator(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x, _ = cg(op, np.array([1.0, 2.0]), np.zeros(2), 2)
    assert np.max(np.abs(x - np.array([1.0 / 11.0, 7.0 / 11.0]))) < 1e-12


def test_cg_exact_start_returns_immediately():
    op = identity_map((3,), dtype=np.float64)
    b = np.array([1.0, 2.0, 3.0])
    x, rep = cg(op, b, b.copy(), 5)
    assert rep.iterations == 0
    assert np.array_equal(x, b)


def test_cg_matches_dense_solve_on_random_spd():
    for s in range(25):
        n = 4 + (s % 29)
        op = random_spd_operator(n, 100 + s)
        rhs = RngStream(200 + s).randn((n,))
        x, _ = cg(op, rhs, np.zeros(n), n)
        dense = np.column_stack([op.apply(np.eye(n)[:, j].copy()) for j in range(n)])
        want = np.linalg.solve(dense, rhs)
        assert norm(x - want) <= 1e-8 * norm(want)


def test_cg_zero_iteration_cap_returns_start():
    op = identity_map((3,), dtype=np.float64)
    x0 = np.array([5.0, 5.0, 5.0])
    x, rep = cg(op, np.zeros(3), x0, 0)
    assert np.array_equal(x, x0)
    assert rep.iterations == 0


def test_cg_indefinite_operator_raises():
    op = matrix_operator(np.diag([1.0, -1.0]))
    with pytest.raises(IndefiniteOperatorError):
        cg(op, np.array([0.0, 1.0]), np.zeros(2), 2)


def test_cg_residual_norms_recorded():
    op = random_spd_operator(10, 3)
    rhs = RngStream(4).randn((10,))
    x, rep = cg(op, rhs, np.zeros(10), 10)
    assert len(rep.residual_norms) == rep.iterations + 1
    assert rep.residual_norms[-1] < rep.residual_norms[0]


def test_cg_residual_orthogonality():
    # exact-arithmetic CG residuals are mutually orthogonal; check to 1e-8
    op = random_spd_operator(12, 9)
    rhs = RngStream(10).randn((12,))
    rs = []
    cg(op, rhs, np.zeros(12), 12, callback=lambda k, x, r: rs.append(r.copy()))
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            ni, nj = norm(rs[i]), norm(rs[j])
            if ni > 1e-12 and nj > 1e-12:
                assert abs(np.vdot(rs[i], rs[j])) <= 1e-8 * ni * nj


def test_cg_complex_hermitian_system():
    rng = RngStream(11)
    b = rng.randn((6, 6), dtype=COMPLEX)
    herm = b.conj().T @ b / 6 + np.eye(6)
    op = matrix_operator(herm)
    rhs = rng.randn((6,), dtype=COMPLEX)
    x, _ = cg(op, rhs, np.zeros(6, dtype=complex), 6)
    assert norm(x - np.linalg.solve(herm, rhs)) < 1e-8 * norm(rhs)


def proximal_system(a, y, xhat, gamma):
    """(I + gamma A*A) x = xhat + gamma A*y, as the dds-proximal-cg step solves it."""
    return normal_map(a, gamma, plus=lambda v: v), xhat + gamma * a.adjoint(y)


def test_build_normal_unitary_case():
    rng = RngStream(12)
    # full-mask single-coil Fourier is unitary; emulate with a unitary matrix
    q, _ = np.linalg.qr(rng.randn((8, 8), dtype=COMPLEX))
    op = normal_map(matrix_operator(q))
    for _ in range(5):
        x = rng.randn((8,), dtype=COMPLEX)
        assert norm(op.apply(x) - x) < 1e-12


def test_build_normal_zero_rhs():
    # zero data: the normal equations' right-hand side A*y vanishes and CG stays at 0
    a = matrix_operator(RngStream(13).randn((5, 4)))
    rhs = a.adjoint(np.zeros(5))
    assert norm(rhs) == 0.0
    x, rep = cg(normal_map(a), rhs, np.zeros(4), 4)
    assert rep.iterations == 0 and norm(x) == 0.0


def test_build_normal_matches_dense():
    m = RngStream(14).randn((8, 8), dtype=COMPLEX)
    op = normal_map(matrix_operator(m))
    dense = np.column_stack([op.apply(np.eye(8, dtype=complex)[:, j].copy())
                             for j in range(8)])
    assert np.max(np.abs(dense - m.conj().T @ m)) < 1e-12


def test_normal_operator_weight_and_plus_term_match_dense():
    m = RngStream(30).randn((6, 5), dtype=COMPLEX)
    r = RngStream(31).randn((5, 5))
    reg = r.T @ r
    op = normal_map(matrix_operator(m), 0.3, plus=lambda v: reg @ v)
    dense = np.column_stack([op.apply(np.eye(5, dtype=complex)[:, j].copy())
                             for j in range(5)])
    assert np.max(np.abs(dense - (0.3 * m.conj().T @ m + reg))) < 1e-12


def test_proximal_small_gamma_returns_anchor():
    a = matrix_operator(RngStream(16).randn((6, 6)))
    xhat = RngStream(17).randn((6,))
    op, rhs = proximal_system(a, np.zeros(6), xhat, 1e-12)
    x, _ = cg(op, rhs, xhat, 6)
    assert norm(x - xhat) < 1e-9 * norm(xhat)


def test_proximal_identity_closed_form():
    # gamma=1, A=I, xhat=0: minimizer of 1/2||y-x||^2 + 1/2||x||^2 is y/2
    a = identity_map((4,), dtype=np.float64)
    b = RngStream(18).randn((4,))
    op, rhs = proximal_system(a, b, np.zeros(4), 1.0)
    x, _ = cg(op, rhs, np.zeros(4), 4)
    assert norm(x - b / 2.0) < 1e-12


def test_proximal_matches_dense_solve():
    m = RngStream(19).randn((6, 6))
    y = RngStream(20).randn((6,))
    xhat = RngStream(21).randn((6,))
    gamma = 0.7
    op, rhs = proximal_system(matrix_operator(m), y, xhat, gamma)
    x, _ = cg(op, rhs, xhat, 6)
    want = np.linalg.solve(np.eye(6) + gamma * m.T @ m, xhat + gamma * m.T @ y)
    assert norm(x - want) < 1e-10 * norm(want)


def test_proximal_gradient_optimality():
    # gradient of gamma/2 ||y-Ax||^2 + 1/2 ||x-xhat||^2 vanishes at the solve
    m = RngStream(22).randn((8, 8)) / 3.0
    a = matrix_operator(m)
    y = RngStream(23).randn((8,))
    xhat = RngStream(24).randn((8,))
    gamma = 0.9
    op, rhs = proximal_system(a, y, xhat, gamma)
    x, _ = cg(op, rhs, xhat, 50, tol=1e-14)
    grad = gamma * a.adjoint(a.apply(x) - y) + (x - xhat)
    bound = 1e-8 * (1.0 + gamma * np.linalg.norm(m, 2) ** 2) * norm(xhat)
    assert norm(grad) <= bound


def test_krylov_basis_single_vector():
    op = identity_map((4,), dtype=np.float64)
    b = np.array([2.0, 0.0, 0.0, 0.0])
    basis = krylov_basis(op, b, 1)
    assert basis.dim == 1
    assert norm(basis.vectors[0] - b / 2.0) < 1e-15


def test_krylov_basis_breakdown_on_identity():
    op = identity_map((5,), dtype=np.float64)
    basis = krylov_basis(op, RngStream(25).randn((5,)), 4)
    assert basis.dim == 1


def test_krylov_basis_orthonormal():
    op = matrix_operator(np.diag([1.0, 2.0, 3.0]))
    basis = krylov_basis(op, np.ones(3), 3)
    assert basis.dim == 3
    q = basis.vectors.reshape(3, -1)
    assert np.max(np.abs(q.conj() @ q.T - np.eye(3))) <= 1e-10


def test_krylov_basis_rejects_zero_vector():
    with pytest.raises(ConfigError):
        krylov_basis(identity_map((3,), dtype=np.float64), np.zeros(3), 2)


def test_subspace_distance_cases():
    op = matrix_operator(np.diag([1.0, 2.0, 3.0, 4.0]))
    b = np.array([1.0, 1.0, 0.0, 0.0])
    basis = krylov_basis(op, b, 2)
    base = RngStream(26).randn((4,))
    assert subspace_distance(base, base, basis) == 0.0
    v = base + basis.vectors[0]
    assert subspace_distance(v, base, basis) < 1e-12
    w = np.array([0.0, 0.0, 0.0, 1.0])
    w = w - basis.project(w)
    assert abs(subspace_distance(base + w, base, basis) - norm(w)) < 1e-12


def test_cg_iterates_confined_to_krylov_space():
    # the core confinement property: M-step CG from xhat lands in xhat + K_M
    for s in range(20):
        n = 16
        op = random_spd_operator(n, 300 + s, shift=0.5)
        rhs = RngStream(400 + s).randn((n,))
        xhat = RngStream(500 + s).randn((n,))
        for m_steps in (1, 3, 5):
            x_m, _ = cg(op, rhs, xhat, m_steps)
            b0 = rhs - op.apply(xhat)
            basis = krylov_basis(op, b0, m_steps)
            disp = norm(x_m - xhat)
            assert subspace_distance(x_m, xhat, basis) <= 1e-8 * max(disp, 1e-300)


def test_cg_finite_termination():
    for n in (8, 16, 32):
        op = random_spd_operator(n, 600 + n)
        rhs = RngStream(700 + n).randn((n,))
        x, rep = cg(op, rhs, np.zeros(n), n, tol=0.0)
        assert rep.residual_norms[-1] <= 1e-8 * norm(rhs)


def test_jacobi_residuals_match_dense_iteration():
    amat = np.diag([0.9, 1.0, 1.1])
    a = matrix_operator(amat)
    y = np.array([1.0, -2.0, 0.5])
    x0 = np.zeros(3)
    seq = jacobi_residual_sequence(a, y, x0, 6)
    b = y.copy()
    for k in range(7):
        assert norm(seq[k] - b) < 1e-12
        b = (np.eye(3) - amat) @ b
    norms = [norm(v) for v in seq]
    assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(6))


def test_jacobi_identity_converges_in_one_step():
    a = identity_map((4,), dtype=np.float64)
    seq = jacobi_residual_sequence(a, RngStream(27).randn((4,)), np.zeros(4), 2)
    assert norm(seq[1]) == 0.0


def test_jacobi_exact_start_all_zero():
    amat = RngStream(28).randn((4, 4))
    amat = amat.T @ amat / 4 + np.eye(4)
    a = matrix_operator(amat)
    xstar = RngStream(29).randn((4,))
    seq = jacobi_residual_sequence(a, amat @ xstar, xstar, 3)
    assert all(norm(v) < 1e-12 for v in seq)


# ---------------------------------------------------------------------------
# CGLS: min ||b - A x||^2 + w ||c - B x||^2 without forming A*A

def counted(a):
    """``a`` with its apply/adjoint calls counted in ``.calls``."""
    calls = {"apply": 0, "adjoint": 0}

    def fwd(x):
        calls["apply"] += 1
        return a.apply(x)

    def adj(y):
        calls["adjoint"] += 1
        return a.adjoint(y)

    out = LinearMap(a.domain_shape, a.range_shape, fwd, adj, domain_dtype=a.domain_dtype,
                    name=a.name)
    out.calls = calls
    return out


def lsq_problem(seed, m, nz, k, rank, cplx, form, weight):
    """A random rank-``rank`` least-squares problem on (nz, 1, k) volumes.

    Returns the cgls arguments (a, b, stack) and the dense stacked system
    (S, d) whose least-squares problem is the same: S = [A; sqrt(w) B].
    """
    rng = RngStream(seed)
    dt = COMPLEX if cplx else REAL
    shape, n = (nz, 1, k), nz * k
    mat = rng.child(0).randn((m, rank), dtype=dt) @ rng.child(1).randn((rank, n), dtype=dt)
    a = LinearMap(shape, (m,), lambda x: mat @ x.ravel(),
                  lambda y: (mat.conj().T @ y).reshape(shape), domain_dtype=dt)
    b = rng.child(2).randn((m,), dtype=dt)
    if form == "none":
        return a, b, None, mat, b
    bop = identity_map(shape, dtype=dt) if form == "identity" else diff_z_operator(shape, dtype=dt)
    c = rng.child(3).randn(shape, dtype=dt)
    bmat = op_to_matrix(bop)
    s = np.vstack([mat, np.sqrt(weight) * bmat])
    d = np.concatenate([b, np.sqrt(weight) * c.ravel()])
    return a, b, (bop, c, weight), s, d


def condition(s):
    """Condition number of S on its numerical range."""
    sv = np.linalg.svd(s, compute_uv=False)
    return sv[0] / sv[sv > 1e-10 * sv[0]][-1]


# Random systems past condition 1e3 are skipped: the bounds below are for
# round-off, not for what ill-conditioning does to CG on the normal equations.
LSQ = dict(seed=st.integers(0, 10**6), m=st.integers(1, 12), nz=st.integers(2, 4),
           k=st.integers(1, 3), rank=st.integers(1, 12), cplx=st.booleans(),
           form=st.sampled_from(("none", "identity", "diff_z")),
           weight=st.floats(0.1, 10.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**LSQ)
def test_cgls_matches_lstsq(seed, m, nz, k, rank, cplx, form, weight):
    # from zero, CGLS tends to the minimum-norm least-squares solution, even
    # when the stacked system is rank deficient
    rank = min(rank, m, nz * k)
    a, b, stack, s, d = lsq_problem(seed, m, nz, k, rank, cplx, form, weight)
    assume(condition(s) <= 1e3)
    want = np.linalg.lstsq(s, d, rcond=None)[0].reshape(a.domain_shape)
    g0 = norm(s.conj().T @ d)
    x, rep = cgls(a, b, None, 20 * nz * k, 1e-13 * g0, stack=stack)
    assert norm(x - want) <= 1e-7 * max(norm(want), 1e-300)
    assert norm(rep.residual - (b - a.apply(x))) <= 1e-10 * max(norm(b), 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(iters=st.integers(1, 5), **LSQ)
def test_cgls_iterates_are_cg_on_the_normal_equations(iters, seed, m, nz, k, rank, cplx,
                                                      form, weight):
    # warm-started M-step CGLS equals M-step CG on (S*S) x = S*d, and its
    # displacement lies in K_M(S*S, S*(d - S x0))
    rank = min(rank, m, nz * k)
    a, b, stack, s, d = lsq_problem(seed, m, nz, k, rank, cplx, form, weight)
    assume(condition(s) <= 1e3)
    x0 = RngStream(seed).child(4).randn(a.domain_shape, dtype=a.domain_dtype)
    nrm = matrix_operator(s.conj().T @ s)
    rhs = s.conj().T @ d
    r0 = rhs - nrm.apply(x0.ravel())
    assume(norm(r0) > 1e-12 * norm(rhs))
    basis = krylov_basis(nrm, r0, iters)
    iters = basis.dim  # past the grade of r0 both methods only step on round-off
    want, _ = cg(nrm, rhs, x0.ravel(), iters)
    x, rep = cgls(a, b, x0, iters, stack=stack)
    disp = norm(want - x0.ravel())
    # the two recursions round differently; clustered spectra spread them to
    # ~3e-8 of the step over 6000 random draws
    assert norm(x.ravel() - want) <= 1e-6 * disp
    assert subspace_distance(x.ravel(), x0.ravel(), basis) <= 1e-8 * disp
    assert norm(rep.residual - (b - a.apply(x))) <= 1e-10 * max(norm(b), 1.0)


def sense_and_radon_systems():
    maps = make_coil_maps(3, (16, 16), 40)
    sense = sense_operator(maps, make_mask(MaskSpec("gaussian1d", 3.0, 0.1, 41), (16, 16)))
    radon = radon_operator(RadonGeometry.uniform(8, 6), 3)
    x_sense = RngStream(42).randn((16, 16), dtype=COMPLEX)
    x_radon = RngStream(43).randn((3, 8, 8))
    y_sense = sense.apply(RngStream(44).randn((16, 16), dtype=COMPLEX))
    y_radon = radon.apply(RngStream(45).randn((3, 8, 8)))
    c_radon = RngStream(46).randn((3, 8, 8))
    dz = diff_z_operator((3, 8, 8))
    return [
        ("sense", sense, y_sense, x_sense, None),
        ("sense+identity", sense, y_sense, x_sense,
         (identity_map((16, 16)), x_sense, 1.0 / 0.95)),
        ("radon", radon, y_radon, x_radon, None),
        ("radon+diff_z", radon, y_radon, x_radon, (dz, c_radon, 0.04)),
    ]


@pytest.mark.parametrize("iters", [1, 2, 3, 4, 5])
def test_cgls_agrees_with_cg_on_sense_radon_and_stacked_systems(iters):
    for name, a, y, x0, stack in sense_and_radon_systems():
        bop, c, w = stack if stack is not None else (None, None, 0.0)
        plus = None if bop is None else (lambda v, bop=bop, w=w: w * bop.adjoint(bop.apply(v)))
        rhs = a.adjoint(y) if bop is None else a.adjoint(y) + w * bop.adjoint(c)
        want, _ = cg(normal_map(a, plus=plus), rhs, x0, iters)
        x, _ = cgls(a, y, x0, iters, stack=stack)
        assert norm(x - want) <= 1e-12 * norm(want), name


def test_capped_cgls_skips_its_last_adjoint():
    maps = make_coil_maps(2, (8, 8), 50)
    a = counted(sense_operator(maps, make_mask(MaskSpec("uniform1d", 2.0, 0.1, 51), (8, 8))))
    y = a.apply(RngStream(52).randn((8, 8), dtype=COMPLEX))
    a.calls.update(apply=0, adjoint=0)
    x0 = RngStream(53).randn((8, 8), dtype=COMPLEX)
    x, rep = cgls(a, y, x0, 4)
    # one start residual plus one forward per step; the 4th step's A*s is skipped
    assert a.calls == {"apply": 5, "adjoint": 4}
    assert rep.iterations == 4 and len(rep.residual_norms) == 4
    a.calls.update(apply=0, adjoint=0)
    _, rep = cgls(a, y, None, 4, 1e-300)
    # a start from zero applies nothing; a tolerance (here relative, so
    # 1e-300 ||r_0|| and never reached) forms every gradient
    assert a.calls == {"apply": 4, "adjoint": 5}
    assert len(rep.residual_norms) == 5


def test_cgls_zero_iterations_returns_start_and_its_residual():
    a = matrix_operator(RngStream(54).randn((5, 3)))
    b, x0 = RngStream(55).randn((5,)), RngStream(56).randn((3,))
    x, rep = cgls(a, b, x0, 0)
    assert np.array_equal(x, x0) and rep.iterations == 0
    assert np.array_equal(rep.residual, b - a.apply(x0))


def test_cgls_exact_start_stops_at_once():
    m = RngStream(57).randn((6, 4))
    xs = RngStream(58).randn((4,))
    x, rep = cgls(matrix_operator(m), m @ xs, xs, 5, 1e-12)
    # the tolerance is relative, so only a zero first gradient is within it
    assert rep.iterations == 0 and np.array_equal(x, xs)
    assert rep.residual_norms == [0.0]


def test_cgls_raises_on_a_later_non_finite_gradient():
    # the first gradient and the first curvature are finite; the adjoint
    # overflows from its second call on, so the second gradient is not
    m = RngStream(61).randn((5, 3))
    calls = []

    def adj(y):
        calls.append(1)
        return m.T @ y if len(calls) == 1 else (m.T @ y) * 1e308 * 1e308

    a = LinearMap((3,), (5,), lambda x: m @ x, adj, domain_dtype=REAL)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite residual"):
        cgls(a, RngStream(62).randn((5,)), None, 3)
    assert len(calls) == 2


def test_cgls_tolerance_is_relative_to_the_first_gradient():
    # scaling b by a power of two scales every iterate and gradient exactly,
    # so the stop falls on the same step whatever the scale of the data
    m = RngStream(59).randn((12, 8)) @ np.diag(np.logspace(0, -2, 8))
    a, b = matrix_operator(m), RngStream(60).randn((12,))
    x, rep = cgls(a, b, None, 50, 1e-3)
    norms = rep.residual_norms
    assert rep.iterations == 7 and norms[-1] <= 1e-3 * norms[0] < norms[-2]
    for c in (2.0 ** -40, 2.0 ** 40):
        xc, repc = cgls(a, c * b, None, 50, 1e-3)
        assert repc.iterations == rep.iterations and np.array_equal(xc, c * x)

