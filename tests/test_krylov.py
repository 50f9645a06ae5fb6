import numpy as np
import pytest

from dds.errors import ConfigError, IndefiniteOperatorError
from dds.krylov import (
    cg,
    jacobi_residual_sequence,
    krylov_basis,
    normal_operator,
    subspace_distance,
)
from dds.operators import identity_map, matrix_operator
from dds.tensor import COMPLEX, RngStream, norm


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


def test_cg_residual_norms_recorded_and_monotone_flag():
    op = random_spd_operator(10, 3)
    rhs = RngStream(4).randn((10,))
    x, rep = cg(op, rhs, np.zeros(10), 10)
    assert len(rep.residual_norms) == rep.iterations + 1
    assert rep.residual_norms[-1] < rep.residual_norms[0]
    assert isinstance(rep.residual_monotone, bool)


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
    return normal_operator(a, gamma, plus=lambda v: v), xhat + gamma * a.adjoint(y)


def test_build_normal_unitary_case():
    rng = RngStream(12)
    # full-mask single-coil Fourier is unitary; emulate with a unitary matrix
    q, _ = np.linalg.qr(rng.randn((8, 8), dtype=COMPLEX))
    op = normal_operator(matrix_operator(q))
    for _ in range(5):
        x = rng.randn((8,), dtype=COMPLEX)
        assert norm(op.apply(x) - x) < 1e-12


def test_build_normal_zero_rhs():
    # zero data: the normal equations' right-hand side A*y vanishes and CG stays at 0
    a = matrix_operator(RngStream(13).randn((5, 4)))
    rhs = a.adjoint(np.zeros(5))
    assert norm(rhs) == 0.0
    x, rep = cg(normal_operator(a), rhs, np.zeros(4), 4)
    assert rep.iterations == 0 and norm(x) == 0.0


def test_build_normal_matches_dense():
    m = RngStream(14).randn((8, 8), dtype=COMPLEX)
    op = normal_operator(matrix_operator(m))
    dense = np.column_stack([op.apply(np.eye(8, dtype=complex)[:, j].copy())
                             for j in range(8)])
    assert np.max(np.abs(dense - m.conj().T @ m)) < 1e-12


def test_normal_operator_weight_and_plus_term_match_dense():
    m = RngStream(30).randn((6, 5), dtype=COMPLEX)
    r = RngStream(31).randn((5, 5))
    reg = r.T @ r
    op = normal_operator(matrix_operator(m), 0.3, plus=lambda v: reg @ v)
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


def test_proximal_rejects_nonpositive_gamma():
    a = identity_map((2,), dtype=np.float64)
    with pytest.raises(ConfigError):
        normal_operator(a, 0.0, plus=lambda v: v)


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
