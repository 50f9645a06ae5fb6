"""Reference oracles that the tests check the package against.

No run path calls these; they are the ground truth of the test suite:
a dense matrix as an operator, plain CG on a self-adjoint PSD operator
(which CGLS must reproduce), Krylov bases and subspace distances (the
paper's claim that CG warm-started at the Tweedie estimate stays in the
Krylov tangent space), the leading eigenvectors of a dense A*A (an
A*A-invariant subspace, the theorem's hypothesis), the Richardson residual
recursion, the default VP and VE grids, the epsilon/score/Tweedie
conversions, the ADMM-TV objective and the randomized adjoint dot-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dds.errors import ConfigError, NumericalError
from dds.krylov import CgReport
from dds.operators import LinearMap, diff_z_apply
from dds.tensor import COMPLEX, REAL, RngStream, check_finite, norm

_BREAKDOWN_REL = 1e-12


class IndefiniteOperatorError(NumericalError):
    """CG encountered a search-direction curvature that is negative beyond round-off."""


def matrix_operator(mat: np.ndarray) -> LinearMap:
    """Dense matrix as a LinearMap over flat vectors."""
    mat = check_finite(np.asarray(mat), "dense matrix")
    dtype = COMPLEX if np.iscomplexobj(mat) else REAL
    mh = mat.conj().T
    return LinearMap((mat.shape[1],), (mat.shape[0],),
                     lambda x: mat @ x, lambda y: mh @ y,
                     domain_dtype=dtype, name="dense")


# ---------------------------------------------------------------------------
# Conjugate gradient and Krylov diagnostics

def cg(op: LinearMap, rhs: np.ndarray, x0: np.ndarray, iters: int,
       tol: float = 0.0, callback=None) -> tuple[np.ndarray, CgReport]:
    """Run at most ``iters`` CG steps on a self-adjoint PSD operator.

    Stops early once ||r_k|| <= tol (tol defaults to 0, so the cap rules).
    Raises IndefiniteOperatorError when p'Ap goes negative beyond round-off
    and NumericalError on non-finite intermediates.
    """
    if iters < 0:
        raise ConfigError("cg: iteration cap must be >= 0")
    x = np.array(x0, copy=True)
    r = rhs - op.apply(x)
    rs = float(np.real(np.vdot(r, r)))
    norms = [float(np.sqrt(rs))]
    if callback is not None:
        callback(0, x, r)
    if iters == 0 or norms[0] <= tol:
        return x, CgReport(0, norms)
    p = r.copy()
    it = 0
    for k in range(iters):
        ap = op.apply(p)
        pap = float(np.real(np.vdot(p, ap)))
        if not np.isfinite(pap):
            raise NumericalError("cg: non-finite curvature")
        if pap <= 0.0:
            scale = norm(p) * norm(ap)  # only needed to classify the breakdown
            if pap < -_BREAKDOWN_REL * max(scale, 1e-300):
                raise IndefiniteOperatorError(f"cg: p'Ap = {pap:.3e} < 0")
            break  # exact-zero curvature: nothing further to do
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.real(np.vdot(r, r)))
        if not np.isfinite(rs_new):
            raise NumericalError("cg: non-finite residual")
        it = k + 1
        norms.append(float(np.sqrt(rs_new)))
        if callback is not None:
            callback(it, x, r)
        if norms[-1] <= tol or rs_new == 0.0:
            break
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new
    return x, CgReport(it, norms)


@dataclass(frozen=True)
class KrylovBasis:
    """Orthonormal columns spanning K_l = span(b, Ab, ..., A^(l-1) b)."""

    vectors: np.ndarray  # stacked (l, *shape)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def project(self, v: np.ndarray) -> np.ndarray:
        q = self.vectors.reshape(self.dim, -1)
        coef = q.conj() @ v.ravel()
        return (q.T @ coef).reshape(v.shape)


def krylov_basis(op: LinearMap, b: np.ndarray, l: int) -> KrylovBasis:
    """Orthonormal basis of the order-l Krylov space of (op, b).

    Built Arnoldi-style: each new vector is op applied to the previous basis
    vector, then orthogonalized with two modified Gram-Schmidt passes.
    Terminates early with a smaller basis on breakdown.
    """
    if l < 1:
        raise ConfigError("krylov_basis: l must be >= 1")
    nb = norm(b)
    if nb == 0.0:
        raise ConfigError("krylov_basis: b must be nonzero")
    qs = [np.asarray(b) / nb]
    for _ in range(1, l):
        w = op.apply(qs[-1])
        w_scale = max(norm(w), nb)
        for _pass in range(2):
            for q in qs:
                w = w - np.vdot(q, w) * q
        wn = norm(w)
        if wn < _BREAKDOWN_REL * w_scale:
            break
        qs.append(w / wn)
    return KrylovBasis(np.stack(qs))


def subspace_distance(v: np.ndarray, base: np.ndarray, basis: KrylovBasis) -> float:
    """Distance of v - base to the span of the basis: ||(I - QQ^H)(v - base)||."""
    if v.shape != base.shape:
        raise ConfigError("subspace_distance: shape mismatch")
    r = v - base
    return norm(r - basis.project(r))


def normal_eigenbasis(a: LinearMap, l: int) -> np.ndarray:
    """The l leading eigenvectors of A*A, stacked (l, *domain_shape), orthonormal.

    A*A is formed densely, one unit vector of the domain at a time, so keep
    the domain small (16^2 or less). Their span is A*A-invariant.
    """
    n = math.prod(a.domain_shape)
    if not 1 <= l <= n:
        raise ConfigError(f"normal_eigenbasis: l = {l} must lie in [1, {n}]")
    gram = np.empty((n, n), dtype=a.domain_dtype)
    unit = np.zeros(n, dtype=a.domain_dtype)
    for j in range(n):
        unit[j] = 1.0
        gram[:, j] = a.adjoint(a.apply(unit.reshape(a.domain_shape))).ravel()
        unit[j] = 0.0
    _, vecs = np.linalg.eigh(gram)  # ascending eigenvalues
    return np.ascontiguousarray(vecs[:, :-l - 1:-1].T).reshape((l, *a.domain_shape))


def jacobi_residual_sequence(a: LinearMap, y: np.ndarray, x0: np.ndarray,
                             n: int, verify: bool = True) -> list[np.ndarray]:
    """Residuals b_0..b_n of the Richardson iteration b_{k+1} = (I - A) b_k.

    When ``verify`` is set, each b_k is checked to lie in K_{k+1}(A, b_0)
    (within 1e-8 relative), which is the recursion's defining property.
    """
    if n < 1:
        raise ConfigError("jacobi_residual_sequence: n must be >= 1")
    b = y - a.apply(x0)
    seq = [b]
    for _ in range(n):
        b = b - a.apply(b)
        seq.append(b)
    if verify and norm(seq[0]) > 0:
        for k, bk in enumerate(seq):
            nbk = norm(bk)
            if nbk == 0.0:
                continue
            basis = krylov_basis(a, seq[0], k + 1)
            dist = norm(bk - basis.project(bk))
            if dist > 1e-8 * nbk:
                raise NumericalError(
                    f"residual b_{k} escaped K_{k + 1} (distance {dist:.3e})"
                )
    return seq


# ---------------------------------------------------------------------------
# Schedule grids, Tweedie and parameterization conversions

def vp_betas(n: int) -> np.ndarray:
    """beta_0..beta_N of the default VP grid, beta_0 = 0: the 1000-step linear
    betas 1e-4..0.02, their abar read at indices ((k+1) 1000)//n - 1, and
    beta_t = 1 - abar_t / abar_{t-1} of the abar read."""
    train = np.cumprod(1.0 - np.linspace(1e-4, 0.02, 1000))
    abar = train[[((k + 1) * 1000) // n - 1 for k in range(n)]]
    return np.concatenate([[0.0], 1.0 - abar / np.concatenate([[1.0], abar[:-1]])])


def vp_abars(n: int) -> np.ndarray:
    """abar_0..abar_N of the default VP grid: the products of 1 - beta_s, s <= t."""
    return np.cumprod(1.0 - vp_betas(n))


def ve_sigmas(n: int, sigma_min: float = 0.01, sigma_max: float = 10.0) -> np.ndarray:
    """sigma_0..sigma_N of the geometric VE grid, sigma_0 = 0."""
    return np.concatenate([[0.0], sigma_min * (sigma_max / sigma_min)
                           ** (np.arange(n) / (n - 1))])


def _check_t(sched, t: int):
    if not (1 <= t <= sched.n_steps):
        raise ConfigError(f"timestep {t} outside [1, {sched.n_steps}]")


def vp_tweedie(x_t: np.ndarray, t: int, eps_hat: np.ndarray, sched) -> np.ndarray:
    """Posterior-mean estimate xhat = (x_t - sqrt(var_t) eps_hat) / scale_t."""
    _check_t(sched, t)
    return (x_t - math.sqrt(sched.var(t)) * eps_hat) / sched.scale(t)


def score_from_denoised(x_t: np.ndarray, xhat: np.ndarray, t: int, sched) -> np.ndarray:
    _check_t(sched, t)
    return (sched.scale(t) * xhat - x_t) / sched.var(t)


def score_from_eps(eps: np.ndarray, t: int, sched) -> np.ndarray:
    """shat = -eps_hat / sqrt(var_t)."""
    _check_t(sched, t)
    return -eps / math.sqrt(sched.var(t))


def eps_from_score(score: np.ndarray, t: int, sched) -> np.ndarray:
    _check_t(sched, t)
    return -score * math.sqrt(sched.var(t))


# ---------------------------------------------------------------------------
# ADMM-TV objective and the adjoint dot-test

def tv_objective(x: np.ndarray, a: LinearMap, y: np.ndarray, lam: float) -> float:
    r = a.apply(x) - y
    return 0.5 * float(np.real(np.vdot(r, r))) + lam * float(np.sum(np.abs(diff_z_apply(x))))


def dot_test(op: LinearMap, rng: RngStream, trials: int = 20, tol: float = 1e-10) -> float:
    """Randomized adjoint check; returns the worst relative defect."""
    worst = 0.0
    for _ in range(trials):
        x = rng.randn(op.domain_shape, dtype=op.domain_dtype)
        y = rng.randn(op.range_shape, dtype=op.range_dtype)
        lhs = np.vdot(y, op.apply(x))
        rhs = np.vdot(op.adjoint(y), x)
        scale = np.linalg.norm(x.ravel()) * np.linalg.norm(y.ravel())
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-300))
    if worst > tol:
        raise ConfigError(f"{op.name or 'operator'}: dot-test failed ({worst:.3e} > {tol:.1e})")
    return worst
