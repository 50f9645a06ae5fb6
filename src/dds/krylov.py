"""Conjugate gradient, the normal operators its solves use, and Krylov diagnostics.

CG follows the classic recursion (alpha_k = r'r / p'Ap, beta_k = r'r new/old)
with a hard iteration cap and optional residual tolerance. Complex tensors
use conjugated inner products with the real part taken for the step scalars,
which is exact for the Hermitian PSD systems used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IndefiniteOperatorError, NumericalError
from .operators import LinearMap
from .tensor import norm

_BREAKDOWN_REL = 1e-12


@dataclass
class CgReport:
    """Per-run CG record: iterations and residual norm path.

    ``residual_monotone`` flags whether the Euclidean residual norms were
    non-increasing (within 1e-9 absolute slack); CG only guarantees monotone
    A-norm error, so a dip-and-rise here is reported, never an error.
    """

    iterations: int
    residual_norms: list[float]
    residual_monotone: bool = True


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
    mono = all(norms[i + 1] <= norms[i] + 1e-9 for i in range(len(norms) - 1))
    return x, CgReport(it, norms, residual_monotone=mono)


def normal_operator(a: LinearMap, gamma: float = 1.0, plus=None) -> LinearMap:
    """Self-adjoint PSD map v -> gamma A*A v + plus(v) for CG solves.

    The defaults give A*A (least squares on ||y - Ax||); plus = identity
    gives I + gamma A*A (the proximal step), and plus = rho D*D the ADMM
    x-update A*A + rho D*D. ``plus`` must be self-adjoint PSD.
    """
    if gamma <= 0:
        raise ConfigError("normal operator weight gamma must be > 0")

    def fwd(v):
        out = a.adjoint(a.apply(v))
        if gamma != 1.0:
            out = gamma * out
        return out if plus is None else out + plus(v)

    return LinearMap(a.domain_shape, a.domain_shape, fwd, fwd,
                     domain_dtype=a.domain_dtype, name=f"{a.name}*{a.name}")


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
