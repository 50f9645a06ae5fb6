"""Conjugate gradient, its least-squares form CGLS, and Krylov diagnostics.

CG follows the classic recursion (alpha_k = r'r / p'Ap, beta_k = r'r new/old)
with a hard iteration cap and optional residual tolerance. CGLS (Hestenes and
Stiefel 1952; Bjorck, Numerical Methods for Least Squares Problems, 1996,
section 7.4) runs the same recursion on the normal equations of a least-squares
problem without forming A*A: it carries the data residual b - Ax, which every
data-consistency solve of the sampler then reports for free. Complex tensors
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
    ``residual`` is the data residual b - Ax at return (CGLS only).
    """

    iterations: int
    residual_norms: list[float]
    residual_monotone: bool = True
    residual: np.ndarray | None = None


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


def cgls(a: LinearMap, b: np.ndarray, x0: np.ndarray | None, iters: int,
         tol: float = 0.0, stack=None) -> tuple[np.ndarray, CgReport]:
    """Run at most ``iters`` CGLS steps on min ||b - A x||^2 + w ||c - B x||^2.

    ``stack = (B, c, w)`` adds the second term, with B a LinearMap and w > 0;
    without it the problem is plain least squares. ``x0 = None`` starts from
    zero without applying A to it. The iterates are those of ``cg`` on the
    normal equations (A*A + w B*B) x = A*b + w B*c, but CGLS carries the data
    residual s = b - A x (and t = c - B x) and forms the gradient
    r = A*s + w B*t from it, so ``report.residual`` is s at return and
    ``report.residual_norms`` holds the ||r_k|| that ``cg`` would report.
    Stops early once ||r_k|| <= tol. With tol = 0 the cap rules, and the last
    step skips its A*s (and B*t), which only a stopping test or a next step
    would read; ``residual_norms`` then ends with ||r_(iters-1)||.
    """
    if iters < 0:
        raise ConfigError("cgls: iteration cap must be >= 0")
    bop, c, w = stack if stack is not None else (None, None, 0.0)
    if bop is not None and not w > 0:
        raise ConfigError("cgls: the stacked term's weight must be > 0")
    if x0 is None:
        x = np.zeros(a.domain_shape, dtype=a.domain_dtype)
        s = np.array(b, dtype=np.result_type(b, a.range_dtype))
        t = None if bop is None else np.array(c, dtype=np.result_type(c, bop.range_dtype))
    else:
        x = np.array(x0, dtype=np.result_type(x0, a.domain_dtype))
        s = b - a.apply(x)
        t = None if bop is None else c - bop.apply(x)

    def gradient():
        r = a.adjoint(s)
        return r if bop is None else r + w * bop.adjoint(t)

    def report(it, norms):
        mono = all(norms[i + 1] <= norms[i] + 1e-9 for i in range(len(norms) - 1))
        return x, CgReport(it, norms, residual_monotone=mono, residual=s)

    if iters == 0 and tol <= 0:
        return report(0, [])
    r = gradient()
    p = r.copy()  # updated in place below; only x, s, t and p are owned here
    rs = _sq(r)
    norms = [float(np.sqrt(rs))]
    if iters == 0 or norms[0] <= tol:
        return report(0, norms)
    it = 0
    for k in range(iters):
        q = a.apply(p)
        qb = None if bop is None else bop.apply(p)
        curv = _sq(q) if bop is None else _sq(q) + w * _sq(qb)
        if not np.isfinite(curv):
            raise NumericalError("cgls: non-finite curvature")
        if curv == 0.0:
            break  # p is in the null space of the stack: nothing further to do
        alpha = rs / curv
        x += alpha * p
        s -= alpha * q
        if t is not None:
            t -= alpha * qb
        it = k + 1
        if it == iters and tol <= 0:
            break
        r = gradient()
        rs_new = _sq(r)
        if not np.isfinite(rs_new):
            raise NumericalError("cgls: non-finite residual")
        norms.append(float(np.sqrt(rs_new)))
        if norms[-1] <= tol or rs_new == 0.0:
            break
        p *= rs_new / rs
        p += r
        rs = rs_new
    return report(it, norms)


def _sq(v: np.ndarray) -> float:
    return float(np.real(np.vdot(v, v)))


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
