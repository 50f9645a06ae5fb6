"""CGLS: conjugate gradient on the normal equations of a least-squares problem.

CGLS (Hestenes and Stiefel 1952; Bjorck, Numerical Methods for Least Squares
Problems, 1996, section 7.4) runs the classic CG recursion (alpha_k =
r'r / q'q, beta_k = r'r new/old) with a hard iteration cap and optional
relative residual tolerance on the normal equations of a least-squares
problem without forming A*A: it carries the data residual b - Ax, which every
data-consistency solve of the sampler then reports for free. Complex tensors
use conjugated inner products with the real part taken for the step scalars,
which is exact for the Hermitian PSD systems used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .operators import LinearMap


@dataclass
class CgReport:
    """Per-run CG record: iterations, residual norm path, and the data
    residual b - Ax at return."""

    iterations: int
    residual_norms: list[float]
    residual: np.ndarray | None = None


def cgls(a: LinearMap, b: np.ndarray, x0: np.ndarray | None, iters: int,
         tol: float = 0.0, stack=None) -> tuple[np.ndarray, CgReport]:
    """Run at most ``iters`` CGLS steps on min ||b - A x||^2 + w ||c - B x||^2.

    ``stack = (B, c, w)`` adds the second term, with B a LinearMap and w
    finite and > 0; without it the problem is plain least squares. The
    callers' configs fix iters >= 0 and w (1/gamma or rho), so neither is
    checked here. ``x0 = None`` starts from zero without applying A to it.
    The iterates are those of plain CG on the normal equations
    (A*A + w B*B) x = A*b + w B*c, but CGLS carries the data residual
    s = b - A x (and t = c - B x) and forms the gradient r = A*s + w B*t
    from it, so ``report.residual`` is s at return and
    ``report.residual_norms`` holds the ||r_k|| that plain CG would report.
    Stops early once ||r_k|| <= tol ||r_0||. With tol = 0 the cap rules, and
    the last step skips its A*s (and B*t), which only a stopping test or a
    next step would read; ``residual_norms`` then ends with ||r_(iters-1)||.
    """
    bop, c, w = stack if stack is not None else (None, None, 0.0)
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

    if iters == 0 and tol <= 0:
        return x, CgReport(0, [], s)
    r = gradient()
    p = r.copy()  # updated in place below; only x, s, t and p are owned here
    rs = _sq(r)
    norms = [math.sqrt(rs)]
    if iters == 0 or norms[0] <= tol * norms[0]:
        return x, CgReport(0, norms, s)
    it = 0
    for k in range(iters):
        q = a.apply(p)
        qb = None if bop is None else bop.apply(p)
        curv = _sq(q) if bop is None else _sq(q) + w * _sq(qb)
        if not math.isfinite(curv):
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
        if not math.isfinite(rs_new):
            raise NumericalError("cgls: non-finite residual")
        norms.append(math.sqrt(rs_new))
        if norms[-1] <= tol * norms[0] or rs_new == 0.0:
            break
        p *= rs_new / rs
        p += r
        rs = rs_new
    return x, CgReport(it, norms, s)


def _sq(v: np.ndarray) -> float:
    return np.vdot(v, v).real.item()
