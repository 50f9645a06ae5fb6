"""Single-iteration ADMM with persistent split/dual variables for 3-D TV.

Solves the per-step data-consistency problem

    min_x 1/2 ||A x - y||^2 + lambda ||D_z x||_1

with one ADMM sweep per diffusion step, sharing z and w across steps so a
single inner iteration converges over the course of the sampling loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import VpSchedule
# bench/tracing.py hooks both names as admm attributes; both are the one DDIM step.
from .diffusion import ddim_step as ve_ddim_step, ddim_step as vp_ddim_step  # noqa: F401
from .errors import ConfigError
# bench/tracing.py times the x-update solves through the attribute admm.cg,
# so the solver keeps that name here.
from .krylov import cgls as cg
from .operators import LinearMap, diff_z_adjoint, diff_z_apply
from .samplers import ReconResult, SamplerConfig, dds_reconstruct, make_schedule
from .tensor import RngStream


class SliceDenoiser:
    """Volume adapter: applies a 2-D denoiser independently per axial slice."""

    def __init__(self, inner):
        self.inner = inner
        self.prior = getattr(inner, "prior", None)

    def denoise(self, vol, t, sched):
        return np.stack([self.inner.denoise(vol[z], t, sched)
                         for z in range(vol.shape[0])])


def soft_threshold(v: np.ndarray, kappa: float) -> np.ndarray:
    """Proximal map of kappa |.|: shrink magnitudes by kappa, dead-zone at 0."""
    if kappa < 0:
        raise ConfigError("soft threshold needs kappa >= 0")
    v = np.asarray(v)
    mag = np.abs(v)
    shrink = np.where(mag > kappa, 1.0 - kappa / np.where(mag > 0, mag, 1.0), 0.0)
    return v * shrink


@dataclass
class AdmmState:
    """Split variable z and scaled dual w, persisted across diffusion steps.

    ``residual`` is y - A x' of the sweep that produced the state, as its
    x-update solve carried it (None before the first sweep).
    """

    z: np.ndarray
    w: np.ndarray
    residual: np.ndarray | None = None

    @classmethod
    def zeros(cls, shape, dtype=np.float64) -> "AdmmState":
        return cls(z=np.zeros(shape, dtype=dtype), w=np.zeros(shape, dtype=dtype))


@dataclass
class TvConfig:
    lam: float = 10.0
    rho: float = 0.04
    cg_steps: int = 5

    def __post_init__(self):
        if self.rho <= 0:
            raise ConfigError("rho must be > 0")
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if self.cg_steps < 0:
            raise ConfigError("inner CG cap must be >= 0")


def admm_tv_dc(xhat: np.ndarray, a: LinearMap, y: np.ndarray, state: AdmmState,
               cfg: TvConfig) -> tuple[np.ndarray, AdmmState]:
    """One ADMM sweep of the TV-regularized data-consistency problem.

    x-update: CGLS on min ||y - A x||^2 + rho ||(z - w) - D x||^2, the normal
    equations (A'A + rho D'D) x = A'y + rho D'(z - w), warm-started at xhat;
    then z <- shrink(D x' + w), w <- w + D x' - z. The new state carries the
    solve's y - A x'.
    """
    if xhat.ndim != 3:
        raise ConfigError("admm_tv_dc expects a 3-D volume")
    if state.z.shape != xhat.shape or state.w.shape != xhat.shape:
        raise ConfigError("ADMM state shapes must match the volume")
    dz = LinearMap(xhat.shape, xhat.shape, diff_z_apply, diff_z_adjoint,
                   domain_dtype=a.domain_dtype, name="diff_z")
    xp, report = cg(a, y, xhat, cfg.cg_steps, stack=(dz, state.z - state.w, cfg.rho))
    dx = diff_z_apply(xp)
    z_new = soft_threshold(dx + state.w, cfg.lam / cfg.rho)
    w_new = state.w + dx - z_new
    return xp, AdmmState(z=z_new, w=w_new, residual=report.residual)


def tv_objective(x: np.ndarray, a: LinearMap, y: np.ndarray, lam: float) -> float:
    r = a.apply(x) - y
    return 0.5 * float(np.real(np.vdot(r, r))) + lam * float(np.sum(np.abs(diff_z_apply(x))))


def dds_3d_reconstruct(a: LinearMap, y: np.ndarray, denoiser, cfg: SamplerConfig,
                       tv: TvConfig, rng: RngStream | None = None,
                       x_true: np.ndarray | None = None, schedule=None) -> ReconResult:
    """Volume reconstruction: slice-wise denoising, shared-state ADMM-TV DC.

    Runs the shared sampling loop with a stateful DC step. VP applies
    ADMM-TV at every step; VE warms up with plain CG for t in [N/2, N] and
    switches to ADMM-TV below, with z, w still zero at the switch. Both run
    tv.cg_steps CG iterations. The z-axis TV couples slices only through the
    DC solve.
    """
    if len(a.domain_shape) != 3:
        raise ConfigError("dds_3d_reconstruct expects a volume operator")
    if cfg.dc != "dds-cg":
        raise ConfigError(f"volume reconstruction runs ADMM-TV data consistency; "
                          f"dc = {cfg.dc} is not supported, use dc = dds-cg")
    sched = schedule if schedule is not None else make_schedule(cfg)
    vp = isinstance(sched, VpSchedule)
    switch_t = sched.n_steps // 2  # VE warm-up: plain CG while t >= switch_t
    state = AdmmState.zeros(a.domain_shape, dtype=a.domain_dtype)

    def admm_dc(x, xhat, t):
        nonlocal state
        if vp or t < switch_t:
            xp, state = admm_tv_dc(xhat, a, y, state, tv)
            return xp, state.residual
        xp, report = cg(a, y, xhat, tv.cg_steps)
        return xp, report.residual

    return dds_reconstruct(a, y, SliceDenoiser(denoiser), cfg, rng=rng, x_true=x_true,
                           schedule=sched, dc=admm_dc)
