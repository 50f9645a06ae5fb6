"""Single-iteration ADMM with persistent split/dual variables for 3-D TV.

Solves the per-step data-consistency problem

    min_x 1/2 ||A x - y||^2 + lambda ||D_z x||_1

with one ADMM sweep per diffusion step, sharing z and w across steps so a
single inner iteration converges over the course of the sampling loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bench/tracing.py hooks both names as admm attributes; both are the one DDIM step.
from .diffusion import ddim_step as ve_ddim_step, ddim_step as vp_ddim_step  # noqa: F401
from .errors import ConfigError
# bench/tracing.py times the x-update solves through the attribute admm.cg,
# so the solver keeps that name here.
from .krylov import CgReport, cgls as cg
# bench/tracing.py hooks admm.diff_z_adjoint too, so the name stays here.
from .operators import LinearMap, diff_z_adjoint, diff_z_apply, diff_z_operator  # noqa: F401
from .samplers import ReconResult, SamplerConfig, dds_reconstruct
from .tensor import RngStream


class SliceDenoiser:
    """Volume adapter: applies a 2-D denoiser independently per axial slice."""

    def __init__(self, inner):
        self.inner = inner

    def denoise(self, vol, t, sched):
        return np.stack([self.inner.denoise(vol[z], t, sched)
                         for z in range(vol.shape[0])])


def soft_threshold(v: np.ndarray, kappa: float) -> np.ndarray:
    """Proximal map of kappa |.| for kappa >= 0: shrink magnitudes by kappa, dead-zone at 0."""
    v = np.asarray(v)
    mag = np.abs(v)
    shrink = np.where(mag > kappa, 1.0 - kappa / np.where(mag > 0, mag, 1.0), 0.0)
    return v * shrink


@dataclass
class AdmmState:
    """Split variable z and scaled dual w, persisted across diffusion steps."""

    z: np.ndarray
    w: np.ndarray

    @classmethod
    def zeros(cls, shape, dtype=np.float64) -> "AdmmState":
        return cls(z=np.zeros(shape, dtype=dtype), w=np.zeros(shape, dtype=dtype))


@dataclass
class TvConfig:
    lam: float = 10.0
    rho: float = 0.04
    cg_steps: int = 5

    def __post_init__(self):
        if not 0 < self.rho < math.inf:  # NaN fails every comparison
            raise ConfigError("rho must be finite and > 0")
        if not 0 <= self.lam < math.inf:
            raise ConfigError("lambda must be finite and >= 0")
        if self.cg_steps < 0:
            raise ConfigError("inner CG cap must be >= 0")


def admm_tv_dc(xhat: np.ndarray, a: LinearMap, y: np.ndarray, state: AdmmState,
               cfg: TvConfig) -> tuple[np.ndarray, AdmmState, CgReport]:
    """One ADMM sweep of the TV-regularized data-consistency problem.

    x-update: CGLS on min ||y - A x||^2 + rho ||(z - w) - D x||^2, the normal
    equations (A'A + rho D'D) x = A'y + rho D'(z - w), warm-started at xhat;
    then z <- shrink(D x' + w), w <- w + D x' - z. Returns x', the new state
    and the x-update solve's report, whose ``residual`` is y - A x'. xhat and
    the state are volumes of one shape with at least 2 slices, as
    dds_3d_reconstruct builds them.
    """
    dz = diff_z_operator(xhat.shape, dtype=a.domain_dtype)
    xp, report = cg(a, y, xhat, cfg.cg_steps, stack=(dz, state.z - state.w, cfg.rho))
    dx = diff_z_apply(xp)
    z_new = soft_threshold(dx + state.w, cfg.lam / cfg.rho)
    w_new = state.w + dx - z_new
    return xp, AdmmState(z=z_new, w=w_new), report


def dds_3d_reconstruct(a: LinearMap, y: np.ndarray, denoiser, cfg: SamplerConfig,
                       tv: TvConfig, rng: RngStream | None = None,
                       x_true: np.ndarray | None = None) -> ReconResult:
    """Volume reconstruction: slice-wise denoising, shared-state ADMM-TV DC.

    Runs the shared sampling loop with a stateful DC step. VP applies
    ADMM-TV at every step; VE warms up with plain CG for t in [N/2, N] and
    switches to ADMM-TV below, with z, w still zero at the switch. Both run
    tv.cg_steps CG iterations. The z-axis TV couples slices only through the
    DC solve.
    """
    if len(a.domain_shape) != 3 or a.domain_shape[0] < 2:
        raise ConfigError(f"dds_3d_reconstruct expects a volume of at least 2 slices "
                          f"(z-axis TV), got {a.domain_shape}")
    if cfg.dc != "dds-cg":
        raise ConfigError(f"volume reconstruction runs ADMM-TV data consistency; "
                          f"dc = {cfg.dc} is not supported, use dc = dds-cg")
    vp = cfg.mode == "vp"
    switch_t = cfg.nfe // 2  # VE warm-up: plain CG while t >= switch_t
    state = AdmmState.zeros(a.domain_shape, dtype=a.domain_dtype)

    def admm_dc(x, xhat, t):
        nonlocal state
        if vp or t < switch_t:
            xp, state, report = admm_tv_dc(xhat, a, y, state, tv)
            return xp, report
        return cg(a, y, xhat, tv.cg_steps)

    return dds_reconstruct(a, y, SliceDenoiser(denoiser), cfg, rng=rng, x_true=x_true,
                           dc=admm_dc)
