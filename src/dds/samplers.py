"""The reconstruction loop: CG-decomposed DDIM sampling plus baseline DC steps.

One loop serves images and, via admm.dds_3d_reconstruct, volumes, and one
DDIM step serves VP and VE; make_dc builds its data-consistency step once
per run, so strategy ablations are a config sweep. Baselines cover
pseudo-inverse replacement (on the denoised estimate or the noisy iterate),
one-step gradient descent on the residual, and the projected-gradient step
available when the denoiser Jacobian is an analytic projector. Rejection
sampling reruns with derived seeds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .diffusion import (
    AffineSubspacePrior,
    VeSchedule,
    VpSchedule,
    # bench/tracing.py times the DDIM step through both of these attributes,
    # so the one step keeps both names; the loop calls it as vp_ddim_step
    ddim_step as ve_ddim_step,
    ddim_step as vp_ddim_step,
    eps_from_denoised,
    mcg_dps_gradient,
)
from .dtf import write_csv
from .errors import ConfigError, NumericalError, SamplerDivergedError
# bench/tracing.py times every data-consistency solve through the attribute
# samplers.cg, so the solver keeps that name here.
from .krylov import CgReport, cgls as cg
from .metrics import estimate_noise, middle_slice
from .operators import LinearMap, identity_map
from .tensor import RngStream, norm

DC_STRATEGIES = ("dds-cg", "dds-proximal-cg", "ddnm", "projection", "gradient", "dps")

_ETA_ANCHORS = ((19, 0.15), (49, 0.5), (99, 0.8))

# pseudo-inverse CGLS: tolerance relative to ||A*r||, and its iteration cap
_PINV_TOL = 1e-10
_PINV_MAXITER = 200


def default_eta(nfe: int) -> float:
    """Stochasticity default per NFE: 0.15 @ 19, 0.5 @ 49, 0.8 @ 99 (nearest)."""
    return min(_ETA_ANCHORS, key=lambda kv: abs(kv[0] - nfe))[1]


@dataclass
class SamplerConfig:
    nfe: int = 20
    eta: float | None = None          # None -> default_eta(nfe)
    cg_steps: int = 5
    gamma: float = 0.95               # proximal weight for noisy problems
    mode: str = "vp"                  # vp | ve
    dc: str = "dds-cg"
    xi: float = 1.0                   # gradient-DC step size
    dps_step: float = 1.0             # projected-gradient step size
    scale_step_by_residual: bool = False  # xi_t, gamma_t ~ 1 / ||y - A xhat||
    ve_sigma_max: float = 10.0
    ve_truncation: float = 1.0 / 50.0
    rejection_tau: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.nfe < 2:
            raise ConfigError("nfe must be >= 2")
        if self.cg_steps < 1:
            raise ConfigError("cg_steps must be >= 1")
        for key in ("gamma", "xi", "dps_step"):  # NaN fails every comparison
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be > 0 and finite")
        if not 1.0 / self.gamma < math.inf:  # the proximal solve weighs by 1/gamma
            raise ConfigError("gamma must be > 0 with a finite 1/gamma")
        if not 0 <= self.ve_truncation < 1:
            raise ConfigError("ve_truncation must lie in [0, 1)")
        s = self.ve_sigma_max  # VE runs need var(N) = s * s finite too
        if not (0 < s and s * s < math.inf):
            raise ConfigError("ve_sigma_max must be finite and > 0, with a finite square")
        if self.mode not in ("vp", "ve"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.dc not in DC_STRATEGIES:
            raise ConfigError(f"unknown dc strategy {self.dc!r}")
        if self.eta is not None and not (0.0 <= self.eta <= 1.0):
            raise ConfigError("eta must lie in [0, 1]")
        if self.rejection_tau is not None and not self.rejection_tau >= 0:
            raise ConfigError("rejection_tau must be >= 0")

    def resolved_eta(self) -> float:
        return self.eta if self.eta is not None else default_eta(self.nfe)


@dataclass
class StepRecord:
    t: int
    residual: float
    gt_error: float = math.nan
    noise_est: float = math.nan
    subspace_dist: float = math.nan


class SamplerTrace(list):
    """The run's StepRecords, one per step."""

    def to_csv(self, path) -> None:
        """One row per step; the columns are the StepRecord fields, "_" written "-"."""
        names = [f.name for f in fields(StepRecord)]
        write_csv(path, [n.replace("_", "-") for n in names],
                  ([getattr(r, n) for n in names] for r in self))


@dataclass
class ReconResult:
    x0: np.ndarray
    trace: SamplerTrace
    residual: float
    accepted: bool | None = None
    wall_seconds: float = 0.0
    attempts: int = 1


# ---------------------------------------------------------------------------
# Pseudo-inverse machinery

def pseudo_inverse_apply(a: LinearMap, r: np.ndarray) -> tuple[np.ndarray, CgReport]:
    """Apply the Moore-Penrose pseudo-inverse to a range tensor: (A+ r, report).

    Runs CGLS from zero on min ||r - Az||, whose limit is the min-norm
    least-squares solution A+ r; the report's ``residual`` is r - A A+ r. Where
    A A* is an orthogonal projector (single-coil Cartesian SENSE) the first
    step is exactly A* r and the solve stops there. The tolerance is
    relative to ||A*r||, as is the check on ||A*(r - Az)||. Ill-conditioned
    operators (multi-coil masked Fourier) stall above the target tolerance;
    the capped iterate is then the practical truncated-spectrum pinv, and
    only outright non-convergence (relative residual above 1e-2) raises.
    """
    rn = norm(a.adjoint(r))  # the tolerance is relative, so the solve needs it up front
    z, rep = cg(a, r, None, _PINV_MAXITER, _PINV_TOL * rn)
    if rep.residual_norms[-1] > 1e-2 * rn:
        raise NumericalError(
            f"pseudo-inverse CG did not converge (relative residual "
            f"{rep.residual_norms[-1] / rn:.3e})"
        )
    return z, rep


# ---------------------------------------------------------------------------
# Data-consistency steps

def ddnm_step(xhat: np.ndarray, a: LinearMap, y: np.ndarray) -> tuple[np.ndarray, CgReport]:
    """Range-space replacement (I - A+A) xhat + A+ y, via xhat + A+(y - A xhat).

    Returns x' with the pseudo-inverse solve's report, whose ``residual`` is
    y - A x'.
    """
    z, report = pseudo_inverse_apply(a, y - a.apply(xhat))
    return xhat + z, report


def gradient_dc_step(x: np.ndarray, a: LinearMap, y: np.ndarray, xi: float) -> np.ndarray:
    """One descent step x - xi A*(A x - y) on the residual 1/2 ||y - Ax||^2."""
    return x - xi * a.adjoint(a.apply(x) - y)


def make_dc(cfg: SamplerConfig, a: LinearMap, y: np.ndarray, sched,
            prior: AffineSubspacePrior | None = None):
    """Build the data-consistency step ``dc(x, xhat, t) -> (x', report)`` named by cfg.dc.

    ``x`` is the noisy iterate at step t and ``xhat`` its Tweedie estimate.
    The CGLS-based steps return the CgReport of the solve that produced x',
    whose ``residual`` is y - A x'; the others return None in its place and
    leave the forward to the caller.
    ``projection`` leaves xhat unchanged: the loop projects the noisy iterate
    after the DDIM step instead. ``dps`` takes xhat to be the affine prior's
    posterior mean at (x, t), which the loop's denoiser computes.
    """
    def step_size(base):
        if not cfg.scale_step_by_residual:
            return lambda xhat: base
        return lambda xhat: base / max(norm(y - a.apply(xhat)), 1e-12)

    if cfg.dc == "dds-cg":
        return lambda x, xhat, t: cg(a, y, xhat, cfg.cg_steps)
    if cfg.dc == "dds-proximal-cg":
        # min ||y - Ax||^2 + 1/gamma ||xhat - x||^2, the proximal objective
        # gamma/2 ||y - Ax||^2 + 1/2 ||x - xhat||^2 scaled by 2/gamma
        ident = identity_map(a.domain_shape, dtype=a.domain_dtype)
        return lambda x, xhat, t: cg(a, y, xhat, cfg.cg_steps,
                                     stack=(ident, xhat, 1.0 / cfg.gamma))
    if cfg.dc == "ddnm":
        return lambda x, xhat, t: ddnm_step(xhat, a, y)
    if cfg.dc == "projection":
        return lambda x, xhat, t: (xhat, None)
    if cfg.dc == "gradient":
        xi = step_size(cfg.xi)
        return lambda x, xhat, t: (gradient_dc_step(xhat, a, y, xi(xhat)), None)
    if prior is None:
        raise ConfigError("dps DC needs an affine-subspace prior denoiser")
    gamma = step_size(cfg.dps_step)
    return lambda x, xhat, t: (
        xhat - gamma(xhat) * mcg_dps_gradient(xhat, t, prior, a, y, sched), None)


# ---------------------------------------------------------------------------
# Main reconstruction loop

def make_schedule(cfg: SamplerConfig):
    if cfg.mode == "vp":
        return VpSchedule.default(cfg.nfe)
    return VeSchedule.geometric(cfg.nfe, sigma_max=cfg.ve_sigma_max)


def _trace_noise(x: np.ndarray) -> float:
    img = middle_slice(x)
    if img.ndim != 2 or min(img.shape) < 2:
        return math.nan
    return estimate_noise(np.real(img))


def dds_reconstruct(a: LinearMap, y: np.ndarray, denoiser, cfg: SamplerConfig,
                    rng: RngStream | None = None, x_true: np.ndarray | None = None,
                    schedule=None, dc=None) -> ReconResult:
    """Run the decomposed sampling loop for one measurement.

    Per step: Tweedie denoise, data consistency ``dc(x, xhat, t)`` (by
    default ``make_dc`` for cfg.dc), then ``ddim_step`` on the DC output and
    the pre-DC eps_hat, for VP and VE alike. The last step applies Tweedie
    only. VE starts from sigma_N-scaled noise and, with truncation, stops at
    t <= nfe * ve_truncation. The residual ||y - A x'|| that the trace
    records comes from the DC step's CgReport when it returns one, and from
    a forward apply otherwise. It is the run's finiteness check: a step
    where it is not finite ends the run with SamplerDivergedError, its trace
    included.
    """
    t_start = time.perf_counter()
    rng = rng if rng is not None else RngStream(cfg.seed)
    sched = schedule if schedule is not None else make_schedule(cfg)
    if sched.n_steps != cfg.nfe:
        raise ConfigError("schedule length disagrees with cfg.nfe")
    eta = cfg.resolved_eta()
    vp = isinstance(sched, VpSchedule)

    shape, dtype = a.domain_shape, a.domain_dtype
    # an affine prior is the run's prior too; other denoisers (slice-wise, GMM) have none
    prior = denoiser if isinstance(denoiser, AffineSubspacePrior) else None
    if dc is None:
        dc = make_dc(cfg, a, y, sched, prior)
    project_noisy = cfg.dc == "projection"

    x = rng.randn(shape, dtype=dtype)
    if not vp:
        x = sched.sigmas[sched.n_steps] * x

    k_stop = 1 if vp else max(1, int(cfg.nfe * cfg.ve_truncation))
    trace = SamplerTrace()

    def record(t, x, xp, xhat, report=None) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
            rec = StepRecord(
                t=t,
                residual=norm(report.residual if report is not None else y - a.apply(xp)),
                gt_error=norm(xhat - x_true) if x_true is not None else math.nan,
                noise_est=_trace_noise(x),
                subspace_dist=prior.distance(xp) if prior is not None else math.nan,
            )
        trace.append(rec)
        if not math.isfinite(rec.residual):
            raise NumericalError(f"residual {rec.residual} at t = {t}")
        return rec.residual

    try:
        for t in range(sched.n_steps, k_stop, -1):
            xhat = denoiser.denoise(x, t, sched)
            eps_hat = eps_from_denoised(x, xhat, t, sched)
            xp, report = dc(x, xhat, t)
            record(t, x, xp, xhat, report)
            x = vp_ddim_step(xp, eps_hat, t, eta, rng, sched)
            if project_noisy:
                x = ddnm_step(x, a, y)[0]

        x0 = denoiser.denoise(x, k_stop, sched)
        residual = record(k_stop, x, x0, x0)
    except NumericalError as exc:
        raise SamplerDivergedError(f"sampler diverged: {exc}", trace=trace) from exc
    if not np.all(np.isfinite(x0)):  # pixels no ray hits never reach the residual
        raise SamplerDivergedError("sampler produced non-finite output", trace=trace)

    accepted = None if cfg.rejection_tau is None else bool(residual <= cfg.rejection_tau)
    return ReconResult(x0=x0, trace=trace, residual=residual, accepted=accepted,
                       wall_seconds=time.perf_counter() - t_start)


def rejection_wrap(run_fn, tau: float, max_retries: int, base_rng: RngStream) -> ReconResult:
    """Rerun ``run_fn(rng)`` with derived fresh seeds until the residual clears tau.

    Exhausted retries return the best-residual attempt flagged not accepted.
    The result's ``attempts`` counts runs performed. Needs tau >= 0 and
    max_retries >= 1, which SamplerConfig and run_reconstruction check.
    """
    best = None
    for attempt in range(1, max_retries + 1):
        res = run_fn(base_rng.child(attempt - 1))
        res.attempts = attempt
        if res.residual <= tau:
            res.accepted = True
            return res
        if best is None or res.residual < best.residual:
            best = res
    best.accepted = False
    best.attempts = max_retries
    return best
