"""The reconstruction loop: CG-decomposed DDIM sampling plus baseline DC steps.

One loop serves images and, via admm.dds_3d_reconstruct, volumes, and one
DDIM step serves VP and VE: the loop reads its start noise and stop step
from the Schedule. make_dc builds the data-consistency step once per run,
so strategy ablations are a config sweep. Baselines cover pseudo-inverse
replacement (on the denoised estimate or the noisy iterate) and one
descent step on the residual, along A* r or, where the denoiser Jacobian
is an analytic projector, along its projection.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .diffusion import (
    AffineSubspacePrior,
    Schedule,
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
# ddnm's residual y - A xhat at or below this share of ||y|| is already fitted:
# over 1000x the round-off (<= 8.2e-16 ||y||) left once xhat reaches x_true
_PINV_FIT = 1e-12


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
class Ledger:
    """A run's work: prior denoiser calls (one per slice of a volume), denoiser
    Jacobian products (one per mcg_dps_gradient call), forward and adjoint
    applies of A, CG iterations and ADMM sweeps. Ledgers add field by field."""
    denoiser_calls: int = 0
    jacobian_products: int = 0
    forward: int = 0
    adjoint: int = 0
    cg_iterations: int = 0
    admm_sweeps: int = 0

    def __add__(self, other: Ledger) -> Ledger:
        return Ledger(*(u + v for u, v in zip(astuple(self), astuple(other))))


class CountedDenoiser:
    """A denoiser that adds each of its calls to ``ledger.denoiser_calls``."""

    def __init__(self, inner, ledger: Ledger):
        self.inner, self.ledger = inner, ledger

    def denoise(self, x, t, sched):
        self.ledger.denoiser_calls += 1
        return self.inner.denoise(x, t, sched)


@dataclass
class ReconResult:
    x0: np.ndarray
    trace: SamplerTrace  # the last record holds the result's residual ||y - A x0||
    ledger: Ledger = field(default_factory=Ledger)
    # the run-level fields, which experiments.run_reconstruction sets
    accepted: bool | None = None
    wall_seconds: float = 0.0
    attempts: int = 1

    @property
    def residual(self) -> float:
        return self.trace[-1].residual


# ---------------------------------------------------------------------------
# Pseudo-inverse machinery

def pseudo_inverse_apply(a: LinearMap, r: np.ndarray,
                         fit: float = 0.0) -> tuple[np.ndarray, CgReport]:
    """Apply the Moore-Penrose pseudo-inverse to a range tensor: (A+ r, report).

    Runs CGLS from zero on min ||r - Az||, whose limit is the min-norm
    least-squares solution A+ r; the report's ``residual`` is r - A A+ r. Where
    A A* is an orthogonal projector (single-coil Cartesian SENSE) the first
    step is exactly A* r and the solve stops there, after the stop test's
    A*(r - Az). The tolerance is relative to ||A*r||, as is the check on the
    last gradient norm the solve formed: ||A*(r - Az)|| where it stopped, or
    ||r_(cap-1)|| when the cap ended it. Ill-conditioned operators
    (multi-coil masked Fourier) stall above the target tolerance; the capped
    iterate is then the practical truncated-spectrum pinv, and only outright
    non-convergence (relative residual above 1e-2) raises, unless ||r|| <=
    ``fit``: CGLS keeps ||r - Az|| <= ||r||, so such an r is fitted
    whatever the solve does.
    """
    z, rep = cg(a, r, None, _PINV_MAXITER, _PINV_TOL)
    first, last = rep.residual_norms[0], rep.residual_norms[-1]
    if last > 1e-2 * first and norm(r) > fit:
        raise NumericalError(
            f"pseudo-inverse CG did not converge (relative residual {last / first:.3e})")
    return z, rep


# ---------------------------------------------------------------------------
# Data-consistency steps

def ddnm_step(xhat: np.ndarray, a: LinearMap, y: np.ndarray) -> tuple[np.ndarray, CgReport]:
    """Range-space replacement (I - A+A) xhat + A+ y, via xhat + A+(y - A xhat).

    Returns x' with the pseudo-inverse solve's report, whose ``residual`` is
    y - A x'. A residual y - A xhat within _PINV_FIT ||y|| is round-off of a
    fitted xhat, so a stalled solve on it does not raise.
    """
    z, report = pseudo_inverse_apply(a, y - a.apply(xhat), _PINV_FIT * norm(y))
    return xhat + z, report


def make_dc(cfg: SamplerConfig, a: LinearMap, y: np.ndarray, sched,
            prior: AffineSubspacePrior | None = None, ledger: Ledger | None = None):
    """Build the data-consistency step ``dc(xhat, t) -> (x', report)`` named by cfg.dc.

    ``xhat`` is the Tweedie estimate at step t. The CGLS-based steps return
    the CgReport of the solve that produced x', whose ``residual`` is
    y - A x'; the others return None in its place and leave the forward to
    the caller. ``projection`` leaves xhat unchanged: the loop projects the
    noisy iterate after the DDIM step instead. ``gradient`` and ``dps`` are
    one descent step xhat - s g(r, t) on r = A xhat - y: ``gradient`` takes
    g = A* r and s = xi, ``dps`` the manifold-constrained gradient and
    s = dps_step, and scale_step_by_residual divides s by ||r||. ``dps``
    takes xhat to be the affine prior's posterior mean at step t, which the
    loop's denoiser computes; each step adds a Jacobian product to ``ledger``.
    """
    if cfg.dc == "dds-cg":
        return lambda xhat, t: cg(a, y, xhat, cfg.cg_steps)
    if cfg.dc == "dds-proximal-cg":
        # min ||y - Ax||^2 + 1/gamma ||xhat - x||^2, the proximal objective
        # gamma/2 ||y - Ax||^2 + 1/2 ||x - xhat||^2 scaled by 2/gamma
        ident = identity_map(a.domain_shape, dtype=a.domain_dtype)
        return lambda xhat, t: cg(a, y, xhat, cfg.cg_steps,
                                  stack=(ident, xhat, 1.0 / cfg.gamma))
    if cfg.dc == "ddnm":
        return lambda xhat, t: ddnm_step(xhat, a, y)
    if cfg.dc == "projection":
        return lambda xhat, t: (xhat, None)
    if cfg.dc == "gradient":
        size, direction = cfg.xi, lambda r, t: a.adjoint(r)
    elif prior is None:
        raise ConfigError("dps DC needs an affine-subspace prior denoiser")
    else:
        ledger = ledger or Ledger()

        def direction(r, t):  # looked up per call: a replaced mcg_dps_gradient is the one run
            ledger.jacobian_products += 1
            return mcg_dps_gradient(r, t, prior, a, sched)
        size = cfg.dps_step

    def descent(xhat, t):
        r = a.apply(xhat) - y  # formed once, for the direction and the size
        s = size / max(norm(r), 1e-12) if cfg.scale_step_by_residual else size
        return xhat - s * direction(r, t), None
    return descent


# ---------------------------------------------------------------------------
# Main reconstruction loop

def make_schedule(cfg: SamplerConfig) -> Schedule:
    """The schedule of cfg.mode: VP, or VE up to ve_sigma_max stopping at ve_truncation."""
    if cfg.mode == "vp":
        return Schedule.vp(cfg.nfe)
    return Schedule.ve(cfg.nfe, sigma_max=cfg.ve_sigma_max, truncation=cfg.ve_truncation)


def _trace_noise(x: np.ndarray) -> float:
    img = middle_slice(x)
    if img.ndim != 2 or min(img.shape) < 2:
        return math.nan
    return estimate_noise(np.real(img))


def dds_reconstruct(a: LinearMap, y: np.ndarray, denoiser, cfg: SamplerConfig,
                    rng: RngStream | None = None, x_true: np.ndarray | None = None,
                    schedule=None, dc=None, ledger: Ledger | None = None) -> ReconResult:
    """Run the decomposed sampling loop for one measurement.

    Per step: Tweedie denoise, data consistency ``dc(xhat, t)`` (by
    default ``make_dc`` for cfg.dc), then ``ddim_step`` on the DC output and
    the pre-DC eps_hat, for VP and VE alike. The schedule (``make_schedule``
    of cfg unless one is injected) sets the std of the start noise and the
    step whose Tweedie estimate the run returns: an injected schedule's
    stop applies, not cfg.ve_truncation. The residual ||y - A x'|| that the
    trace records comes from the DC step's CgReport when it returns one, and
    from a forward apply otherwise. It is the run's finiteness check: a step
    where it is not finite ends the run with SamplerDivergedError, its trace
    included. The result's Ledger counts the run's work: ``a`` and the
    denoiser are wrapped to count into it once, before make_dc, unless the
    caller passes a ``ledger`` that it wrapped them for (dds_3d_reconstruct).
    """
    rng = rng if rng is not None else RngStream(cfg.seed)
    sched = schedule if schedule is not None else make_schedule(cfg)
    if sched.n_steps != cfg.nfe:
        raise ConfigError("schedule length disagrees with cfg.nfe")
    eta = cfg.resolved_eta()

    shape, dtype = a.domain_shape, a.domain_dtype
    # an affine prior is the run's prior too; other denoisers (slice-wise, GMM) have none
    prior = denoiser if isinstance(denoiser, AffineSubspacePrior) else None
    if ledger is None:
        ledger = Ledger()
        a, denoiser = a.counted(ledger), CountedDenoiser(denoiser, ledger)
    if dc is None:
        dc = make_dc(cfg, a, y, sched, prior, ledger)
    project_noisy = cfg.dc == "projection"

    x = sched.start * rng.randn(shape, dtype=dtype)
    trace = SamplerTrace()

    def record(t, x, xp, xhat, report=None) -> None:
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

    try:
        for t in range(sched.n_steps, sched.stop, -1):
            xhat = denoiser.denoise(x, t, sched)
            eps_hat = eps_from_denoised(x, xhat, t, sched)
            xp, report = dc(xhat, t)
            record(t, x, xp, xhat, report)
            x = vp_ddim_step(xp, eps_hat, t, eta, rng, sched)
            if project_noisy:
                x, report = ddnm_step(x, a, y)
            ledger.cg_iterations += report.iterations if report is not None else 0

        x0 = denoiser.denoise(x, sched.stop, sched)
        record(sched.stop, x, x0, x0)
    except NumericalError as exc:
        raise SamplerDivergedError(f"sampler diverged: {exc}", trace=trace) from exc
    if not np.all(np.isfinite(x0)):  # pixels no ray hits never reach the residual
        raise SamplerDivergedError("sampler produced non-finite output", trace=trace)

    return ReconResult(x0=x0, trace=trace, ledger=ledger)
