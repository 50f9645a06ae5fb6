"""Noise schedules, Tweedie denoising, analytic priors, and the DDIM step.

One Schedule serves VP and VE. It states the marginal as
x_t = scale(t) x0 + sqrt(var(t)) eps (VP: sqrt(abar_t) and 1 - abar_t; VE: 1
and sigma_t^2), and every parametrization formula below is written once
against those two numbers. The DDIM step needs one more: ddim_std(t), the
schedule's eta = 1 noise std. The loop reads two more: the std of its start
noise and the step it stops at. Schedules are 1-indexed: index t covers
timesteps 1..N with t = N the noisiest, and the index-0 slot holds the
collapse sentinel (scale 1, var 0).

The functions below trust their arguments: the schedule and prior
constructors check their own data, NaN included, SamplerConfig keeps eta in
[0, 1], and the sampling loop passes only timesteps in [1, N].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .operators import LinearMap
from .tensor import COMPLEX, REAL, RngStream, fft2, ifft2, is_pow2, norm


def smooth_random_field(rng: RngStream, shape, length: float, dtype=REAL) -> np.ndarray:
    """Gaussian random field low-pass filtered to a correlation length (pixels).

    length <= 0 returns plain white noise. Otherwise the filter runs in
    Fourier space, so the shape must be 2-D with power-of-two sides.
    """
    if length <= 0:
        return rng.randn(shape, dtype=dtype)
    if not (len(shape) == 2 and all(is_pow2(s) for s in shape)):
        raise ConfigError(f"smooth > 0 needs a 2-D shape with power-of-two sides, "
                          f"got {tuple(shape)}")
    with np.errstate(over="ignore"):  # past this, the filter overflows or turns NaN
        if not 2.0 * np.float64(math.pi * length) ** 2 < math.inf:
            raise ConfigError(f"smooth = {length} is too large for the low-pass filter")
    w = rng.randn(shape, dtype=dtype)
    fy = np.fft.fftfreq(shape[0])[:, None]
    fx = np.fft.fftfreq(shape[1])[None, :]
    sym = np.exp(-2.0 * (math.pi * length) ** 2 * (fy ** 2 + fx ** 2))
    out = ifft2(sym * fft2(np.asarray(w, dtype=COMPLEX)))
    if np.dtype(dtype) == REAL:
        return np.real(out)
    return out


# the linear-beta training schedule that Schedule.vp subsamples
_TRAIN_STEPS = 1000
_BETA_START = 1e-4
_BETA_END = 0.02


@dataclass(frozen=True)
class Schedule:
    """A VP or VE grid as its marginal x_t = scale(t) x0 + sqrt(var(t)) eps.

    Per step t = 0..N it holds scale(t), var(t) and ddim_std(t), the eta = 1
    noise std of the DDIM step; ``start`` is the std of the first iterate
    x_N and ``stop`` the step whose Tweedie estimate the run returns. The VP
    and VE constructors check their parameters, __post_init__ what the loop
    trusts of any schedule.
    """

    scales: np.ndarray     # (N+1,)
    variances: np.ndarray  # (N+1,)
    ddim_stds: np.ndarray  # (N+1,)
    start: float = 1.0
    stop: int = 1

    def __post_init__(self):
        s, v, d = self.scales, self.variances, self.ddim_stds
        # NaN fails every comparison
        if not (len(s) == len(d) == len(v) > 2 and v[0] == 0 and np.all(np.diff(v) > 0)
                and v[-1] < math.inf):
            raise ConfigError("need N >= 2 and finite var(t) strictly increasing from var(0) = 0")
        if not np.all((s > 0) & (s <= 1)):
            raise ConfigError("scale(t) must lie in (0, 1]")
        # eta = 1 is the extreme stochastic case; radicand must stay >= 0
        if not (np.all(d >= 0) and np.all(v[:-1] - d[1:] ** 2 >= -1e-12)):
            raise ConfigError("need ddim_std(t) >= 0 and var(t-1) - ddim_std(t)^2 >= 0")
        if not (0 < self.start < math.inf and 1 <= self.stop < self.n_steps):
            raise ConfigError(f"need a finite start > 0 and 1 <= stop < N, got {self.start}, "
                              f"{self.stop}")

    @property
    def n_steps(self) -> int:
        return len(self.variances) - 1

    def scale(self, t: int) -> float:
        return float(self.scales[t])

    def var(self, t: int) -> float:
        return float(self.variances[t])

    def ddim_std(self, t: int) -> float:
        return float(self.ddim_stds[t])

    @classmethod
    def from_betas(cls, betas) -> "Schedule":
        """VP from beta_1..beta_N: scale sqrt(abar_t), var 1 - abar_t (abar_t the product
        of 1 - beta_s, s <= t), and ddim_std the matching DDPM's ancestral noise std
        sqrt((1 - abar_{t-1})/(1 - abar_t)) sqrt(1 - abar_t/abar_{t-1})."""
        b = np.asarray(betas, dtype=REAL)
        if not np.all((b > 0) & (b < 1)):  # NaN fails every comparison
            raise ConfigError("beta_t must lie strictly inside (0, 1)")
        if not np.all(np.diff(b) > 0):
            raise ConfigError("beta_t must be strictly increasing")
        ab = np.cumprod(1.0 - np.concatenate([[0.0], b]))
        bt = np.zeros_like(ab)
        bt[2:] = np.sqrt((1 - ab[1:-1]) / (1 - ab[2:])) * np.sqrt(1 - ab[2:] / ab[1:-1])
        return cls(scales=np.sqrt(ab), variances=1.0 - ab, ddim_stds=bt)

    @classmethod
    def vp(cls, n_steps: int) -> "Schedule":
        """Linear training betas subsampled to n_steps by even index striding."""
        if not (2 <= n_steps <= _TRAIN_STEPS):
            raise ConfigError(f"need 2 <= n_steps <= {_TRAIN_STEPS}")
        abar = np.cumprod(1.0 - np.linspace(_BETA_START, _BETA_END, _TRAIN_STEPS))[
            [((k + 1) * _TRAIN_STEPS) // n_steps - 1 for k in range(n_steps)]]
        betas = 1.0 - abar / np.concatenate([[1.0], abar[:-1]])
        try:
            return cls.from_betas(betas)
        except ConfigError as exc:
            raise ConfigError(f"no VP schedule for nfe = {n_steps}: {exc}") from exc

    @classmethod
    def from_sigmas(cls, sigmas, stop: int = 1) -> "Schedule":
        """VE from sigma_1..sigma_N: scale 1, var sigma_t^2, start sigma_N, and
        ddim_std(t) = sigma_{t-1} (1 - sigma_{t-1}^2 / sigma_t^2)."""
        sig = np.concatenate([[0.0], np.asarray(sigmas, dtype=REAL)])
        top = float(sig[-1])
        # NaN fails every comparison, and a finite var(N) = top * top bounds every variance
        if not (len(sig) > 1 and sig[1] > 0 and np.all(np.diff(sig[1:]) > 0)
                and top * top < math.inf):
            raise ConfigError("sigma_t must be finite and strictly increasing with sigma_1 > 0, "
                              "and sigma_N^2 finite")
        # scalar powers step by step: an array square rounds differently from pow
        var = [float(x) ** 2 for x in sig]
        std = [0.0] + [sp * (1.0 - (sp / st) ** 2) for sp, st in zip(sig[:-1], sig[1:])]
        return cls(scales=np.ones_like(sig), variances=np.array(var), ddim_stds=np.array(std),
                   start=top, stop=stop)

    @classmethod
    def ve(cls, n_steps: int, sigma_min: float = 0.01, sigma_max: float = 10.0,
           truncation: float = 0.0) -> "Schedule":
        """Geometric sigma_t from sigma_min to sigma_max; the run stops at step
        max(1, int(n_steps * truncation))."""
        if n_steps < 2 or not (0 < sigma_min < sigma_max < math.inf and 0 <= truncation < 1):
            raise ConfigError("need n_steps >= 2, 0 < sigma_min < sigma_max < inf "
                              "and 0 <= truncation < 1")
        return cls.from_sigmas(
            sigma_min * (sigma_max / sigma_min) ** (np.arange(n_steps) / (n_steps - 1)),
            stop=max(1, int(n_steps * truncation)))


# ---------------------------------------------------------------------------
# Noise prediction from the denoised estimate

def eps_from_denoised(x_t: np.ndarray, xhat: np.ndarray, t: int, sched) -> np.ndarray:
    """eps_hat = (x_t - scale_t xhat) / sqrt(var_t), the noise that Tweedie's xhat implies."""
    return (x_t - sched.scale(t) * xhat) / math.sqrt(sched.var(t))


# ---------------------------------------------------------------------------
# Analytic priors

@dataclass(frozen=True)
class AffineSubspacePrior:
    """Uniform prior on the affine set {Q a + c}: orthonormal atoms plus offset.

    ``basis`` stacks the l orthonormal atoms as (l, *signal_shape); ``offset``
    is the affine shift (zeros for a subspace through the origin). The prior
    is its own denoiser: ``denoise`` is the exact posterior mean E[x0 | x_t].
    """

    basis: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        q = self.basis.reshape(self.basis.shape[0], -1)
        gram = q.conj() @ q.T
        if not np.max(np.abs(gram - np.eye(q.shape[0]))) <= 1e-10:  # NaN fails too
            raise ConfigError("affine prior basis is not orthonormal")
        if self.offset.shape != self.basis.shape[1:]:
            raise ConfigError("offset shape must match the atom shape")
        if not np.all(np.abs(self.offset) < math.inf):  # NaN fails too
            raise ConfigError("affine prior offset must be finite")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def signal_shape(self):
        return self.basis.shape[1:]

    def project_linear(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto span(Q), ignoring the offset."""
        q = self.basis.reshape(self.dim, -1)
        flat = v.ravel()
        # Q* v with no conjugated copy of Q: on a complex basis
        # conj(conj(v) @ Q^T) is the exact conjugate of the BLAS product
        # q.conj() @ v; a real basis is its own conjugate, and on complex v
        # the conj form would round differently
        coef = np.conj(np.conj(flat) @ q.T) if np.iscomplexobj(q) else q @ flat
        return (q.T @ coef).reshape(v.shape)

    def distance(self, v: np.ndarray) -> float:
        r = v - self.offset
        return norm(r - self.project_linear(r))

    def sample(self, rng: RngStream) -> np.ndarray:
        coef = rng.randn((self.dim,), dtype=self.basis.dtype.type)
        q = self.basis.reshape(self.dim, -1)
        return (q.T @ coef).reshape(self.signal_shape) + self.offset

    def denoise(self, x_t: np.ndarray, t: int, sched) -> np.ndarray:
        """Exact posterior mean E[x0 | x_t].

        (1/s_t) * [P(x_t - s_t c) + s_t c] with s_t = scale(t), which for c = 0
        is the scaled projector (1/s_t) P x_t and for VE (s_t = 1) is
        P(x_t - c) + c.
        """
        s = sched.scale(t)
        return (self.project_linear(x_t - s * self.offset) + s * self.offset) / s

    @classmethod
    def random(cls, signal_shape, dim: int, seed: int = 0, dtype=COMPLEX,
               offset_scale: float = 0.0, smooth: float = 0.0) -> "AffineSubspacePrior":
        """Random orthonormal atoms; ``smooth`` > 0 low-pass filters the raw
        atoms to that correlation length before orthonormalization."""
        rng = RngStream(seed)
        d = math.prod(signal_shape)
        if not 1 <= dim <= d:
            raise ConfigError(f"affine prior dim = {dim} must lie in [1, {d}] "
                              f"for signal shape {tuple(signal_shape)}")
        if smooth > 0:
            raw = np.stack([smooth_random_field(rng, signal_shape, smooth, dtype).ravel()
                            for _ in range(dim)], axis=1)
        else:
            raw = rng.randn((d, dim), dtype=dtype)
        q, _ = np.linalg.qr(raw)
        basis = np.ascontiguousarray(q.T.reshape((dim,) + tuple(signal_shape)))
        if offset_scale > 0:
            offset = offset_scale * smooth_random_field(rng, signal_shape, smooth, dtype)
        else:
            offset = np.zeros(signal_shape, dtype=dtype)
        return cls(basis=basis, offset=offset)


@dataclass(frozen=True)
class GmmPrior:
    """Isotropic Gaussian mixture, shared variance tau^2; its own exact denoiser."""

    weights: np.ndarray
    means: np.ndarray   # (K, *signal_shape)
    tau2: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=REAL)
        if not (abs(float(w.sum()) - 1.0) <= 1e-12 and np.all(w >= 0)):  # NaN fails
            raise ConfigError("mixture weights must be nonnegative and sum to 1")
        if not 0 < self.tau2 < math.inf:
            raise ConfigError("tau^2 must be positive and finite")
        if self.means.shape[0] != w.shape[0]:
            raise ConfigError("one mean per weight required")
        if not np.all(np.abs(self.means) < math.inf):  # NaN fails too
            raise ConfigError("mixture means must be finite")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def signal_shape(self):
        return self.means.shape[1:]

    def sample(self, rng: RngStream) -> np.ndarray:
        u = 0.5 * (1.0 + math.erf(rng.randn(1)[0] / math.sqrt(2.0)))  # normal CDF: U(0, 1)
        k = int(np.searchsorted(np.cumsum(self.weights), u))
        k = min(k, self.n_components - 1)
        noise = rng.randn(self.signal_shape, dtype=self.means.dtype.type)
        return self.means[k] + math.sqrt(self.tau2) * noise

    def denoise(self, x_t: np.ndarray, t: int, sched) -> np.ndarray:
        """Exact posterior mean E[x0 | x_t] via conjugate Gaussians.

        Component responsibilities come from the kernel-convolved marginals
        (log-sum-exp); each component contributes its conjugate posterior mean.
        """
        scale, kvar = sched.scale(t), sched.var(t)
        # marginal of x_t per component: N(scale mu_k, (scale^2 tau^2 + kvar) I)
        mvar = scale * scale * self.tau2 + kvar
        x = x_t.ravel()
        mu = self.means.reshape(self.n_components, -1)
        sq = np.array([float(np.real(np.vdot(d, d))) for d in x - scale * mu])
        # circular complex Gaussians put the whole variance in |.|^2, so the
        # exponent loses the usual factor-2 denominator
        denom = mvar if np.iscomplexobj(x_t) else 2.0 * mvar
        loglik = np.log(np.maximum(self.weights, 1e-300)) - sq / denom
        top = float(np.max(loglik))
        if not np.isfinite(top):
            raise NumericalError("GmmPrior.denoise: all component responsibilities underflowed")
        resp = np.exp(loglik - top)
        resp /= resp.sum()
        post = (self.tau2 * scale * x[None, :] + kvar * mu) / mvar
        xhat = resp @ post
        return xhat.reshape(self.signal_shape)


# ---------------------------------------------------------------------------
# DDIM step

def ddim_step(xhat_dc: np.ndarray, eps_hat: np.ndarray, t: int, eta: float,
              rng: RngStream, sched) -> np.ndarray:
    """x_{t-1} = scale_{t-1} xhat' + sqrt(var_{t-1} - c^2) eps_hat + c eps,
    with c = eta ddim_std(t) (Song et al., arXiv 2010.02502).

    eta = 0 is fully deterministic and draws nothing from the stream. Needs
    2 <= t <= N. The schedule constructors keep var_{t-1} - ddim_std(t)^2
    >= 0 for every eta in [0, 1], up to the round-off the clamp absorbs.
    """
    c = eta * sched.ddim_std(t)
    rad = sched.var(t - 1) - c ** 2
    out = sched.scale(t - 1) * xhat_dc + math.sqrt(max(rad, 0.0)) * eps_hat
    if eta > 0.0:
        out = out + c * rng.randn(xhat_dc.shape, dtype=xhat_dc.dtype.type)
    return out


def mcg_dps_gradient(r: np.ndarray, t: int, prior: AffineSubspacePrior,
                     a: LinearMap, sched) -> np.ndarray:
    """Manifold-constrained gradient for the affine prior, given the residual
    ``r`` = A xhat - y at the loop's Tweedie estimate
    ``xhat`` = ``prior.denoise(x_t, t, sched)``.

    The denoiser Jacobian is the projector scaled by 1/scale(t), so the
    chain rule gives P A* r / scale(t).
    """
    return prior.project_linear(a.adjoint(r)) / sched.scale(t)
