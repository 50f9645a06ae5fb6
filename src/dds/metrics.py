"""Image quality metrics and a robust noise-level estimator."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .tensor import REAL


def psnr(x: np.ndarray, ref: np.ndarray, peak: float | None = None) -> float:
    """20 log10(peak) - 10 log10(MSE); returns +inf when the images match.

    ``peak`` defaults to the ground-truth maximum (common MRI convention)
    and must be positive and finite.
    """
    x = np.asarray(x, dtype=REAL)
    ref = np.asarray(ref, dtype=REAL)
    if x.shape != ref.shape:
        raise ConfigError(f"psnr: shape mismatch {x.shape} vs {ref.shape}")
    if peak is None:
        peak = float(np.max(np.abs(ref)))
    if not 0 < peak < math.inf:  # NaN fails this too
        raise ConfigError(f"psnr: peak = {peak} must be positive and finite")
    mse = float(np.mean((x - ref) ** 2))
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(peak) - 10.0 * math.log10(mse)


# SSIM constants (Wang et al. 2004): stabilizers K1, K2 and the Gaussian window
_K1, _K2 = 0.01, 0.03
_WINDOW, _SIGMA = 11, 1.5


def _gaussian_window() -> np.ndarray:
    ax = np.arange(_WINDOW) - (_WINDOW - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * _SIGMA ** 2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim(x: np.ndarray, ref: np.ndarray) -> float:
    """Mean local SSIM with an 11x11 Gaussian window (sigma 1.5), valid region.

    Dynamic range is ref.max() - ref.min(); a constant reference falls back
    to range 1 so that ssim(x, x) stays 1.
    """
    x = np.asarray(x, dtype=REAL)
    ref = np.asarray(ref, dtype=REAL)
    if x.shape != ref.shape:
        raise ConfigError("ssim: shape mismatch")
    if x.ndim != 2:
        raise ConfigError("ssim expects 2-D magnitude images")
    if min(x.shape) < _WINDOW:
        raise ConfigError(f"ssim: image smaller than the {_WINDOW}x{_WINDOW} window")
    drange = float(ref.max() - ref.min())
    if drange == 0.0:
        drange = 1.0
    c1 = (_K1 * drange) ** 2
    c2 = (_K2 * drange) ** 2
    w = _gaussian_window()

    def local(img_a, img_b):
        view = np.lib.stride_tricks.sliding_window_view(img_a * img_b, (_WINDOW, _WINDOW))
        return np.einsum("ijkl,kl->ij", view, w)

    ones = np.ones_like(x)
    mu_x = local(x, ones)
    mu_y = local(ref, ones)
    sxx = local(x, x) - mu_x ** 2
    syy = local(ref, ref) - mu_y ** 2
    sxy = local(x, ref) - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * sxy + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (sxx + syy + c2)
    return float(np.mean(num / den))


def middle_slice(x: np.ndarray) -> np.ndarray:
    """The image that stands for x: the middle axial slice of a volume, else x."""
    return x[x.shape[0] // 2] if x.ndim == 3 else x


def estimate_noise(x: np.ndarray) -> float:
    """Robust sigma estimate: MAD of the finest diagonal Haar detail / 0.6745.

    The diagonal Haar coefficient of a 2x2 block, (a - b - c + d)/2, is an
    orthonormal detail tap, so for pure N(0, sigma^2) fields its MAD rescales
    straight to sigma. Odd trailing rows/columns are dropped.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ConfigError("estimate_noise expects a real 2-D image")
    if x.ndim != 2:
        raise ConfigError("estimate_noise expects a 2-D image")
    h, w = (s - s % 2 for s in x.shape)
    if h < 2 or w < 2:
        raise ConfigError("estimate_noise: image too small")
    blk = x[:h, :w]
    hh = (blk[0::2, 0::2] - blk[0::2, 1::2] - blk[1::2, 0::2] + blk[1::2, 1::2]) / 2.0
    return float(np.median(np.abs(hh)) / 0.6745)
