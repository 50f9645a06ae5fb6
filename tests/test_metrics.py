import math

import numpy as np
import pytest

from dds.errors import ConfigError
from dds.metrics import estimate_noise, psnr, ssim
from dds.tensor import RngStream


# ---------------------------------------------------------------------------
# psnr

def test_psnr_identical_images_is_infinite():
    x = RngStream(0).randn((8, 8))
    assert psnr(x, x) == math.inf


def test_psnr_direct_formula():
    ref = np.zeros((10, 10))
    x = np.full((10, 10), 0.1)
    assert psnr(x, ref, peak=1.0) == pytest.approx(20.0)


def test_psnr_mse_formula():
    ref = np.zeros((4, 4))
    x = np.full((4, 4), 0.1)  # MSE = 0.01
    assert psnr(x, ref, peak=1.0) == pytest.approx(20.0)


def test_psnr_monotone_in_noise():
    x = RngStream(1).randn((16, 16))
    vals = [psnr(x + eps * RngStream(2).randn((16, 16)), x, peak=1.0)
            for eps in (0.01, 0.1, 1.0)]
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("peak", [0.0, -1.0, math.nan, math.inf])
def test_psnr_peak_must_be_positive_and_finite(peak):
    # NaN and inf used to pass the peak <= 0 check and return nan/inf dB
    x = RngStream(3).randn((4, 4))
    with pytest.raises(ConfigError, match="peak"):
        psnr(x + 0.1, x, peak=peak)


def test_psnr_shape_mismatch():
    with pytest.raises(ConfigError):
        psnr(np.zeros((2, 2)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# ssim

def naive_ssim(x, ref, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """Direct per-pixel sliding-window reference (double loop)."""
    g = np.exp(-(np.arange(window) - (window - 1) / 2.0) ** 2 / (2.0 * sigma ** 2))
    w = np.outer(g, g) / np.outer(g, g).sum()
    drange = ref.max() - ref.min()
    if drange == 0:
        drange = 1.0
    c1, c2 = (k1 * drange) ** 2, (k2 * drange) ** 2
    h, wd = x.shape
    vals = []
    for i in range(h - window + 1):
        for j in range(wd - window + 1):
            px = x[i:i + window, j:j + window]
            pr = ref[i:i + window, j:j + window]
            mx, mr = (w * px).sum(), (w * pr).sum()
            vx = (w * px * px).sum() - mx * mx
            vr = (w * pr * pr).sum() - mr * mr
            cxr = (w * px * pr).sum() - mx * mr
            vals.append(((2 * mx * mr + c1) * (2 * cxr + c2))
                        / ((mx * mx + mr * mr + c1) * (vx + vr + c2)))
    return float(np.mean(vals))


def test_ssim_self_is_one():
    x = RngStream(3).randn((16, 16))
    assert ssim(x, x) == pytest.approx(1.0)


def test_ssim_anticorrelated_is_negative():
    # needs vanishing local means (fast zero-mean oscillation): the luminance
    # factor then stays positive while the structure factor flips sign
    i, j = np.mgrid[0:16, 0:16]
    x = 0.5 * ((-1.0) ** (i + j))
    assert ssim(-x, x) < 0.0


def test_ssim_matches_naive_reference():
    rng = RngStream(5)
    x = rng.randn((16, 16))
    ref = rng.randn((16, 16))
    assert abs(ssim(x, ref) - naive_ssim(x, ref)) < 1e-9


def test_ssim_rejects_small_images():
    with pytest.raises(ConfigError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def test_ssim_rejects_shape_mismatch_and_non_2d_input():
    with pytest.raises(ConfigError, match="shape mismatch"):
        ssim(np.zeros((16, 16)), np.zeros((16, 12)))
    with pytest.raises(ConfigError, match="2-D"):
        ssim(np.zeros((2, 16, 16)), np.zeros((2, 16, 16)))


def test_ssim_constant_reference_convention():
    x = np.full((12, 12), 3.0)
    assert ssim(x, x) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# noise estimation

def test_estimate_noise_pure_gaussian_field():
    x = 0.07 * RngStream(6).randn((64, 64))
    est = estimate_noise(x)
    assert abs(est - 0.07) <= 0.1 * 0.07


def test_estimate_noise_constant_image():
    assert estimate_noise(np.full((16, 16), 2.5)) == 0.0


def test_estimate_noise_scale_equivariance():
    base = RngStream(7).randn((64, 64))
    e1 = estimate_noise(0.05 * base)
    e2 = estimate_noise(0.10 * base)
    assert abs(e2 / e1 - 2.0) <= 0.2


def test_estimate_noise_ignores_smooth_content():
    yy, xx = np.mgrid[0:64, 0:64] / 64.0
    smooth = np.sin(2 * math.pi * yy) * np.cos(2 * math.pi * xx)
    noise = 0.07 * RngStream(8).randn((64, 64))
    est = estimate_noise(smooth + noise)
    assert abs(est - 0.07) <= 0.15 * 0.07


def test_estimate_noise_rejects_complex_or_1d():
    with pytest.raises(ConfigError):
        estimate_noise(np.zeros((4, 4), dtype=complex))
    with pytest.raises(ConfigError):
        estimate_noise(np.zeros(16))


@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (1, 1)])
def test_estimate_noise_rejects_images_below_2x2(shape):
    with pytest.raises(ConfigError, match="too small"):
        estimate_noise(np.zeros(shape))


def test_estimate_noise_odd_dimensions_cropped():
    x = 0.05 * RngStream(9).randn((65, 63))
    est = estimate_noise(x)
    assert abs(est - 0.05) <= 0.1 * 0.05
