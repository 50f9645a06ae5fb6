"""Deterministic test phantoms: Shepp-Logan ellipse stacks in 2-D and 3-D.

The modified (low-contrast) intensity set keeps values inside [0, 1].
Random phantom kinds (subspace draws, mixture draws) live on the priors
themselves via their ``sample`` methods.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .tensor import REAL

# (value, a, b, c, x0, y0, z0, phi_deg) with rotation about the z axis; the
# 2-D phantom is the (value, a, b, x0, y0, phi_deg) columns
_ELLIPSOIDS_3D = (
    (1.0, 0.69, 0.92, 0.81, 0.0, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.78, 0.0, -0.0184, 0.0, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.22, 0.0, 0.0, -18.0),
    (-0.2, 0.16, 0.41, 0.28, -0.22, 0.0, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.41, 0.0, 0.35, -0.15, 0.0),
    (0.1, 0.046, 0.046, 0.05, 0.0, 0.1, 0.25, 0.0),
    (0.1, 0.046, 0.046, 0.05, 0.0, -0.1, 0.25, 0.0),
    (0.1, 0.046, 0.023, 0.05, -0.08, -0.605, 0.0, 0.0),
    (0.1, 0.023, 0.023, 0.02, 0.0, -0.605, 0.0, 0.0),
    (0.1, 0.023, 0.046, 0.02, 0.06, -0.605, 0.0, 0.0),
)


def _planar(x, y, a, b, x0, y0, phi) -> np.ndarray:
    """(xr/a)^2 + (yr/b)^2 on the grid (x, y), rotated by phi degrees about (x0, y0)."""
    th = math.radians(phi)
    xr = (x - x0) * math.cos(th) + (y - y0) * math.sin(th)
    yr = -(x - x0) * math.sin(th) + (y - y0) * math.cos(th)
    return (xr / a) ** 2 + (yr / b) ** 2


def shepp_logan_2d(n: int) -> np.ndarray:
    """n x n modified Shepp-Logan phantom, values in [0, 1]."""
    if n < 2:
        raise ConfigError("phantom side must be >= 2")
    coords = np.linspace(-1.0, 1.0, n)
    x, y = np.meshgrid(coords, -coords)  # y axis points up
    img = np.zeros((n, n), dtype=REAL)
    for val, a, b, _, x0, y0, _, phi in _ELLIPSOIDS_3D:
        img[_planar(x, y, a, b, x0, y0, phi) <= 1.0] += val
    return np.clip(img, 0.0, 1.0)


def shepp_logan_3d(shape) -> np.ndarray:
    """(nz, n, n) ellipsoid phantom; each axial slice is a section at fixed z."""
    if len(shape) != 3:
        raise ConfigError(f"shepp_logan_3d expects a 3-D shape, got {tuple(shape)}")
    nz, h, w = (int(s) for s in shape)
    if h != w:
        raise ConfigError("shepp_logan_3d expects square axial slices")
    zs = np.linspace(-1.0, 1.0, nz)
    coords = np.linspace(-1.0, 1.0, h)
    x, y = np.meshgrid(coords, -coords)
    vol = np.zeros((nz, h, w), dtype=REAL)
    for val, a, b, c, x0, y0, z0, phi in _ELLIPSOIDS_3D:
        planar = _planar(x, y, a, b, x0, y0, phi)
        for k, z in enumerate(zs):
            vol[k][planar + ((z - z0) / c) ** 2 <= 1.0] += val
    return np.clip(vol, 0.0, 1.0)
