"""Linear forward models and exact adjoints behind one matrix-free contract.

Includes masked multi-coil Fourier sampling, a parallel-beam Radon pair
(ray-driven bilinear sampling assembled once per operator as a sparse
system matrix; the adjoint applies the same triplets transposed), z-axis
finite differences, undersampling mask generators, and synthetic
normalized coil sensitivities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import COMPLEX, REAL, RngStream, check_finite, fft2, ifft2


class LinearMap:
    """Matrix-free linear operator with an exact algebraic adjoint.

    ``apply`` maps domain-shaped tensors to range-shaped ones and ``adjoint``
    the reverse; both validate shapes and finiteness. ``pinv_fn``, when set,
    applies the exact pseudo-inverse to a range tensor (only cheap special
    cases provide it).
    """

    def __init__(self, domain_shape, range_shape, apply_fn, adjoint_fn,
                 domain_dtype=COMPLEX, range_dtype=None, pinv_fn=None, name=""):
        self.domain_shape = tuple(int(s) for s in domain_shape)
        self.range_shape = tuple(int(s) for s in range_shape)
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.domain_dtype = np.dtype(domain_dtype)
        self.range_dtype = np.dtype(range_dtype if range_dtype is not None else domain_dtype)
        self.pinv_fn = pinv_fn
        self.name = name

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != self.domain_shape:
            raise ConfigError(
                f"{self.name or 'operator'}: apply expects shape {self.domain_shape}, got {x.shape}"
            )
        return check_finite(self._apply(x), f"{self.name or 'operator'}.apply")

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.shape != self.range_shape:
            raise ConfigError(
                f"{self.name or 'operator'}: adjoint expects shape {self.range_shape}, got {y.shape}"
            )
        return check_finite(self._adjoint(y), f"{self.name or 'operator'}.adjoint")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


def identity_map(shape, dtype=COMPLEX) -> LinearMap:
    return LinearMap(shape, shape, lambda x: np.array(x, copy=True),
                     lambda y: np.array(y, copy=True), domain_dtype=dtype, name="identity")


def matrix_operator(mat: np.ndarray, name="dense") -> LinearMap:
    """Dense matrix as a LinearMap over flat vectors (testing / small systems)."""
    mat = np.asarray(mat)
    dtype = COMPLEX if np.iscomplexobj(mat) else REAL
    mh = mat.conj().T
    return LinearMap((mat.shape[1],), (mat.shape[0],),
                     lambda x: mat @ x, lambda y: mh @ y,
                     domain_dtype=dtype, name=name)


def dot_test(op: LinearMap, rng: RngStream, trials: int = 20, tol: float = 1e-10) -> float:
    """Randomized adjoint check; returns the worst relative defect."""
    worst = 0.0
    for _ in range(trials):
        x = rng.randn(op.domain_shape, dtype=op.domain_dtype)
        y = rng.randn(op.range_shape, dtype=op.range_dtype)
        lhs = np.vdot(y, op.apply(x))
        rhs = np.vdot(op.adjoint(y), x)
        scale = np.linalg.norm(x.ravel()) * np.linalg.norm(y.ravel())
        worst = max(worst, abs(lhs - rhs) / max(scale, 1e-300))
    if worst > tol:
        raise ConfigError(f"{op.name or 'operator'}: dot-test failed ({worst:.3e} > {tol:.1e})")
    return worst


# ---------------------------------------------------------------------------
# Undersampling masks

MASK_KINDS = ("uniform1d", "gaussian1d", "gaussian2d", "poisson-disk-vd")


@dataclass(frozen=True)
class MaskSpec:
    kind: str
    acceleration: float
    acs_fraction: float = 0.08
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MASK_KINDS:
            raise ConfigError(f"unknown mask kind {self.kind!r}")
        if self.acceleration < 1:
            raise ConfigError("acceleration must be >= 1")
        if not (0.0 <= self.acs_fraction < 1.0):
            raise ConfigError("acs fraction must lie in [0, 1)")


def _acs_columns(width: int, acs_fraction: float) -> np.ndarray:
    n_acs = max(1, int(round(acs_fraction * width)))
    lo = width // 2 - n_acs // 2
    return np.arange(lo, lo + n_acs)


def _acs_square(shape, acs_fraction: float):
    h, w = shape
    side = max(1, int(round(math.sqrt(acs_fraction * h * w))))
    r0 = h // 2 - side // 2
    c0 = w // 2 - side // 2
    return slice(r0, r0 + side), slice(c0, c0 + side)


def make_mask(spec: MaskSpec, shape) -> np.ndarray:
    """Binary sampling mask, deterministic in the spec seed.

    Column masks (1d kinds) sample full phase-encode columns; 2d kinds sample
    points. The fully sampled ACS block sits at the center. Random kinds hit
    the 1/acceleration density exactly by construction; uniform1d is the
    constructive every-Rth-column pattern plus ACS, so its density can exceed
    1/acceleration by up to the ACS fraction.
    """
    h, w = (int(s) for s in shape)
    acc = spec.acceleration
    rng = RngStream(spec.seed)
    mask = np.zeros((h, w), dtype=REAL)

    if acc == 1.0:
        return np.ones((h, w), dtype=REAL)

    if spec.kind == "uniform1d":
        stride = max(1, int(round(acc)))
        mask[:, ::stride] = 1.0
        mask[:, _acs_columns(w, spec.acs_fraction)] = 1.0
        return mask

    if spec.kind == "gaussian1d":
        target = max(1, int(round(w / acc)))
        cols = set(int(c) for c in _acs_columns(w, spec.acs_fraction))
        if len(cols) > target:
            raise ConfigError("ACS block alone exceeds the target sampling density")
        budget = 200 * w
        while len(cols) < target and budget > 0:
            c = int(round(w / 2 + (w / 4) * rng.randn(1)[0]))
            budget -= 1
            if 0 <= c < w:
                cols.add(c)
        mask[:, sorted(cols)] = 1.0
        return mask

    if spec.kind == "gaussian2d":
        target = max(1, int(round(h * w / acc)))
        rs, cs = _acs_square((h, w), spec.acs_fraction)
        mask[rs, cs] = 1.0
        if int(mask.sum()) > target:
            raise ConfigError("ACS block alone exceeds the target sampling density")
        budget = 200 * h * w
        while int(mask.sum()) < target and budget > 0:
            z = rng.randn(2)
            r = int(round(h / 2 + (h / 4) * z[0]))
            c = int(round(w / 2 + (w / 4) * z[1]))
            budget -= 1
            if 0 <= r < h and 0 <= c < w:
                mask[r, c] = 1.0
        return mask

    # poisson-disk-vd: dart throwing with radius growing away from the
    # center; the radius scale is bisected so the realized density lands
    # within +-15% (relative) of 1/acceleration.
    target = h * w / acc
    rs, cs = _acs_square((h, w), spec.acs_fraction)
    n_prop = 40 * h * w
    props = rng.randn((n_prop, 2))
    # normal CDF maps the Gaussian proposals onto [0,1)^2 uniformly
    u = 0.5 * (1.0 + np.vectorize(math.erf)(props / math.sqrt(2.0)))
    pts = np.column_stack([np.clip(u[:, 0] * h, 0, h - 1e-9),
                           np.clip(u[:, 1] * w, 0, w - 1e-9)])
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    maxdist = float(np.linalg.norm(center)) + 1e-12

    def throw(scale: float) -> np.ndarray:
        m = np.zeros((h, w), dtype=REAL)
        m[rs, cs] = 1.0
        accepted = np.argwhere(m > 0).astype(REAL)
        for p in pts:
            r = scale * (0.35 + 1.3 * np.linalg.norm(p - center) / maxdist)
            if accepted.size:
                d2 = np.sum((accepted - p) ** 2, axis=1)
                if d2.min() < r * r:
                    continue
            m[int(p[0]), int(p[1])] = 1.0
            accepted = np.vstack([accepted, p[None, :]])
        return m

    lo, hi = 0.05, 4.0 * math.sqrt(acc)
    best = None
    best_gap = math.inf
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        m = throw(mid)
        got = m.sum()
        gap = abs(got - target) / target
        if gap < best_gap:
            best, best_gap = m, gap
        if gap <= 0.10:
            break
        if got > target:
            lo = mid  # radii too small: too many points accepted
        else:
            hi = mid
    return best


# ---------------------------------------------------------------------------
# Coil sensitivities

@dataclass(frozen=True)
class CoilMaps:
    """Normalized complex sensitivities, stacked (c, H, W) with sum |s|^2 = 1."""

    maps: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.maps)
        if m.ndim != 3:
            raise ConfigError("coil maps must be stacked (c, H, W)")
        ssq = np.sum(np.abs(m) ** 2, axis=0)
        if np.max(np.abs(ssq - 1.0)) > 1e-10:
            raise ConfigError("coil maps are not normalized: sum |s|^2 != 1")

    @property
    def ncoils(self) -> int:
        return self.maps.shape[0]

    @property
    def image_shape(self):
        return self.maps.shape[1:]


def make_coil_maps(c: int, shape, seed: int = 0) -> CoilMaps:
    """Smooth complex Gaussian-bump sensitivities centered on the border.

    Bump centers sit at distinct points around the image border (evenly in
    angle with a small seeded jitter), each carrying a gentle linear phase;
    pointwise normalization then enforces sum_i |s_i|^2 = 1.
    """
    if c < 1:
        raise ConfigError("need at least one coil")
    h, w = (int(s) for s in shape)
    rng = RngStream(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(REAL)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    width = 0.6 * max(h, w)
    maps = np.empty((c, h, w), dtype=COMPLEX)
    for i in range(c):
        jitter = 0.25 * rng.randn(1)[0] if c > 1 else 0.0
        ang = 2.0 * math.pi * i / c + jitter
        by = cy + 0.45 * h * math.sin(ang)
        bx = cx + 0.45 * w * math.cos(ang)
        mag = np.exp(-(((yy - by) ** 2 + (xx - bx) ** 2) / (2.0 * width ** 2)))
        ph = rng.randn(3)
        phase = 0.02 * (ph[0] * yy + ph[1] * xx) / max(h, w) + 0.1 * ph[2]
        maps[i] = mag * np.exp(1j * phase)
    ssq = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    maps /= ssq[None, :, :]
    return CoilMaps(maps)


# ---------------------------------------------------------------------------
# Masked multi-coil Fourier sampling (image -> stacked k-space)

def sense_apply(x: np.ndarray, maps: CoilMaps, mask: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=COMPLEX)
    if x.shape != maps.image_shape:
        raise ConfigError(f"sense_apply: image shape {x.shape} != map shape {maps.image_shape}")
    if mask.shape != maps.image_shape:
        raise ConfigError("sense_apply: mask/image shape mismatch")
    return mask[None, :, :] * fft2(maps.maps * x[None, :, :])


def sense_adjoint(k: np.ndarray, maps: CoilMaps, mask: np.ndarray,
                  conj_maps: np.ndarray | None = None) -> np.ndarray:
    k = np.asarray(k, dtype=COMPLEX)
    if k.shape != (maps.ncoils,) + maps.image_shape:
        raise ConfigError(f"sense_adjoint: expected shape {(maps.ncoils,) + maps.image_shape}")
    cm = np.conj(maps.maps) if conj_maps is None else conj_maps
    return np.sum(cm * ifft2(mask[None, :, :] * k), axis=0)


def sense_operator(maps: CoilMaps, mask: np.ndarray, name="sense") -> LinearMap:
    """A = P F s as a LinearMap; single-coil gets the exact zero-fill pinv."""
    mask = np.asarray(mask, dtype=REAL)
    conj_maps = np.conj(maps.maps)  # cached: adjoint runs in hot CG loops
    pinv = None
    if maps.ncoils == 1:
        # |s| = 1 pointwise after normalization, so A A* = I on the sampled
        # rows and the pseudo-inverse coincides with the adjoint (zero-fill).
        def pinv(k):
            return sense_adjoint(k, maps, mask, conj_maps)
    return LinearMap(maps.image_shape, (maps.ncoils,) + maps.image_shape,
                     lambda x: sense_apply(x, maps, mask),
                     lambda k: sense_adjoint(k, maps, mask, conj_maps),
                     domain_dtype=COMPLEX, pinv_fn=pinv, name=name)


# ---------------------------------------------------------------------------
# Parallel-beam Radon transform

@dataclass(frozen=True)
class RadonGeometry:
    """Parallel-beam geometry: square image side, projection angles, detector bins."""

    side: int
    angles: np.ndarray
    detector_bins: int
    step: float = 0.5  # ray sampling step in pixels

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=REAL)
        if ang.size == 0:
            raise ConfigError("RadonGeometry needs at least one angle")
        if np.any(np.diff(ang) <= 0) or ang[0] < 0 or ang[-1] >= math.pi:
            raise ConfigError("angles must be strictly increasing within [0, pi)")
        if self.side < 1 or self.detector_bins < 1 or not self.step > 0:
            raise ConfigError("RadonGeometry needs side >= 1, detector_bins >= 1, step > 0")
        object.__setattr__(self, "angles", ang)

    @classmethod
    def uniform(cls, side: int, n_angles: int, detector_bins: int | None = None):
        angles = np.arange(n_angles) * math.pi / n_angles
        return cls(side=side, angles=angles,
                   detector_bins=detector_bins if detector_bins else side)


# Entries of the dense scratch array that coalesces one block of rays
# (256 KB); blocks of rays are cut to fit it.
_COALESCE_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class RadonMatrix:
    """Sparse Radon system matrix as coalesced (row, col, weight) triplets.

    Sinogram row ``a * detector_bins + b`` (angle a, bin b) of a flattened
    image ``x`` is the sum of ``weights[k] * x[cols[k]]`` over the triplets
    with ``rows[k]`` equal to it. Triplets are sorted by row and each (row,
    col) pair appears once. ``hit_rows`` are the rows with at least one
    triplet and ``starts`` the index of each one's first triplet. The adjoint
    scatters the same triplets by column, so it is the exact transpose.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    hit_rows: np.ndarray
    starts: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.weights.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Rows of ``x`` (batch, n_cols) times the matrix; one slice at a time
        keeps the temporaries at one slice's nonzeros."""
        out = np.zeros((x.shape[0], self.shape[0]), dtype=REAL)
        for xz, oz in zip(x, out):
            # reduceat is wrong on empty segments, so only hit rows are written
            oz[self.hit_rows] = np.add.reduceat(xz.take(self.cols) * self.weights, self.starts)
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Rows of ``y`` (batch, n_rows) times the transpose."""
        out = np.empty((y.shape[0], self.shape[1]), dtype=REAL)
        for yz, oz in zip(y, out):
            oz[:] = np.bincount(self.cols, weights=yz.take(self.rows) * self.weights,
                                minlength=self.shape[1])
        return out


def radon_matrix(geom: RadonGeometry) -> RadonMatrix:
    """Ray-driven bilinear discretization of ``geom`` as a RadonMatrix.

    Rays pass through detector-bin centers, sampled every ``step`` pixels
    along the ray over the full image diagonal. Each sample adds ``step``
    times its bilinear weights to the four pixels around it; pixels off the
    grid are dropped. A block of rays is summed per (ray, pixel) in a dense
    scratch array over the grid padded by one pixel, so every sample whose
    footprint touches the image lands inside it; the nonzeros of its
    interior become the triplets, already in row order.
    """
    n, bins = geom.side, geom.detector_bins
    npix = n * n
    m = n + 2  # padded side
    half = (n - 1) / 2.0
    reach = n / math.sqrt(2.0) + 1.0
    t = -reach + geom.step * np.arange(int(math.ceil(2.0 * reach / geom.step)) + 1)
    # one ray per sinogram row: offset s along e_s = (cos, sin), walking
    # along e_t = (-sin, cos)
    n_rows = len(geom.angles) * bins
    s = np.tile(np.arange(bins) - (bins - 1) / 2.0, len(geom.angles))
    cos = np.repeat(np.cos(geom.angles), bins)
    sin = np.repeat(np.sin(geom.angles), bins)
    block = max(1, _COALESCE_ENTRIES // (m * m))
    rows, cols, weights = [], [], []
    for r0 in range(0, n_rows, block):
        rs = slice(r0, r0 + block)
        nb = min(block, n_rows - r0)
        # coordinates (u along columns, v along rows), image centered
        u = (half + s[rs] * cos[rs])[:, None] + t * -sin[rs, None]
        v = (half + s[rs] * sin[rs])[:, None] + t * cos[rs, None]
        j0 = np.floor(u)
        i0 = np.floor(v)
        keep = (j0 >= -1) & (j0 < n) & (i0 >= -1) & (i0 < n)
        fu = (u - j0)[keep]
        fv = (v - i0)[keep]
        corner = (np.arange(nb)[:, None] * (m * m) + (i0 + 1) * m + (j0 + 1))[keep].astype(np.intp)
        gu = 1.0 - fu
        gv = 1.0 - fv
        dense = np.bincount(
            np.concatenate((corner, corner + 1, corner + m, corner + m + 1)),
            np.concatenate((gv * gu, gv * fu, fv * gu, fv * fu)) * geom.step,
            minlength=nb * m * m)
        inner = dense.reshape(nb, m, m)[:, 1:-1, 1:-1].reshape(-1)
        hit = np.flatnonzero(inner > 0)
        r, c = np.divmod(hit, npix)
        rows.append(r + r0)
        cols.append(c)
        weights.append(inner[hit])
    rows = np.concatenate(rows)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return RadonMatrix((n_rows, npix), rows, np.concatenate(cols),
                       np.concatenate(weights), rows[starts], starts)


def radon_apply(x: np.ndarray, geom: RadonGeometry,
                matrix: RadonMatrix | None = None) -> np.ndarray:
    """Sinograms of images ``x`` (..., side, side); leading axes are a batch.

    ``matrix`` is ``radon_matrix(geom)``, assembled here when not given.
    """
    x = np.asarray(x, dtype=REAL)
    n = geom.side
    if x.shape[-2:] != (n, n):
        raise ConfigError(f"radon_apply expects (..., {n}, {n}) images, got {x.shape}")
    mat = radon_matrix(geom) if matrix is None else matrix
    sino = mat.matvec(x.reshape(-1, n * n))
    return sino.reshape(x.shape[:-2] + (len(geom.angles), geom.detector_bins))


def radon_adjoint(sino: np.ndarray, geom: RadonGeometry,
                  matrix: RadonMatrix | None = None) -> np.ndarray:
    """Transpose of ``radon_apply`` on sinograms (..., angles, detector_bins)."""
    sino = np.asarray(sino, dtype=REAL)
    rng = (len(geom.angles), geom.detector_bins)
    if sino.shape[-2:] != rng:
        raise ConfigError(f"radon_adjoint expects (..., {rng[0]}, {rng[1]}) sinograms, "
                          f"got {sino.shape}")
    mat = radon_matrix(geom) if matrix is None else matrix
    img = mat.rmatvec(sino.reshape(-1, rng[0] * rng[1]))
    return img.reshape(sino.shape[:-2] + (geom.side, geom.side))


def _radon_map(geom: RadonGeometry, lead: tuple, name: str) -> LinearMap:
    mat = radon_matrix(geom)
    # radon_apply/radon_adjoint are looked up at call time, so wrappers
    # installed on this module see every apply
    op = LinearMap(lead + (geom.side, geom.side),
                   lead + (len(geom.angles), geom.detector_bins),
                   lambda x: radon_apply(x, geom, mat),
                   lambda s: radon_adjoint(s, geom, mat),
                   domain_dtype=REAL, name=name)
    op.matrix = mat
    return op


def radon_operator(geom: RadonGeometry, name="radon") -> LinearMap:
    """2-D Radon as a LinearMap holding its system matrix as ``.matrix``."""
    return _radon_map(geom, (), name)


def slice_radon_operator(geom: RadonGeometry, n_slices: int, name="radon3d") -> LinearMap:
    """Axial-slice-wise Radon on a (nz, n, n) volume, one shared system matrix."""
    return _radon_map(geom, (int(n_slices),), name)


# ---------------------------------------------------------------------------
# z-axis finite differences (replicate boundary: last slice difference is 0)

def diff_z_apply(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 3 or v.shape[0] < 2:
        raise ConfigError("diff_z needs a 3-D volume with at least 2 slices")
    out = np.zeros_like(v)
    out[:-1] = v[1:] - v[:-1]
    return out


def diff_z_adjoint(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u)
    if u.ndim != 3 or u.shape[0] < 2:
        raise ConfigError("diff_z needs a 3-D volume with at least 2 slices")
    out = np.zeros_like(u)
    out[0] = -u[0]
    out[1:-1] = u[:-2] - u[1:-1]
    out[-1] = u[-2]
    return out


def diff_z_operator(vol_shape, dtype=REAL, name="diff_z") -> LinearMap:
    return LinearMap(vol_shape, vol_shape, diff_z_apply, diff_z_adjoint,
                     domain_dtype=dtype, name=name)
