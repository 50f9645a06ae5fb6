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
    the reverse; both validate shapes, not finiteness.
    """

    def __init__(self, domain_shape, range_shape, apply_fn, adjoint_fn,
                 domain_dtype=COMPLEX, range_dtype=None, name=""):
        self.domain_shape = tuple(int(s) for s in domain_shape)
        self.range_shape = tuple(int(s) for s in range_shape)
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.domain_dtype = np.dtype(domain_dtype)
        self.range_dtype = np.dtype(range_dtype if range_dtype is not None else domain_dtype)
        self.name = name

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != self.domain_shape:
            raise ConfigError(
                f"{self.name or 'operator'}: apply expects shape {self.domain_shape}, got {x.shape}"
            )
        return self._apply(x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.shape != self.range_shape:
            raise ConfigError(
                f"{self.name or 'operator'}: adjoint expects shape {self.range_shape}, got {y.shape}"
            )
        return self._adjoint(y)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


def identity_map(shape, dtype=COMPLEX) -> LinearMap:
    return LinearMap(shape, shape, lambda x: np.array(x, copy=True),
                     lambda y: np.array(y, copy=True), domain_dtype=dtype, name="identity")


def matrix_operator(mat: np.ndarray, name="dense") -> LinearMap:
    """Dense matrix as a LinearMap over flat vectors (testing / small systems)."""
    mat = check_finite(np.asarray(mat), f"{name} matrix")
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
    # a side longer than the image is clamped to it, still centred
    sh, sw = min(side, h), min(side, w)
    r0, c0 = h // 2 - sh // 2, w // 2 - sw // 2
    return slice(r0, r0 + sh), slice(c0, c0 + sw)


def make_mask(spec: MaskSpec, shape) -> np.ndarray:
    """Binary sampling mask, deterministic in the spec seed.

    Column masks (1d kinds) sample full phase-encode columns; 2d kinds sample
    points. The fully sampled ACS block sits at the center. The gaussian kinds
    draw until they hold round(N/acceleration) of the N columns or pixels;
    poisson-disk-vd bisects its radius scale until the density is within 10%
    of 1/acceleration, or returns the closest of 18 tries. The random kinds
    raise ConfigError when the ACS block alone exceeds that target. uniform1d
    is the constructive every-Rth-column pattern plus ACS, so its density can
    exceed 1/acceleration by up to the ACS fraction.
    """
    h, w = (int(s) for s in shape)
    acc = spec.acceleration
    rng = RngStream(spec.seed)

    if acc == 1.0:
        return np.ones((h, w), dtype=REAL)

    if spec.kind == "uniform1d":
        mask = np.zeros((h, w), dtype=REAL)
        stride = max(1, int(round(acc)))
        mask[:, ::stride] = 1.0
        mask[:, _acs_columns(w, spec.acs_fraction)] = 1.0
        return mask

    # the random kinds fill cells (columns for gaussian1d, pixels otherwise)
    # seeded with the ACS block
    if spec.kind == "gaussian1d":
        cells = np.zeros(w, dtype=bool)
        cells[_acs_columns(w, spec.acs_fraction)] = True
    else:
        rs, cs = _acs_square((h, w), spec.acs_fraction)
        cells = np.zeros((h, w), dtype=bool)
        cells[rs, cs] = True
    count, target = int(cells.sum()), max(1, int(round(cells.size / acc)))
    if count > target:
        raise ConfigError("ACS block alone exceeds the target sampling density")

    if spec.kind != "poisson-disk-vd":
        # one N(0,1) draw per axis picks the cell round(n/2 + n/4 z)
        budget = 200 * cells.size
        while count < target and budget > 0:
            cell = tuple(int(round(n / 2 + (n / 4) * z))
                         for n, z in zip(cells.shape, rng.randn(cells.ndim)))
            budget -= 1
            if all(0 <= i < n for i, n in zip(cell, cells.shape)) and not cells[cell]:
                cells[cell] = True
                count += 1
        return np.ascontiguousarray(np.broadcast_to(cells, (h, w)), dtype=REAL)

    # poisson-disk-vd: dart throwing with radius growing away from the
    # center; the radius scale is bisected so the realized density lands
    # within 10% (relative) of 1/acceleration. Proposal p is accepted when
    # d2 = |q - p|^2 >= r(p)^2 for every earlier accepted point q and every
    # ACS pixel, with r(p) = scale * g(p).
    target = h * w / acc
    n_prop = 40 * h * w
    z = rng.randn((n_prop, 2)).ravel() / math.sqrt(2.0)
    # normal CDF maps the Gaussian proposals onto [0,1)^2 uniformly
    u = (0.5 * (1.0 + np.fromiter(map(math.erf, z), REAL, z.size))).reshape(n_prop, 2)
    del z
    q0 = np.clip(u[:, 0] * h, 0, h - 1e-9)
    q1 = np.clip(u[:, 1] * w, 0, w - 1e-9)
    del u
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    maxdist = float(np.linalg.norm(center)) + 1e-12
    off = np.column_stack([q0 - center[0], q1 - center[1]])
    # a batched 1x2 @ 2x1 matmul runs the BLAS dot np.linalg.norm runs on one
    # point, so |p - center|, and with it g, is bit-identical to it
    g = 0.35 + 1.3 * np.sqrt(np.matmul(off[:, None, :], off[:, :, None]).ravel()) / maxdist
    del off
    g_max = float(g.max())
    # the ACS pixel nearest to p has the smallest d2 of the block: rounding
    # is monotone, so no other pixel's d2 comes out below it
    acs_r, acs_c = np.arange(h)[rs], np.arange(w)[cs]
    d2_acs = ((np.clip(np.rint(q0), acs_r[0], acs_r[-1]) - q0) ** 2
              + (np.clip(np.rint(q1), acs_c[0], acs_c[-1]) - q1) ** 2)
    # proposals bucketed by pixel, in proposal order within a pixel, as an
    # (h, w, slots) index; empty slots hold n_prop, whose g = 0 makes r = 0,
    # so no d2 falls below r^2 there
    pix_r, pix_c = q0.astype(np.int32), q1.astype(np.int32)
    pix = pix_r * w + pix_c
    order = np.argsort(pix, kind="stable").astype(np.int32)
    counts = np.bincount(pix, minlength=h * w)
    slot = np.arange(n_prop) - np.repeat(np.cumsum(counts) - counts, counts)
    near_idx = np.full((h * w, int(counts.max())), n_prop, dtype=np.int32)
    near_idx[pix[order], slot] = order
    del pix, order, counts, slot
    near_idx = near_idx.reshape(h, w, -1)
    near_q0, near_q1, near_g = (np.append(a, 0.0)[near_idx] for a in (q0, q1, g))

    def throw(scale: float) -> np.ndarray:
        r = scale * g
        alive = d2_acs >= r * r
        near_r = scale * near_g
        near_rr = near_r * near_r
        # every r is at most scale * g_max; the margin is far above the
        # rounding in d2 and r^2
        reach = scale * g_max + 1e-6
        taken = []
        i = 0
        while True:
            # the first proposal that no accepted point has rejected is accepted
            i += int(alive[i:].argmax())
            if not alive[i]:
                break
            taken.append(i)
            p0, p1 = q0[i], q1[i]
            win = (slice(max(math.floor(p0 - reach), 0), math.floor(p0 + reach) + 1),
                   slice(max(math.floor(p1 - reach), 0), math.floor(p1 + reach) + 1))
            d2 = (near_q0[win] - p0) ** 2 + (near_q1[win] - p1) ** 2
            alive[near_idx[win][d2 < near_rr[win]]] = False
        m = np.zeros((h, w), dtype=REAL)
        m[rs, cs] = 1.0
        m[pix_r[taken], pix_c[taken]] = 1.0
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
        if not np.max(np.abs(ssq - 1.0)) <= 1e-10:  # NaN fails this too
            raise ConfigError("coil maps must be finite and normalized: sum |s|^2 = 1")

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
    """A = P F s as a LinearMap."""
    mask = check_finite(np.asarray(mask, dtype=REAL), f"{name} mask")
    conj_maps = np.conj(maps.maps)  # cached: adjoint runs in hot CG loops
    return LinearMap(maps.image_shape, (maps.ncoils,) + maps.image_shape,
                     lambda x: sense_apply(x, maps, mask),
                     lambda k: sense_adjoint(k, maps, mask, conj_maps),
                     domain_dtype=COMPLEX, name=name)


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
                   detector_bins=side if detector_bins is None else detector_bins)


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
