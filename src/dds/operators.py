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
from .tensor import COMPLEX, REAL, RngStream, check_finite, fft1, fft2, ifft1, ifft2, is_pow2


class LinearMap:
    """Matrix-free linear operator with an exact algebraic adjoint.

    ``apply`` maps domain-shaped tensors to range-shaped ones and ``adjoint``
    the reverse; both validate shapes, not finiteness.
    """

    def __init__(self, domain_shape, range_shape, apply_fn, adjoint_fn,
                 domain_dtype=COMPLEX, name=""):
        self.domain_shape = tuple(int(s) for s in domain_shape)
        self.range_shape = tuple(int(s) for s in range_shape)
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.domain_dtype = np.dtype(domain_dtype)
        self.range_dtype = self.domain_dtype  # no operator maps between dtypes
        self.name = name

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._apply(self._shaped(x, self.domain_shape, "apply"))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._adjoint(self._shaped(y, self.range_shape, "adjoint"))

    def _shaped(self, x, shape: tuple, call: str) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != shape:
            raise ConfigError(f"{self.name or 'operator'}: {call} expects shape {shape}, "
                              f"got {x.shape}")
        return x


def identity_map(shape, dtype=COMPLEX) -> LinearMap:
    return LinearMap(shape, shape, lambda x: np.array(x, copy=True),
                     lambda y: np.array(y, copy=True), domain_dtype=dtype, name="identity")


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
        if not 1 <= self.acceleration < math.inf:  # NaN fails every comparison
            raise ConfigError(f"acceleration = {self.acceleration} must be finite and >= 1")
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
    of 1/acceleration, or returns the closest of 18 tries. A dart throw
    stops once its set pixels exceed the target by more than the larger of
    10% and the closest try's gap: the count only grows within a throw, so
    the full throw could neither land within 10% nor be closest, and the
    bisection raises the scale as it would have; the mask is the one the full
    throws give. Proposals are bucketed by pixel with a stable sort on keys
    in the narrowest unsigned type that holds h*w - 1. The random kinds
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
    # so no d2 falls below r^2 there. The pixel keys take the narrowest
    # unsigned type that holds h*w - 1: numpy's stable sort is a radix sort
    # on keys of 16 bits or fewer, and gives the same order
    pix = (q0.astype(np.int32) * w + q1.astype(np.int32)).astype(np.min_scalar_type(h * w - 1))
    order = np.argsort(pix, kind="stable").astype(np.int32)
    counts = np.bincount(pix, minlength=h * w)
    slot = np.arange(n_prop) - np.repeat(np.cumsum(counts) - counts, counts)
    near_idx = np.full((h * w, int(counts.max())), n_prop, dtype=np.int32)
    near_idx[pix[order], slot] = order
    del order, counts, slot
    near_idx = near_idx.reshape(h, w, -1)
    near_q0, near_q1, near_g = (np.append(a, 0.0)[near_idx] for a in (q0, q1, g))

    def throw(scale: float, stop_gap: float) -> np.ndarray | None:
        """The mask one dart throw at this radius scale sets, or None once
        its set pixels exceed the target by more than stop_gap (relative)."""
        r = scale * g
        alive = d2_acs >= r * r
        near_r = scale * near_g
        near_rr = near_r * near_r
        # every r is at most scale * g_max; the margin is far above the
        # rounding in d2 and r^2
        reach = scale * g_max + 1e-6
        m = cells.astype(REAL)
        flat = m.reshape(-1)
        got = count
        i = 0
        while True:
            # the first proposal that no accepted point has rejected is accepted
            i += int(alive[i:].argmax())
            if not alive[i]:
                break
            if not flat[pix[i]]:
                flat[pix[i]] = 1.0
                got += 1
                if (got - target) / target > stop_gap:
                    return None
            p0, p1 = q0[i], q1[i]
            win = (slice(max(math.floor(p0 - reach), 0), math.floor(p0 + reach) + 1),
                   slice(max(math.floor(p1 - reach), 0), math.floor(p1 + reach) + 1))
            d2 = (near_q0[win] - p0) ** 2 + (near_q1[win] - p1) ** 2
            alive[near_idx[win][d2 < near_rr[win]]] = False
        return m

    lo, hi = 0.05, 4.0 * math.sqrt(acc)
    best = None
    best_gap = math.inf
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        m = throw(mid, max(0.10, best_gap))
        if m is None:  # stopped: too dense, outside 10% and no closer than best
            lo = mid
            continue
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

def make_coil_maps(c: int, shape, seed: int = 0) -> np.ndarray:
    """Smooth complex Gaussian-bump sensitivities centered on the border, (c, H, W).

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
    return maps


# ---------------------------------------------------------------------------
# Masked multi-coil Fourier sampling (image -> stacked k-space)

@dataclass(frozen=True, eq=False)
class SensePlan:
    """What SENSE apply/adjoint reuse across calls, built once per operator.

    ``mask`` is the checked 0/1 mask the plan was built from. The range
    holds the measured entries only. For a 0/1 mask, ``support`` holds the
    flat indices of its sampled entries in every coil of k-space (c * H * W)
    and the range is (c, nnz): apply gathers them from ``fft2(maps * x)``,
    ``embed`` (E) scatters them into zero-filled k-space (c, H, W), and
    ``restrict`` (E*) gathers them back. A column mask (constant along k_y,
    axis -2, with n <= W/3 sampled columns) instead has the sampled k_x columns as
    ``support``, ``dft`` the unitary W-point DFT restricted to them,
    F_W[:, cols] (W x n). The mask commutes with the unitary k_y transform
    F_y, so the data are kept in hybrid space, F_y* k[:, :, cols] of shape
    (c, H, n): apply is one (c*H x W) @ dft matmul and adjoint one
    (c*H x n) @ dft^H matmul, with no FFT, and E/E* run the k_y transform.
    Above W/3 columns the restricted transform measured slower than the
    full FFT.
    """

    maps: np.ndarray
    conj_maps: np.ndarray
    mask: np.ndarray
    support: np.ndarray
    range_shape: tuple
    dft: np.ndarray | None = None

    def embed(self, y: np.ndarray) -> np.ndarray:
        """E: the range -> k-space (c, H, W), zero off the mask."""
        if self.dft is None:
            k = np.zeros(self.maps.size, dtype=COMPLEX)
            k[self.support] = y.ravel()
            return k.reshape(self.maps.shape)
        k = np.zeros(self.maps.shape, dtype=COMPLEX)
        k[:, :, self.support] = fft1(y, axis=-2)
        return k

    def restrict(self, k: np.ndarray) -> np.ndarray:
        """E*: the measured entries of k-space (c, H, W), in range layout."""
        if self.dft is None:
            return k.take(self.support).reshape(self.range_shape)
        return ifft1(k[:, :, self.support], axis=-2)


def sense_plan(maps: np.ndarray, mask: np.ndarray) -> SensePlan:
    """The SensePlan of normalized coil ``maps`` (c, H, W), sum_c |s_c|^2 = 1,
    and a 0/1 ``mask``; power-of-two image sides only."""
    if maps.ndim != 3:
        raise ConfigError("coil maps must be stacked (c, H, W)")
    ssq = np.sum(np.abs(maps) ** 2, axis=0)
    if not np.max(np.abs(ssq - 1.0)) <= 1e-10:  # NaN fails this too
        raise ConfigError("coil maps must be finite and normalized: sum |s|^2 = 1")
    c, h, w = maps.shape
    if mask.shape != (h, w):
        raise ConfigError(f"sense: mask shape {mask.shape} != map shape {(h, w)}")
    if not (is_pow2(h) and is_pow2(w)):
        raise ConfigError(f"sense needs power-of-two image sides, got {h}x{w}")
    if not ((mask == 0) | (mask == 1)).all():
        raise ConfigError("sense: the mask must hold only 0 and 1")
    conj_maps = np.conj(maps)
    cols = np.flatnonzero(mask[0])
    if not (3 * cols.size <= w and (mask == mask[0]).all()):
        support = np.flatnonzero(np.broadcast_to(mask, maps.shape))
        return SensePlan(maps, conj_maps, mask, support, (c, support.size // c))
    # exponents reduced mod w keep every entry a root of unity to round-off
    dft = np.exp(-2j * math.pi / w * (np.outer(np.arange(w), cols) % w)) / math.sqrt(w)
    return SensePlan(maps, conj_maps, mask, cols, (c, h, cols.size), dft)


def sense_apply(x: np.ndarray, plan: SensePlan) -> np.ndarray:
    """The measured entries of ``F(maps * x)``, in the layout of ``plan.range_shape``."""
    coil = plan.maps * x
    if plan.dft is None:
        return plan.restrict(fft2(coil))
    c, h, w = coil.shape
    return (coil.reshape(c * h, w) @ plan.dft).reshape(plan.range_shape)


def sense_adjoint(y: np.ndarray, plan: SensePlan) -> np.ndarray:
    """Image ``sum_c conj(maps_c) * F^H(E y)_c``, the adjoint of sense_apply."""
    if plan.dft is None:
        coil = ifft2(plan.embed(y))
    else:
        c, h, n = y.shape
        coil = (y.reshape(c * h, n) @ plan.dft.conj().T).reshape(plan.maps.shape)
    # coil is this call's own array; conj_maps stays the first operand, since
    # numpy's complex product rounds differently with the operands swapped
    np.multiply(plan.conj_maps, coil, out=coil)
    return coil.sum(axis=0)


def sense_operator(maps: np.ndarray, mask: np.ndarray) -> LinearMap:
    """A = P F S as a LinearMap holding its SensePlan as ``.plan`` and E as
    ``.embedding``.

    The range is the measured entries (see SensePlan), and ``.embedding`` is
    E: range -> k-space (c, H, W), with E* as its adjoint. ||y_hat - A x||
    counts measured entries only.
    """
    mask = check_finite(np.asarray(mask, dtype=REAL), "sense mask")
    plan = sense_plan(maps, mask)
    # sense_apply/sense_adjoint are looked up at call time, so wrappers
    # installed on this module see every apply
    op = LinearMap(maps.shape[1:], plan.range_shape, lambda x: sense_apply(x, plan),
                   lambda y: sense_adjoint(y, plan), name="sense")
    op.plan = plan
    op.embedding = LinearMap(plan.range_shape, maps.shape, plan.embed, plan.restrict,
                             name="sense embedding")
    return op


# ---------------------------------------------------------------------------
# Parallel-beam Radon transform

@dataclass(frozen=True)
class RadonGeometry:
    """Parallel-beam geometry: square image side, projection angles, detector
    bins. Every geometry samples its rays every _RAY_STEP = 0.5 pixels."""

    side: int
    angles: np.ndarray
    detector_bins: int

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=REAL)
        if ang.size == 0:
            raise ConfigError("RadonGeometry needs at least one angle")
        if not (np.all(np.diff(ang) > 0) and ang[0] >= 0 and ang[-1] < math.pi):  # NaN fails
            raise ConfigError("angles must be strictly increasing within [0, pi)")
        if self.side < 1 or self.detector_bins < 1:
            raise ConfigError("RadonGeometry needs side >= 1 and detector_bins >= 1")
        object.__setattr__(self, "angles", ang)

    @classmethod
    def uniform(cls, side: int, n_angles: int, detector_bins: int | None = None):
        angles = np.arange(n_angles) * math.pi / n_angles
        return cls(side=side, angles=angles,
                   detector_bins=side if detector_bins is None else detector_bins)


# Ray sampling step in pixels.
_RAY_STEP = 0.5
# Entries of the dense scratch array that coalesces one block of rays
# (256 KB); blocks of rays are cut to fit it.
_COALESCE_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class RadonMatrix:
    """Sparse Radon system matrix as coalesced (row, col, weight) triplets.

    Sinogram row ``a * detector_bins + b`` (angle a, bin b) of a flattened
    image ``x`` is the sum of ``weights[k] * x[cols[k]]`` over that row's
    triplets. Triplets are sorted by row and each (row, col) pair appears
    once, so the rows are held as run lengths: ``row_counts`` is the number
    of triplets of each sinogram row, 0 for a row no ray hits. ``hit_rows``
    are the rows with at least one triplet and ``starts`` the index of each
    one's first triplet. Every col lies in [0, side * side). The adjoint
    scatters the same triplets by column, so it is the exact transpose.
    ``image_shape`` (side, side) and ``sino_shape`` (angles, detector_bins)
    are the shapes the matrix was built for.
    """

    image_shape: tuple[int, int]
    sino_shape: tuple[int, int]
    row_counts: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    hit_rows: np.ndarray
    starts: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return math.prod(self.sino_shape), math.prod(self.image_shape)


def radon_matrix(geom: RadonGeometry) -> RadonMatrix:
    """Ray-driven bilinear discretization of ``geom`` as a RadonMatrix.

    Rays pass through detector-bin centers, sampled every _RAY_STEP pixels
    along the ray over the full image diagonal. Each sample adds _RAY_STEP
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
    t = -reach + _RAY_STEP * np.arange(int(math.ceil(2.0 * reach / _RAY_STEP)) + 1)
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
            np.concatenate((gv * gu, gv * fu, fv * gu, fv * fu)) * _RAY_STEP,
            minlength=nb * m * m)
        inner = dense.reshape(nb, m, m)[:, 1:-1, 1:-1].reshape(-1)
        hit = np.flatnonzero(inner > 0)
        r, c = np.divmod(hit, npix)
        rows.append(r + r0)
        cols.append(c)
        weights.append(inner[hit])
    row_counts = np.bincount(np.concatenate(rows), minlength=n_rows)
    hit_rows = np.flatnonzero(row_counts)
    starts = (np.cumsum(row_counts) - row_counts)[hit_rows]
    return RadonMatrix((n, n), (len(geom.angles), bins), row_counts, np.concatenate(cols),
                       np.concatenate(weights), hit_rows, starts)


def radon_apply(x: np.ndarray, matrix: RadonMatrix) -> np.ndarray:
    """Sinograms of images ``x`` (..., side, side); leading axes are a batch,
    run one slice at a time through one scratch array of the nonzeros."""
    n_rows, n_cols = matrix.shape
    flat = x.reshape(-1, n_cols)
    out = np.zeros((flat.shape[0], n_rows), dtype=REAL)
    # made per call, not held: threads of one sweep share the matrix
    buf = np.empty(matrix.weights.size, dtype=REAL)
    for xz, oz in zip(flat, out):
        # every col is in range, so "clip" clips nothing; unlike the default
        # "raise" it writes straight into buf, not through a temporary
        np.take(xz, matrix.cols, out=buf, mode="clip")
        np.multiply(buf, matrix.weights, out=buf)
        # reduceat is wrong on empty segments, so only hit rows are written
        oz[matrix.hit_rows] = np.add.reduceat(buf, matrix.starts)
    return out.reshape(x.shape[:-2] + matrix.sino_shape)


def radon_adjoint(sino: np.ndarray, matrix: RadonMatrix) -> np.ndarray:
    """Transpose of ``radon_apply`` on sinograms (..., angles, detector_bins)."""
    n_rows, n_cols = matrix.shape
    flat = sino.reshape(-1, n_rows)
    out = np.empty((flat.shape[0], n_cols), dtype=REAL)
    for yz, oz in zip(flat, out):
        # the triplets are sorted by row, so repeating each row's value over
        # its run gathers yz[row] per triplet by copying runs
        w = np.repeat(yz, matrix.row_counts)
        w *= matrix.weights
        oz[:] = np.bincount(matrix.cols, weights=w, minlength=n_cols)
    return out.reshape(sino.shape[:-2] + matrix.image_shape)


def radon_operator(geom: RadonGeometry, n_slices: int | None = None) -> LinearMap:
    """Radon as a LinearMap holding its system matrix as ``.matrix`` and the
    identity as ``.embedding``: on (side, side) images ("radon"), or with
    ``n_slices`` axial-slice-wise on (n_slices, side, side) volumes through
    the same matrix ("radon3d")."""
    mat = radon_matrix(geom)
    lead, name = ((), "radon") if n_slices is None else ((int(n_slices),), "radon3d")
    # radon_apply/radon_adjoint are looked up at call time, so wrappers
    # installed on this module see every apply
    op = LinearMap(lead + mat.image_shape, lead + mat.sino_shape,
                   lambda x: radon_apply(x, mat), lambda s: radon_adjoint(s, mat),
                   domain_dtype=REAL, name=name)
    op.matrix = mat
    op.embedding = identity_map(op.range_shape, dtype=REAL)  # sinograms are the data
    return op


# ---------------------------------------------------------------------------
# z-axis finite differences (replicate boundary: last slice difference is 0)

def diff_z_apply(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    out[:-1] = v[1:] - v[:-1]
    return out


def diff_z_adjoint(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    out[0] = -u[0]
    out[1:-1] = u[:-2] - u[1:-1]
    out[-1] = u[-2]
    return out


def diff_z_operator(vol_shape, dtype=REAL) -> LinearMap:
    """D_z on volumes of ``vol_shape``: 3-D with at least 2 slices."""
    if len(vol_shape) != 3 or vol_shape[0] < 2:
        raise ConfigError(f"diff_z needs a 3-D volume with at least 2 slices, "
                          f"got {tuple(vol_shape)}")
    return LinearMap(vol_shape, vol_shape, diff_z_apply, diff_z_adjoint,
                     domain_dtype=dtype, name="diff_z")
