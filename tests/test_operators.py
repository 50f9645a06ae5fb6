import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dds.errors import ConfigError, NumericalError
from dds.operators import (
    CoilMaps,
    LinearMap,
    MaskSpec,
    RadonGeometry,
    _acs_square,
    diff_z_apply,
    diff_z_operator,
    dot_test,
    make_coil_maps,
    make_mask,
    matrix_operator,
    radon_adjoint,
    radon_apply,
    radon_matrix,
    radon_operator,
    sense_adjoint,
    sense_apply,
    sense_operator,
    slice_radon_operator,
)
from dds.tensor import COMPLEX, RngStream, fft2, ifft2, norm


def normal_map(a, gamma=1.0, plus=None):
    """v -> gamma A*A v (+ plus(v)) from the operator's own apply/adjoint, for CG."""
    def fwd(v):
        out = gamma * a.adjoint(a.apply(v))
        return out if plus is None else out + plus(v)

    return LinearMap(a.domain_shape, a.domain_shape, fwd, fwd, domain_dtype=a.domain_dtype)


def op_to_matrix(op):
    """Probe an operator with basis vectors (mechanical dense assembly)."""
    d = int(np.prod(op.domain_shape))
    r = int(np.prod(op.range_shape))
    m = np.zeros((r, d), dtype=complex)
    for j in range(d):
        e = np.zeros(d, dtype=op.domain_dtype)
        e[j] = 1.0
        m[:, j] = op.apply(e.reshape(op.domain_shape)).ravel()
    return m


def adjoint_to_matrix(op):
    d = int(np.prod(op.domain_shape))
    r = int(np.prod(op.range_shape))
    m = np.zeros((d, r), dtype=complex)
    for j in range(r):
        e = np.zeros(r, dtype=op.range_dtype)
        e[j] = 1.0
        m[:, j] = op.adjoint(e.reshape(op.range_shape)).ravel()
    return m


def naive_radon_matrix(geom):
    """Independent scalar-loop assembly of the ray-driven bilinear Radon map."""
    n = geom.side
    half = (n - 1) / 2.0
    reach = n / math.sqrt(2.0) + 1.0
    k = int(math.ceil(2.0 * reach / geom.step)) + 1
    mat = np.zeros((len(geom.angles) * geom.detector_bins, n * n))
    for a, th in enumerate(geom.angles):
        es = (math.cos(th), math.sin(th))
        et = (-math.sin(th), math.cos(th))
        for b in range(geom.detector_bins):
            s = b - (geom.detector_bins - 1) / 2.0
            row = a * geom.detector_bins + b
            for kk in range(k):
                t = -reach + geom.step * kk
                u = half + s * es[0] + t * et[0]
                v = half + s * es[1] + t * et[1]
                j0, i0 = math.floor(u), math.floor(v)
                fu, fv = u - j0, v - i0
                for di, dj, w in ((0, 0, (1 - fv) * (1 - fu)), (0, 1, (1 - fv) * fu),
                                  (1, 0, fv * (1 - fu)), (1, 1, fv * fu)):
                    ii, jj = i0 + di, j0 + dj
                    if 0 <= ii < n and 0 <= jj < n:
                        mat[row, ii * n + jj] += w * geom.step
    return mat


# ---------------------------------------------------------------------------
# masks

def test_uniform1d_mask_constructive():
    m = make_mask(MaskSpec("uniform1d", 4, 0.125, 0), (32, 32))
    cols = sorted(set(np.nonzero(m[0])[0].tolist()))
    assert cols == sorted(set(range(0, 32, 4)) | {14, 15, 16, 17})
    assert np.array_equal(m, np.tile(m[0], (32, 1)))


def test_acceleration_one_is_full_mask():
    m = make_mask(MaskSpec("uniform1d", 1, 0.1, 0), (16, 16))
    assert np.all(m == 1.0)


def test_mask_determinism():
    a = make_mask(MaskSpec("gaussian2d", 8, 0.08, 5), (32, 32))
    b = make_mask(MaskSpec("gaussian2d", 8, 0.08, 5), (32, 32))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind,acc", [("gaussian1d", 4), ("gaussian2d", 8)])
def test_random_mask_density(kind, acc):
    m = make_mask(MaskSpec(kind, acc, 0.08, 1), (32, 32))
    assert abs(m.mean() - 1.0 / acc) <= 0.15 / acc


def test_poisson_mask_density_and_acs():
    for n, acc, seed in ((32, 8, 2), (64, 4, 0)):
        m = make_mask(MaskSpec("poisson-disk-vd", acc, 0.08, seed), (n, n))
        assert abs(m.mean() - 1.0 / acc) <= 0.15 / acc
        side = max(1, round(math.sqrt(0.08 * n * n)))
        r0 = n // 2 - side // 2
        assert np.all(m[r0:r0 + side, r0:r0 + side] == 1.0)


# sha256 of make_mask(MaskSpec(kind, acc, acs, seed), shape).tobytes(); the
# 32x32 acc-4 ACS-0.08 seed-3 mask is the mri2d-pinv benchmark workload's
PINNED_MASKS = [
    ("poisson-disk-vd", (16, 16), 2.5, 0.0, 0, "48695e2a3d5b02a07529a9f2e26de461601764157ba1c483cec57b023b9ed20b"),
    ("poisson-disk-vd", (16, 16), 4, 0.08, 1, "c4a10166182d0c17d4b8703bdb561320b2ebe434154e946c63496a489d09ef34"),
    ("poisson-disk-vd", (16, 16), 4, 0.2, 7, "95409f9f60f1c79f60e1555920ed0b84886d1f7659d9403655e19dd228d71320"),
    ("poisson-disk-vd", (24, 40), 2.5, 0.08, 3, "377d978c0802c724a3933987e848fdfbf890f6becc57cdfcebb538e933072666"),
    ("poisson-disk-vd", (24, 40), 4, 0.0, 11, "2bbb036098e9aba96aa705957b4c1f55f3cdf875f8ed12294cf8b3d20a04694a"),
    ("poisson-disk-vd", (24, 40), 8, 0.08, 5, "353bdc613e922c7f3e633b2892e0ffd466dbcfdee354044314406d062d14b298"),
    ("poisson-disk-vd", (24, 40), 4, 0.2, 40, "2b32376d4a4724a9cf08d3601b63c48c61f4ab5a49eff4e2e0b6b0a3437111bf"),
    ("poisson-disk-vd", (32, 32), 4, 0.08, 3, "426367bf7fbc6dbdce0306b683b18473419aaafcd34e0dcdda0d52150dcfc0ce"),
    ("poisson-disk-vd", (32, 32), 2.5, 0.2, 1, "cd1e98bc352021d0278bdc26f714c135ea82eaa9c26e62cee5daac7e6ef73996"),
    ("poisson-disk-vd", (32, 32), 8, 0.0, 4, "d20a244e85c0cf2d6f395af0b95ac4ec4ec524c6927e762aa73e08d84548fe09"),
    ("poisson-disk-vd", (32, 32), 8, 0.08, 2, "cfb104331feeddf04e3fef9334355a49394b65bddc53a34abd45bceb550c9cc4"),
    ("poisson-disk-vd", (32, 32), 4, 0.08, 12345, "cebcd6f6c1079e31b41896a9c3a2c0bd661e47cf3d73ff1f9ef199f10b6d642b"),
    ("poisson-disk-vd", (64, 64), 4, 0.08, 0, "24ffd3b017ad80406df5b318bd6705a9a53acd977500860429faf94c462abd36"),
    ("poisson-disk-vd", (64, 64), 2.5, 0.0, 9, "f390d51f1ea069102024ea806efcb06dcc8fb211e53a2fab842e6178f1a4f9db"),
    ("gaussian2d", (16, 16), 4, 0.08, 0, "47b8689e725979490307594f3e57e9b43bd8f44a4342b1e5f347cd4b1a7263ac"),
    ("gaussian2d", (24, 40), 2.5, 0.2, 1, "eb8a901473455b6641460de636d670a4c3559c80a24210cb0360ec6f1894d142"),
    ("gaussian2d", (32, 32), 8, 0.08, 5, "c52daa2b2a7e33a40234a7dd8c689ae783bee269b2861953ca34e82b639dba65"),
    ("gaussian2d", (32, 32), 8, 0.0, 3, "fcc01fe17843211e1a3548dbef36db1ff7f28904d6acc9d14c1aa567e1ea7bd6"),
    ("gaussian2d", (64, 64), 4, 0.0, 2, "2f64f9be10c24f11baa23a0b666bee3db9adf2b4dfb4f8de90009ba435e7004c"),
]


def test_poisson_mask_bytes_pinned():
    wrong = []
    for kind, shape, acc, acs, seed, digest in PINNED_MASKS:
        m = make_mask(MaskSpec(kind, acc, acs, seed), shape)
        assert m.dtype == np.float64 and m.shape == shape
        if hashlib.sha256(m.tobytes()).hexdigest() != digest:
            wrong.append((kind, shape, acc, acs, seed))
    assert not wrong, f"masks changed: {wrong}"


@pytest.mark.parametrize("kind", ["poisson-disk-vd", "gaussian2d"])
@pytest.mark.parametrize("shape, acc, acs, seed", [
    ((16, 16), 8, 0.2, 2),  # 49-px ACS block against a 32-px target
    ((64, 64), 8, 0.2, 6),  # 841 px against 512
])
def test_2d_mask_rejects_acs_above_target(kind, shape, acc, acs, seed):
    # poisson-disk-vd used to return the ACS block plus points, far off target
    with pytest.raises(ConfigError, match="ACS block alone exceeds"):
        make_mask(MaskSpec(kind, acc, acs, seed), shape)


def _acs_over_target(spec, shape):
    rs, cs = _acs_square(shape, spec.acs_fraction)
    m = np.zeros(shape)
    m[rs, cs] = 1.0
    return m.sum() > max(1, round(shape[0] * shape[1] / spec.acceleration))


def _reference_poisson_mask(spec, shape):
    """The poisson-disk-vd branch of make_mask as first written: each proposal
    is checked against every accepted point, O(proposals x accepted) work in
    each bisection round."""
    h, w = shape
    acc = spec.acceleration
    target = h * w / acc
    rs, cs = _acs_square((h, w), spec.acs_fraction)
    props = RngStream(spec.seed).randn((40 * h * w, 2))
    u = 0.5 * (1.0 + np.vectorize(math.erf)(props / math.sqrt(2.0)))
    pts = np.column_stack([np.clip(u[:, 0] * h, 0, h - 1e-9),
                           np.clip(u[:, 1] * w, 0, w - 1e-9)])
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    maxdist = float(np.linalg.norm(center)) + 1e-12

    def throw(scale):
        m = np.zeros((h, w))
        m[rs, cs] = 1.0
        accepted = np.argwhere(m > 0).astype(float)
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
    best, best_gap = None, math.inf
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        m = throw(mid)
        gap = abs(m.sum() - target) / target
        if gap < best_gap:
            best, best_gap = m, gap
        if gap <= 0.10:
            break
        if m.sum() > target:
            lo = mid
        else:
            hi = mid
    return best


@settings(max_examples=12, deadline=None)
@given(h=st.integers(4, 20), w=st.integers(4, 20),
       acc=st.floats(1.5, 8.0), acs=st.floats(0.0, 0.3), seed=st.integers(0, 10**6))
def test_poisson_mask_matches_reference(h, w, acc, acs, seed):
    spec = MaskSpec("poisson-disk-vd", acc, acs, seed)
    if _acs_over_target(spec, (h, w)):
        with pytest.raises(ConfigError):
            make_mask(spec, (h, w))
    else:
        assert (make_mask(spec, (h, w)).tobytes()
                == _reference_poisson_mask(spec, (h, w)).tobytes())


def test_mask_acs_center_fully_sampled():
    m = make_mask(MaskSpec("gaussian1d", 4, 0.125, 3), (32, 32))
    assert np.all(m[:, 14:18] == 1.0)


@pytest.mark.parametrize("kind", ["poisson-disk-vd", "gaussian2d"])
@pytest.mark.parametrize("shape, rows, cols", [
    ((4, 40), slice(0, 4), slice(17, 24)),   # a 7-px side on a 4-row image
    ((4, 64), slice(0, 4), slice(28, 37)),   # 9 px
    ((40, 4), slice(17, 24), slice(0, 4)),
])
def test_acs_block_taller_than_image_is_clamped(kind, shape, rows, cols):
    # the start used to go negative and the slice wrapped: (4, 40) got one row
    assert _acs_square(shape, 0.3) == (rows, cols)
    assert np.all(make_mask(MaskSpec(kind, 4, 0.3, 1), shape)[rows, cols] == 1.0)


def test_mask_rejects_bad_acceleration():
    with pytest.raises(ConfigError):
        MaskSpec("uniform1d", 0.5, 0.1, 0)


# ---------------------------------------------------------------------------
# coil maps

def test_single_coil_has_unit_modulus():
    maps = make_coil_maps(1, (16, 16), seed=0)
    assert np.max(np.abs(np.abs(maps.maps[0]) - 1.0)) < 1e-12


def test_coil_maps_normalized():
    maps = make_coil_maps(4, (32, 32), seed=7)
    ssq = np.sum(np.abs(maps.maps) ** 2, axis=0)
    assert np.max(np.abs(ssq - 1.0)) < 1e-10


def test_coil_maps_reproducible():
    a = make_coil_maps(4, (16, 16), seed=3)
    b = make_coil_maps(4, (16, 16), seed=3)
    assert np.array_equal(a.maps, b.maps)


def test_coil_maps_rejects_denormalized():
    with pytest.raises(ConfigError):
        CoilMaps(maps=2.0 * make_coil_maps(2, (8, 8), 0).maps)


def test_coil_maps_rejects_nan():
    # NaN made the normalization test false, so such maps were accepted
    maps = make_coil_maps(2, (8, 8), 0).maps.copy()
    maps[1, 3, 4] = np.nan
    with pytest.raises(ConfigError, match="must be finite"):
        CoilMaps(maps=maps)


def test_operator_data_is_checked_once_at_construction():
    maps = make_coil_maps(2, (8, 8), 0)
    mask = np.ones((8, 8))
    mask[2, 2] = np.inf
    with pytest.raises(NumericalError, match="sense mask"):
        sense_operator(maps, mask)
    with pytest.raises(NumericalError, match="dense matrix"):
        matrix_operator(np.array([[1.0, np.nan]]))


# ---------------------------------------------------------------------------
# sense operator

def test_sense_single_coil_full_mask_is_fft():
    maps = CoilMaps(maps=np.ones((1, 8, 8), dtype=COMPLEX))
    mask = np.ones((8, 8))
    x = RngStream(0).randn((8, 8), dtype=COMPLEX)
    assert norm(sense_apply(x, maps, mask)[0] - fft2(x)) < 1e-13
    k = RngStream(1).randn((1, 8, 8), dtype=COMPLEX)
    assert norm(sense_adjoint(k, maps, mask) - ifft2(k[0])) < 1e-13
    a = sense_operator(maps, mask)
    assert norm(a.adjoint(a.apply(x)) - x) < 1e-12


def test_sense_zero_maps_to_zero():
    maps = make_coil_maps(3, (16, 16), 1)
    mask = make_mask(MaskSpec("uniform1d", 2, 0.1, 0), (16, 16))
    assert norm(sense_apply(np.zeros((16, 16), dtype=COMPLEX), maps, mask)) == 0.0
    assert norm(sense_adjoint(np.zeros((3, 16, 16), dtype=COMPLEX), maps, mask)) == 0.0


def test_sense_dot_test():
    maps = make_coil_maps(4, (16, 16), 2)
    mask = make_mask(MaskSpec("gaussian1d", 2, 0.1, 3), (16, 16))
    dot_test(sense_operator(maps, mask), RngStream(4), trials=20, tol=1e-10)


def test_sense_spectral_norm_below_one():
    maps = make_coil_maps(4, (32, 32), 5)
    mask = make_mask(MaskSpec("gaussian2d", 4, 0.08, 6), (32, 32))
    nop = normal_map(sense_operator(maps, mask))
    v = RngStream(8).randn((32, 32), dtype=COMPLEX)
    lam = 0.0
    for _ in range(200):
        w = nop.apply(v)
        lam = norm(w) / norm(v)
        v = w / norm(w)
    assert lam <= 1.0 + 1e-8


def test_sense_shape_validation():
    maps = make_coil_maps(2, (8, 8), 0)
    mask = np.ones((8, 8))
    with pytest.raises(ConfigError):
        sense_apply(np.zeros((4, 4), dtype=COMPLEX), maps, mask)
    with pytest.raises(ConfigError):
        sense_adjoint(np.zeros((3, 8, 8), dtype=COMPLEX), maps, mask)


# ---------------------------------------------------------------------------
# radon

def test_radon_zero_image():
    geom = RadonGeometry.uniform(16, 8)
    assert norm(radon_apply(np.zeros((16, 16)), geom)) == 0.0
    assert norm(radon_adjoint(np.zeros((8, 16)), geom)) == 0.0


def test_radon_disk_symmetry_on_lattice_symmetric_angles():
    # exact rotational symmetry is only available to the discretization on
    # the pixel lattice's own symmetry group {0, 90 deg}; generic angles see
    # O(h^2) interpolation anisotropy (checked at the percent level below)
    geom = RadonGeometry(side=32, angles=np.array([0.0, math.pi / 2]), detector_bins=32)
    yy, xx = np.mgrid[0:32, 0:32] - 15.5
    disk = np.exp(-(yy ** 2 + xx ** 2) / (2 * 4.0 ** 2))
    sino = radon_apply(disk, geom)
    assert np.max(np.abs(sino[0] - sino[1])) < 1e-6


def test_radon_disk_symmetry_generic_angles_percent_level():
    geom = RadonGeometry.uniform(32, 8)
    yy, xx = np.mgrid[0:32, 0:32] - 15.5
    disk = np.exp(-(yy ** 2 + xx ** 2) / (2 * 4.0 ** 2))
    sino = radon_apply(disk, geom)
    spread = np.max(np.abs(sino - sino[0][None, :]))
    assert spread <= 0.02 * sino.max()


def test_radon_dot_test():
    geom = RadonGeometry.uniform(16, 8)
    dot_test(radon_operator(geom), RngStream(0), trials=20, tol=1e-10)


def test_radon_matches_naive_matrix():
    geom = RadonGeometry.uniform(8, 6)
    mat = naive_radon_matrix(geom)
    op = radon_operator(geom)
    assert np.max(np.abs(op_to_matrix(op).real - mat)) < 1e-12
    assert np.max(np.abs(adjoint_to_matrix(op).real - mat.T)) < 1e-12


def test_radon_central_pixel_reading_matches_matrix_oracle():
    geom = RadonGeometry.uniform(16, 6)
    mat = naive_radon_matrix(geom)
    img = np.zeros((16, 16))
    img[8, 8] = 1.0
    sino = radon_apply(img, geom)
    for a in range(6):
        want = mat[a * 16 + 8, 8 * 16 + 8]
        assert abs(sino[a, 8] - want) < 1e-8


def test_slice_radon_operator_applies_per_slice():
    for geom, nz in ((RadonGeometry.uniform(8, 4), 3),
                     (RadonGeometry(side=9, angles=np.arange(5) * math.pi / 5,
                                    detector_bins=12, step=0.4), 4)):
        op = slice_radon_operator(geom, nz)
        vol = RngStream(2).randn((nz, geom.side, geom.side))
        sino = RngStream(7).randn((nz, len(geom.angles), geom.detector_bins))
        out, back = op.apply(vol), op.adjoint(sino)
        for z in range(nz):
            assert norm(out[z] - radon_apply(vol[z], geom)) < 1e-14
            assert norm(back[z] - radon_adjoint(sino[z], geom)) < 1e-14
        dot_test(op, RngStream(3), trials=10, tol=1e-10)


def test_radon_geometry_validation():
    with pytest.raises(ConfigError):
        RadonGeometry(side=8, angles=np.array([]), detector_bins=8)
    with pytest.raises(ConfigError):
        RadonGeometry(side=8, angles=np.array([0.3, 0.2]), detector_bins=8)
    for side, bins, step in ((0, 8, 0.5), (8, 0, 0.5), (8, 8, 0.0), (8, 8, -0.5)):
        with pytest.raises(ConfigError):
            RadonGeometry(side=side, angles=np.array([0.0]), detector_bins=bins, step=step)


# side, angles, detector bins, step: bins above and below the side (rows
# that miss the image, pixels no ray reaches), other steps, one angle, odd side
EXTRA_GEOMETRIES = [
    RadonGeometry(side=6, angles=np.arange(4) * math.pi / 4, detector_bins=15),
    RadonGeometry(side=8, angles=np.array([0.0, 0.3, math.pi / 2]), detector_bins=3),
    RadonGeometry(side=8, angles=np.arange(5) * math.pi / 5, detector_bins=8, step=0.37),
    RadonGeometry(side=7, angles=np.arange(4) * math.pi / 4, detector_bins=7, step=1.3),
    RadonGeometry(side=8, angles=np.array([0.4]), detector_bins=8),
    RadonGeometry(side=9, angles=np.arange(6) * math.pi / 6, detector_bins=9),
]


@pytest.mark.parametrize("geom", EXTRA_GEOMETRIES, ids=lambda g: (
    f"side{g.side}-a{len(g.angles)}-b{g.detector_bins}-step{g.step}"))
def test_radon_matrix_matches_naive_on_extra_geometries(geom):
    op = radon_operator(geom)
    dot_test(op, RngStream(5), trials=10, tol=1e-10)
    mat = naive_radon_matrix(geom)
    fwd = op_to_matrix(op).real
    assert np.max(np.abs(fwd - mat)) < 1e-12
    # the matrix read off the adjoint is the transpose of the forward's
    assert np.max(np.abs(adjoint_to_matrix(op).real - fwd.T)) <= 1e-14


def test_radon_matrix_extra_geometries_cover_empty_rows_and_columns():
    wide, narrow = (naive_radon_matrix(g) for g in EXTRA_GEOMETRIES[:2])
    assert np.any(~wide.any(axis=1))    # detector bins outside the image
    assert np.any(~narrow.any(axis=0))  # pixels between sparse rays


@pytest.mark.parametrize("geom", [RadonGeometry.uniform(8, 6)] + EXTRA_GEOMETRIES,
                         ids=lambda g: f"side{g.side}-a{len(g.angles)}-b{g.detector_bins}")
def test_radon_matrix_triplets_are_coalesced_in_row_order(geom):
    m = radon_matrix(geom)
    n_cols = geom.side * geom.side
    assert m.shape == (len(geom.angles) * geom.detector_bins, n_cols)
    key = m.rows * n_cols + m.cols
    assert np.all(np.diff(key) > 0)  # sorted by row, each (row, col) once
    assert np.all(m.weights > 0)
    assert np.array_equal(m.hit_rows, np.unique(m.rows))
    assert np.array_equal(m.rows[m.starts], m.hit_rows)
    assert m.nnz == np.count_nonzero(naive_radon_matrix(geom))


def test_radon_operator_holds_its_matrix():
    geom = RadonGeometry.uniform(32, 12)
    op = radon_operator(geom)
    assert op.matrix.nnz == 25623
    assert slice_radon_operator(geom, 2).matrix.nnz == op.matrix.nnz


def test_radon_apply_batches_leading_axes():
    geom = RadonGeometry(side=7, angles=np.arange(3) * math.pi / 3, detector_bins=10)
    mat = radon_matrix(geom)
    vol = RngStream(4).randn((2, 3, 7, 7))
    sino = radon_apply(vol, geom, mat)
    assert sino.shape == (2, 3, 3, 10)
    back = radon_adjoint(sino, geom, mat)
    assert back.shape == vol.shape
    for i in range(2):
        for z in range(3):
            assert np.array_equal(sino[i, z], radon_apply(vol[i, z], geom))
            assert np.array_equal(back[i, z], radon_adjoint(sino[i, z], geom))
    with pytest.raises(ConfigError):
        radon_apply(np.zeros((3, 8, 7)), geom, mat)
    with pytest.raises(ConfigError):
        radon_adjoint(np.zeros((10, 3)), geom, mat)


def test_slice_radon_operator_calls_module_level_kernels_once_per_volume(monkeypatch):
    # span tracers wrap dds.operators.radon_apply/radon_adjoint; a volume
    # apply must reach them, once, with the operator's prebuilt matrix
    import dds.operators as ops
    calls = []

    def spy(fn):
        def wrapped(data, geom, matrix=None):
            calls.append((fn.__name__, data.shape, matrix is not None))
            return fn(data, geom, matrix)
        return wrapped

    op = slice_radon_operator(RadonGeometry.uniform(8, 4), 3)
    monkeypatch.setattr(ops, "radon_apply", spy(ops.radon_apply))
    monkeypatch.setattr(ops, "radon_adjoint", spy(ops.radon_adjoint))
    op.adjoint(op.apply(np.ones((3, 8, 8))))
    assert calls == [("radon_apply", (3, 8, 8), True), ("radon_adjoint", (3, 4, 8), True)]


# ---------------------------------------------------------------------------
# z finite differences

def test_diff_z_constant_volume():
    v = np.ones((4, 3, 3))
    assert norm(diff_z_apply(v)) == 0.0


def test_diff_z_linear_ramp():
    z = np.arange(5.0)[:, None, None] * np.ones((1, 2, 2))
    d = diff_z_apply(z)
    assert np.all(d[:-1] == 1.0)
    assert np.all(d[-1] == 0.0)


def test_diff_z_dot_test():
    dot_test(diff_z_operator((5, 4, 4)), RngStream(1), trials=20, tol=1e-12)


def test_diff_z_matches_dense_transpose():
    op = diff_z_operator((4, 2, 2))
    m = op_to_matrix(op).real
    mt = adjoint_to_matrix(op).real
    assert np.max(np.abs(mt - m.T)) < 1e-12


def test_diff_z_needs_two_slices():
    with pytest.raises(ConfigError):
        diff_z_apply(np.zeros((1, 4, 4)))


# ---------------------------------------------------------------------------
# generic operator invariants

def test_normal_operator_selfadjoint_psd():
    rng = RngStream(6)
    m = rng.randn((12, 8), dtype=COMPLEX)
    nop = normal_map(matrix_operator(m))
    for _ in range(10):
        x = rng.randn((8,), dtype=COMPLEX)
        z = rng.randn((8,), dtype=COMPLEX)
        quad = np.vdot(x, nop.apply(x))
        assert quad.real >= -1e-12
        assert abs(quad.imag) <= 1e-12 * abs(quad.real + 1e-30)
        lhs = np.vdot(z, nop.apply(x))
        rhs = np.conj(np.vdot(x, nop.apply(z)))
        assert abs(lhs - rhs) <= 1e-10 * (norm(x) * norm(z))


def test_dense_matrix_operator_roundtrip():
    m = RngStream(7).randn((6, 6))
    op = matrix_operator(m)
    x = RngStream(8).randn((6,))
    assert np.allclose(op.apply(x), m @ x)
    assert np.allclose(op.adjoint(x), m.T @ x)
