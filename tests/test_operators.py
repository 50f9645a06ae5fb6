import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dds.errors import ConfigError, NumericalError
from dds.operators import (
    LinearMap,
    MaskSpec,
    RadonGeometry,
    _acs_square,
    diff_z_apply,
    diff_z_operator,
    make_coil_maps,
    make_mask,
    matrix_operator,
    radon_adjoint,
    radon_apply,
    radon_matrix,
    radon_operator,
    sense_operator,
    sense_plan,
    slice_radon_operator,
)
from dds.tensor import COMPLEX, REAL, RngStream, fft2, ifft2, norm
from oracles import dot_test


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
# 32x32 acc-4 ACS-0.08 seed-3 poisson-disk-vd mask is the mri2d-pinv benchmark
# workload's, the 64x64 gaussian1d one with the same settings mri2d-dds's
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
    ("gaussian1d", (16, 16), 4, 0.08, 3, "11a16b2ad788d76681e6bfb26468cf2b209d6a6f34488aada953261a935a5cbc"),
    ("gaussian1d", (24, 40), 2.5, 0.2, 7, "eefa9b10ff00fc5dc57829435225031fec70cb82f95a912f11a8ac27631b0ade"),
    ("gaussian1d", (8, 32), 8, 0.0, 0, "d41629ebc26f9555db78172378887d9b74a6f8f79d88a5644b334cad79c93332"),
    ("gaussian1d", (64, 64), 4, 0.08, 3, "79804f2013ede55088f73f4f37aa5b17963f8a4b528e6ee002262904557d9075"),
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
    assert np.max(np.abs(np.abs(maps[0]) - 1.0)) < 1e-12


def test_coil_maps_normalized():
    maps = make_coil_maps(4, (32, 32), seed=7)
    ssq = np.sum(np.abs(maps) ** 2, axis=0)
    assert np.max(np.abs(ssq - 1.0)) < 1e-10


def test_coil_maps_reproducible():
    a = make_coil_maps(4, (16, 16), seed=3)
    b = make_coil_maps(4, (16, 16), seed=3)
    assert np.array_equal(a, b)


def test_coil_maps_rejects_denormalized():
    with pytest.raises(ConfigError, match="normalized"):
        sense_operator(2.0 * make_coil_maps(2, (8, 8), 0), np.ones((8, 8)))


def test_coil_maps_rejects_nan():
    # NaN made the normalization test false, so such maps were accepted
    maps = make_coil_maps(2, (8, 8), 0)
    maps[1, 3, 4] = np.nan
    with pytest.raises(ConfigError, match="must be finite"):
        sense_operator(maps, np.ones((8, 8)))


def test_coil_maps_rejects_unstacked():
    with pytest.raises(ConfigError, match="stacked"):
        sense_operator(make_coil_maps(1, (8, 8), 0)[0], np.ones((8, 8)))


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
    maps = np.ones((1, 8, 8), dtype=COMPLEX)
    mask = np.ones((8, 8))
    a = sense_operator(maps, mask)
    e = a.embedding
    x = RngStream(0).randn((8, 8), dtype=COMPLEX)
    assert norm(e.apply(a.apply(x))[0] - fft2(x)) < 1e-13
    k = RngStream(1).randn((1, 8, 8), dtype=COMPLEX)
    assert norm(a.adjoint(e.adjoint(k)) - ifft2(k[0])) < 1e-13
    assert norm(a.adjoint(a.apply(x)) - x) < 1e-12


def test_sense_zero_maps_to_zero():
    maps = make_coil_maps(3, (16, 16), 1)
    op = sense_operator(maps, make_mask(MaskSpec("uniform1d", 2, 0.1, 0), (16, 16)))
    assert norm(op.apply(np.zeros((16, 16), dtype=COMPLEX))) == 0.0
    assert norm(op.adjoint(np.zeros(op.range_shape, dtype=COMPLEX))) == 0.0


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
    op = sense_operator(make_coil_maps(2, (8, 8), 0), np.ones((8, 8)))
    with pytest.raises(ConfigError):
        op.apply(np.zeros((4, 4), dtype=COMPLEX))
    with pytest.raises(ConfigError):
        op.adjoint(np.zeros((3, 8, 8), dtype=COMPLEX))


def fft2_sense(x, k, maps, mask):
    """The 2-D FFT formulas of SENSE apply and adjoint."""
    return (mask[None] * fft2(maps * x[None]),
            np.sum(np.conj(maps) * ifft2(mask[None] * k), axis=0))


def dense_sense(maps, mask):
    """mask * (F_H kron F_W) * diag(maps), stacked over coils, from DFT matrices."""
    h, w = mask.shape
    f = np.kron(*(np.fft.fft(np.eye(n), norm="ortho") for n in (h, w)))
    return np.concatenate([mask.reshape(-1, 1) * f * s.reshape(1, -1) for s in maps])


def relative(a, b):
    return norm(a - b) / norm(b)


COLUMN_MASKS = [("uniform1d", 4), ("gaussian1d", 4), ("gaussian1d", 8)]


@pytest.mark.parametrize("kind, acc", COLUMN_MASKS)
@pytest.mark.parametrize("side", [16, 32])
@pytest.mark.parametrize("coils", [1, 4])
def test_sense_column_path_matches_fft2_and_dense(kind, acc, side, coils):
    maps = make_coil_maps(coils, (side, side), 7)
    mask = make_mask(MaskSpec(kind, acc, 0.08, 9), (side, side))
    plan = sense_plan(maps, mask)
    assert plan.dft is not None and 3 * plan.support.size <= side
    x = RngStream(1).randn((side, side), dtype=COMPLEX)
    k = RngStream(2).randn((coils, side, side), dtype=COMPLEX)
    ref_k, ref_x = fft2_sense(x, k, maps, mask)
    op = sense_operator(maps, mask)
    assert relative(op.embedding.apply(op.apply(x)), ref_k) <= 1e-12
    assert relative(op.adjoint(op.embedding.adjoint(k)), ref_x) <= 1e-12
    dot_test(op, RngStream(3), trials=10, tol=1e-10)
    if side == 16:
        # the range is hybrid data; E takes it back to the k-space dense_sense holds
        dense = dense_sense(maps, mask)
        assert relative(op_to_matrix(op.embedding) @ op_to_matrix(op), dense) <= 1e-12
        assert relative(adjoint_to_matrix(op) @ adjoint_to_matrix(op.embedding),
                        dense.conj().T) <= 1e-12


def hybrid_rows(dense, maps, cols):
    """The rows of a dense k-space operator in hybrid space at ``cols``: F_y* along k_y."""
    c, h, w = maps.shape
    fy_inv = np.fft.ifft(np.eye(h), norm="ortho")
    rows = np.einsum("ij,cjwd->ciwd", fy_inv, dense.reshape(c, h, w, -1))
    return rows[:, :, cols].reshape(c * h * len(cols), -1)


def check_measured_range(maps, mask, rng):
    """The operator's range holds the measured entries, and E maps them to k-space.

    Checks that the range has coils * nnz(mask) entries, dot-tests the
    operator and its embedding E, checks E*E = I, and that E(A x) and
    A*(E* k) are the 2-D FFT formulas.
    """
    op = sense_operator(maps, mask)
    e = op.embedding
    assert math.prod(op.range_shape) == len(maps) * np.count_nonzero(mask)
    assert (e.domain_shape, e.range_shape) == (op.range_shape, (len(maps),) + mask.shape)
    dot_test(op, rng, trials=3, tol=1e-10)
    dot_test(e, rng, trials=3, tol=1e-10)
    v = rng.randn(op.range_shape, dtype=COMPLEX)
    assert relative(e.adjoint(e.apply(v)), v) <= 1e-12
    x = rng.randn(mask.shape, dtype=COMPLEX)
    k = rng.randn(e.range_shape, dtype=COMPLEX)
    ref_k, ref_x = fft2_sense(x, k, maps, mask)
    assert relative(e.apply(op.apply(x)), ref_k) <= 1e-12
    assert relative(op.adjoint(e.adjoint(k)), ref_x) <= 1e-12
    return op


def check_compact_range(maps, mask, rng, dense=False):
    """The column-mask operator's range is hybrid data at the sampled columns.

    Runs check_measured_range; with ``dense``, the operator also matches the
    hybrid-space rows of dense_sense.
    """
    op = check_measured_range(maps, mask, rng)
    cols = sense_plan(maps, mask).support
    assert op.range_shape == (len(maps), mask.shape[0], cols.size)
    if dense:
        rows = hybrid_rows(dense_sense(maps, mask), maps, cols)
        assert relative(op_to_matrix(op), rows) <= 1e-12
        assert relative(adjoint_to_matrix(op), rows.conj().T) <= 1e-12


@pytest.mark.parametrize("kind, acc", COLUMN_MASKS)
@pytest.mark.parametrize("side", [16, 32])
@pytest.mark.parametrize("coils", [1, 4])
def test_sense_column_mask_range_is_hybrid_data(kind, acc, side, coils):
    maps = make_coil_maps(coils, (side, side), 7)
    mask = make_mask(MaskSpec(kind, acc, 0.08, 9), (side, side))
    check_compact_range(maps, mask, RngStream(4), dense=side == 16)


def test_sense_embedding_keeps_measured_entries_only():
    # E zero-fills the unsampled columns, and E* drops them
    maps = make_coil_maps(2, (16, 16), 3)
    mask = make_mask(MaskSpec("gaussian1d", 4, 0.08, 1), (16, 16))
    e = sense_operator(maps, mask).embedding
    k = e.apply(RngStream(5).randn(e.domain_shape, dtype=COMPLEX))
    assert np.all(k[:, :, mask[0] == 0] == 0)
    off = RngStream(6).randn(e.range_shape, dtype=COMPLEX) * (mask == 0)
    assert norm(e.adjoint(off)) == 0.0


@pytest.mark.parametrize("kind, acc", [("gaussian2d", 4), ("uniform1d", 2)])
def test_sense_2d_path_embedding_scatters_and_gathers(kind, acc):
    # the range is the sampled entries (c, nnz); E zero-fills k-space off
    # the support and E* gathers the support back, so E*E = I exactly
    maps = make_coil_maps(3, (16, 16), 4)
    mask = make_mask(MaskSpec(kind, acc, 0.08, 5), (16, 16))
    support = np.flatnonzero(mask)
    e = sense_operator(maps, mask).embedding
    assert e.domain_shape == (3, support.size) and e.range_shape == (3, 16, 16)
    v = RngStream(8).randn(e.domain_shape, dtype=COMPLEX)
    k = e.apply(v)
    ref = np.zeros((3, 16 * 16), dtype=COMPLEX)
    ref[:, support] = v
    assert np.array_equal(k, ref.reshape(3, 16, 16))
    assert np.all(k[:, mask == 0] == 0)
    assert np.array_equal(e.adjoint(k), v)
    # each call returns its own array
    k[:] = 0
    assert np.array_equal(e.apply(v), ref.reshape(3, 16, 16))
    k = RngStream(9).randn(e.range_shape, dtype=COMPLEX)
    assert np.array_equal(e.adjoint(k), k.reshape(3, -1)[:, support])


@pytest.mark.parametrize("kind, acc", [("gaussian2d", 4), ("uniform1d", 4)])
def test_sense_operator_holds_its_plan(kind, acc):
    # the operator holds the mask and maps it was planned from, and one
    # support index: every coil's flat (c*H*W) entries on a 2-D mask, the
    # sampled columns on a column mask
    maps = make_coil_maps(3, (16, 16), 4)
    mask = make_mask(MaskSpec(kind, acc, 0.08, 5), (16, 16))
    plan = sense_operator(maps, mask).plan
    assert plan.maps is maps and np.array_equal(plan.mask, mask)
    assert plan.mask.dtype == REAL
    if plan.dft is None:
        assert np.array_equal(plan.support, np.flatnonzero(np.stack([mask] * 3)))
    else:
        assert kind == "uniform1d"
        assert np.array_equal(plan.support, np.flatnonzero(mask[0]))
    assert [f.name for f in dataclasses.fields(plan)] == [
        "maps", "conj_maps", "mask", "support", "range_shape", "dft", "idft"]


@pytest.mark.parametrize("kind, acc", [("gaussian2d", 4), ("poisson-disk-vd", 4),
                                       ("uniform1d", 1), ("uniform1d", 2),
                                       ("gaussian1d", 2), ("uniform1d", 3)])
def test_sense_other_masks_keep_the_fft2_formula(kind, acc):
    # above W/3 columns, and for point masks, the full 2-D FFT is the faster path
    maps = make_coil_maps(3, (32, 32), 4)
    mask = make_mask(MaskSpec(kind, acc, 0.08, 5), (32, 32))
    assert sense_plan(maps, mask).dft is None
    x = RngStream(6).randn((32, 32), dtype=COMPLEX)
    k = RngStream(7).randn((3, 32, 32), dtype=COMPLEX)
    ref_k, ref_x = fft2_sense(x, k, maps, mask)
    op = sense_operator(maps, mask)
    assert np.array_equal(op.embedding.apply(op.apply(x)), ref_k)
    assert np.array_equal(op.adjoint(op.embedding.adjoint(k)), ref_x)


@settings(max_examples=30, deadline=None)
@given(log_h=st.integers(2, 6), log_w=st.integers(2, 6), coils=st.integers(1, 4),
       seed=st.integers(0, 2**16), data=st.data())
def test_sense_column_path_on_random_column_subsets(log_h, log_w, coils, seed, data):
    h, w = 2 ** log_h, 2 ** log_w
    cols = data.draw(st.lists(st.integers(0, w - 1), min_size=1, max_size=w // 3,
                              unique=True))
    mask = np.zeros((h, w))
    mask[:, cols] = 1.0
    maps = make_coil_maps(coils, (h, w), seed)
    plan = sense_plan(maps, mask)
    assert np.array_equal(plan.support, np.sort(cols))
    check_compact_range(maps, mask, RngStream(seed), dense=h * w <= 256)


@settings(max_examples=30, deadline=None)
@given(log_h=st.integers(2, 6), log_w=st.integers(2, 6), coils=st.integers(1, 4),
       seed=st.integers(0, 2**16), density=st.floats(0.0, 1.0), data=st.data())
def test_sense_on_random_2d_masks(log_h, log_w, coils, seed, density, data):
    h, w = 2 ** log_h, 2 ** log_w
    mask = (np.random.default_rng(seed).random((h, w)) < density).astype(float)
    mask.flat[data.draw(st.integers(0, h * w - 1))] = 1.0  # at least one sample
    check_measured_range(make_coil_maps(coils, (h, w), seed), mask, RngStream(seed))


@pytest.mark.parametrize("weight", [0.5, 2.0, -1.0])
@pytest.mark.parametrize("kind", ["uniform1d", "gaussian2d"])
def test_sense_rejects_weighted_masks(kind, weight):
    mask = make_mask(MaskSpec(kind, 4, 0.08, 1), (16, 16))
    with pytest.raises(ConfigError, match="only 0 and 1"):
        sense_operator(make_coil_maps(2, (16, 16), 0), np.where(mask != 0, weight, 0.0))


@pytest.mark.parametrize("shape, kind, acc", [((12, 16), "uniform1d", 4),
                                              ((16, 12), "uniform1d", 4),
                                              ((16, 24), "gaussian2d", 4),
                                              ((12, 12), "uniform1d", 1)])
def test_sense_rejects_non_power_of_two_images(shape, kind, acc):
    maps = make_coil_maps(2, shape, 0)
    mask = make_mask(MaskSpec(kind, acc, 0.08, 1), shape)
    with pytest.raises(ConfigError, match="power-of-two"):
        sense_operator(maps, mask)
    with pytest.raises(ConfigError, match="power-of-two"):
        sense_plan(maps, mask)


# ---------------------------------------------------------------------------
# radon

def test_radon_zero_image():
    mat = radon_matrix(RadonGeometry.uniform(16, 8))
    assert norm(radon_apply(np.zeros((16, 16)), mat)) == 0.0
    assert norm(radon_adjoint(np.zeros((8, 16)), mat)) == 0.0


def test_radon_disk_symmetry_on_lattice_symmetric_angles():
    # exact rotational symmetry is only available to the discretization on
    # the pixel lattice's own symmetry group {0, 90 deg}; generic angles see
    # O(h^2) interpolation anisotropy (checked at the percent level below)
    geom = RadonGeometry(side=32, angles=np.array([0.0, math.pi / 2]), detector_bins=32)
    yy, xx = np.mgrid[0:32, 0:32] - 15.5
    disk = np.exp(-(yy ** 2 + xx ** 2) / (2 * 4.0 ** 2))
    sino = radon_apply(disk, radon_matrix(geom))
    assert np.max(np.abs(sino[0] - sino[1])) < 1e-6


def test_radon_disk_symmetry_generic_angles_percent_level():
    geom = RadonGeometry.uniform(32, 8)
    yy, xx = np.mgrid[0:32, 0:32] - 15.5
    disk = np.exp(-(yy ** 2 + xx ** 2) / (2 * 4.0 ** 2))
    sino = radon_apply(disk, radon_matrix(geom))
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
    sino = radon_apply(img, radon_matrix(geom))
    for a in range(6):
        want = mat[a * 16 + 8, 8 * 16 + 8]
        assert abs(sino[a, 8] - want) < 1e-8


def test_slice_radon_operator_applies_per_slice():
    for geom, nz in ((RadonGeometry.uniform(8, 4), 3),
                     (RadonGeometry(side=9, angles=np.arange(5) * math.pi / 5,
                                    detector_bins=12, step=0.4), 4)):
        op, single = slice_radon_operator(geom, nz), radon_operator(geom)
        vol = RngStream(2).randn((nz, geom.side, geom.side))
        sino = RngStream(7).randn((nz, len(geom.angles), geom.detector_bins))
        out, back = op.apply(vol), op.adjoint(sino)
        for z in range(nz):
            assert norm(out[z] - single.apply(vol[z])) < 1e-14
            assert norm(back[z] - single.adjoint(sino[z])) < 1e-14
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


def triplet_rows(m):
    """The row of each triplet, rebuilt from the run lengths."""
    return np.repeat(np.arange(m.shape[0]), m.row_counts)


@pytest.mark.parametrize("geom", [RadonGeometry.uniform(8, 6)] + EXTRA_GEOMETRIES,
                         ids=lambda g: f"side{g.side}-a{len(g.angles)}-b{g.detector_bins}")
def test_radon_matrix_triplets_are_coalesced_in_row_order(geom):
    m = radon_matrix(geom)
    n_rows, n_cols = len(geom.angles) * geom.detector_bins, geom.side * geom.side
    assert m.shape == (n_rows, n_cols)
    assert m.row_counts.shape == (n_rows,) and m.row_counts.sum() == m.cols.size
    rows = triplet_rows(m)
    key = rows * n_cols + m.cols
    assert np.all(np.diff(key) > 0)  # sorted by row, each (row, col) once
    assert np.all(m.weights > 0)
    # radon_apply's take(mode="clip") relies on every col being in range
    assert np.all((m.cols >= 0) & (m.cols < n_cols))
    assert np.array_equal(m.hit_rows, np.unique(rows))
    assert np.array_equal(rows[m.starts], m.hit_rows)
    assert m.weights.size == np.count_nonzero(naive_radon_matrix(geom))


@pytest.mark.parametrize("geom", [RadonGeometry.uniform(8, 6)] + EXTRA_GEOMETRIES,
                         ids=lambda g: f"side{g.side}-a{len(g.angles)}-b{g.detector_bins}")
def test_radon_kernels_equal_the_triplet_formulas(geom):
    # the scratch buffer and the run-length row gather keep every byte of
    # the plain per-slice gather, product, reduceat and bincount
    m = radon_matrix(geom)
    n_rows, n_cols = m.shape
    rows = triplet_rows(m)
    vol = RngStream(11).randn((2, 3) + m.image_shape)
    sino = RngStream(12).randn((2, 3) + m.sino_shape)
    want_out = np.zeros((6, n_rows))
    want_back = np.empty((6, n_cols))
    for x, y, o, b in zip(vol.reshape(6, -1), sino.reshape(6, -1), want_out, want_back):
        o[m.hit_rows] = np.add.reduceat(x.take(m.cols) * m.weights, m.starts)
        b[:] = np.bincount(m.cols, weights=y.take(rows) * m.weights, minlength=n_cols)
    assert np.array_equal(radon_apply(vol, m), want_out.reshape(sino.shape))
    assert np.array_equal(radon_adjoint(sino, m), want_back.reshape(vol.shape))
    assert np.array_equal(radon_apply(vol[1, 2], m), want_out[5].reshape(m.sino_shape))
    assert np.array_equal(radon_adjoint(sino[1, 2], m), want_back[5].reshape(m.image_shape))


def test_radon_operator_holds_its_matrix():
    geom = RadonGeometry.uniform(32, 12)
    op = radon_operator(geom)
    assert op.matrix.weights.size == 25623
    assert slice_radon_operator(geom, 2).matrix.weights.size == op.matrix.weights.size


def test_radon_embedding_is_the_identity():
    op = slice_radon_operator(RadonGeometry.uniform(8, 4), 2)
    s = RngStream(3).randn(op.range_shape)
    assert op.embedding.range_shape == op.range_shape
    assert np.array_equal(op.embedding.apply(s), s)
    assert np.array_equal(op.embedding.adjoint(s), s)


def test_radon_apply_batches_leading_axes():
    geom = RadonGeometry(side=7, angles=np.arange(3) * math.pi / 3, detector_bins=10)
    mat = radon_matrix(geom)
    assert (mat.image_shape, mat.sino_shape) == ((7, 7), (3, 10))
    vol = RngStream(4).randn((2, 3, 7, 7))
    sino = radon_apply(vol, mat)
    assert sino.shape == (2, 3, 3, 10)
    back = radon_adjoint(sino, mat)
    assert back.shape == vol.shape
    for i in range(2):
        for z in range(3):
            assert np.array_equal(sino[i, z], radon_apply(vol[i, z], mat))
            assert np.array_equal(back[i, z], radon_adjoint(sino[i, z], mat))
    # the kernels trust their callers; the operator checks shapes
    op = slice_radon_operator(geom, 3)
    with pytest.raises(ConfigError):
        op.apply(np.zeros((3, 8, 7)))
    with pytest.raises(ConfigError):
        op.adjoint(np.zeros((10, 3)))


@settings(max_examples=25, deadline=None)
@given(side=st.integers(1, 16), bins=st.integers(1, 24), step=st.floats(0.2, 1.5),
       angles=st.lists(st.floats(0.0, math.pi, exclude_max=True), min_size=1, max_size=8,
                       unique=True),
       slices=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_radon_on_random_geometries(side, bins, step, angles, slices, seed):
    # dot-tests the 2-D operator (no slices) or the slice-wise one, whose
    # batch must equal its slices run one at a time
    geom = RadonGeometry(side=side, angles=np.sort(angles), detector_bins=bins, step=step)
    op = slice_radon_operator(geom, slices) if slices else radon_operator(geom)
    dot_test(op, RngStream(seed), trials=3, tol=1e-10)
    if slices:
        vol = RngStream(seed + 1).randn(op.domain_shape)
        sino = RngStream(seed + 2).randn(op.range_shape)
        out, back = radon_apply(vol, op.matrix), radon_adjoint(sino, op.matrix)
        for z in range(slices):
            assert np.array_equal(out[z], radon_apply(vol[z], op.matrix))
            assert np.array_equal(back[z], radon_adjoint(sino[z], op.matrix))


def test_slice_radon_operator_calls_module_level_kernels_once_per_volume(monkeypatch):
    # span tracers wrap dds.operators.radon_apply/radon_adjoint; a volume
    # apply must reach them, once, with the operator's prebuilt matrix
    import dds.operators as ops
    calls = []

    def spy(fn):
        def wrapped(data, matrix):
            calls.append((fn.__name__, data.shape, matrix is op.matrix))
            return fn(data, matrix)
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
    for shape in ((1, 4, 4), (4, 4)):
        with pytest.raises(ConfigError, match="at least 2 slices"):
            diff_z_operator(shape)


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
