import math

import numpy as np
import pytest

from dds.diffusion import smooth_random_field
from dds.errors import ConfigError
from dds.tensor import COMPLEX, REAL, RngStream, fft1, fft2, ifft1, ifft2, norm


def test_fft_delta_is_constant():
    d = np.zeros((4, 4), dtype=COMPLEX)
    d[0, 0] = 1.0
    out = fft2(d)
    assert np.max(np.abs(out - 0.25)) < 1e-14


def test_fft_roundtrip_identity():
    rng = RngStream(1)
    x = rng.randn((8, 8), dtype=COMPLEX)
    back = ifft2(fft2(x))
    assert norm(back - x) <= 1e-12 * norm(x)


def test_fft_parseval():
    rng = RngStream(2)
    x = rng.randn((8, 8), dtype=COMPLEX)
    assert abs(norm(fft2(x)) - norm(x)) <= 1e-12 * norm(x)


def test_fft_rejects_non_pow2():
    # the FFTs check nothing per call; a smoothed field's shape is checked
    # where it enters, as sense_plan checks the SENSE image sides
    for shape in ((6, 8), (24, 24)):
        with pytest.raises(ConfigError, match="power-of-two"):
            smooth_random_field(RngStream(0), shape, 2.0)


def test_fft_batched_axes():
    rng = RngStream(3)
    x = rng.randn((3, 8, 8), dtype=COMPLEX)
    stacked = fft2(x)
    for i in range(3):
        assert norm(stacked[i] - fft2(x[i])) < 1e-13


@pytest.mark.parametrize("shape, transpose", [
    ((4, 16, 8), False), ((32, 32), False),
    ((12, 32), True),  # a non-contiguous view, (32, 12)
    ((3, 12, 12), False), ((5, 1, 8), False),
], ids=["chw", "hw", "transposed", "lanes-12", "lanes-1"])
@pytest.mark.parametrize("dtype", [REAL, COMPLEX], ids=["real", "complex"])
def test_fft_passes_match_numpy_2d_bit_for_bit(shape, transpose, dtype):
    # the helpers call the pocketfft gufuncs that np.fft.fft/ifft end in,
    # fft2/ifft2 as np.fft.fft2's two passes (axis -1, then -2); the gufunc
    # module is private to numpy, so a release that moves its bytes fails here
    x = RngStream(4).randn(shape, dtype=dtype)
    x = x.T if transpose else x
    before = x.tobytes()
    cases = ((fft2, lambda v: np.fft.fft2(v, norm="ortho")),
             (ifft2, lambda v: np.fft.ifft2(v, norm="ortho")),
             (lambda v: fft1(v, axis=-2), lambda v: np.fft.fft(v, axis=-2, norm="ortho")),
             (lambda v: ifft1(v, axis=-2), lambda v: np.fft.ifft(v, axis=-2, norm="ortho")))
    for ours, numpys in cases:
        got, want = ours(x), numpys(x)
        assert got.dtype == want.dtype == COMPLEX
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # a new array each call; the in-place second pass writes only it
        assert not np.shares_memory(got, x)
        assert x.tobytes() == before


def test_randn_deterministic_for_equal_seeds():
    a = RngStream(0).randn((4,))
    b = RngStream(0).randn((4,))
    assert np.array_equal(a, b)


def test_randn_long_sequences_match():
    a, b = RngStream(7), RngStream(7)
    for _ in range(10):
        assert np.array_equal(a.randn((10_000,)), b.randn((10_000,)))


def test_randn_law_of_large_numbers():
    # 1e6 draws: the 3-sigma band of the mean/variance estimators is well
    # inside the 0.01 tolerance
    z = RngStream(123).randn((1_000_000,))
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.var()) - 1.0) < 0.01


def test_randn_complex_unit_power():
    z = RngStream(5).randn((1_000_000,), dtype=COMPLEX)
    assert abs(float(np.mean(np.abs(z) ** 2)) - 1.0) < 0.01


def test_randn_draw_order():
    # real draws fill row-major; a complex draw takes a real block, then an
    # imaginary block, each divided by sqrt(2)
    rng, gen = RngStream(0), np.random.Generator(np.random.PCG64(0))
    assert np.array_equal(rng.randn((4, 4)), gen.standard_normal(16).reshape(4, 4))
    re, im = gen.standard_normal(3), gen.standard_normal(3)
    assert np.array_equal(rng.randn((3,), dtype=COMPLEX), (re + 1j * im) / math.sqrt(2.0))
    assert np.array_equal(rng.randn(5), gen.standard_normal(5))


def test_child_streams_are_stable_and_distinct():
    r = RngStream(42)
    c0, c0b, c1 = r.child(0), r.child(0), r.child(1)
    assert c0.seed == c0b.seed != c1.seed
    assert np.array_equal(c0.randn((8,)), c0b.randn((8,)))
