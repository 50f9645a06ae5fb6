"""Dense tensor core: dtype policy, unitary 1-D and 2-D FFTs, seeded Gaussian streams.

Signals are plain numpy arrays restricted to float64 / complex128. The
FFTs check nothing per call: the power-of-two sides they are restricted to
are checked once, where a shape enters (``sense_plan``,
``smooth_random_field``). ``check_finite`` runs where data enters or leaves
a run (files, operator data, CSV rows), and the sampler checks its residual
once per step, where a run can diverge.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericalError

REAL = np.float64
COMPLEX = np.complex128


def check_finite(x: np.ndarray, context: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"non-finite values in {context}")
    return x


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def fft2(x: np.ndarray) -> np.ndarray:
    """Unitary 2-D FFT over the last two axes (norm split as 1/sqrt(HW)).

    The two 1-D passes that ``np.fft.fft2`` runs, axis -1 then axis -2, so
    its output bit for bit without its N-d argument handling.
    """
    k = np.fft.fft(np.asarray(x, dtype=COMPLEX), axis=-1, norm="ortho")
    return np.fft.fft(k, axis=-2, norm="ortho")


def ifft2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2`; also unitary, and ``np.fft.ifft2``'s passes."""
    k = np.fft.ifft(np.asarray(x, dtype=COMPLEX), axis=-1, norm="ortho")
    return np.fft.ifft(k, axis=-2, norm="ortho")


def fft1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unitary 1-D FFT along ``axis`` (norm 1/sqrt(n))."""
    return np.fft.fft(np.asarray(x, dtype=COMPLEX), axis=axis, norm="ortho")


def ifft1(x: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of :func:`fft1`; also unitary."""
    return np.fft.ifft(np.asarray(x, dtype=COMPLEX), axis=axis, norm="ortho")


def norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x).ravel()))


class RngStream:
    """Deterministic Gaussian stream with a draw counter.

    Backed by PCG64 + numpy's ziggurat ``standard_normal``; a fixed seed
    replays the exact draw sequence. Draw order is documented so traces are
    replayable: real draws fill row-major; complex draws consume one real
    block then one imaginary block, each N(0, 1/2) so E|z|^2 = 1. The
    ``uniform`` helper maps one Gaussian draw through the normal CDF.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed} must be >= 0")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self.draws = 0

    def randn(self, shape, dtype=REAL) -> np.ndarray:
        shape = (shape,) if np.isscalar(shape) else tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ConfigError(f"randn: invalid shape {shape}")
        n = math.prod(shape)
        dtype = np.dtype(dtype)
        if dtype == COMPLEX:
            re = self._gen.standard_normal(n)
            im = self._gen.standard_normal(n)
            self.draws += 2 * n
            out = ((re + 1j * im) / math.sqrt(2.0)).reshape(shape)
        elif dtype == REAL:
            out = self._gen.standard_normal(n).reshape(shape)
            self.draws += n
        else:
            raise ConfigError(f"randn: unsupported dtype {dtype}")
        return out

    def uniform(self) -> float:
        """One U(0,1) variate via the normal CDF of a single Gaussian draw."""
        z = self._gen.standard_normal()
        self.draws += 1
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def child(self, index: int) -> "RngStream":
        """Independent stream derived deterministically from (seed, index)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(index),))
        derived = int(ss.generate_state(1, dtype=np.uint64)[0])
        return RngStream(derived)
