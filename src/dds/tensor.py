"""Dense tensor core: dtype policy, unitary 1-D and 2-D FFTs, seeded Gaussian streams.

Signals are plain numpy arrays restricted to float64 / complex128. The
FFTs call the pocketfft gufuncs that ``np.fft.fft``/``ifft`` end in
(``numpy.fft._pocketfft_umath``, numpy >= 2.0), skipping the per-call
dtype, norm and axis handling of that wrapper, about a quarter of a
(4, 32, 32) transform. The gufunc module is private to numpy, so
``tests/test_tensor.py`` checks every helper against numpy's
``norm="ortho"`` transform bit for bit. The FFTs check nothing per call:
the power-of-two sides they are restricted to are checked once, where a
shape enters (``sense_plan``, ``smooth_random_field``). ``check_finite``
runs where data enters or leaves a run (files, operator data, CSV rows),
and the sampler checks its residual once per step, where a run can diverge.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import ConfigError, NumericalError

REAL = np.float64
COMPLEX = np.complex128


def check_finite(x: np.ndarray, context: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"non-finite values in {context}")
    return x


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _pass(ufunc, x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """One unitary 1-D pass of pocketfft's ``ufunc`` along ``axis`` of complex ``x``.

    What ``np.fft.fft``/``ifft`` with ``norm="ortho"`` run after their Python
    wrapper: the same gufunc with the factor 1/sqrt(n), which equals numpy's
    ``reciprocal(sqrt(n))`` bit for bit. ``out=None`` writes a fresh array;
    ``out=x`` transforms in place.
    """
    if out is None:
        out = np.empty(x.shape, dtype=COMPLEX)
    return ufunc(x, 1.0 / math.sqrt(x.shape[axis]), axes=[(axis,), (), (axis,)], out=out)


def fft2(x: np.ndarray) -> np.ndarray:
    """Unitary 2-D FFT over the last two axes (norm split as 1/sqrt(HW)).

    The two 1-D passes that ``np.fft.fft2`` runs, axis -1 then axis -2, so
    its output bit for bit. The first pass writes a new array and the
    second runs in place on it, so ``x`` is never written.
    """
    k = _pass(_pocketfft.fft, np.asarray(x, dtype=COMPLEX), -1)
    return _pass(_pocketfft.fft, k, -2, out=k)


def ifft2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2`; also unitary, and ``np.fft.ifft2``'s passes."""
    k = _pass(_pocketfft.ifft, np.asarray(x, dtype=COMPLEX), -1)
    return _pass(_pocketfft.ifft, k, -2, out=k)


def fft1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unitary 1-D FFT along ``axis`` (norm 1/sqrt(n)), into a new array."""
    return _pass(_pocketfft.fft, np.asarray(x, dtype=COMPLEX), axis)


def ifft1(x: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of :func:`fft1`; also unitary."""
    return _pass(_pocketfft.ifft, np.asarray(x, dtype=COMPLEX), axis)


def norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x).ravel()))


class RngStream:
    """Deterministic stream of Gaussian draws, and its derived child streams.

    Backed by PCG64 + numpy's ziggurat ``standard_normal``; a fixed seed
    replays the exact draw sequence. Draw order is documented so traces are
    replayable: real draws fill row-major; complex draws consume one real
    block then one imaginary block, each N(0, 1/2) so E|z|^2 = 1.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed} must be >= 0")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def randn(self, shape, dtype=REAL) -> np.ndarray:
        shape = (shape,) if np.isscalar(shape) else tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ConfigError(f"randn: invalid shape {shape}")
        n = math.prod(shape)
        dtype = np.dtype(dtype)
        if dtype == COMPLEX:
            re = self._gen.standard_normal(n)
            im = self._gen.standard_normal(n)
            return ((re + 1j * im) / math.sqrt(2.0)).reshape(shape)
        if dtype == REAL:
            return self._gen.standard_normal(n).reshape(shape)
        raise ConfigError(f"randn: unsupported dtype {dtype}")

    def child(self, index: int) -> "RngStream":
        """Independent stream derived deterministically from (seed, index)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(index),))
        derived = int(ss.generate_state(1, dtype=np.uint64)[0])
        return RngStream(derived)
