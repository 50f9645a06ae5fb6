"""Host speed correction for benchmark timings.

On a shared host the speed of one core drifts by tens of percent within
seconds: on a 2-core Intel Xeon VM the same reconstruction's median over
30 s moved from 0.49 s to 0.70 s between consecutive runs, with CPU time
equal to wall time. A fixed numpy kernel, independent of the dds package, is timed
before and after every timed set-up and operation. Its mix follows the
three workloads: a multi-coil 2-D FFT with a coil sum, small FFTs and inner
products at Python call rate, and a Radon-style gather and scatter-add.
``adjust`` rescales a wall time to the host speed at which the kernel takes
REFERENCE_S, so host drift cancels while program changes do not.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-core Intel Xeon host the benchmark was defined
# on (numpy 2.4.6, one BLAS thread). It fixes the unit only: adjusted times
# are seconds on a host running the kernel this fast.
REFERENCE_S = 0.011


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._coils = rng.standard_normal((8, 64, 64)) + 1j * rng.standard_normal((8, 64, 64))
        self._small = rng.standard_normal((4, 32, 32)) + 1j * rng.standard_normal((4, 32, 32))
        self._idx = rng.integers(0, 1024, size=(4, 32, 128))
        self._wts = rng.random(self._idx.shape)
        self._img = rng.standard_normal(1024)
        for _ in range(3):  # warm FFT plans and caches
            self.mark()
        self.ratios = []  # REFERENCE_S / kernel time, one per adjusted span

    def kernel(self) -> float:
        """Wall time of one run of the fixed kernel."""
        t0 = time.perf_counter()
        for _ in range(8):
            k = np.fft.fft2(self._coils, norm="ortho")
            np.isfinite(np.sum(np.conj(self._coils) * k, axis=0)).all()
            for _ in range(10):
                v = np.fft.ifft2(self._small, norm="ortho")
                float(np.real(np.vdot(v, v)))
            rays = np.sum(self._img[self._idx] * self._wts, axis=(0, 2))
            out = np.zeros(1024)
            np.add.at(out, self._idx.ravel(), (self._wts * rays[None, :, None]).ravel())
        return time.perf_counter() - t0

    def mark(self):
        """Time the kernel now, as the 'before' of the next adjusted span."""
        self.last = self.kernel()

    def adjust(self, seconds: float) -> float:
        """Rescale the wall time of the span that just ended to reference
        speed, using the kernel times before and after it."""
        before, self.last = self.last, self.kernel()
        ratio = REFERENCE_S / ((before + self.last) / 2.0)
        self.ratios.append(ratio)
        return seconds * ratio
