"""Decomposed diffusion sampling for linear inverse problems.

Conjugate-gradient data consistency embedded in DDIM-style sampling loops
(VP and VE), analytic subspace/mixture denoisers that make the sampler's
geometry testable without neural networks, MRI/CT forward models with exact
adjoints, single-iteration ADMM-TV for volumes, and a batch experiment CLI.
The root holds the library entry points; kernels, data-consistency steps and
trace records are imported from their own modules.
"""

from .admm import TvConfig, dds_3d_reconstruct
from .diffusion import AffineSubspacePrior, GmmPrior, Schedule
from .dtf import read_dtf, write_dtf
from .errors import ConfigError, NumericalError, SamplerDivergedError
from .operators import (LinearMap, MaskSpec, RadonGeometry, make_coil_maps, make_mask,
                        radon_operator, sense_operator)
from .samplers import ReconResult, SamplerConfig, dds_reconstruct
from .tensor import COMPLEX, REAL, RngStream

__version__ = "0.1.0"
