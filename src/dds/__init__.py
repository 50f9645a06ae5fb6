"""Decomposed diffusion sampling for linear inverse problems.

Conjugate-gradient data consistency embedded in DDIM-style sampling loops
(VP and VE), analytic subspace/mixture denoisers that make the sampler's
geometry testable without neural networks, MRI/CT forward models with exact
adjoints, single-iteration ADMM-TV for volumes, and a batch experiment CLI.
"""

from .admm import AdmmState, TvConfig, admm_tv_dc, dds_3d_reconstruct, soft_threshold
from .diffusion import (
    AffineSubspaceDenoiser,
    AffineSubspacePrior,
    GmmDenoiser,
    GmmPrior,
    VeSchedule,
    VpSchedule,
    affine_prior_denoise,
    ddim_step,
    eps_from_score,
    gmm_denoise,
    mcg_dps_gradient,
    score_from_eps,
    vp_tweedie,
)
from .dtf import read_dtf, write_dtf
from .errors import ConfigError, IndefiniteOperatorError, NumericalError, SamplerDivergedError
from .krylov import (
    CgReport,
    KrylovBasis,
    cg,
    cgls,
    jacobi_residual_sequence,
    krylov_basis,
    subspace_distance,
)
from .metrics import estimate_noise, psnr, ssim
from .operators import (
    CoilMaps,
    LinearMap,
    MaskSpec,
    RadonGeometry,
    diff_z_adjoint,
    diff_z_apply,
    diff_z_operator,
    dot_test,
    identity_map,
    make_coil_maps,
    make_mask,
    matrix_operator,
    radon_adjoint,
    radon_apply,
    radon_operator,
    sense_adjoint,
    sense_apply,
    sense_operator,
    slice_radon_operator,
)
from .phantoms import shepp_logan_2d, shepp_logan_3d
from .samplers import (
    ReconResult,
    SamplerConfig,
    SamplerTrace,
    StepRecord,
    dds_reconstruct,
    ddnm_step,
    default_eta,
    gradient_dc_step,
    make_dc,
    pseudo_inverse_apply,
    rejection_wrap,
)
from .tensor import COMPLEX, REAL, RngStream, fft2, ifft2, inner, norm

__version__ = "0.1.0"
