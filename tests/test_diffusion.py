import math

import numpy as np
import pytest

from dds.diffusion import (
    AffineSubspaceDenoiser,
    AffineSubspacePrior,
    GmmDenoiser,
    GmmPrior,
    VeSchedule,
    VpSchedule,
    affine_prior_denoise,
    ddim_step,
    eps_from_denoised,
    eps_from_score,
    gmm_denoise,
    mcg_dps_gradient,
    score_from_denoised,
    score_from_eps,
    smooth_random_field,
    vp_tweedie,
)
from dds.errors import ConfigError
from dds.operators import matrix_operator
from dds.tensor import COMPLEX, REAL, RngStream, norm


# ---------------------------------------------------------------------------
# schedules

def test_vp_schedule_invariants():
    s = VpSchedule.default(20)
    b = s.betas[1:]
    assert np.all((b > 0) & (b < 1)) and np.all(np.diff(b) > 0)
    ab = s.abars
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0) and np.all((ab[1:] > 0) & (ab[1:] < 1))
    # eta=1 radicand stays nonnegative for every t >= 2
    rad = 1.0 - ab[1:-1] - s.btildes[2:] ** 2
    assert np.all(rad >= -1e-12)
    assert s.btildes[1] == 0.0


def test_vp_schedule_rejects_decreasing_betas():
    with pytest.raises(ConfigError):
        VpSchedule.from_betas([0.2, 0.1])


def test_ve_schedule_geometric():
    s = VeSchedule.geometric(10, 0.01, 10.0)
    assert s.sigmas[1] == pytest.approx(0.01)
    assert s.sigmas[10] == pytest.approx(10.0)
    assert np.all(np.diff(s.sigmas[1:]) > 0)


def test_ve_schedule_rejects_bad_range():
    with pytest.raises(ConfigError):
        VeSchedule.geometric(10, 0.5, 0.1)
    # NaN fails every comparison, and inf passes sigma_max > sigma_min
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            VeSchedule.geometric(10, 0.01, bad)
        with pytest.raises(ConfigError):
            VeSchedule.geometric(10, bad, 10.0)
        for sigmas in ([0.1, bad], [bad, 1.0], [0.1, bad, 1.0]):
            with pytest.raises(ConfigError):
                VeSchedule.from_sigmas(sigmas)


# ---------------------------------------------------------------------------
# Tweedie and conversions

def test_tweedie_zero_eps():
    s = VpSchedule.default(10)
    x = RngStream(0).randn((4,))
    out = vp_tweedie(x, 5, np.zeros(4), s)
    assert norm(out - x / math.sqrt(s.abars[5])) < 1e-14


def test_tweedie_inverts_forward_pair():
    s = VpSchedule.default(10)
    rng = RngStream(1)
    x0 = rng.randn((8,))
    eps = rng.randn((8,))
    t = 7
    xt = math.sqrt(s.abars[t]) * x0 + math.sqrt(1 - s.abars[t]) * eps
    assert norm(vp_tweedie(xt, t, eps, s) - x0) < 1e-12


def test_tweedie_degenerate_abar_one():
    # abar ~ 1 at tiny t of a long schedule collapses toward identity
    s = VpSchedule.from_betas([1e-12, 2e-12])
    x = RngStream(2).randn((4,))
    assert norm(vp_tweedie(x, 1, np.zeros(4), s) - x) < 1e-9


def test_tweedie_rejects_out_of_range_t():
    s = VpSchedule.default(10)
    with pytest.raises(ConfigError):
        vp_tweedie(np.zeros(2), 11, np.zeros(2), s)


def test_score_eps_conversions_roundtrip():
    vp = VpSchedule.default(12)
    ve = VeSchedule.geometric(12)
    v = RngStream(3).randn((6,))
    for sched, t in ((vp, 4), (ve, 9)):
        s_hat = score_from_eps(v, t, sched)
        back = eps_from_score(s_hat, t, sched)
        assert norm(back - v) < 1e-14
        assert norm(score_from_eps(np.zeros(6), t, sched)) == 0.0


def test_ve_score_eps_denoised_consistency():
    ve = VeSchedule.geometric(12)
    rng = RngStream(4)
    x_t = rng.randn((6,))
    xhat = rng.randn((6,))
    t = 5
    s_hat = score_from_denoised(x_t, xhat, t, ve)
    e_hat = eps_from_denoised(x_t, xhat, t, ve)
    assert norm(s_hat - (xhat - x_t) / ve.sigmas[t] ** 2) < 1e-14
    assert norm(e_hat - (x_t - xhat) / ve.sigmas[t]) < 1e-14
    assert norm(e_hat + ve.sigmas[t] * s_hat) < 1e-14


@pytest.mark.parametrize("sched", [VpSchedule.default(20), VeSchedule.geometric(12)],
                         ids=["vp", "ve"])
def test_conversions_invert_the_schedule_marginal(sched):
    # x_t = scale(t) x0 + sqrt(var(t)) eps is all the conversions know of a schedule
    rng = RngStream(21)
    x0, eps = rng.randn((6,), dtype=COMPLEX), rng.randn((6,), dtype=COMPLEX)
    prior = AffineSubspacePrior.random((6,), 2, seed=22, offset_scale=1.0)
    ve = isinstance(sched, VeSchedule)
    for t in range(1, sched.n_steps + 1):
        x_t = sched.scale(t) * x0 + math.sqrt(sched.var(t)) * eps
        assert norm(eps_from_denoised(x_t, x0, t, sched) - eps) <= 1e-12 * norm(eps)
        assert norm(vp_tweedie(x_t, t, eps, sched) - x0) <= 1e-12 * norm(x0)
        assert norm(score_from_denoised(x_t, x0, t, sched)
                    - score_from_eps(eps, t, sched)) <= 1e-12 * norm(eps)
        if ve:
            # VE outputs keep the bits of the sigma_t formulas they replace
            assert math.sqrt(sched.var(t)) == sched.sigmas[t]
            assert np.array_equal(affine_prior_denoise(x_t, t, prior, sched),
                                  prior.project_affine(x_t))


def test_denoiser_contract_consistency_identities():
    # VP: x_t = sqrt(abar) xhat + sqrt(1-abar) eps;  VE: xhat = x_t + sigma^2 shat
    vp = VpSchedule.default(10)
    ve = VeSchedule.geometric(10)
    prior = AffineSubspacePrior.random((16,), 3, seed=5, dtype=REAL)
    gmm = GmmPrior(weights=np.array([0.4, 0.6]),
                   means=RngStream(7).randn((2, 16)), tau2=0.3)
    rng = RngStream(6)
    x_t = rng.randn((16,))
    denoisers = (AffineSubspaceDenoiser(prior), GmmDenoiser(gmm))
    for den in denoisers:
        for t in (2, 5, 10):
            xh = den.denoise(x_t, t, vp)
            eh = eps_from_denoised(x_t, xh, t, vp)
            rebuilt = math.sqrt(vp.abars[t]) * xh + math.sqrt(1 - vp.abars[t]) * eh
            assert norm(rebuilt - x_t) <= 1e-10 * max(norm(x_t), 1.0)
            xh = den.denoise(x_t, t, ve)
            sh = score_from_denoised(x_t, xh, t, ve)
            assert norm(xh - (x_t + ve.sigmas[t] ** 2 * sh)) <= 1e-10 * max(norm(x_t), 1.0)


# ---------------------------------------------------------------------------
# affine-subspace prior and denoiser

def test_affine_prior_requires_orthonormal_basis():
    bad = np.stack([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    with pytest.raises(ConfigError):
        AffineSubspacePrior(basis=bad, offset=np.zeros(2))


def test_affine_denoise_worked_example():
    # Q = span(e1), abar = 0.25: xhat = (1/0.5) * (3, 0) = (6, 0)
    basis = np.array([[1.0, 0.0]])
    prior = AffineSubspacePrior(basis=basis, offset=np.zeros(2))
    # (1 - 0.36)(1 - 39/64) = 0.64 * 25/64 = 0.25 exactly in binary floats
    sched = VpSchedule.from_betas([0.36, 0.609375])
    assert sched.abars[2] == 0.25
    out = affine_prior_denoise(np.array([3.0, 4.0]), 2, prior, sched)
    assert norm(out - np.array([6.0, 0.0])) < 1e-12


def test_affine_denoise_identity_at_abar_one():
    basis = np.array([[1.0, 0.0]])
    prior = AffineSubspacePrior(basis=basis, offset=np.zeros(2))
    sched = VpSchedule.from_betas([1e-14, 2e-14])
    x = np.array([2.0, 0.0])  # inside the span
    assert norm(affine_prior_denoise(x, 1, prior, sched) - x) < 1e-9


def test_affine_denoise_ve_kills_orthogonal_part():
    basis = np.array([[1.0, 0.0]])
    prior = AffineSubspacePrior(basis=basis, offset=np.zeros(2))
    ve = VeSchedule.geometric(5)
    out = affine_prior_denoise(np.array([0.0, 3.0]), 3, prior, ve)
    assert norm(out) < 1e-14


def test_affine_denoise_with_offset_fixes_affine_set():
    prior = AffineSubspacePrior.random((8,), 2, seed=9, dtype=REAL, offset_scale=1.0)
    vp = VpSchedule.default(8)
    rng = RngStream(10)
    for t in (2, 6):
        xh = affine_prior_denoise(rng.randn((8,)), t, prior, vp)
        assert prior.distance(xh) < 1e-10 * max(norm(xh), 1.0)
    x_on = prior.sample(rng)
    assert norm(affine_prior_denoise(x_on, 3, prior, VeSchedule.geometric(8)) - x_on) < 1e-12


def test_affine_prior_exact_projector_identity():
    # xhat = (1/sqrt(abar)) P x for the origin-through subspace
    prior = AffineSubspacePrior.random((12,), 4, seed=11, dtype=COMPLEX)
    vp = VpSchedule.default(9)
    rng = RngStream(12)
    for t in (2, 5, 9):
        x = rng.randn((12,), dtype=COMPLEX)
        want = prior.project_linear(x) / math.sqrt(vp.abars[t])
        assert norm(affine_prior_denoise(x, t, prior, vp) - want) < 1e-12


# ---------------------------------------------------------------------------
# GMM prior and denoiser

def test_gmm_k1_conjugate_closed_form():
    mu = np.array([0.5, -1.0, 2.0])
    prior = GmmPrior(weights=np.array([1.0]), means=mu[None, :], tau2=0.3)
    vp = VpSchedule.default(10)
    t = 6
    ab = vp.abars[t]
    x = RngStream(13).randn((3,))
    want = (0.3 * math.sqrt(ab) * x + (1 - ab) * mu) / (ab * 0.3 + (1 - ab))
    assert norm(gmm_denoise(x, t, prior, vp) - want) < 1e-12


def test_gmm_point_mass_limit_returns_mean():
    mu = np.array([1.0, 2.0])
    prior = GmmPrior(weights=np.array([1.0]), means=mu[None, :], tau2=1e-16)
    vp = VpSchedule.default(10)
    out = gmm_denoise(RngStream(14).randn((2,)), 5, prior, vp)
    assert norm(out - mu) < 1e-7


def test_gmm_symmetric_components_cancel_at_origin():
    mu = np.array([[1.0, -2.0], [-1.0, 2.0]])
    prior = GmmPrior(weights=np.array([0.5, 0.5]), means=mu, tau2=0.2)
    vp = VpSchedule.default(10)
    out = gmm_denoise(np.zeros(2), 4, prior, vp)
    assert norm(out) < 1e-12


def test_gmm_matches_quadrature_oracle_1d():
    # brute-force posterior mean on a dense grid for a 1-D, K=3 mixture
    weights = np.array([0.5, 0.3, 0.2])
    means = np.array([[-1.0], [0.5], [2.0]])
    tau2 = 0.16
    prior = GmmPrior(weights=weights, means=means, tau2=tau2)
    vp = VpSchedule.default(10)
    grid = np.linspace(-8.0, 9.0, 200_001)
    for t, xval in ((2, 0.7), (7, -0.4)):
        ab = vp.abars[t]
        dens = np.zeros_like(grid)
        for w, m in zip(weights, means[:, 0]):
            dens += w * np.exp(-((grid - m) ** 2) / (2 * tau2)) / math.sqrt(2 * math.pi * tau2)
        lik = np.exp(-((xval - math.sqrt(ab) * grid) ** 2) / (2 * (1 - ab)))
        post = dens * lik
        want = float(np.trapezoid(grid * post) / np.trapezoid(post))
        got = gmm_denoise(np.array([xval]), t, prior, vp)[0]
        assert abs(got - want) < 1e-6


def test_gmm_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        GmmPrior(weights=np.array([0.5, 0.2]), means=np.zeros((2, 3)), tau2=1.0)


def test_gmm_ve_mode_matches_conjugate_form():
    mu = np.array([0.2, 0.4])
    prior = GmmPrior(weights=np.array([1.0]), means=mu[None, :], tau2=0.5)
    ve = VeSchedule.geometric(8, 0.05, 2.0)
    t = 4
    s2 = ve.sigmas[t] ** 2
    x = RngStream(15).randn((2,))
    want = (0.5 * x + s2 * mu) / (0.5 + s2)
    assert norm(gmm_denoise(x, t, prior, ve) - want) < 1e-12


# ---------------------------------------------------------------------------
# DDIM step

def test_vp_step_eta0_pure_mean():
    s = VpSchedule.default(10)
    xh = RngStream(16).randn((4,))
    rng = RngStream(17)
    out = ddim_step(xh, np.zeros(4), 5, 0.0, rng, s)
    assert norm(out - math.sqrt(s.abars[4]) * xh) < 1e-14
    assert rng.draws == 0  # deterministic path must not consume randomness


def test_vp_step_coefficient_identity():
    # deterministic^2 + (eta btilde)^2 = 1 - abar_{t-1} at eta = 1
    s = VpSchedule.default(16)
    for t in range(2, 17):
        det = 1.0 - s.abars[t - 1] - s.btildes[t] ** 2
        assert det >= -1e-14
        assert abs(det + s.btildes[t] ** 2 - (1.0 - s.abars[t - 1])) < 1e-14


def test_vp_step_seeded_reproducibility():
    s = VpSchedule.default(10)
    xh = RngStream(18).randn((6,))
    eh = RngStream(19).randn((6,))
    a = ddim_step(xh, eh, 7, 0.5, RngStream(7), s)
    b = ddim_step(xh, eh, 7, 0.5, RngStream(7), s)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [REAL, COMPLEX])
def test_vp_step_is_the_closed_form_bit_for_bit(dtype):
    # the VP transition as written before VP and VE shared one step:
    # sqrt(abar_{t-1}) xhat' + sqrt(1 - abar_{t-1} - eta^2 btilde_t^2) eps_hat
    # + eta btilde_t z
    s = VpSchedule.default(20)
    data = RngStream(27)
    for t in range(2, 21):
        for eta in (0.0, 0.15, 0.5, 1.0):
            xh, eh = data.randn((5, 3), dtype=dtype), data.randn((5, 3), dtype=dtype)
            ab_prev, bt = s.abars[t - 1], s.btildes[t]
            rad = 1.0 - ab_prev - (eta * bt) ** 2
            want = math.sqrt(ab_prev) * xh + math.sqrt(max(rad, 0.0)) * eh
            if eta > 0.0:
                want = want + eta * bt * RngStream(t).randn(xh.shape, dtype=dtype)
            assert np.array_equal(ddim_step(xh, eh, t, eta, RngStream(t), s), want)


def test_vp_step_eta1_matches_ddpm_ancestral_mean():
    # reconstruct x_t from (xhat, eps) and compare against the DDPM mean
    s = VpSchedule.default(14)
    rng = RngStream(20)
    for t in (2, 8, 14):
        xh = rng.randn((5,))
        eh = rng.randn((5,))
        xt = math.sqrt(s.abars[t]) * xh + math.sqrt(1 - s.abars[t]) * eh
        stoch_rng = RngStream(99)
        out = ddim_step(xh, eh, t, 1.0, stoch_rng, s)
        drawn = RngStream(99).randn((5,))
        deterministic = out - s.btildes[t] * drawn
        alpha_t = s.alphas[t]
        ddpm_mean = (xt - (1 - alpha_t) / math.sqrt(1 - s.abars[t]) * eh) / math.sqrt(alpha_t)
        assert norm(deterministic - ddpm_mean) < 1e-12


def test_vp_step_rejects_bad_t_and_eta():
    s = VpSchedule.default(10)
    with pytest.raises(ConfigError):
        ddim_step(np.zeros(2), np.zeros(2), 1, 0.0, RngStream(0), s)
    with pytest.raises(ConfigError):
        ddim_step(np.zeros(2), np.zeros(2), 5, 1.5, RngStream(0), s)


def test_ve_step_eta0_deterministic():
    s = VeSchedule.geometric(10)
    xh = RngStream(21).randn((4,))
    sh = RngStream(22).randn((4,))
    t = 6
    rng = RngStream(1)
    out = ddim_step(xh, -s.sigmas[t] * sh, t, 0.0, rng, s)  # eps_hat = -sigma_t shat
    want = xh - s.sigmas[t - 1] * s.sigmas[t] * sh
    assert norm(out - want) < 1e-14
    assert rng.draws == 0


def test_ve_step_coefficient_identity():
    s = VeSchedule.geometric(12)
    for t in range(2, 13):
        sp, st = s.sigmas[t - 1], s.sigmas[t]
        btilde = 1 - (sp / st) ** 2
        assert s.ddim_std(t) == sp * btilde  # the VE eta convention, bit for bit
        for eta in (0.0, 0.5, 1.0):
            lhs = (sp * math.sqrt(1 - btilde ** 2 * eta ** 2)) ** 2 + (sp * eta * btilde) ** 2
            assert abs(lhs - sp ** 2) < 1e-14
            c = eta * s.ddim_std(t)
            assert abs(math.sqrt(s.var(t - 1) - c ** 2) ** 2 + c ** 2 - sp ** 2) < 1e-14


@pytest.mark.parametrize("mode", ["vp", "ve"])
def test_ddim_step_marginal_variance_monte_carlo(mode):
    # exact point-mass denoiser at x0 = mu: x_{t-1} should sample
    # N(scale(t-1) mu, var(t-1) I)
    s = VpSchedule.default(8) if mode == "vp" else VeSchedule.geometric(8, 0.1, 4.0)
    t, eta, d = 5, 0.7, 8
    mu = RngStream(23).randn((d,))
    tau2 = 1e-10
    prior = GmmPrior(weights=np.array([1.0]), means=mu[None, :], tau2=tau2)
    rng = RngStream(24)
    trials = 100_000
    eps0 = rng.randn((trials, d))
    scale, kvar = s.scale(t), s.var(t)
    x_t = scale * mu[None, :] + math.sqrt(kvar) * eps0
    xhat = (tau2 * scale * x_t + kvar * mu[None, :]) / (scale * scale * tau2 + kvar)
    # spot-check the vectorized denoiser against gmm_denoise
    for i in range(50):
        assert norm(xhat[i] - gmm_denoise(x_t[i], t, prior, s)) < 1e-12
    x_prev = ddim_step(xhat, eps_from_denoised(x_t, xhat, t, s), t, eta, rng, s)
    dev = x_prev - s.scale(t - 1) * mu[None, :]
    trace = float(np.mean(np.sum(dev ** 2, axis=1)))
    assert abs(trace - d * s.var(t - 1)) <= 0.02 * d * s.var(t - 1)


def test_ve_step_seeded_reproducibility():
    s = VeSchedule.geometric(10)
    xh = RngStream(25).randn((4,))
    sh = RngStream(26).randn((4,))
    a = ddim_step(xh, -s.sigmas[5] * sh, 5, 0.8, RngStream(3), s)
    b = ddim_step(xh, -s.sigmas[5] * sh, 5, 0.8, RngStream(3), s)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# manifold-constrained gradient

def _setup_mcg(seed, d=6, l=2):
    prior = AffineSubspacePrior.random((d,), l, seed=seed, dtype=REAL)
    amat = RngStream(seed + 1).randn((d, d)) / math.sqrt(d)
    a = matrix_operator(amat)
    y = RngStream(seed + 2).randn((d,))
    return prior, a, y


def test_mcg_zero_at_consistent_denoised_point():
    prior, a, y = _setup_mcg(30)
    vp = VpSchedule.default(8)
    t = 4
    # choose x_t whose denoised estimate is data-consistent: xhat solves A xhat = y
    # build y from a subspace point so the consistent point is reachable
    x_on = prior.sample(RngStream(33))
    y = a.apply(x_on)
    x_t = math.sqrt(vp.abars[t]) * x_on  # denoises exactly to x_on
    g = mcg_dps_gradient(x_t, t, prior, a, y, vp)
    assert norm(g) < 1e-10


def test_mcg_lies_in_subspace():
    prior, a, y = _setup_mcg(40)
    vp = VpSchedule.default(8)
    g = mcg_dps_gradient(RngStream(41).randn((6,)), 5, prior, a, y, vp)
    assert norm(g - prior.project_linear(g)) < 1e-12 * max(norm(g), 1.0)


def test_mcg_matches_finite_differences():
    # central differences of 1/2||y - A xhat(x_t)||^2 through the analytic denoiser
    prior, a, y = _setup_mcg(50, d=4, l=2)
    vp = VpSchedule.default(6)
    t = 3
    x_t = RngStream(51).randn((4,))
    g = mcg_dps_gradient(x_t, t, prior, a, y, vp)

    def loss(x):
        xh = affine_prior_denoise(x, t, prior, vp)
        r = a.apply(xh) - y
        return 0.5 * float(r @ r)

    h = 1e-6
    fd = np.zeros(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd[i] = (loss(x_t + e) - loss(x_t - e)) / (2 * h)
    assert norm(g - fd) < 1e-6 * max(norm(fd), 1.0)


def test_projected_gradient_identity():
    # xhat - gamma * mcg == P(xhat - zeta * grad) with zeta = gamma / sqrt(abar)
    vp = VpSchedule.default(10)
    for s in range(20):
        prior, a, y = _setup_mcg(60 + 3 * s, d=8, l=3)
        rng = RngStream(90 + s)
        for t in (2, 4, 6, 8, 10):
            x_t = rng.randn((8,))
            gamma = 0.37
            xh = affine_prior_denoise(x_t, t, prior, vp)
            lhs = xh - gamma * mcg_dps_gradient(x_t, t, prior, a, y, vp)
            zeta = gamma / math.sqrt(vp.abars[t])
            grad = a.adjoint(a.apply(xh) - y)
            rhs = prior.project_linear(xh - zeta * grad)
            assert norm(lhs - rhs) <= 1e-10 * max(norm(lhs), 1.0)


def test_smooth_random_field_is_deterministic_and_smooth():
    a = smooth_random_field(RngStream(5), (32, 32), 3.0)
    b = smooth_random_field(RngStream(5), (32, 32), 3.0)
    assert np.array_equal(a, b)
    rough = RngStream(5).randn((32, 32))
    # high-frequency energy must drop dramatically under the low-pass
    hh = lambda im: np.abs(np.diff(im, axis=0)).mean()
    assert hh(a) < 0.2 * hh(rough)


def test_gmm_underflow_of_all_responsibilities_raises():
    from dds.errors import NumericalError
    prior = GmmPrior(weights=np.array([0.5, 0.5]),
                     means=np.zeros((2, 4)), tau2=0.1)
    vp = VpSchedule.default(10)
    with pytest.raises(NumericalError):
        gmm_denoise(np.full(4, 1e200), 5, prior, vp)
