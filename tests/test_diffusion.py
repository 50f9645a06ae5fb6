import math

import numpy as np
import pytest

from dds.diffusion import (
    AffineSubspacePrior,
    GmmPrior,
    Schedule,
    ddim_step,
    eps_from_denoised,
    mcg_dps_gradient,
    smooth_random_field,
)
from dds.errors import ConfigError
from dds.tensor import COMPLEX, REAL, RngStream, norm
from oracles import (eps_from_score, matrix_operator, score_from_denoised, score_from_eps,
                     ve_sigmas, vp_abars, vp_betas, vp_tweedie)


# ---------------------------------------------------------------------------
# schedules

def test_vp_schedule_invariants():
    s = Schedule.vp(20)
    b = vp_betas(20)[1:]
    assert np.all((b > 0) & (b < 1)) and np.all(np.diff(b) > 0)
    ab = vp_abars(20)
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0) and np.all((ab[1:] > 0) & (ab[1:] < 1))
    assert all(s.scale(t) == math.sqrt(ab[t]) and s.var(t) == 1.0 - ab[t] for t in range(21))
    # eta=1 radicand stays nonnegative for every t >= 2
    rad = np.array([s.var(t - 1) - s.ddim_std(t) ** 2 for t in range(2, 21)])
    assert np.all(rad >= -1e-12)
    assert s.ddim_std(1) == 0.0
    assert s.start == 1.0 and s.stop == 1


def test_vp_schedule_rejects_decreasing_betas():
    with pytest.raises(ConfigError):
        Schedule.from_betas([0.2, 0.1])


def test_vp_schedule_checks_beta_before_deriving_from_it():
    # a negative beta_t used to reach math.sqrt of a negative number first
    with pytest.raises(ConfigError, match="strictly inside"):
        Schedule.from_betas([-0.1, 0.2])


def test_vp_schedule_derives_abar_and_btilde_from_beta():
    # abar_t = prod_{s <= t} (1 - beta_s) gives scale sqrt(abar_t) and var
    # 1 - abar_t, and ddim_std is the DDPM posterior std
    # btilde_t = sqrt((1 - abar_{t-1}) / (1 - abar_t) beta_t)
    betas = [0.1, 0.2, 0.3]
    s = Schedule.from_betas(betas)
    assert s.n_steps == 3 and s.start == 1.0 and s.stop == 1
    assert s.scale(0) == 1.0 and s.var(0) == 0.0 and s.ddim_std(0) == 0.0
    abar = 1.0
    for t, beta in enumerate(betas, start=1):
        prev, abar = abar, abar * (1.0 - beta)
        assert s.scale(t) == pytest.approx(math.sqrt(abar), rel=1e-15)
        assert s.var(t) == pytest.approx(1.0 - abar, rel=1e-15)
        assert s.ddim_std(t) == pytest.approx(math.sqrt((1 - prev) / (1 - abar) * beta),
                                              rel=1e-14, abs=0.0)


def test_ve_schedule_geometric():
    s = Schedule.ve(10, 0.01, 10.0)
    assert math.sqrt(s.var(1)) == pytest.approx(0.01)
    assert math.sqrt(s.var(10)) == pytest.approx(10.0)
    assert np.all(np.diff([s.var(t) for t in range(1, 11)]) > 0)
    assert all(s.scale(t) == 1.0 for t in range(11))
    assert s.start == pytest.approx(10.0) and s.stop == 1


def test_ve_schedule_rejects_bad_range():
    with pytest.raises(ConfigError):
        Schedule.ve(10, 0.5, 0.1)
    # NaN fails every comparison, and inf passes sigma_max > sigma_min
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            Schedule.ve(10, 0.01, bad)
        with pytest.raises(ConfigError):
            Schedule.ve(10, bad, 10.0)
        for sigmas in ([0.1, bad], [bad, 1.0], [0.1, bad, 1.0]):
            with pytest.raises(ConfigError):
                Schedule.from_sigmas(sigmas)


def test_ve_schedule_needs_a_finite_top_variance():
    # var(t) = sigma_t^2 used to overflow in an uncaught OverflowError
    for top in (1e160, 1e200):
        with pytest.raises(ConfigError, match="sigma_N\\^2 finite"):
            Schedule.ve(10, 0.01, top)
        with pytest.raises(ConfigError, match="sigma_N\\^2 finite"):
            Schedule.from_sigmas([0.1, top])
    sched = Schedule.ve(10, 0.01, 1e150)
    assert math.isfinite(sched.var(sched.n_steps))


def test_ddim_radicand_is_nonnegative_on_every_schedule_that_builds():
    # ddim_step trusts var(t-1) - (eta ddim_std(t))^2 >= 0 and clamps only
    # round-off, so every schedule the constructors accept must keep it
    scheds = []
    for n in range(2, 1001):
        try:
            scheds.append(Schedule.vp(n))
        except ConfigError:
            continue
    assert scheds
    scheds += [Schedule.ve(n, sigma_max=s) for n in (2, 3, 10, 50, 200, 1000)
               for s in (0.011, 0.1, 1.0, 10.0, 100.0, 1e4, 1e8)]
    for sched in scheds:
        for t in range(2, sched.n_steps + 1):
            var, std = sched.var(t - 1), sched.ddim_std(t)
            for eta in (0.0, 0.5, 1.0):
                assert var - (eta * std) ** 2 >= -1e-12, (sched.start, t, eta)


def test_a_directly_built_schedule_is_checked():
    # __post_init__ checks what the loop trusts of any schedule, NaN included
    ok = dict(scales=np.ones(4), variances=np.array([0.0, 1.0, 2.0, 3.0]),
              ddim_stds=np.zeros(4), start=2.0, stop=1)
    assert Schedule(**ok).n_steps == 3
    nan, inf = math.nan, math.inf
    for key, bad in (("variances", np.array([0.0, 1.0, nan, 3.0])),
                     ("variances", np.array([0.0, 2.0, 1.0, 3.0])),
                     ("variances", np.array([0.5, 1.0, 2.0, 3.0])),
                     ("variances", np.array([0.0, 1.0, 2.0, inf])),
                     ("scales", np.array([1.0, 1.0, nan, 1.0])),
                     ("scales", np.array([1.0, 1.0, 0.0, 1.0])),
                     ("scales", np.array([1.0, 1.0, 1.5, 1.0])),
                     ("scales", np.ones(3)),
                     ("ddim_stds", np.array([0.0, 0.0, 1.5, 0.0])),  # var(1) < 1.5^2
                     ("ddim_stds", np.array([0.0, 0.0, nan, 0.0])),
                     ("ddim_stds", np.array([0.0, 0.0, -0.5, 0.0])),
                     ("start", nan), ("start", 0.0), ("start", inf),
                     ("stop", 0), ("stop", 3)):
        with pytest.raises(ConfigError):
            Schedule(**{**ok, key: bad})


@pytest.mark.parametrize("betas", [[math.nan] * 3, [0.1, math.nan, 0.3]],
                         ids=["all-nan", "nan-between"])
def test_vp_schedule_rejects_nan_betas(betas):
    # NaN failed every comparison of the beta check, so [nan] * 3 built
    # abar = [1, nan, nan, nan]
    with pytest.raises(ConfigError, match="beta_t"):
        Schedule.from_betas(betas)


def test_ve_stop_is_the_truncation_floor():
    cases = ((10, 0.0, 1), (10, 0.3, 3), (100, 1 / 50, 2), (6, 0.4, 2), (2, 0.9, 1))
    assert [Schedule.ve(n, truncation=tr).stop for n, tr, _ in cases] == [k for *_, k in cases]
    for bad in (1.0, -0.1, math.nan):
        with pytest.raises(ConfigError, match="truncation"):
            Schedule.ve(10, truncation=bad)
    assert Schedule.from_sigmas([0.1, 0.2, 0.4], stop=2).stop == 2


# ---------------------------------------------------------------------------
# Tweedie and conversions

def test_tweedie_zero_eps():
    s = Schedule.vp(10)
    x = RngStream(0).randn((4,))
    out = vp_tweedie(x, 5, np.zeros(4), s)
    assert norm(out - x / math.sqrt(vp_abars(10)[5])) < 1e-14


def test_tweedie_inverts_forward_pair():
    s = Schedule.vp(10)
    ab = vp_abars(10)
    rng = RngStream(1)
    x0 = rng.randn((8,))
    eps = rng.randn((8,))
    t = 7
    xt = math.sqrt(ab[t]) * x0 + math.sqrt(1 - ab[t]) * eps
    assert norm(vp_tweedie(xt, t, eps, s) - x0) < 1e-12


def test_tweedie_degenerate_abar_one():
    # abar ~ 1 at tiny t of a long schedule collapses toward identity
    s = Schedule.from_betas([1e-12, 2e-12])
    x = RngStream(2).randn((4,))
    assert norm(vp_tweedie(x, 1, np.zeros(4), s) - x) < 1e-9


def test_tweedie_rejects_out_of_range_t():
    s = Schedule.vp(10)
    with pytest.raises(ConfigError):
        vp_tweedie(np.zeros(2), 11, np.zeros(2), s)


def test_score_eps_conversions_roundtrip():
    vp = Schedule.vp(12)
    ve = Schedule.ve(12)
    v = RngStream(3).randn((6,))
    for sched, t in ((vp, 4), (ve, 9)):
        s_hat = score_from_eps(v, t, sched)
        back = eps_from_score(s_hat, t, sched)
        assert norm(back - v) < 1e-14
        assert norm(score_from_eps(np.zeros(6), t, sched)) == 0.0


def test_ve_score_eps_denoised_consistency():
    ve = Schedule.ve(12)
    sig = ve_sigmas(12)
    rng = RngStream(4)
    x_t = rng.randn((6,))
    xhat = rng.randn((6,))
    t = 5
    s_hat = score_from_denoised(x_t, xhat, t, ve)
    e_hat = eps_from_denoised(x_t, xhat, t, ve)
    assert norm(s_hat - (xhat - x_t) / sig[t] ** 2) < 1e-14
    assert norm(e_hat - (x_t - xhat) / sig[t]) < 1e-14
    assert norm(e_hat + sig[t] * s_hat) < 1e-14


@pytest.mark.parametrize("sched, sigmas", [(Schedule.vp(20), None),
                                           (Schedule.ve(12), ve_sigmas(12))], ids=["vp", "ve"])
def test_conversions_invert_the_schedule_marginal(sched, sigmas):
    # x_t = scale(t) x0 + sqrt(var(t)) eps is all the conversions know of a schedule
    rng = RngStream(21)
    x0, eps = rng.randn((6,), dtype=COMPLEX), rng.randn((6,), dtype=COMPLEX)
    prior = AffineSubspacePrior.random((6,), 2, seed=22, offset_scale=1.0)
    for t in range(1, sched.n_steps + 1):
        x_t = sched.scale(t) * x0 + math.sqrt(sched.var(t)) * eps
        assert norm(eps_from_denoised(x_t, x0, t, sched) - eps) <= 1e-12 * norm(eps)
        assert norm(vp_tweedie(x_t, t, eps, sched) - x0) <= 1e-12 * norm(x0)
        assert norm(score_from_denoised(x_t, x0, t, sched)
                    - score_from_eps(eps, t, sched)) <= 1e-12 * norm(eps)
        if sigmas is not None:
            # VE outputs keep the bits of the sigma_t formulas they replace
            assert math.sqrt(sched.var(t)) == sigmas[t]
            assert np.array_equal(prior.denoise(x_t, t, sched),
                                  prior.project_linear(x_t - prior.offset) + prior.offset)


def test_denoiser_contract_consistency_identities():
    # VP: x_t = sqrt(abar) xhat + sqrt(1-abar) eps;  VE: xhat = x_t + sigma^2 shat
    vp, ab = Schedule.vp(10), vp_abars(10)
    ve, sig = Schedule.ve(10), ve_sigmas(10)
    prior = AffineSubspacePrior.random((16,), 3, seed=5, dtype=REAL)
    gmm = GmmPrior(weights=np.array([0.4, 0.6]),
                   means=RngStream(7).randn((2, 16)), tau2=0.3)
    rng = RngStream(6)
    x_t = rng.randn((16,))
    denoisers = (prior, gmm)
    for den in denoisers:
        for t in (2, 5, 10):
            xh = den.denoise(x_t, t, vp)
            eh = eps_from_denoised(x_t, xh, t, vp)
            rebuilt = math.sqrt(ab[t]) * xh + math.sqrt(1 - ab[t]) * eh
            assert norm(rebuilt - x_t) <= 1e-10 * max(norm(x_t), 1.0)
            xh = den.denoise(x_t, t, ve)
            sh = score_from_denoised(x_t, xh, t, ve)
            assert norm(xh - (x_t + sig[t] ** 2 * sh)) <= 1e-10 * max(norm(x_t), 1.0)


# ---------------------------------------------------------------------------
# affine-subspace prior and denoiser

def test_affine_prior_requires_orthonormal_basis():
    bad = np.stack([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    with pytest.raises(ConfigError):
        AffineSubspacePrior(basis=bad, offset=np.zeros(2))


def test_prior_constructors_reject_nan():
    # each of these built a prior: NaN failed every comparison of the checks
    with pytest.raises(ConfigError, match="orthonormal"):
        AffineSubspacePrior(basis=np.full((2, 4), np.nan), offset=np.zeros(4))
    with pytest.raises(ConfigError, match="offset must be finite"):
        AffineSubspacePrior(basis=np.eye(2)[:1], offset=np.array([np.nan, 0.0]))
    means = np.zeros((2, 3))
    for weights in ([np.nan, np.nan], [1.0, np.nan]):
        with pytest.raises(ConfigError, match="weights"):
            GmmPrior(weights=np.array(weights), means=means, tau2=1.0)
    for tau2 in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="tau"):
            GmmPrior(weights=np.array([0.5, 0.5]), means=means, tau2=tau2)
    with pytest.raises(ConfigError, match="means must be finite"):
        GmmPrior(weights=np.array([1.0]), means=np.full((1, 2), np.nan), tau2=1.0)


def test_affine_prior_offset_must_have_the_atom_shape():
    with pytest.raises(ConfigError, match="offset shape"):
        AffineSubspacePrior(basis=np.eye(2)[:1].reshape(1, 2), offset=np.zeros(3))


def test_affine_denoise_worked_example():
    # Q = span(e1), abar = 0.25: xhat = (1/0.5) * (3, 0) = (6, 0)
    basis = np.array([[1.0, 0.0]])
    prior = AffineSubspacePrior(basis=basis, offset=np.zeros(2))
    # (1 - 0.36)(1 - 39/64) = 0.64 * 25/64 = 0.25 exactly in binary floats
    sched = Schedule.from_betas([0.36, 0.609375])
    assert sched.scale(2) == 0.5
    out = prior.denoise(np.array([3.0, 4.0]), 2, sched)
    assert norm(out - np.array([6.0, 0.0])) < 1e-12


def test_affine_denoise_identity_at_abar_one():
    basis = np.array([[1.0, 0.0]])
    prior = AffineSubspacePrior(basis=basis, offset=np.zeros(2))
    sched = Schedule.from_betas([1e-14, 2e-14])
    x = np.array([2.0, 0.0])  # inside the span
    assert norm(prior.denoise(x, 1, sched) - x) < 1e-9


def test_affine_denoise_ve_kills_orthogonal_part():
    basis = np.array([[1.0, 0.0]])
    prior = AffineSubspacePrior(basis=basis, offset=np.zeros(2))
    ve = Schedule.ve(5)
    out = prior.denoise(np.array([0.0, 3.0]), 3, ve)
    assert norm(out) < 1e-14


def test_affine_denoise_with_offset_fixes_affine_set():
    prior = AffineSubspacePrior.random((8,), 2, seed=9, dtype=REAL, offset_scale=1.0)
    vp = Schedule.vp(8)
    rng = RngStream(10)
    for t in (2, 6):
        xh = prior.denoise(rng.randn((8,)), t, vp)
        assert prior.distance(xh) < 1e-10 * max(norm(xh), 1.0)
    x_on = prior.sample(rng)
    assert norm(prior.denoise(x_on, 3, Schedule.ve(8)) - x_on) < 1e-12


def test_affine_prior_exact_projector_identity():
    # xhat = (1/sqrt(abar)) P x for the origin-through subspace
    prior = AffineSubspacePrior.random((12,), 4, seed=11, dtype=COMPLEX)
    vp = Schedule.vp(9)
    rng = RngStream(12)
    for t in (2, 5, 9):
        x = rng.randn((12,), dtype=COMPLEX)
        want = prior.project_linear(x) / math.sqrt(vp_abars(9)[t])
        assert norm(prior.denoise(x, t, vp) - want) < 1e-12


@pytest.mark.parametrize("shape, dim, dtype", [
    ((64, 64), 32, COMPLEX), ((8, 32, 32), 8, COMPLEX), ((16, 16), 5, REAL), ((8, 8), 1, REAL),
])
def test_project_linear_equals_the_conjugated_basis_product(shape, dim, dtype):
    # Q* v is formed as conj(conj(v) @ Q^T), not from a conjugated copy of Q,
    # and keeps every byte of q.T @ (q.conj() @ v)
    prior = AffineSubspacePrior.random(shape, dim, seed=3, dtype=dtype)
    q = prior.basis.reshape(dim, -1)
    for v in (RngStream(4).randn(shape, dtype=dtype), RngStream(5).randn(shape, dtype=COMPLEX)):
        want = (q.T @ (q.conj() @ v.ravel())).reshape(shape)
        assert np.array_equal(prior.project_linear(v), want)


# ---------------------------------------------------------------------------
# GMM prior and denoiser

def test_gmm_k1_conjugate_closed_form():
    mu = np.array([0.5, -1.0, 2.0])
    prior = GmmPrior(weights=np.array([1.0]), means=mu[None, :], tau2=0.3)
    vp = Schedule.vp(10)
    t = 6
    ab = vp_abars(10)[t]
    x = RngStream(13).randn((3,))
    want = (0.3 * math.sqrt(ab) * x + (1 - ab) * mu) / (ab * 0.3 + (1 - ab))
    assert norm(prior.denoise(x, t, vp) - want) < 1e-12


def test_gmm_point_mass_limit_returns_mean():
    mu = np.array([1.0, 2.0])
    prior = GmmPrior(weights=np.array([1.0]), means=mu[None, :], tau2=1e-16)
    vp = Schedule.vp(10)
    out = prior.denoise(RngStream(14).randn((2,)), 5, vp)
    assert norm(out - mu) < 1e-7


def test_gmm_symmetric_components_cancel_at_origin():
    mu = np.array([[1.0, -2.0], [-1.0, 2.0]])
    prior = GmmPrior(weights=np.array([0.5, 0.5]), means=mu, tau2=0.2)
    vp = Schedule.vp(10)
    out = prior.denoise(np.zeros(2), 4, vp)
    assert norm(out) < 1e-12


def test_gmm_matches_quadrature_oracle_1d():
    # brute-force posterior mean on a dense grid for a 1-D, K=3 mixture
    weights = np.array([0.5, 0.3, 0.2])
    means = np.array([[-1.0], [0.5], [2.0]])
    tau2 = 0.16
    prior = GmmPrior(weights=weights, means=means, tau2=tau2)
    vp = Schedule.vp(10)
    grid = np.linspace(-8.0, 9.0, 200_001)
    for t, xval in ((2, 0.7), (7, -0.4)):
        ab = vp_abars(10)[t]
        dens = np.zeros_like(grid)
        for w, m in zip(weights, means[:, 0]):
            dens += w * np.exp(-((grid - m) ** 2) / (2 * tau2)) / math.sqrt(2 * math.pi * tau2)
        lik = np.exp(-((xval - math.sqrt(ab) * grid) ** 2) / (2 * (1 - ab)))
        post = dens * lik
        want = float(np.trapezoid(grid * post) / np.trapezoid(post))
        got = prior.denoise(np.array([xval]), t, vp)[0]
        assert abs(got - want) < 1e-6


def test_gmm_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        GmmPrior(weights=np.array([0.5, 0.2]), means=np.zeros((2, 3)), tau2=1.0)


def test_gmm_prior_checks_tau2_and_one_mean_per_weight():
    with pytest.raises(ConfigError, match="tau"):
        GmmPrior(weights=np.array([0.5, 0.5]), means=np.zeros((2, 3)), tau2=0.0)
    with pytest.raises(ConfigError, match="one mean per weight"):
        GmmPrior(weights=np.array([0.5, 0.5]), means=np.zeros((3, 3)), tau2=1.0)


def test_gmm_sample_picks_component_k_with_probability_w_k():
    # one Gaussian draw through the normal CDF picks the component; the means
    # sit 100 tau apart, so the nearest mean names the component drawn
    w, n = np.array([0.2, 0.3, 0.5]), 20_000
    prior = GmmPrior(weights=w, means=np.array([[0.0], [1.0], [2.0]]), tau2=1e-4)
    rng = RngStream(8)
    picks = [int(np.rint(prior.sample(rng)[0])) for _ in range(n)]
    freq = np.bincount(picks, minlength=3) / n
    assert np.all(np.abs(freq - w) <= 4 * np.sqrt(w * (1 - w) / n))


def test_gmm_ve_mode_matches_conjugate_form():
    mu = np.array([0.2, 0.4])
    prior = GmmPrior(weights=np.array([1.0]), means=mu[None, :], tau2=0.5)
    ve = Schedule.ve(8, 0.05, 2.0)
    t = 4
    s2 = ve_sigmas(8, 0.05, 2.0)[t] ** 2
    x = RngStream(15).randn((2,))
    want = (0.5 * x + s2 * mu) / (0.5 + s2)
    assert norm(prior.denoise(x, t, ve) - want) < 1e-12


# ---------------------------------------------------------------------------
# DDIM step

def test_vp_step_eta0_pure_mean():
    s = Schedule.vp(10)
    xh = RngStream(16).randn((4,))
    rng = RngStream(17)
    out = ddim_step(xh, np.zeros(4), 5, 0.0, rng, s)
    assert norm(out - math.sqrt(vp_abars(10)[4]) * xh) < 1e-14
    # deterministic path must not consume randomness
    assert np.array_equal(rng.randn((3,)), RngStream(17).randn((3,)))


def test_vp_step_coefficient_identity():
    # deterministic^2 + (eta btilde)^2 = 1 - abar_{t-1} at eta = 1
    s, ab = Schedule.vp(16), vp_abars(16)
    for t in range(2, 17):
        det = 1.0 - ab[t - 1] - s.ddim_std(t) ** 2
        assert det >= -1e-14
        assert abs(det + s.ddim_std(t) ** 2 - (1.0 - ab[t - 1])) < 1e-14


def test_vp_step_seeded_reproducibility():
    s = Schedule.vp(10)
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
    s, ab = Schedule.vp(20), vp_abars(20)
    data = RngStream(27)
    for t in range(2, 21):
        for eta in (0.0, 0.15, 0.5, 1.0):
            xh, eh = data.randn((5, 3), dtype=dtype), data.randn((5, 3), dtype=dtype)
            ab_prev, bt = ab[t - 1], s.ddim_std(t)
            rad = 1.0 - ab_prev - (eta * bt) ** 2
            want = math.sqrt(ab_prev) * xh + math.sqrt(max(rad, 0.0)) * eh
            if eta > 0.0:
                want = want + eta * bt * RngStream(t).randn(xh.shape, dtype=dtype)
            assert np.array_equal(ddim_step(xh, eh, t, eta, RngStream(t), s), want)


def test_vp_step_eta1_matches_ddpm_ancestral_mean():
    # reconstruct x_t from (xhat, eps) and compare against the DDPM mean
    s, ab = Schedule.vp(14), vp_abars(14)
    rng = RngStream(20)
    for t in (2, 8, 14):
        xh = rng.randn((5,))
        eh = rng.randn((5,))
        xt = math.sqrt(ab[t]) * xh + math.sqrt(1 - ab[t]) * eh
        stoch_rng = RngStream(99)
        out = ddim_step(xh, eh, t, 1.0, stoch_rng, s)
        drawn = RngStream(99).randn((5,))
        deterministic = out - s.ddim_std(t) * drawn
        alpha_t = 1 - vp_betas(14)[t]
        ddpm_mean = (xt - (1 - alpha_t) / math.sqrt(1 - ab[t]) * eh) / math.sqrt(alpha_t)
        assert norm(deterministic - ddpm_mean) < 1e-12


def test_ve_step_eta0_deterministic():
    s, sig = Schedule.ve(10), ve_sigmas(10)
    xh = RngStream(21).randn((4,))
    sh = RngStream(22).randn((4,))
    t = 6
    rng = RngStream(1)
    out = ddim_step(xh, -sig[t] * sh, t, 0.0, rng, s)  # eps_hat = -sigma_t shat
    want = xh - sig[t - 1] * sig[t] * sh
    assert norm(out - want) < 1e-14
    assert np.array_equal(rng.randn((3,)), RngStream(1).randn((3,)))


def test_ve_step_coefficient_identity():
    s, sig = Schedule.ve(12), ve_sigmas(12)
    for t in range(2, 13):
        sp, st = sig[t - 1], sig[t]
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
    s = Schedule.vp(8) if mode == "vp" else Schedule.ve(8, 0.1, 4.0)
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
    # spot-check the vectorized denoiser against GmmPrior.denoise
    for i in range(50):
        assert norm(xhat[i] - prior.denoise(x_t[i], t, s)) < 1e-12
    x_prev = ddim_step(xhat, eps_from_denoised(x_t, xhat, t, s), t, eta, rng, s)
    dev = x_prev - s.scale(t - 1) * mu[None, :]
    trace = float(np.mean(np.sum(dev ** 2, axis=1)))
    assert abs(trace - d * s.var(t - 1)) <= 0.02 * d * s.var(t - 1)


def test_ve_step_seeded_reproducibility():
    s, sig = Schedule.ve(10), ve_sigmas(10)
    xh = RngStream(25).randn((4,))
    sh = RngStream(26).randn((4,))
    a = ddim_step(xh, -sig[5] * sh, 5, 0.8, RngStream(3), s)
    b = ddim_step(xh, -sig[5] * sh, 5, 0.8, RngStream(3), s)
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
    vp = Schedule.vp(8)
    t = 4
    # choose x_t whose denoised estimate is data-consistent: xhat solves A xhat = y
    # build y from a subspace point so the consistent point is reachable
    x_on = prior.sample(RngStream(33))
    y = a.apply(x_on)
    x_t = math.sqrt(vp_abars(8)[t]) * x_on  # denoises exactly to x_on
    g = mcg_dps_gradient(a.apply(prior.denoise(x_t, t, vp)) - y, t, prior, a, vp)
    assert norm(g) < 1e-10


def test_mcg_lies_in_subspace():
    prior, a, y = _setup_mcg(40)
    vp = Schedule.vp(8)
    xhat = prior.denoise(RngStream(41).randn((6,)), 5, vp)
    g = mcg_dps_gradient(a.apply(xhat) - y, 5, prior, a, vp)
    assert norm(g - prior.project_linear(g)) < 1e-12 * max(norm(g), 1.0)


def test_mcg_matches_finite_differences():
    # central differences of 1/2||y - A xhat(x_t)||^2 through the analytic denoiser
    prior, a, y = _setup_mcg(50, d=4, l=2)
    vp = Schedule.vp(6)
    t = 3
    x_t = RngStream(51).randn((4,))
    g = mcg_dps_gradient(a.apply(prior.denoise(x_t, t, vp)) - y, t, prior, a, vp)

    def loss(x):
        xh = prior.denoise(x, t, vp)
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
    vp = Schedule.vp(10)
    for s in range(20):
        prior, a, y = _setup_mcg(60 + 3 * s, d=8, l=3)
        rng = RngStream(90 + s)
        for t in (2, 4, 6, 8, 10):
            x_t = rng.randn((8,))
            gamma = 0.37
            xh = prior.denoise(x_t, t, vp)
            lhs = xh - gamma * mcg_dps_gradient(a.apply(xh) - y, t, prior, a, vp)
            zeta = gamma / math.sqrt(vp_abars(10)[t])
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


@pytest.mark.parametrize("length", [3.5e153, 1e154, math.nan])
def test_smooth_random_field_rejects_a_length_its_filter_cannot_hold(length):
    # 1e154 overflowed (pi length)^2 in an OverflowError, and 3.5e153 made
    # the filter's DC term -inf * 0 = NaN
    with pytest.raises(ConfigError, match="smooth"):
        smooth_random_field(RngStream(5), (8, 8), length)
    assert np.all(np.isfinite(smooth_random_field(RngStream(5), (8, 8), 1e153)))


def test_gmm_underflow_of_all_responsibilities_raises():
    from dds.errors import NumericalError
    prior = GmmPrior(weights=np.array([0.5, 0.5]),
                     means=np.zeros((2, 4)), tau2=0.1)
    vp = Schedule.vp(10)
    with pytest.raises(NumericalError):
        prior.denoise(np.full(4, 1e200), 5, vp)
