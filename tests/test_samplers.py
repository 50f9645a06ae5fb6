import cmath
import math

import numpy as np
import pytest

from dds import diffusion, samplers
from dds.diffusion import (
    AffineSubspacePrior,
    VeSchedule,
    VpSchedule,
)
from dds.errors import ConfigError
from dds.operators import (
    MaskSpec,
    identity_map,
    make_coil_maps,
    make_mask,
    matrix_operator,
    sense_operator,
)
from dds.samplers import (
    SamplerConfig,
    dds_reconstruct,
    ddnm_step,
    default_eta,
    gradient_dc_step,
    make_dc,
    make_schedule,
    pseudo_inverse_apply,
    rejection_wrap,
)
from dds.tensor import COMPLEX, REAL, RngStream, norm
from test_krylov import counted
from test_operators import normal_map


def sense_problem(seed, shape=(32, 32), dim=8, coils=4, acc=4.0, kind="uniform1d"):
    prior = AffineSubspacePrior.random(shape, dim, seed=seed)
    den = prior
    x_true = prior.sample(RngStream(seed + 1))
    mask = make_mask(MaskSpec(kind, acc, 0.08, seed + 2), shape)
    maps = make_coil_maps(coils, shape, seed=seed + 3)
    a = sense_operator(maps, mask)
    return prior, den, x_true, a, a.apply(x_true)


# ---------------------------------------------------------------------------
# config

def test_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(nfe=1)
    with pytest.raises(ConfigError):
        SamplerConfig(cg_steps=0)
    with pytest.raises(ConfigError):
        SamplerConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        SamplerConfig(dc="nope")
    with pytest.raises(ConfigError):
        SamplerConfig(eta=1.2)


@pytest.mark.parametrize("tau", [-1.0, float("nan")])
def test_config_rejects_negative_rejection_tau(tau):
    # rejection_tau = -1 used to be rejected only when max_retries > 1
    with pytest.raises(ConfigError, match="rejection_tau must be >= 0"):
        SamplerConfig(rejection_tau=tau)
    assert SamplerConfig(rejection_tau=0.0).rejection_tau == 0.0


def test_default_config_builds_vp_schedule():
    assert make_schedule(SamplerConfig()).n_steps == 20


def test_vp_schedule_error_names_rejected_nfe():
    with pytest.raises(ConfigError, match="nfe = 49"):
        make_schedule(SamplerConfig(nfe=49))


def test_default_eta_anchors():
    assert default_eta(19) == 0.15
    assert default_eta(49) == 0.5
    assert default_eta(99) == 0.8
    assert default_eta(30) == 0.15
    assert default_eta(120) == 0.8


# ---------------------------------------------------------------------------
# dc steps

def test_ddnm_full_mask_unitary_returns_adjoint_of_y():
    maps = make_coil_maps(1, (8, 8), 0)
    a = sense_operator(maps, np.ones((8, 8)))
    y = RngStream(1).randn(a.range_shape, dtype=COMPLEX)
    for seed in (2, 3):
        xhat = RngStream(seed).randn((8, 8), dtype=COMPLEX)
        out, _ = ddnm_step(xhat, a, y)
        assert norm(out - a.adjoint(y)) < 1e-10


def test_ddnm_consistent_input_is_fixed_point():
    _, _, x_true, a, y = sense_problem(10, shape=(16, 16), coils=2, acc=2.0)
    out, _ = ddnm_step(x_true, a, y)
    assert norm(out - x_true) <= 1e-10 * max(norm(x_true), 1.0)


def test_ddnm_matches_dense_pinv_oracle_single_coil():
    maps = make_coil_maps(1, (8, 8), 4)
    mask = make_mask(MaskSpec("uniform1d", 2, 0.125, 5), (8, 8))
    a = sense_operator(maps, mask)
    d = 64
    dense = np.zeros((math.prod(a.range_shape), d), dtype=complex)
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        dense[:, j] = a.apply(e.reshape(8, 8)).ravel()
    pinv = np.linalg.pinv(dense)
    xhat = RngStream(6).randn((8, 8), dtype=COMPLEX)
    y = a.apply(RngStream(7).randn((8, 8), dtype=COMPLEX))
    want = ((np.eye(d) - pinv @ dense) @ xhat.ravel() + pinv @ y.ravel()).reshape(8, 8)
    assert norm(ddnm_step(xhat, a, y)[0] - want) < 1e-10


@pytest.mark.parametrize("kind", ["uniform1d", "gaussian2d", "poisson-disk-vd"])
def test_single_coil_pseudo_inverse_is_one_cgls_step(kind):
    # A A* is the sampling mask, so CGLS from zero takes the step z = A* r
    # and stops: A*r up front, then A*s, A p and the stopping test's A*s
    _, _, _, a, y = sense_problem(60, shape=(16, 16), coils=1, acc=2.0, kind=kind)
    r = y + 0.05 * RngStream(61).randn(y.shape, dtype=COMPLEX)  # off the range too
    z, report = pseudo_inverse_apply(a, r)
    assert norm(z - a.adjoint(r)) <= 1e-12 * norm(z)
    assert norm(report.residual - (r - a.apply(z))) <= 1e-12 * norm(r)
    ca = counted(a)
    pseudo_inverse_apply(ca, r)
    assert ca.calls == {"apply": 1, "adjoint": 3}


def test_ddnm_output_satisfies_measurements_when_consistent():
    _, _, x_true, a, y = sense_problem(20, shape=(16, 16), coils=2, acc=2.0)
    xhat = RngStream(21).randn((16, 16), dtype=COMPLEX)
    out, _ = ddnm_step(xhat, a, y)
    assert norm(y - a.apply(out)) <= 1e-6 * norm(y)


def test_pseudo_inverse_multicoil_matches_dense_pinv():
    maps = make_coil_maps(2, (8, 8), 8)
    mask = make_mask(MaskSpec("gaussian1d", 2, 0.125, 9), (8, 8))
    a = sense_operator(maps, mask)
    d = 64
    dense = np.zeros((math.prod(a.range_shape), d), dtype=complex)
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        dense[:, j] = a.apply(e.reshape(8, 8)).ravel()
    r = a.apply(RngStream(10).randn((8, 8), dtype=COMPLEX))  # consistent range vector
    want = (np.linalg.pinv(dense) @ r.ravel()).reshape(8, 8)
    got, _ = pseudo_inverse_apply(a, r)
    assert norm(got - want) <= 1e-6 * norm(want)


def test_gradient_step_consistent_point_unchanged():
    _, _, x_true, a, y = sense_problem(40, shape=(16, 16), coils=2, acc=2.0)
    out = gradient_dc_step(x_true, a, y, 0.7)
    assert norm(out - x_true) < 1e-12 * max(norm(x_true), 1.0)


def test_gradient_step_identity_operator_one_shot():
    a = identity_map((6,), dtype=REAL)
    y = RngStream(41).randn((6,))
    out = gradient_dc_step(np.zeros(6), a, y, 1.0)
    assert np.array_equal(out, y)


def test_gradient_step_descends_residual_for_stable_steps():
    m = RngStream(42).randn((10, 10)) / 4.0
    a = matrix_operator(m)
    y = RngStream(43).randn((10,))
    x = RngStream(44).randn((10,))
    opn2 = np.linalg.norm(m, 2) ** 2
    for xi in (0.5 / opn2, 1.0 / opn2, 1.9 / opn2):
        out = gradient_dc_step(x, a, y, xi)
        assert norm(y - a.apply(out)) < norm(y - a.apply(x))


def dps_step(x_t, t, prior, a, y, gamma, sched):
    """The make_dc ``dps`` step at (x_t, t), handed the loop's posterior mean."""
    dc = make_dc(SamplerConfig(dc="dps", dps_step=gamma), a, y, sched, prior)
    return dc(x_t, prior.denoise(x_t, t, sched), t)[0]


def test_dps_step_consistent_point_unchanged():
    prior = AffineSubspacePrior.random((12,), 3, seed=50, dtype=REAL)
    amat = RngStream(51).randn((12, 12)) / 4.0
    a = matrix_operator(amat)
    x_on = prior.sample(RngStream(52))
    y = a.apply(x_on)
    vp = VpSchedule.default(8)
    t = 5
    x_t = math.sqrt(vp.abars[t]) * x_on
    out = dps_step(x_t, t, prior, a, y, 0.8, vp)
    assert norm(out - x_on) < 1e-10 * max(norm(x_on), 1.0)


def test_dps_step_stays_in_subspace():
    prior = AffineSubspacePrior.random((12,), 3, seed=60, dtype=REAL)
    a = matrix_operator(RngStream(61).randn((12, 12)) / 4.0)
    y = RngStream(62).randn((12,))
    vp = VpSchedule.default(8)
    out = dps_step(RngStream(63).randn((12,)), 4, prior, a, y, 1.0, vp)
    assert prior.distance(out) < 1e-10 * max(norm(out), 1.0)


def test_dps_step_equals_projected_gradient_form():
    prior = AffineSubspacePrior.random((10,), 4, seed=70, dtype=REAL)
    a = matrix_operator(RngStream(71).randn((10, 10)) / 3.0)
    y = RngStream(72).randn((10,))
    vp = VpSchedule.default(9)
    t, gamma = 6, 0.45
    x_t = RngStream(73).randn((10,))
    lhs = dps_step(x_t, t, prior, a, y, gamma, vp)
    xh = prior.denoise(x_t, t, vp)
    zeta = gamma / math.sqrt(vp.abars[t])
    v = xh - zeta * a.adjoint(a.apply(xh) - y)
    rhs = prior.project_linear(v - prior.offset) + prior.offset
    assert norm(lhs - rhs) <= 1e-10 * max(norm(lhs), 1.0)


# ---------------------------------------------------------------------------
# reconstruction loop

def test_identity_problem_recovers_measurement():
    # A = I with the truth inside the prior: CG fixes the iterate at y
    prior = AffineSubspacePrior.random((16,), 4, seed=80, dtype=REAL)
    den = prior
    x_true = prior.sample(RngStream(81))
    a = identity_map((16,), dtype=REAL)
    cfg = SamplerConfig(nfe=8, eta=0.0, cg_steps=1, dc="dds-cg", seed=0)
    res = dds_reconstruct(a, x_true, den, cfg, rng=RngStream(0))
    assert norm(res.x0 - x_true) <= 1e-6 * norm(x_true)


def test_exact_recovery_beats_subspace_least_squares_tolerance():
    # prior spanned by eigenvectors of A*A (the Krylov-representable tangent
    # case): CG contraction is sharp, so ten steps of five iterations land
    # far below the 1e-4 bound; the least-squares oracle pins the target
    maps = make_coil_maps(4, (16, 16), seed=90)
    mask = make_mask(MaskSpec("gaussian1d", 2.0, 0.1, 91), (16, 16))
    a = sense_operator(maps, mask)
    nop = normal_map(a)
    d = 256
    dense = np.zeros((d, d), dtype=complex)
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        dense[:, j] = nop.apply(e.reshape(16, 16)).ravel()
    evals, evecs = np.linalg.eigh((dense + dense.conj().T) / 2)
    basis = np.ascontiguousarray(evecs[:, np.argsort(evals)[-16:-8]].T.reshape(8, 16, 16))
    prior = AffineSubspacePrior(basis=basis, offset=np.zeros((16, 16), dtype=complex))
    den = prior
    x_true = prior.sample(RngStream(92))
    y = a.apply(x_true)
    q = prior.basis.reshape(prior.dim, -1).T
    aq = np.column_stack([a.apply(q[:, j].reshape(16, 16)).ravel()
                          for j in range(prior.dim)])
    coef, *_ = np.linalg.lstsq(aq, y.ravel(), rcond=None)
    x_ls = (q @ coef).reshape(16, 16)
    assert norm(x_ls - x_true) <= 1e-8 * norm(x_true)  # identifiable instance
    cfg = SamplerConfig(nfe=10, eta=0.0, cg_steps=5, dc="dds-cg", seed=0)
    res = dds_reconstruct(a, y, den, cfg, rng=RngStream(0), x_true=x_true)
    assert norm(res.x0 - x_true) <= 1e-4 * norm(x_true)


def test_same_seed_bitwise_identical():
    _, den, x_true, a, y = sense_problem(100)
    cfg = SamplerConfig(nfe=6, eta=0.5, cg_steps=3, dc="dds-cg", seed=7)
    r1 = dds_reconstruct(a, y, den, cfg, rng=RngStream(7), x_true=x_true)
    r2 = dds_reconstruct(a, y, den, cfg, rng=RngStream(7), x_true=x_true)
    assert np.array_equal(r1.x0, r2.x0)
    assert [vars(s) for s in r1.trace] == [vars(s) for s in r2.trace]


def test_eta_zero_deterministic_without_rng():
    _, den, _, a, y = sense_problem(110, shape=(16, 16), coils=2, acc=2.0, dim=4)
    cfg = SamplerConfig(nfe=6, eta=0.0, cg_steps=3, dc="dds-cg", seed=1)
    rng = RngStream(1)
    res = dds_reconstruct(a, y, den, cfg, rng=rng)
    assert rng.draws == 2 * 16 * 16  # only the complex init draw


def test_trace_has_one_record_per_step():
    _, den, x_true, a, y = sense_problem(120, shape=(16, 16), coils=2, acc=2.0, dim=4)
    cfg = SamplerConfig(nfe=7, eta=0.0, cg_steps=2, dc="dds-cg", seed=0)
    res = dds_reconstruct(a, y, den, cfg, rng=RngStream(0), x_true=x_true)
    assert len(res.trace) == 7  # N-1 loop steps + final Tweedie record
    ts = [r.t for r in res.trace]
    assert ts == list(range(7, 0, -1))
    assert all(np.isfinite(r.gt_error) for r in res.trace)


def test_dds_cg_residual_never_worse_than_denoised_start():
    _, den, _, a, y = sense_problem(130)
    cfg = SamplerConfig(nfe=10, eta=0.3, cg_steps=5, dc="dds-cg", seed=3)
    sched = VpSchedule.default(10)
    # replay the loop manually to compare pre/post DC residuals
    from dds.diffusion import ddim_step, eps_from_denoised
    from oracles import cg
    rng = RngStream(3)
    x = rng.randn((32, 32), dtype=COMPLEX)
    nrm = normal_map(a)
    ay = a.adjoint(y)
    for t in range(10, 1, -1):
        xh = den.denoise(x, t, sched)
        pre = norm(y - a.apply(xh))
        xp, _ = cg(nrm, ay, xh, 5)
        post = norm(y - a.apply(xp))
        assert post <= pre + 1e-9
        x = ddim_step(xp, eps_from_denoised(x, xh, t, sched), t, 0.3, rng, sched)


def test_vp_ve_agree_on_matched_schedules():
    # sigma_t^2 = (1 - abar_t) / abar_t makes the two parameterizations align
    prior, den, x_true, a, y = sense_problem(140, shape=(16, 16), coils=2, acc=2.0, dim=4)
    n = 12
    vp = VpSchedule.default(n)
    sig = np.sqrt((1.0 - vp.abars[1:]) / vp.abars[1:])
    ve = VeSchedule.from_sigmas(sig)
    cfg_vp = SamplerConfig(nfe=n, eta=0.0, cg_steps=5, dc="dds-cg", mode="vp", seed=0)
    cfg_ve = SamplerConfig(nfe=n, eta=0.0, cg_steps=5, dc="dds-cg", mode="ve",
                           ve_truncation=0.0, seed=0)
    r_vp = dds_reconstruct(a, y, den, cfg_vp, rng=RngStream(5), schedule=vp)
    r_ve = dds_reconstruct(a, y, den, cfg_ve, rng=RngStream(5), schedule=ve)
    assert norm(r_vp.x0 - x_true) <= 1e-3 * norm(x_true)
    assert norm(r_ve.x0 - x_true) <= 1e-3 * norm(x_true)
    assert norm(r_vp.x0 - r_ve.x0) <= 1e-3 * norm(x_true)


class _Start(RngStream):
    """A stream whose first draw is a given start z (eta = 0 draws no more)."""

    def __init__(self, z, seed=0):
        super().__init__(seed)
        self.z = z

    def randn(self, shape, dtype=REAL):
        if self.z is None:
            return super().randn(shape, dtype)
        z, self.z = self.z, None
        return z.copy()


def vp_and_rescaled_ve_x0(seed, dc, n=20):
    """x0 of a VP run and of a VE run on sigma_t = sqrt(var(t)) / scale(t) from
    the same start z, the VE state being x / scale(t), at eta = 0."""
    prior, den, x_true, a, y = sense_problem(seed, shape=(16, 16), dim=8, coils=4, acc=4.0)
    vp = VpSchedule.default(n)
    ve = VeSchedule.from_sigmas([math.sqrt(vp.var(t)) / vp.scale(t) for t in range(1, n + 1)])
    z = RngStream(1000 + seed).randn(a.domain_shape, dtype=COMPLEX)
    kw = dict(nfe=n, eta=0.0, cg_steps=5, dc=dc)
    r_vp = dds_reconstruct(a, y, den, SamplerConfig(mode="vp", **kw), rng=_Start(z),
                           schedule=vp)
    r_ve = dds_reconstruct(a, y, den, SamplerConfig(mode="ve", ve_truncation=0.0, **kw),
                           rng=_Start(z / (vp.scale(n) * ve.sigmas[n])), schedule=ve)
    return r_vp.x0, r_ve.x0


# Worst relative x0 difference over seeds 1-150: dds-cg 4.7e-16, dds-proximal-cg
# 8.4e-16, gradient 1.0e-15, ddnm 9.7e-13 (the pseudo-inverse's round-off).
@pytest.mark.parametrize("dc, seeds, bound", [
    ("dds-cg", range(1, 6), 1e-12),
    ("dds-proximal-cg", range(1, 6), 1e-12),
    ("gradient", range(1, 6), 1e-12),
    ("ddnm", range(1, 21), 1e-11),
], ids=["dds-cg", "dds-proximal-cg", "gradient", "ddnm"])
def test_vp_is_ve_on_its_sigma_grid(dc, seeds, bound):
    # both schedules state x_t = scale(t) x0 + sqrt(var(t)) eps, so a VP run is
    # a VE run on sigma_t = sqrt(var(t)) / scale(t) in the state x / scale(t)
    for seed in seeds:
        x_vp, x_ve = vp_and_rescaled_ve_x0(seed, dc)
        assert norm(x_vp - x_ve) <= bound * norm(x_vp), seed


# Worst relative x0 change over seeds 1-4 on gaussian2d, both checks:
# dds-cg 3.4e-16, dds-proximal-cg 7.1e-16, gradient 7.0e-16, dps 1.1e-12; over
# seeds 1-100 on uniform1d at 4x (a column mask): ddnm 9.8e-13, projection
# 8.4e-6. On 2-D masks ddnm (to 8e-9) and projection (to 4e-4) amplify the
# round-off of the pseudo-inverse solve; see test_vp_is_ve_on_its_sigma_grid.
@pytest.mark.parametrize("dc, kind, bound", [
    ("dds-cg", "gaussian2d", 1e-12),
    ("dds-proximal-cg", "gaussian2d", 1e-12),
    ("gradient", "gaussian2d", 1e-12),
    ("dps", "gaussian2d", 1e-10),
    ("ddnm", "uniform1d", 1e-11),
    ("projection", "uniform1d", 1e-4),
], ids=["dds-cg", "dds-proximal-cg", "gradient", "dps", "ddnm", "projection"])
def test_loop_commutes_with_global_phase_and_coil_order(dc, kind, bound):
    # the affine prior (no offset) and every DC step are phase-equivariant, so
    # y -> e^{i phi} y with start z -> e^{i phi} z gives x0 -> e^{i phi} x0;
    # permuting the coils (maps and data alike) only reorders coil sums
    phase, perm = cmath.exp(0.7j), [2, 0, 3, 1]
    cfg = SamplerConfig(mode="vp", nfe=20, eta=0.0, cg_steps=5, dc=dc)
    for seed in range(1, 5):
        prior, den, x_true, a, y = sense_problem(seed, shape=(16, 16), dim=8, coils=4,
                                                 acc=4.0, kind=kind)
        assert (a.plan.dft is not None) == (kind == "uniform1d")  # a column mask
        z = RngStream(1000 + seed).randn(a.domain_shape, dtype=COMPLEX)
        x0 = dds_reconstruct(a, y, den, cfg, rng=_Start(z)).x0
        x_phase = dds_reconstruct(a, phase * y, den, cfg, rng=_Start(phase * z)).x0
        assert norm(x_phase - phase * x0) <= bound * norm(x0), seed
        a_perm = sense_operator(a.plan.maps[perm], a.plan.mask)
        x_perm = dds_reconstruct(a_perm, y[perm], den, cfg, rng=_Start(z)).x0
        assert norm(x_perm - x0) <= bound * norm(x0), seed


@pytest.mark.parametrize("dc", ["projection", "dps"])
def test_projection_and_dps_are_not_rescaled_ve(dc):
    # projection projects the scaled noisy iterate, and the dps step is
    # 1/scale(t) larger in VP: these two differ beyond round-off (seeds 1-150:
    # projection by 1.5e-2 median, dps by about 1)
    for seed in range(1, 4):
        x_vp, x_ve = vp_and_rescaled_ve_x0(seed, dc)
        assert norm(x_vp - x_ve) > 1e-6 * norm(x_vp), seed


@pytest.mark.parametrize("mode, truncation, k_stop", [
    ("vp", 1 / 50, 1), ("ve", 1 / 50, 1), ("ve", 0.2, 2),
], ids=["vp", "ve", "ve-truncated"])
def test_loop_keeps_every_timestep_in_range(monkeypatch, mode, truncation, k_stop):
    # the denoisers and ddim_step trust t: the loop hands the denoiser
    # t in [k_stop, N] and the DDIM step t in [k_stop + 1, N]
    _, den, _, a, y = sense_problem(151, shape=(16, 16), coils=2, acc=2.0, dim=4)
    den_ts, ddim_ts = [], []

    class SpyDenoiser:
        def denoise(self, x, t, sched):
            den_ts.append(t)
            return den.denoise(x, t, sched)

    def ddim_spy(xhat_dc, eps_hat, t, eta, rng, sched):
        ddim_ts.append(t)
        return diffusion.ddim_step(xhat_dc, eps_hat, t, eta, rng, sched)

    monkeypatch.setattr(samplers, "vp_ddim_step", ddim_spy)
    n = 10
    cfg = SamplerConfig(nfe=n, eta=0.5, cg_steps=2, dc="dds-cg", mode=mode,
                        ve_truncation=truncation, seed=0)
    dds_reconstruct(a, y, SpyDenoiser(), cfg, rng=RngStream(0))
    assert den_ts == list(range(n, k_stop - 1, -1))
    assert ddim_ts == list(range(n, k_stop, -1))


def test_ve_truncation_stops_early():
    _, den, _, a, y = sense_problem(150, shape=(16, 16), coils=2, acc=2.0, dim=4)
    cfg = SamplerConfig(nfe=10, eta=0.0, cg_steps=2, dc="dds-cg", mode="ve",
                        ve_truncation=0.3, seed=0)
    res = dds_reconstruct(a, y, den, cfg, rng=RngStream(0))
    # truncation floor: int(10 * 0.3) = 3, so records run t = 10..4 then t=3
    assert [r.t for r in res.trace] == list(range(10, 2, -1))


def test_confinement_trace_on_operator_invariant_subspace():
    # subspace spanned by eigenvectors of A*A: CG keeps every DC output inside
    maps = make_coil_maps(4, (16, 16), seed=1)
    mask = make_mask(MaskSpec("gaussian1d", 2, 0.1, 2), (16, 16))
    a = sense_operator(maps, mask)
    nop = normal_map(a)
    d = 256
    dense = np.zeros((d, d), dtype=complex)
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        dense[:, j] = nop.apply(e.reshape(16, 16)).ravel()
    evals, evecs = np.linalg.eigh((dense + dense.conj().T) / 2)
    sel = np.argsort(evals)[-40:-32]
    basis = np.ascontiguousarray(evecs[:, sel].T.reshape(8, 16, 16))
    prior = AffineSubspacePrior(basis=basis, offset=np.zeros((16, 16), dtype=complex))
    den = prior
    x_true = prior.sample(RngStream(3))
    y = a.apply(x_true)
    for dc in ("dds-cg", "dps"):
        cfg = SamplerConfig(nfe=8, eta=0.0, cg_steps=5, dc=dc, seed=0)
        res = dds_reconstruct(a, y, den, cfg, rng=RngStream(0), x_true=x_true)
        for rec in res.trace:
            scale = max(norm(res.x0), 1.0)
            assert rec.subspace_dist <= 1e-8 * scale


def test_ddnm_projection_leave_subspace_generically():
    # measured, not asserted on magnitude: on a rank-deficient instance the
    # pseudo-inverse replacement lands visibly off the prior span
    prior, den, x_true, a, y = sense_problem(160, shape=(16, 16), coils=1, acc=4.0, dim=4)
    cfg = SamplerConfig(nfe=6, eta=0.0, cg_steps=3, dc="ddnm", seed=0)
    res = dds_reconstruct(a, y, den, cfg, rng=RngStream(0))
    mid = res.trace[1]
    assert mid.subspace_dist > 1e-6  # generic instances keep a visible gap


def test_projection_strategy_targets_noisy_iterate():
    prior, den, x_true, a, y = sense_problem(170, shape=(16, 16), coils=2, acc=2.0, dim=4)
    cfg = SamplerConfig(nfe=6, eta=0.0, cg_steps=3, dc="projection", seed=0)
    res = dds_reconstruct(a, y, den, cfg, rng=RngStream(0))
    assert np.all(np.isfinite(res.x0))
    # the denoised estimate is left alone; the noisy iterate is projected
    sched = VpSchedule.default(6)
    x = RngStream(171).randn((16, 16), dtype=COMPLEX)
    xhat = den.denoise(x, 6, sched)
    assert make_dc(cfg, a, y, sched, prior)(x, xhat, 6)[0] is xhat
    cfg_ddnm = SamplerConfig(nfe=6, eta=0.0, cg_steps=3, dc="ddnm", seed=0)
    res_ddnm = dds_reconstruct(a, y, den, cfg_ddnm, rng=RngStream(0))
    assert not np.allclose(res.x0, res_ddnm.x0)


@pytest.mark.parametrize("dc, step", [("gradient", "xi"), ("dps", "dps_step")])
def test_scale_step_by_residual_divides_step(dc, step):
    prior, den, x_true, a, y = sense_problem(175, shape=(16, 16), coils=2, acc=2.0, dim=4)
    sched = VpSchedule.default(8)
    x = RngStream(176).randn((16, 16), dtype=COMPLEX)
    xhat = den.denoise(x, 5, sched)
    r = norm(y - a.apply(xhat))
    assert r > 1e-3
    scaled = make_dc(SamplerConfig(dc=dc, scale_step_by_residual=True, **{step: 0.7}),
                     a, y, sched, prior)
    divided = make_dc(SamplerConfig(dc=dc, **{step: 0.7 / r}), a, y, sched, prior)
    plain = make_dc(SamplerConfig(dc=dc, **{step: 0.7}), a, y, sched, prior)
    assert np.array_equal(scaled(x, xhat, 5)[0], divided(x, xhat, 5)[0])
    assert not np.allclose(scaled(x, xhat, 5)[0], plain(x, xhat, 5)[0])


@pytest.mark.parametrize("dc, calls", [("dds-cg", 8), ("dps", 8)])
def test_dps_reuses_the_loop_posterior_mean(monkeypatch, dc, calls):
    # nfe 8 VP: 8 denoiser calls for every strategy, and dps's gradient is
    # taken at the very xhat the loop's denoiser returned
    _, den, _, a, y = sense_problem(179, shape=(16, 16), coils=2, acc=2.0, dim=4)
    denoise, gradient = AffineSubspacePrior.denoise, samplers.mcg_dps_gradient
    xhats, taken = [], []

    def spy(*args):
        xhats.append(denoise(*args))
        return xhats[-1]

    def gradient_spy(xhat, *args):
        taken.append(xhat)
        return gradient(xhat, *args)

    monkeypatch.setattr(AffineSubspacePrior, "denoise", spy)
    monkeypatch.setattr(samplers, "mcg_dps_gradient", gradient_spy)
    dds_reconstruct(a, y, den, SamplerConfig(nfe=8, dc=dc, seed=0), rng=RngStream(0))
    assert len(xhats) == calls
    if dc == "dps":
        assert len(taken) == calls - 1 and all(g is x for g, x in zip(taken, xhats))


def test_dps_without_affine_prior_is_config_error():
    _, _, _, a, y = sense_problem(178, shape=(16, 16), coils=2, acc=2.0, dim=4)
    with pytest.raises(ConfigError, match="affine-subspace prior"):
        make_dc(SamplerConfig(dc="dps"), a, y, VpSchedule.default(8), None)


@pytest.mark.parametrize("mode, nfe", [("vp", 8), ("ve", 12)])
def test_dds_cg_costs_2m_plus_1_matvecs_per_step(mode, nfe):
    # per step: the start residual, M forwards, M adjoints less the capped
    # solve's last one, and no forward for the trace; plus the final x0's
    _, den, _, a, y = sense_problem(190, shape=(16, 16), coils=2, acc=2.0, dim=4)
    a = counted(a)
    steps = nfe - 1
    for m in (1, 3, 5):
        a.calls.update(apply=0, adjoint=0)
        cfg = SamplerConfig(nfe=nfe, mode=mode, cg_steps=m, dc="dds-cg", seed=0)
        res = dds_reconstruct(a, y, den, cfg, rng=RngStream(0))
        assert len(res.trace) == steps + 1
        assert a.calls["apply"] + a.calls["adjoint"] == steps * (2 * m + 1) + 1


def trace_against_dc_outputs(trace, outs, a, y):
    """|trace residual - ||y - A x'||| over the loop's steps, x' as the DC step returned it."""
    assert len(outs) == len(trace) - 1
    return max(abs(rec.residual - norm(y - a.apply(xp))) for rec, xp in zip(trace, outs))


@pytest.mark.parametrize("dc, mode, nfe, coils", [  # two-coil cases keep their ids
    pytest.param(dc, mode, nfe, coils, id=f"{dc}-{mode}-{nfe}" + ("-1-coil" if coils == 1 else ""))
    for coils in (2, 1) for mode, nfe in (("vp", 8), ("ve", 12))
    for dc in samplers.DC_STRATEGIES
])
def test_trace_residual_is_the_dc_output_residual(monkeypatch, dc, mode, nfe, coils):
    # the residual a solve carries must not drift from the one it stands for;
    # single-coil ddnm reaches A+ in one CGLS step and carries it too
    _, den, _, a, y = sense_problem(195, shape=(16, 16), coils=coils, acc=2.0, dim=4)
    y = y + 0.05 * RngStream(196).randn(y.shape, dtype=COMPLEX)
    outs = []
    real_make_dc = samplers.make_dc

    def make_dc(*args):
        step = real_make_dc(*args)

        def spy(x, xhat, t):
            out = step(x, xhat, t)
            outs.append(out[0])
            return out

        return spy

    monkeypatch.setattr(samplers, "make_dc", make_dc)
    cfg = SamplerConfig(nfe=nfe, mode=mode, dc=dc, seed=0)
    res = dds_reconstruct(a, y, den, cfg, rng=RngStream(0))
    assert trace_against_dc_outputs(res.trace, outs, a, y) <= 1e-10 * norm(y)


# ---------------------------------------------------------------------------
# rejection sampling

def _quick_run(a, y, den, seed_rng):
    cfg = SamplerConfig(nfe=6, eta=0.0, cg_steps=5, dc="dds-cg", seed=0)
    return dds_reconstruct(a, y, den, cfg, rng=seed_rng)


def test_rejection_infinite_tau_accepts_first():
    _, den, _, a, y = sense_problem(180, shape=(16, 16), coils=2, acc=2.0, dim=4)
    res = rejection_wrap(lambda rng: _quick_run(a, y, den, rng), math.inf, 5, RngStream(0))
    assert res.accepted is True
    assert res.attempts == 1


def test_rejection_zero_tau_exhausts_and_flags():
    _, den, _, a, y = sense_problem(190, shape=(16, 16), coils=2, acc=2.0, dim=4)
    y = y + 0.1 * RngStream(191).randn(a.range_shape, dtype=COMPLEX)
    res = rejection_wrap(lambda rng: _quick_run(a, y, den, rng), 0.0, 3, RngStream(0))
    assert res.accepted is False
    assert res.attempts == 3


def test_rejection_accepts_consistent_problem():
    _, den, _, a, y = sense_problem(200, shape=(16, 16), coils=2, acc=2.0, dim=4)
    res = rejection_wrap(lambda rng: _quick_run(a, y, den, rng), 1e-3, 5, RngStream(0))
    assert res.accepted is True
    assert res.attempts == 1
    assert res.residual <= 1e-3


def test_divergence_raises_with_trace_attached():
    from dds.errors import SamplerDivergedError
    from dds.operators import RadonGeometry, radon_operator
    # an absurd fixed gradient step overflows float64 within a few steps
    geom = RadonGeometry.uniform(16, 12)
    a = radon_operator(geom)
    prior = AffineSubspacePrior.random((16, 16), 4, seed=0, dtype=REAL)
    den = prior
    y = a.apply(prior.sample(RngStream(1)))
    cfg = SamplerConfig(nfe=20, eta=0.0, cg_steps=1, dc="gradient", xi=1e16, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SamplerDivergedError) as exc:
            dds_reconstruct(a, y, den, cfg, rng=RngStream(0))
    # the trace ends with the step whose residual is not finite
    records = exc.value.trace
    assert not math.isfinite(records[-1].residual)
    assert all(math.isfinite(r.residual) for r in records[:-1])
    assert f"at t = {records[-1].t}" in str(exc.value)


@pytest.mark.parametrize("dc", ["dds-cg", "dds-proximal-cg", "ddnm", "projection",
                                "gradient", "dps"])
def test_nan_from_the_operator_fails_the_run(dc):
    # LinearMap does not scan its outputs: CG's scalars, the per-step
    # residual or the final check must catch a NaN whichever path it takes
    from dds.errors import SamplerDivergedError
    from dds.operators import LinearMap
    prior, den, x_true, a, y = sense_problem(5, shape=(16, 16), coils=2, acc=2.0, dim=4)
    calls = [0]

    def poisoned(x):
        calls[0] += 1
        out = a.apply(x)
        if calls[0] == 6:
            out = out.copy()
            out.flat[0] = np.nan
        return out

    bad = LinearMap(a.domain_shape, a.range_shape, poisoned, a.adjoint, name="bad")
    cfg = SamplerConfig(nfe=6, eta=0.0, cg_steps=2, dc=dc, seed=0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(SamplerDivergedError) as exc:
            dds_reconstruct(bad, y, den, cfg, rng=RngStream(0), x_true=x_true)
    assert exc.value.trace is not None


def test_trace_csv_roundtrip(tmp_path):
    _, den, x_true, a, y = sense_problem(210, shape=(16, 16), coils=2, acc=2.0, dim=4)
    cfg = SamplerConfig(nfe=5, eta=0.0, cg_steps=2, dc="dds-cg", seed=0)
    res = dds_reconstruct(a, y, den, cfg, rng=RngStream(0), x_true=x_true)
    p = tmp_path / "trace.csv"
    res.trace.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "t,residual,gt-error,noise-est,subspace-dist"
    assert len(lines) == 1 + len(res.trace)
    first = lines[1].split(",")
    assert int(first[0]) == 5
    assert float(first[1]) == res.trace[0].residual
