import numpy as np
import pytest

from dds import admm
from dds.admm import (
    AdmmState,
    SliceDenoiser,
    TvConfig,
    admm_tv_dc,
    dds_3d_reconstruct,
    soft_threshold,
    tv_objective,
)
from dds.diffusion import AffineSubspaceDenoiser, AffineSubspacePrior
from dds.errors import ConfigError
from dds.krylov import cg
from dds.operators import RadonGeometry, diff_z_apply, slice_radon_operator
from dds.samplers import SamplerConfig, dds_reconstruct
from dds.tensor import REAL, RngStream, norm
from test_krylov import counted
from test_operators import normal_map
from test_samplers import trace_against_dc_outputs


def ct_problem(seed, nz=4, side=8, angles=6, dim=4, constant_z=False):
    prior = AffineSubspacePrior.random((side, side), dim, seed=seed, dtype=REAL)
    den = AffineSubspaceDenoiser(prior)
    rng = RngStream(seed + 1)
    if constant_z:
        slc = prior.sample(rng)
        x_true = np.stack([slc] * nz)
    else:
        x_true = np.stack([prior.sample(rng) for _ in range(nz)])
    geom = RadonGeometry.uniform(side, angles)
    a = slice_radon_operator(geom, nz)
    return prior, den, x_true, a, a.apply(x_true)


# ---------------------------------------------------------------------------
# soft threshold

def test_soft_threshold_examples():
    assert soft_threshold(np.array([0.5]), 0.2)[0] == pytest.approx(0.3)
    assert soft_threshold(np.array([-0.1]), 0.2)[0] == 0.0
    v = RngStream(0).randn((16,))
    assert np.array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_rejects_negative_kappa():
    with pytest.raises(ConfigError):
        soft_threshold(np.zeros(3), -0.1)


def test_soft_threshold_is_exact_prox_by_grid_refinement():
    # independent oracle: refine a grid search of kappa|u| + (u-v)^2/2;
    # extended precision is needed because the objective is quadratically
    # flat at the minimum (float64 resolves argmins only to ~sqrt(eps))
    def prox_oracle(v, kappa):
        v = np.longdouble(v)
        kappa = np.longdouble(kappa)
        lo, hi = v - 2 * abs(kappa) - 1, v + 2 * abs(kappa) + 1
        for _ in range(8):
            grid = np.linspace(lo, hi, 2001, dtype=np.longdouble)
            obj = kappa * np.abs(grid) + 0.5 * (grid - v) ** 2
            k = int(np.argmin(obj))
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 2000)]
        return float(0.5 * (lo + hi))

    for v, kappa in ((0.5, 0.2), (-0.1, 0.2), (1.7, 0.9), (-2.4, 1.1), (0.05, 0.5)):
        want = prox_oracle(v, kappa)
        got = soft_threshold(np.array([v]), kappa)[0]
        assert abs(got - want) < 1e-8


# ---------------------------------------------------------------------------
# single ADMM sweep

def test_admm_zero_inner_iterations_keeps_x():
    _, _, x_true, a, y = ct_problem(10)
    state = AdmmState.zeros(x_true.shape)
    xhat = RngStream(11).randn(x_true.shape)
    xp, new_state = admm_tv_dc(xhat, a, y, state, TvConfig(lam=1.0, rho=0.5, cg_steps=0))
    assert np.array_equal(xp, xhat)
    assert new_state.z.shape == xhat.shape


def test_admm_lam_zero_tiny_rho_matches_plain_cg():
    _, _, x_true, a, y = ct_problem(20)
    xhat = RngStream(21).randn(x_true.shape)
    state = AdmmState.zeros(x_true.shape)
    xp, _ = admm_tv_dc(xhat, a, y, state, TvConfig(lam=0.0, rho=1e-12, cg_steps=5))
    want, _ = cg(normal_map(a), a.adjoint(y), xhat, 5)
    assert norm(xp - want) <= 1e-6 * max(norm(want), 1.0)


def test_admm_x_update_optimality_at_convergence():
    # 12 angles keep the slice operator full rank so inner CG can converge
    _, _, x_true, a, y = ct_problem(30, angles=12)
    state = AdmmState(z=RngStream(31).randn(x_true.shape),
                      w=RngStream(32).randn(x_true.shape))
    rho = 0.7
    cfg = TvConfig(lam=0.3, rho=rho, cg_steps=600)
    xhat = RngStream(33).randn(x_true.shape)
    xp, _ = admm_tv_dc(xhat, a, y, state, cfg)
    from dds.operators import diff_z_adjoint
    grad = a.adjoint(a.apply(xp) - y) + rho * diff_z_adjoint(diff_z_apply(xp) - state.z + state.w)
    assert norm(grad) <= 1e-6 * norm(a.adjoint(y))


def test_admm_state_shape_validation():
    _, _, x_true, a, y = ct_problem(40)
    bad = AdmmState.zeros((2, 2, 2))
    with pytest.raises(ConfigError):
        admm_tv_dc(x_true, a, y, bad, TvConfig())


def test_shared_state_single_iteration_tracks_reference_admm():
    # frozen anchor: iterate the one-sweep scheme 50x with state sharing and
    # compare the TV objective against a 500-iteration reference ADMM
    _, _, x_true, a, y = ct_problem(50, nz=4, side=8, angles=6)
    lam, rho = 0.2, 1.0
    anchor = x_true + 0.3 * RngStream(51).randn(x_true.shape)

    cfg_fast = TvConfig(lam=lam, rho=rho, cg_steps=5)
    state = AdmmState.zeros(x_true.shape)
    x = anchor.copy()
    for _ in range(50):
        x, state = admm_tv_dc(x, a, y, state, cfg_fast)
    f_fast = tv_objective(x, a, y, lam)

    cfg_ref = TvConfig(lam=lam, rho=rho, cg_steps=30)
    state_r = AdmmState.zeros(x_true.shape)
    xr = anchor.copy()
    for _ in range(500):
        xr, state_r = admm_tv_dc(xr, a, y, state_r, cfg_ref)
    f_ref = tv_objective(xr, a, y, lam)
    assert f_fast <= 1.01 * f_ref + 1e-12


# ---------------------------------------------------------------------------
# full 3-D loop

def test_3d_lam_zero_matches_flat_dds():
    _, den, x_true, a, y = ct_problem(60, nz=3, side=8, angles=8)
    scfg = SamplerConfig(nfe=8, eta=0.0, cg_steps=5, dc="dds-cg", seed=0)
    tv = TvConfig(lam=0.0, rho=1e-10, cg_steps=5)
    r3d = dds_3d_reconstruct(a, y, den, scfg, tv, rng=RngStream(4), x_true=x_true)
    flat = dds_reconstruct(a, y, SliceDenoiser(den), scfg, rng=RngStream(4), x_true=x_true)
    assert norm(r3d.x0 - flat.x0) <= 1e-6 * max(norm(flat.x0), 1.0)


def test_3d_strong_tv_flattens_consistent_identical_slices():
    # slice prior spanned by eigenvectors of the slice normal operator: CG
    # contracts sharply there, so the z-difference of the output is bounded
    # by a tightly converged trajectory rather than a loose plateau
    from dds.operators import radon_operator
    geom = RadonGeometry.uniform(8, 12)
    nop = normal_map(radon_operator(geom))
    dense = np.zeros((64, 64))
    for j in range(64):
        e = np.zeros(64)
        e[j] = 1.0
        dense[:, j] = nop.apply(e.reshape(8, 8)).ravel()
    evals, evecs = np.linalg.eigh((dense + dense.T) / 2)
    basis = np.ascontiguousarray(evecs[:, np.argsort(evals)[-12:-4]].T.reshape(8, 8, 8))
    prior = AffineSubspacePrior(basis=basis, offset=np.zeros((8, 8)))
    den = AffineSubspaceDenoiser(prior)
    x_true = np.stack([prior.sample(RngStream(71))] * 2)
    a = slice_radon_operator(geom, 2)
    y = a.apply(x_true)
    scfg = SamplerConfig(nfe=20, eta=0.0, cg_steps=10, dc="dds-cg", seed=0)
    tv = TvConfig(lam=2.0, rho=1.0, cg_steps=10)
    res = dds_3d_reconstruct(a, y, den, scfg, tv, rng=RngStream(5), x_true=x_true)
    dz = diff_z_apply(res.x0)
    assert norm(dz) <= 1e-4


def test_3d_fixed_seed_determinism():
    _, den, x_true, a, y = ct_problem(80, nz=3, side=8, angles=6)
    scfg = SamplerConfig(nfe=6, eta=0.4, cg_steps=3, dc="dds-cg", seed=9)
    tv = TvConfig(lam=0.1, rho=0.5, cg_steps=3)
    r1 = dds_3d_reconstruct(a, y, den, scfg, tv, rng=RngStream(9))
    r2 = dds_3d_reconstruct(a, y, den, scfg, tv, rng=RngStream(9))
    assert np.array_equal(r1.x0, r2.x0)


def test_3d_ve_mode_runs_warmup_then_admm():
    _, den, x_true, a, y = ct_problem(90, nz=3, side=8, angles=8)
    scfg = SamplerConfig(nfe=10, eta=0.0, cg_steps=5, dc="dds-cg", mode="ve",
                        ve_sigma_max=5.0, seed=2)
    tv = TvConfig(lam=0.05, rho=0.5, cg_steps=5)
    res = dds_3d_reconstruct(a, y, den, scfg, tv, rng=RngStream(2), x_true=x_true)
    assert np.all(np.isfinite(res.x0))
    assert len(res.trace) == 10


def test_tv_config_validation():
    with pytest.raises(ConfigError):
        TvConfig(rho=0.0)
    with pytest.raises(ConfigError):
        TvConfig(lam=-1.0)


@pytest.mark.parametrize("mode", ["vp", "ve"])
def test_volume_dc_costs_2m_plus_1_matvecs_per_step(mode):
    # ADMM x-updates (VP) and the VE plain-CG warm-up pay what a dds-cg step
    # pays: 2M + 1 matvecs, with the trace residual carried by the solve
    _, den, _, a, y = ct_problem(80, nz=3)
    a = counted(a)
    steps = 5  # nfe 6: t = 6..2; VE warms up for t >= 3 and runs ADMM at t = 2
    for m in (1, 2, 5):
        a.calls.update(apply=0, adjoint=0)
        cfg = SamplerConfig(nfe=6, mode=mode, seed=0)
        res = dds_3d_reconstruct(a, y, den, cfg, TvConfig(lam=0.5, rho=0.5, cg_steps=m),
                                 rng=RngStream(0))
        assert len(res.trace) == steps + 1
        assert a.calls["apply"] + a.calls["adjoint"] == steps * (2 * m + 1) + 1


@pytest.mark.parametrize("mode", ["vp", "ve"])
def test_volume_trace_residual_is_the_dc_output_residual(monkeypatch, mode):
    _, den, _, a, y = ct_problem(85, nz=3)
    y = y + 0.05 * RngStream(86).randn(y.shape)
    outs = []
    real_loop = admm.dds_reconstruct

    def loop(*args, dc, **kwargs):
        def spy(x, xhat, t):
            out = dc(x, xhat, t)
            outs.append(out[0])
            return out

        return real_loop(*args, dc=spy, **kwargs)

    monkeypatch.setattr(admm, "dds_reconstruct", loop)
    cfg = SamplerConfig(nfe=8, mode=mode, seed=0)
    res = dds_3d_reconstruct(a, y, den, cfg, TvConfig(lam=0.5, rho=0.5, cg_steps=3),
                             rng=RngStream(0))
    assert trace_against_dc_outputs(res.trace, outs, a, y) <= 1e-10 * norm(y)
