"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 7 checks the ordering of warm-started CG data consistency over
pseudo-inverse range replacement (DDNM) on noisy measurements. On noiseless
data the pinv step ``xhat + A^+(y - A xhat)`` is the exact orthogonal
projection onto {x : Ax = y}, and 5-step CG on A*A x = A*y from ``xhat`` is
the same iteration truncated, so with an exact projector denoiser pinv can
only be the stronger step there. The method prefers CG because A^+ amplifies
measurement noise on an ill-conditioned operator and a few CG steps do not,
so that is where the ordering is asserted.
"""

import math
import subprocess
import sys
import time

import numpy as np

from dds.admm import AdmmState, SliceDenoiser, TvConfig, admm_tv_dc, dds_3d_reconstruct, soft_threshold, tv_objective
from dds.diffusion import (
    AffineSubspaceDenoiser,
    AffineSubspacePrior,
    GmmDenoiser,
    GmmPrior,
    VeSchedule,
    VpSchedule,
    affine_prior_denoise,
    gmm_denoise,
    mcg_dps_gradient,
    smooth_random_field,
    ddim_step as vp_ddim_step,
)
from dds.experiments import NoiseOffsetConfig, run_noise_offset_experiment
from dds.krylov import cg, krylov_basis, subspace_distance
from dds.metrics import psnr
from dds.operators import (
    MaskSpec,
    RadonGeometry,
    diff_z_operator,
    dot_test,
    make_coil_maps,
    make_mask,
    matrix_operator,
    radon_operator,
    sense_operator,
    slice_radon_operator,
)
from dds.samplers import SamplerConfig, dds_reconstruct
from dds.tensor import REAL, RngStream, norm

from test_operators import adjoint_to_matrix, naive_radon_matrix, op_to_matrix


def verdict(num, ok, text):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    return ok


def test_acceptance_01_adjoints_and_dense_equivalence():
    t0 = time.perf_counter()
    ops = []
    maps = make_coil_maps(4, (16, 16), seed=1)
    mask = make_mask(MaskSpec("gaussian1d", 2, 0.1, 2), (16, 16))
    ops.append(sense_operator(maps, mask))
    ops.append(sense_operator(make_coil_maps(1, (16, 16), 3), np.ones((16, 16))))
    geom = RadonGeometry.uniform(16, 6)
    ops.append(radon_operator(geom))
    ops.append(slice_radon_operator(RadonGeometry.uniform(8, 5), 3))
    ops.append(diff_z_operator((4, 4, 4)))
    for i, op in enumerate(ops):
        dot_test(op, RngStream(50 + i), trials=20, tol=1e-10)

    radon_mat = naive_radon_matrix(geom)
    op = radon_operator(geom)
    fwd_err = np.max(np.abs(op_to_matrix(op).real - radon_mat))
    adj_err = np.max(np.abs(adjoint_to_matrix(op).real - radon_mat.T))
    dz = diff_z_operator((4, 2, 2))
    dzm = op_to_matrix(dz).real
    dz_err = np.max(np.abs(adjoint_to_matrix(dz).real - dzm.T))
    elapsed = time.perf_counter() - t0
    ok = fwd_err < 1e-12 and adj_err < 1e-12 and dz_err < 1e-12 and elapsed < 10.0
    verdict(1, ok, f"adjoint dot-tests + dense equivalence "
                   f"(radon {fwd_err:.1e}/{adj_err:.1e}, dz {dz_err:.1e}, {elapsed:.1f}s)")
    assert ok


def test_acceptance_02_cg_oracle_equivalence():
    worst = 0.0
    for s in range(25):
        n = 4 + (s % 29)
        b = RngStream(1000 + s).randn((n, n))
        mat = b.T @ b / n + np.eye(n)
        rhs = RngStream(2000 + s).randn((n,))
        x, _ = cg(matrix_operator(mat), rhs, np.zeros(n), n)
        want = np.linalg.solve(mat, rhs)
        worst = max(worst, norm(x - want) / norm(want))
    x2, _ = cg(matrix_operator(np.array([[4.0, 1.0], [1.0, 3.0]])),
               np.array([1.0, 2.0]), np.zeros(2), 2)
    ex_err = float(np.max(np.abs(x2 - np.array([1.0 / 11.0, 7.0 / 11.0]))))
    ok = worst <= 1e-8 and ex_err <= 1e-12
    verdict(2, ok, f"CG vs dense solve on 25 SPD systems "
                   f"(worst rel {worst:.1e}; 2x2 example {ex_err:.1e})")
    assert ok


def test_acceptance_03_krylov_confinement():
    worst = 0.0
    for s in range(20):
        n = 20
        b = RngStream(3000 + s).randn((n, n))
        op = matrix_operator(b.T @ b / n + 0.5 * np.eye(n))
        rhs = RngStream(4000 + s).randn((n,))
        xhat = RngStream(5000 + s).randn((n,))
        for m_steps in (1, 3, 5):
            x_m, _ = cg(op, rhs, xhat, m_steps)
            basis = krylov_basis(op, rhs - op.apply(xhat), m_steps)
            disp = norm(x_m - xhat)
            worst = max(worst, subspace_distance(x_m, xhat, basis) / max(disp, 1e-300))
    ok = worst <= 1e-8
    verdict(3, ok, f"M-step CG confined to x + K_M for M in (1,3,5) (worst {worst:.1e})")
    assert ok


def test_acceptance_04_projector_denoiser_identities():
    vp = VpSchedule.default(10)
    worst_proj = 0.0
    worst_eq = 0.0
    for s in range(20):
        prior = AffineSubspacePrior.random((24,), 6, seed=6000 + s, dtype=REAL)
        amat = RngStream(7000 + s).randn((24, 24)) / 5.0
        a = matrix_operator(amat)
        y = RngStream(8000 + s).randn((24,))
        rng = RngStream(9000 + s)
        for t in (2, 4, 6, 8, 10):
            x_t = rng.randn((24,))
            xh = affine_prior_denoise(x_t, t, prior, vp)
            want = prior.project_linear(x_t) / math.sqrt(vp.abars[t])
            worst_proj = max(worst_proj, norm(xh - want))
            gamma = 0.31
            lhs = xh - gamma * mcg_dps_gradient(x_t, t, prior, a, y, vp)
            zeta = gamma / math.sqrt(vp.abars[t])
            rhs = prior.project_linear(xh - zeta * a.adjoint(a.apply(xh) - y))
            worst_eq = max(worst_eq, norm(lhs - rhs) / max(norm(lhs), 1.0))
    ok = worst_proj <= 1e-12 and worst_eq <= 1e-10
    verdict(4, ok, f"scaled-projector denoiser ({worst_proj:.1e}) and "
                   f"projected-gradient identity ({worst_eq:.1e})")
    assert ok


def test_acceptance_05_total_noise_and_ve_marginals():
    t0 = time.perf_counter()
    vp = VpSchedule.default(12)
    ve = VeSchedule.geometric(12, 0.05, 4.0)
    # coefficient identities, all timesteps and an eta grid
    coef = 0.0
    for t in range(2, 13):
        for eta in (0.0, 0.3, 0.7, 1.0):
            rad = 1.0 - vp.abars[t - 1] - (eta * vp.btildes[t]) ** 2
            coef = max(coef, abs(rad + (eta * vp.btildes[t]) ** 2 - (1 - vp.abars[t - 1])))
            sp, st = ve.sigmas[t - 1], ve.sigmas[t]
            bt = 1 - (sp / st) ** 2
            lhs = (sp * math.sqrt(1 - bt ** 2 * eta ** 2)) ** 2 + (sp * eta * bt) ** 2
            coef = max(coef, abs(lhs - sp ** 2))

    d, trials, eta = 8, 100_000, 0.7
    mu = RngStream(1).randn((d,))
    tau2 = 1e-10
    prior = GmmPrior(weights=np.array([1.0]), means=mu[None, :], tau2=tau2)
    worst_mc = 0.0
    rng = RngStream(2)
    for t in (4, 8, 12):
        ab = vp.abars[t]
        eps0 = rng.randn((trials, d))
        noise = rng.randn((trials, d))
        x0 = mu[None, :]  # point-mass prior in the tau -> 0 limit
        x_t = math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps0
        shrink = tau2 * math.sqrt(ab) / (ab * tau2 + (1 - ab))
        xhat = (tau2 * math.sqrt(ab) * x_t + (1 - ab) * mu[None, :]) / (ab * tau2 + (1 - ab))
        for i in range(20):  # vectorized denoiser must equal the module op
            assert norm(xhat[i] - gmm_denoise(x_t[i], t, prior, vp)) < 1e-10
        eps_hat = (x_t - math.sqrt(ab) * xhat) / math.sqrt(1 - ab)
        bt = vp.btildes[t]
        w = math.sqrt(1 - vp.abars[t - 1] - (eta * bt) ** 2) * eps_hat + eta * bt * noise
        trace = float(np.mean(np.sum(w ** 2, axis=1)))
        target = d * (1 - vp.abars[t - 1])
        worst_mc = max(worst_mc, abs(trace - target) / target)
    for t in (4, 8, 12):
        st, sp = ve.sigmas[t], ve.sigmas[t - 1]
        eps0 = rng.randn((trials, d))
        noise = rng.randn((trials, d))
        x_t = mu[None, :] + st * eps0
        xhat = (tau2 * x_t + st ** 2 * mu[None, :]) / (tau2 + st ** 2)
        for i in range(20):
            assert norm(xhat[i] - gmm_denoise(x_t[i], t, prior, ve)) < 1e-10
        s_hat = (xhat - x_t) / st ** 2
        bt = 1 - (sp / st) ** 2
        w = -sp * st * math.sqrt(1 - bt ** 2 * eta ** 2) * s_hat + sp * eta * bt * noise
        trace = float(np.mean(np.sum(w ** 2, axis=1)))
        target = d * sp ** 2
        worst_mc = max(worst_mc, abs(trace - target) / target)
    elapsed = time.perf_counter() - t0
    ok = coef <= 1e-14 and worst_mc <= 0.02 and elapsed < 60.0
    verdict(5, ok, f"total-noise/VE coefficient identities ({coef:.1e}) and "
                   f"1e5-draw marginal traces (worst {worst_mc * 100:.2f}%, {elapsed:.1f}s)")
    assert ok


def test_acceptance_06_ddim_limits():
    vp = VpSchedule.default(14)
    rng_data = RngStream(3)
    worst = 0.0
    for t in range(2, 15):
        xh = rng_data.randn((6,))
        eh = rng_data.randn((6,))
        x_t = math.sqrt(vp.abars[t]) * xh + math.sqrt(1 - vp.abars[t]) * eh
        out = vp_ddim_step(xh, eh, t, 1.0, RngStream(77), vp)
        drawn = RngStream(77).randn((6,))
        deterministic = out - vp.btildes[t] * drawn
        ddpm = (x_t - (1 - vp.alphas[t]) / math.sqrt(1 - vp.abars[t]) * eh) \
            / math.sqrt(vp.alphas[t])
        worst = max(worst, norm(deterministic - ddpm))
    # eta = 0 end-to-end bitwise determinism
    prior = AffineSubspacePrior.random((16, 16), 4, seed=4)
    den = AffineSubspaceDenoiser(prior)
    maps = make_coil_maps(2, (16, 16), 5)
    mask = make_mask(MaskSpec("uniform1d", 2, 0.1, 6), (16, 16))
    a = sense_operator(maps, mask)
    y = a.apply(prior.sample(RngStream(7)))
    cfg = SamplerConfig(nfe=8, eta=0.0, cg_steps=3, dc="dds-cg", seed=9)
    r1 = dds_reconstruct(a, y, den, cfg, rng=RngStream(9))
    r2 = dds_reconstruct(a, y, den, cfg, rng=RngStream(9))
    bitwise = np.array_equal(r1.x0, r2.x0)
    ok = worst <= 1e-12 and bitwise
    verdict(6, ok, f"eta=1 reproduces the ancestral mean ({worst:.1e}); "
                   f"eta=0 bitwise deterministic ({bitwise})")
    assert ok


def test_acceptance_07_exact_recovery_and_baseline_ordering():
    def rel_err(a, y, den, x_true, dc, s):
        cfg = SamplerConfig(nfe=20, eta=0.0, cg_steps=5, dc=dc, seed=s)
        res = dds_reconstruct(a, y, den, cfg, rng=RngStream(s))
        return norm(res.x0 - x_true) / norm(x_true)

    t0 = time.perf_counter()
    problems, errs, errs_ddnm = [], [], []
    for s in range(20):
        prior = AffineSubspacePrior.random((32, 32), 8, seed=100 + s)
        den = AffineSubspaceDenoiser(prior)
        x_true = prior.sample(RngStream(200 + s))
        mask = make_mask(MaskSpec("uniform1d", 4, 0.08, 300 + s), (32, 32))
        maps = make_coil_maps(2, (32, 32), seed=400 + s)
        a = sense_operator(maps, mask)
        problems.append((s, den, x_true, a))
        y = a.apply(x_true)
        errs.append(rel_err(a, y, den, x_true, "dds-cg", s))
        errs_ddnm.append(rel_err(a, y, den, x_true, "ddnm", s))
    elapsed = time.perf_counter() - t0

    # Noise drawn as experiments.build_problem draws it; sigma=1e-3 is about
    # 2-4% of ||y|| on these problems.
    sigma = 1e-3
    noisy, noisy_ddnm = [], []
    for s, den, x_true, a in problems:
        y = a.apply(x_true)
        y = y + sigma * RngStream(500 + s).randn(y.shape, dtype=a.range_dtype)
        noisy.append(rel_err(a, y, den, x_true, "dds-cg", s))
        noisy_ddnm.append(rel_err(a, y, den, x_true, "ddnm", s))

    wins = sum(e < e2 for e, e2 in zip(noisy, noisy_ddnm))
    recovery_ok = max(errs) <= 1e-3
    runtime_ok = elapsed < 30.0
    ordering_ok = wins >= 18
    verdict(7, recovery_ok and runtime_ok and ordering_ok,
            f"exact recovery max rel err {max(errs):.1e} (<=1e-3: {recovery_ok}); "
            f"runtime {elapsed:.1f}s (<30s: {runtime_ok}); noiseless medians "
            f"dds {np.median(errs):.1e}, pinv {np.median(errs_ddnm):.1e}; "
            f"noisy (sigma={sigma:g}) CG beats pinv replacement on {wins}/20 "
            f"seeds (>=18 required; medians dds {np.median(noisy):.1e}, "
            f"pinv {np.median(noisy_ddnm):.1e})")
    assert recovery_ok, f"recovery clause failed: max err {max(errs):.3e}"
    assert runtime_ok, f"runtime clause failed: {elapsed:.1f}s"
    # The ordering is checked on noisy y: noiseless, the pinv step is the
    # exact projection onto {x : Ax = y} and 5-step CG is the same iteration
    # truncated, so pinv must win there. With noise, A^+ amplifies it along
    # small singular values and a few warm-started CG steps do not.
    assert ordering_ok, (
        f"ordering clause failed: wins {wins}/20 on noisy y "
        f"(dds median {np.median(noisy):.3e}, pinv median {np.median(noisy_ddnm):.3e})"
    )


def test_acceptance_08_noisy_proximal_vs_gradient():
    geom = RadonGeometry.uniform(32, 24)
    a = radon_operator(geom)
    wins = 0
    pp, pg = [], []
    for s in range(20):
        mr = RngStream(5000 + s)
        means = np.stack([2.0 * np.abs(smooth_random_field(mr, (32, 32), 3.0))
                          for _ in range(3)])
        gp = GmmPrior(weights=np.ones(3) / 3, means=means, tau2=0.09)
        den = GmmDenoiser(gp)
        x_true = gp.sample(RngStream(70 + s))
        y = a.apply(x_true) + 0.05 * RngStream(110 + s).randn(a.range_shape)
        c1 = SamplerConfig(nfe=20, eta=0.15, cg_steps=5, gamma=0.95,
                           dc="dds-proximal-cg", seed=s)
        r1 = dds_reconstruct(a, y, den, c1, rng=RngStream(s))
        p1 = psnr(np.abs(r1.x0), np.abs(x_true))
        try:
            c2 = SamplerConfig(nfe=20, eta=0.15, cg_steps=5, dc="gradient",
                               xi=1.0, seed=s)
            r2 = dds_reconstruct(a, y, den, c2, rng=RngStream(s))
            p2 = psnr(np.abs(r2.x0), np.abs(x_true))
        except Exception:
            p2 = -math.inf  # fixed-step gradient diverged on this operator
        pp.append(p1)
        pg.append(p2)
        wins += p1 >= p2
    fin = [p for p in pg if np.isfinite(p)]
    ok = wins >= 18
    verdict(8, ok, f"noisy proximal-CG PSNR {np.median(pp):.2f} dB vs unit-step "
                   f"gradient {np.median(fin) if fin else float('nan'):.2f} dB; "
                   f"wins {wins}/20")
    assert ok


def test_acceptance_09_noise_offset_ordering():
    rows, means, wins = run_noise_offset_experiment(NoiseOffsetConfig(trials=50, sigma_gt=0.07),
                                                   seed=0)
    ok = wins >= 45
    verdict(9, ok, f"one-step DC noise offsets: CG smallest in {wins}/50 trials "
                   f"(means: " + ", ".join(f"{k}={v:.4f}" for k, v in means.items()) + ")")
    assert ok


def test_acceptance_10_admm_tv():
    # proximal-map oracle (extended-precision grid refinement)
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

    prox_err = max(abs(soft_threshold(np.array([v]), k)[0] - prox_oracle(v, k))
                   for v, k in ((0.5, 0.2), (-1.3, 0.7), (2.2, 1.1), (0.01, 0.3)))

    # shared-state single sweep for 50 steps vs a 500-iteration reference
    prior = AffineSubspacePrior.random((8, 8), 4, seed=50, dtype=REAL)
    x_true = np.stack([prior.sample(RngStream(51 + i)) for i in range(4)])
    geom = RadonGeometry.uniform(8, 6)
    a = slice_radon_operator(geom, 4)
    y = a.apply(x_true)
    lam, rho = 0.2, 1.0
    anchor = x_true + 0.3 * RngStream(52).randn(x_true.shape)
    x = anchor.copy()
    state = AdmmState.zeros(x_true.shape)
    for _ in range(50):
        x, state = admm_tv_dc(x, a, y, state, TvConfig(lam=lam, rho=rho, cg_steps=5))
    f_fast = tv_objective(x, a, y, lam)
    xr = anchor.copy()
    state = AdmmState.zeros(x_true.shape)
    for _ in range(500):
        xr, state = admm_tv_dc(xr, a, y, state, TvConfig(lam=lam, rho=rho, cg_steps=30))
    f_ref = tv_objective(xr, a, y, lam)
    objective_ok = f_fast <= 1.01 * f_ref + 1e-12

    # lambda = 0 reduction to the flat sampler
    prior2 = AffineSubspacePrior.random((8, 8), 3, seed=60, dtype=REAL)
    den = AffineSubspaceDenoiser(prior2)
    x_t2 = np.stack([prior2.sample(RngStream(61 + i)) for i in range(3)])
    a2 = slice_radon_operator(RadonGeometry.uniform(8, 8), 3)
    y2 = a2.apply(x_t2)
    scfg = SamplerConfig(nfe=8, eta=0.0, cg_steps=5, dc="dds-cg", seed=0)
    r3d = dds_3d_reconstruct(a2, y2, den, scfg, TvConfig(lam=0.0, rho=1e-10, cg_steps=5),
                             rng=RngStream(4))
    flat = dds_reconstruct(a2, y2, SliceDenoiser(den), scfg, rng=RngStream(4))
    reduction_err = norm(r3d.x0 - flat.x0) / max(norm(flat.x0), 1.0)
    ok = prox_err <= 1e-8 and objective_ok and reduction_err <= 1e-6
    verdict(10, ok, f"prox oracle {prox_err:.1e}; 50-sweep objective "
                    f"{f_fast:.6f} vs reference {f_ref:.6f}; lambda=0 reduction "
                    f"{reduction_err:.1e}")
    assert ok


CFG_REPRO = """
[problem]
kind = mri2d

[phantom]
kind = subspace-random
shape = 16 16
seed = 7

[prior]
kind = affine
dim = 4
seed = 11
complex = true

[operator]
kind = sense
coils = 2
mask_kind = uniform1d
acceleration = 2
acs_fraction = 0.1
mask_seed = 3
maps_seed = 5

[sampler]
nfe = 5
eta = 0.5
cg_steps = 3
dc = dds-cg
"""


def test_acceptance_11_byte_reproducibility(tmp_path):
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG_REPRO)

    def run(*args):
        r = subprocess.run([sys.executable, "-m", "dds.cli", *args],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return r

    run("simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim"))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run("reconstruct", "--config", str(cfgp), "--in", str(tmp_path / "sim"),
            "--seed", "13", "--out", str(out))
        blobs.append(((out / "x0.dtf").read_bytes(), (out / "trace.csv").read_bytes()))
    recon_same = blobs[0] == blobs[1]

    sweeps = []
    for name, jobs in (("s1.csv", "1"), ("s2.csv", "2")):
        out = tmp_path / name
        run("sweep", "--config", str(cfgp), "--axis", "eta", "--values", "0.0,0.5",
            "--repeats", "2", "--seed", "4", "--jobs", jobs, "--out", str(out))
        sweeps.append(out.read_bytes())
    sweep_same = sweeps[0] == sweeps[1]
    ok = recon_same and sweep_same
    verdict(11, ok, f"byte-identical artifacts: reconstruct {recon_same}, "
                    f"sweep across jobs {sweep_same}")
    assert ok
