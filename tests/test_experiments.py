from dataclasses import fields

import numpy as np
import pytest

from dds.admm import TvConfig
from dds.errors import ConfigError
from dds.experiments import (
    CONFIG_KEYS,
    MET_HEADER,
    NOISE_OFFSET_STRATEGIES,
    ExperimentConfig,
    NoiseOffsetConfig,
    build_problem,
    emit_image,
    run_noise_offset_experiment,
    run_reconstruction,
    run_sweep,
    sampler_config,
    tv_config,
    write_csv,
)
from dds.samplers import SamplerConfig
from dds.tensor import RngStream

BASE_CFG = """
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
nfe = 6
eta = 0.0
cg_steps = 3
dc = dds-cg

[sweep]
axis = eta
values = 0.0 0.5
repeats = 2
"""


def test_config_typed_access():
    cfg = ExperimentConfig(BASE_CFG)
    assert cfg.get("problem", "kind") == "mri2d"
    assert cfg.get("sampler", "nfe", 0, int) == 6
    assert cfg.get_ints("phantom", "shape") == (16, 16)
    assert cfg.get("prior", "complex", False, bool) is True
    assert cfg.get("nope", "missing", "fallback") == "fallback"
    with pytest.raises(ConfigError):
        cfg.get("nope", "missing")


@pytest.mark.parametrize("raw, value", [
    ("1", True), ("yes", True), ("TRUE", True), ("On", True),
    ("0", False), ("no", False), ("False", False), ("OFF", False),
])
def test_config_boolean_spellings(raw, value):
    cfg = ExperimentConfig(f"[sampler]\nscale_step_by_residual = {raw}\n")
    assert cfg.get("sampler", "scale_step_by_residual", False, bool) is value


# CONFIG_KEYS as it was written out by hand before the [sampler], [tv] and
# [noise_offset] keys were derived from their dataclasses
PINNED_CONFIG_KEYS = {
    "problem": "kind noise_sigma noise_seed",
    "phantom": "kind seed shape constant_z",
    "prior": "kind seed complex smooth dim offset_scale components tau mean_scale",
    "operator": "kind mask_kind acceleration acs_fraction mask_seed coils maps_seed "
                "angles detector_bins",
    "sampler": "nfe eta cg_steps gamma mode dc xi dps_step scale_step_by_residual "
               "ve_sigma_max ve_truncation rejection_tau max_retries",
    "tv": "lam rho cg_steps",
    "sweep": "axis values repeats",
    "noise_offset": "trials sigma_gt shape prior_dim angles smooth phantom_scale",
}


def test_config_keys_pinned():
    assert sorted(CONFIG_KEYS) == sorted(PINNED_CONFIG_KEYS)
    for section, keys in PINNED_CONFIG_KEYS.items():
        assert CONFIG_KEYS[section] == set(keys.split()), section


EVERY_KEY_CFG = """
[sampler]
nfe = 7
eta = 0.25
cg_steps = 3
gamma = 0.5
mode = ve
dc = gradient
xi = 0.5
dps_step = 0.25
scale_step_by_residual = yes
ve_sigma_max = 5.0
ve_truncation = 0.1
rejection_tau = 1e-3
max_retries = 4

[tv]
lam = 0.5
rho = 0.25
cg_steps = 2

[noise_offset]
trials = 3
sigma_gt = 0.05
shape = 16 16
prior_dim = 6
angles = 30
smooth = 4.0
phantom_scale = 2.5
"""


def test_every_section_key_reaches_its_field():
    cfg = ExperimentConfig(EVERY_KEY_CFG)
    for section in ("sampler", "tv", "noise_offset"):
        assert all(cfg.has(section, key) for key in CONFIG_KEYS[section]), section
    assert cfg.get("sampler", "max_retries", 1, int) == 4
    cases = [
        (sampler_config(cfg, seed=9),
         SamplerConfig(nfe=7, eta=0.25, cg_steps=3, gamma=0.5, mode="ve", dc="gradient",
                       xi=0.5, dps_step=0.25, scale_step_by_residual=True,
                       ve_sigma_max=5.0, ve_truncation=0.1, rejection_tau=1e-3, seed=9)),
        (tv_config(cfg), TvConfig(lam=0.5, rho=0.25, cg_steps=2)),
        (cfg.read("noise_offset", NoiseOffsetConfig),
         NoiseOffsetConfig(trials=3, sigma_gt=0.05, shape=(16, 16), prior_dim=6,
                           angles=30, smooth=4.0, phantom_scale=2.5)),
    ]
    for got, want in cases:
        default = type(want)()
        for f in fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
            assert getattr(want, f.name) != getattr(default, f.name), f.name


def test_absent_keys_keep_field_defaults_and_overrides_win():
    cfg = ExperimentConfig("[sampler]\nnfe = 7\n")
    assert sampler_config(cfg, seed=0) == SamplerConfig(nfe=7)
    assert sampler_config(cfg, seed=0, nfe=9, eta=0.5) == SamplerConfig(nfe=9, eta=0.5)
    assert tv_config(cfg, lam=1.0) == TvConfig(lam=1.0)
    assert cfg.read("noise_offset", NoiseOffsetConfig) == NoiseOffsetConfig()


def test_config_rejects_malformed_text():
    with pytest.raises(ConfigError):
        ExperimentConfig("not an ini file at all [")


def test_build_problem_shapes_and_consistency():
    p = build_problem(ExperimentConfig(BASE_CFG))
    assert p.x_true.shape == (16, 16)
    assert p.y.shape == (2, 16, 16)
    assert p.a.domain_shape == (16, 16)
    # noiseless: measurements equal the forward model of the truth
    assert np.linalg.norm(p.y - p.a.apply(p.x_true.astype(complex))) < 1e-12


def test_build_problem_noisy_default_sigma():
    text = BASE_CFG.replace("kind = mri2d", "kind = mri2d-noisy")
    p = build_problem(ExperimentConfig(text))
    assert p.noise_sigma == 0.05
    assert np.linalg.norm(p.y - p.a.apply(p.x_true.astype(complex))) > 0.0


def test_build_problem_ct3d():
    text = """
[problem]
kind = ct3d

[phantom]
kind = subspace-random
shape = 3 8 8
seed = 1

[prior]
kind = affine
dim = 3
seed = 2
complex = false

[operator]
kind = radon3d
angles = 6

[sampler]
nfe = 5
eta = 0.0
cg_steps = 3
dc = dds-cg
"""
    p = build_problem(ExperimentConfig(text))
    assert p.kind == "ct3d"
    assert p.x_true.shape == (3, 8, 8)
    assert p.y.shape == (3, 6, 8)


def test_sampler_config_overrides():
    cfg = ExperimentConfig(BASE_CFG)
    sc = sampler_config(cfg, seed=4, eta=0.9)
    assert sc.eta == 0.9 and sc.seed == 4 and sc.nfe == 6


def test_sweep_row_counts_and_order():
    cfg = ExperimentConfig(BASE_CFG)
    rows = run_sweep(cfg, "eta", [0.0, 0.5], repeats=2, seed=1)
    run_rows = [r for r in rows if ":rep=" in r.run_id]
    stat_rows = [r for r in rows if r.run_id.endswith((":mean", ":std"))]
    assert len(run_rows) == 4 and len(stat_rows) == 4
    assert run_rows[0].run_id == "eta=0.0:rep=0"
    assert run_rows[-1].run_id == "eta=0.5:rep=1"


def test_sweep_single_point_equals_plain_run():
    cfg = ExperimentConfig(BASE_CFG)
    rows = run_sweep(cfg, "cg-steps", [3], repeats=1, seed=2)
    from dds.experiments import run_reconstruction
    problem = build_problem(cfg)
    res = run_reconstruction(problem, sampler_config(cfg, 2, cg_steps=3),
                             rng=RngStream(2).child(0))
    assert rows[0].residual == pytest.approx(res.residual, abs=0.0)


def test_sweep_deterministic_across_invocations_and_jobs():
    # compare artifact content (as_list excludes the wall-clock field)
    cfg = ExperimentConfig(BASE_CFG)
    r1 = run_sweep(cfg, "eta", [0.0, 0.5], repeats=2, seed=3, jobs=1)
    r2 = run_sweep(cfg, "eta", [0.0, 0.5], repeats=2, seed=3, jobs=2)
    assert [a.as_list() for a in r1] == [b.as_list() for b in r2]


def test_sweep_rejects_unknown_axis():
    cfg = ExperimentConfig(BASE_CFG)
    with pytest.raises(ConfigError):
        run_sweep(cfg, "banana", [1], 1, 0)
    with pytest.raises(ConfigError):
        run_sweep(cfg, "eta", [], 1, 0)


def test_metrics_rows_serialize(tmp_path):
    cfg = ExperimentConfig(BASE_CFG)
    rows = run_sweep(cfg, "eta", [0.0], repeats=1, seed=5)
    out = tmp_path / "rows.csv"
    write_csv(out, MET_HEADER, [r.as_list() for r in rows])
    text = out.read_text().splitlines()
    assert text[0] == ",".join(MET_HEADER)
    assert len(text) == 1 + len(rows)


def test_noise_offset_experiment_small():
    rows, means, wins = run_noise_offset_experiment(NoiseOffsetConfig(trials=4), seed=3)
    assert set(means) == set(NOISE_OFFSET_STRATEGIES)
    assert means["no-process"] == 0.0
    per_trial = [r for r in rows if r[0] != "mean"]
    assert len(per_trial) == 4 * len(NOISE_OFFSET_STRATEGIES)
    # deterministic given the seed
    rows2, means2, wins2 = run_noise_offset_experiment(NoiseOffsetConfig(trials=4), seed=3)
    assert rows == rows2 and wins == wins2


def test_noise_offset_rejects_non_finite_output(monkeypatch):
    from dds import experiments
    from dds.errors import NumericalError
    real_make_dc = experiments.make_dc

    def make_dc(cfg, *args):
        dc = real_make_dc(cfg, *args)
        return (lambda x, xhat, t: (np.full_like(xhat, np.nan), None)) if cfg.dc == "dps" else dc

    monkeypatch.setattr(experiments, "make_dc", make_dc)
    with pytest.raises(NumericalError, match="noise-offset dps"):
        run_noise_offset_experiment(NoiseOffsetConfig(trials=1, shape=(16, 16)), seed=0)


def test_noise_offset_needs_a_trial():
    with pytest.raises(ConfigError, match="at least one trial"):
        NoiseOffsetConfig(trials=0)


def test_emit_image_cases(tmp_path):
    p = tmp_path / "img.pgm"
    emit_image(np.full((4, 4), 3.3), p)
    blob = p.read_bytes()
    assert blob.startswith(b"P5\n4 4\n255\n")
    assert blob[-16:] == bytes([128] * 16)

    q = tmp_path / "checker.pgm"
    emit_image(np.array([[0.0, 1.0], [1.0, 0.0]]), q)
    assert q.read_bytes()[-4:] == bytes([0, 255, 255, 0])

    r1, r2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    x = RngStream(1).randn((8, 8))
    emit_image(x, r1)
    emit_image(x, r2)
    assert r1.read_bytes() == r2.read_bytes()


CT_CFG = """
[problem]
kind = ct3d

[phantom]
kind = subspace-random
shape = 2 8 8
seed = 1

[prior]
kind = affine
dim = 3
seed = 2
complex = false

[operator]
kind = radon3d
angles = 5

[sampler]
nfe = 4
eta = 0.0
cg_steps = 2
dc = dds-cg

[tv]
lam = 0.1
rho = 0.5
cg_steps = 2
"""


def test_sweep_lambda_axis_on_ct3d():
    rows = run_sweep(ExperimentConfig(CT_CFG), "lambda", [0.0, 0.2], repeats=1, seed=0)
    run_rows = [r for r in rows if ":rep=" in r.run_id]
    assert len(run_rows) == 2
    assert all(np.isfinite(r.psnr) for r in run_rows)


def test_sweep_cg_steps_axis_sets_volume_cg_count():
    # the volume run uses [tv] cg_steps; the axis used to change only the
    # (unused) sampler count, so runs were identical under different labels
    rows = run_sweep(ExperimentConfig(CT_CFG), "cg-steps", ["1", "8"], repeats=1, seed=0)
    one, eight = rows[0], rows[1]
    assert (one.cg_steps, eight.cg_steps) == (1, 8)
    assert one.residual != eight.residual
    assert eight.residual < one.residual


def test_ct3d_rows_report_tv_cg_steps():
    text = CT_CFG.replace("rho = 0.5\ncg_steps = 2", "rho = 0.5\ncg_steps = 3")
    rows = run_sweep(ExperimentConfig(text), "eta", ["0.0"], repeats=1, seed=0)
    assert all(r.cg_steps == 3 for r in rows)


def test_noisy_problem_with_proximal_dc_runs():
    text = BASE_CFG.replace("kind = mri2d", "kind = mri2d-noisy") \
                   .replace("dc = dds-cg", "dc = dds-proximal-cg")
    cfg = ExperimentConfig(text)
    problem = build_problem(cfg)
    res = run_reconstruction(problem, sampler_config(cfg, 3), rng=RngStream(3))
    assert np.all(np.isfinite(res.x0))
    assert res.residual > 0.0


def test_run_reconstruction_with_rejection_retries():
    text = BASE_CFG + "\n[extra]\n"
    cfg = ExperimentConfig(text.replace("dc = dds-cg", "dc = dds-cg\nrejection_tau = 1e-3"))
    problem = build_problem(cfg)
    scfg = sampler_config(cfg, seed=2)
    assert scfg.rejection_tau == 1e-3
    res = run_reconstruction(problem, scfg, rng=RngStream(2), max_retries=4)
    assert res.accepted is True
    assert res.attempts == 1  # consistent problem clears the threshold at once


@pytest.mark.parametrize("retries", [0, -3])
def test_run_reconstruction_needs_an_attempt(retries):
    # with or without a rejection threshold; both used to run
    problem = build_problem(ExperimentConfig(BASE_CFG))
    for tau in (None, 1e-3):
        scfg = SamplerConfig(nfe=6, rejection_tau=tau)
        with pytest.raises(ConfigError, match="max_retries must be >= 1"):
            run_reconstruction(problem, scfg, max_retries=retries)


def test_simulate_artifacts_match_regeneration(tmp_path):
    # mask/maps written by simulate equal a fresh build from the same config
    from dds.dtf import read_dtf, write_dtf
    cfg = ExperimentConfig(BASE_CFG)
    p1 = build_problem(cfg)
    write_dtf(tmp_path / "mask.dtf", p1.aux["mask"])
    p2 = build_problem(cfg)
    assert np.array_equal(read_dtf(tmp_path / "mask.dtf"), p2.aux["mask"])
    assert np.array_equal(p1.aux["maps"], p2.aux["maps"])
    assert np.array_equal(p1.y, p2.y)
