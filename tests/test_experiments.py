import math
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dds.admm import TvConfig
from dds.dtf import write_csv
from dds.diffusion import AffineSubspacePrior
from dds.errors import ConfigError, NumericalError
from dds import experiments
from dds.experiments import (
    CONFIG_KEYS,
    MET_HEADER,
    NOISE_OFFSET_STRATEGIES,
    ExperimentConfig,
    SECTION_CLASSES,
    NoiseOffsetConfig,
    build_problem,
    emit_image,
    evaluate,
    run_noise_offset_experiment,
    run_reconstruction,
    run_sweep,
    sampler_config,
    tv_config,
)
from dds.operators import MASK_KINDS
from dds.samplers import DC_STRATEGIES, SamplerConfig
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
    with pytest.raises(ConfigError, match="config missing"):  # whatever its cast
        cfg.get("nope", "missing", cast=bool)


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
    "phantom": "kind seed shape",
    "prior": "kind seed complex smooth dim offset_scale components tau",
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


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nnfe = 3\ncg_steps = 7\n",            # was ignored: nfe 20
    "[DEFAULT]\nnfe = 3\ncg_steps = 7\n\n[sampler]\n",  # was applied: nfe 3
    "[DEFAULT]\nbogus = 3\n\n[sampler]\n",            # was named [sampler] bogus
], ids=["alone", "beside-sampler", "unknown-key"])
def test_config_rejects_a_default_section(text):
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        ExperimentConfig(text)


def test_build_problem_shapes_and_consistency():
    p = build_problem(ExperimentConfig(BASE_CFG))
    assert p.x_true.shape == (16, 16)
    # 2x uniform1d keeps more than a third of the columns: the range is the
    # sampled entries of each coil
    assert p.y.shape == p.a.range_shape == (2, np.count_nonzero(p.a.plan.mask))
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


# (problem, axis, value, [sampler] overrides, [tv] overrides) of the plain run;
# a volume run's CG count is [tv] cg_steps, and 2-D runs have no [tv]
SINGLE_POINTS = [
    ("mri2d", "eta", "0.5", {"eta": 0.5}, {}),
    ("mri2d", "nfe", "5", {"nfe": 5}, {}),
    ("mri2d", "cg-steps", "2", {"cg_steps": 2}, {}),
    ("ct3d", "eta", "0.5", {"eta": 0.5}, {}),
    ("ct3d", "nfe", "5", {"nfe": 5}, {}),
    ("ct3d", "cg-steps", "3", {}, {"cg_steps": 3}),
    ("ct3d", "lambda", "0.3", {}, {"lam": 0.3}),
]


@pytest.mark.parametrize("kind, axis, value, over, tv_over", SINGLE_POINTS,
                         ids=[f"{k}-{a}" for k, a, *_ in SINGLE_POINTS])
def test_sweep_single_point_equals_plain_run(kind, axis, value, over, tv_over):
    cfg = ExperimentConfig(BASE_CFG if kind == "mri2d" else CT_CFG)
    rows = run_sweep(cfg, axis, [value], repeats=1, seed=2)
    problem = build_problem(cfg)
    scfg = sampler_config(cfg, 2, **over)
    tv = tv_config(cfg, **tv_over) if kind == "ct3d" else None
    res = run_reconstruction(problem, scfg, tv=tv, rng=RngStream(2).child(0))
    assert rows[0].residual == pytest.approx(res.residual, abs=0.0)
    run_id = f"{axis}={value}:rep=0"
    assert rows[0].as_list() == evaluate(problem, res, run_id, scfg, tv=tv).as_list()
    if axis == "cg-steps":
        assert rows[0].cg_steps == int(value)


def test_sweep_honours_max_retries():
    # tau = 1e-12 is out of reach, so each run keeps the best of its
    # max_retries attempts, as dds reconstruct does; sweeps used to make one
    text = BASE_CFG.replace("dc = dds-cg", "dc = dds-cg\nrejection_tau = 1e-12")
    problem = build_problem(ExperimentConfig(text))
    residuals = []
    for retries in (1, 4):
        cfg = ExperimentConfig(text.replace("dc = dds-cg", f"dc = dds-cg\nmax_retries = {retries}"))
        row = run_sweep(cfg, "eta", ["0.5"], repeats=1, seed=2)[0]
        res = run_reconstruction(problem, sampler_config(cfg, 2, eta=0.5),
                                 rng=RngStream(2).child(0), max_retries=retries)
        assert res.accepted is False
        assert row.residual == res.residual
        residuals.append(row.residual)
    assert residuals[1] < residuals[0]


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
        return (lambda xhat, t: (np.full_like(xhat, np.nan), None)) if cfg.dc == "dps" else dc

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


def test_run_reconstruction_times_every_attempt(monkeypatch):
    # wall_seconds used to time the returned attempt only
    real = experiments.dds_reconstruct

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "dds_reconstruct", slow)
    problem = build_problem(ExperimentConfig(BASE_CFG))
    scfg = sampler_config(ExperimentConfig(BASE_CFG), 2, rejection_tau=1e-12)
    res = run_reconstruction(problem, scfg, rng=RngStream(2), max_retries=3)
    assert res.accepted is False
    assert res.attempts == 3
    assert res.wall_seconds >= 0.15


def test_concurrent_runs_on_one_problem_keep_their_own_ledgers(monkeypatch):
    # dds sweep --jobs N shares one Problem across threads, so no count may
    # live on the shared operator. The three runs meet at a barrier in every
    # prior denoise call (8 each), so they advance step by step together.
    problem = build_problem(ExperimentConfig(BASE_CFG))
    cfgs = [SamplerConfig(nfe=8, dc=dc, seed=0) for dc in ("dds-cg", "ddnm", "dps")]
    serial = [run_reconstruction(problem, c, rng=RngStream(4)) for c in cfgs]
    assert len({(r.ledger.forward, r.ledger.adjoint) for r in serial}) == 3
    barrier = threading.Barrier(len(cfgs))
    denoise = AffineSubspacePrior.denoise

    def in_step(*args):
        barrier.wait(timeout=30)
        return denoise(*args)

    monkeypatch.setattr(AffineSubspacePrior, "denoise", in_step)
    with ThreadPoolExecutor(max_workers=len(cfgs)) as pool:
        together = list(pool.map(lambda c: run_reconstruction(problem, c, rng=RngStream(4)),
                                 cfgs))
    for alone, run in zip(serial, together):
        assert run.ledger == alone.ledger
        assert np.array_equal(run.x0, alone.x0)

def test_run_reconstruction_ledger_sums_every_attempt():
    # tau = 1e-12 rejects all three attempts; each costs what one attempt on
    # its own costs, so the result's ledger is three times a single one's
    problem = build_problem(ExperimentConfig(BASE_CFG))
    scfg = sampler_config(ExperimentConfig(BASE_CFG), 2, rejection_tau=1e-12)
    single = run_reconstruction(problem, scfg, rng=RngStream(2)).ledger
    res = run_reconstruction(problem, scfg, rng=RngStream(2), max_retries=3)
    assert (res.accepted, res.attempts) == (False, 3)
    assert single.forward > 0 and single.denoiser_calls > 0
    assert res.ledger == single + single + single


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
    write_dtf(tmp_path / "mask.dtf", p1.a.plan.mask)
    p2 = build_problem(cfg)
    assert np.array_equal(read_dtf(tmp_path / "mask.dtf"), p2.a.plan.mask)
    assert np.array_equal(p1.a.plan.maps, p2.a.plan.maps)
    assert np.array_equal(p1.y, p2.y)


# ---------------------------------------------------------------------------
# Config fuzzer: any value of any key ends in ConfigError or NumericalError

FUZZ_BASES = {
    "mri2d": {"problem": {"kind": "mri2d"}, "phantom": {"shape": "16 16"},
              "prior": {"dim": "4"}, "operator": {"coils": "2", "acceleration": "2"}},
    "ct3d": {"problem": {"kind": "ct3d"}, "phantom": {"shape": "2 8 8"},
             "prior": {"dim": "3", "complex": "false"},
             "operator": {"kind": "radon3d", "angles": "5"}},
    # the default complex prior on the real Radon domain: a draw that leaves
    # the pairing reaches the complex-prior check
    "ct3d-complex": {"problem": {"kind": "ct3d"}, "phantom": {"shape": "2 8 8"},
                     "prior": {"dim": "3"}, "operator": {"kind": "radon3d", "angles": "5"}},
}
FUZZ_VALUES = ("nan", "inf", "-1", "0", "1", "1e400", "abc", "", "true",
               "mri2d", "mri2d-noisy", "ct3d", "subspace-random", "gmm-draw",
               "shepp-logan-2d", "shepp-logan-3d", "affine", "gmm", "sense", "radon3d",
               "vp", "ve", *MASK_KINDS, *DC_STRATEGIES,
               "16 16", "8 16", "6 6", "0 8", "16", "2 8 8", "4 16 16", "3 6 6", "2 2 2 2")
FUZZ_KEYS = sorted((section, key) for section, keys in CONFIG_KEYS.items() for key in keys)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.sampled_from(sorted(FUZZ_BASES)),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                      min_size=1, max_size=4))
def test_fuzzed_config_raises_only_config_or_numerical_errors(base, edits):
    # the CLI maps these two to exit 2 and 3; anything else would be a
    # traceback, and a ComplexWarning would be data silently dropped
    sections = {section: dict(keys) for section, keys in FUZZ_BASES[base].items()}
    for (section, key), value in edits:
        sections.setdefault(section, {})[key] = value
    cfg = ExperimentConfig("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()))
    for read in (lambda: sampler_config(cfg, seed=0), lambda: tv_config(cfg),
                 lambda: cfg.read("noise_offset", NoiseOffsetConfig),
                 lambda: build_problem(cfg)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", np.exceptions.ComplexWarning)
                read()
        except (ConfigError, NumericalError):
            pass


# Garbled INI text: section blocks of real keys, with "%", comments, odd
# separators, duplicate sections and keys, and stray fragments between them.
INI_VALUES = ["", "2", "0.5", "nan", "1e400", "true", "vp", "dds-cg", "16 16", "%", "50%",
              "%(kind)s", "# c", "x ; y"]
INI_STRAY = st.lists(st.sampled_from(["[", "]", "=", ":", "%", "%(x)s", "#", ";", " ", "\t",
                                      "x", "[DEFAULT]", "[x]", "\n"]),
                     min_size=1, max_size=6).map(lambda parts: "".join(parts) + "\n")


def _ini_block(section):
    line = st.tuples(st.sampled_from(sorted(CONFIG_KEYS[section])),
                     st.sampled_from(["=", ":", " = ", "=="]), st.sampled_from(INI_VALUES))
    # a repeated key is drawn rarely here, so the text mostly parses
    return st.lists(line, max_size=4, unique_by=lambda kv: kv[0]).map(
        lambda lines: f"[{section}]\n" + "".join("".join(kv) + "\n" for kv in lines))


INI_BLOCK = st.sampled_from(sorted(CONFIG_KEYS)).flatmap(_ini_block)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=st.tuples(INI_BLOCK, st.lists(st.one_of(INI_BLOCK, INI_BLOCK, INI_STRAY),
                                         max_size=4)).map(lambda t: t[0] + "".join(t[1])))
def test_garbled_ini_text_raises_only_config_errors(text):
    # parse, then read every key as text and every dataclass section; the
    # CLI maps ConfigError to exit 2, and anything else is a traceback
    try:
        cfg = ExperimentConfig(text)
    except ConfigError:
        return
    for section, keys in CONFIG_KEYS.items():
        for key in sorted(keys):
            try:
                cfg.get(section, key)
            except ConfigError:
                pass
    for section, cls in SECTION_CLASSES.items():
        try:
            cfg.read(section, cls)
        except ConfigError:
            pass


NOISY_CFG = """
[problem]
kind = mri2d
noise_sigma = 0.01
noise_seed = {seed}

[phantom]
shape = 32 32
seed = {seed}

[prior]
dim = 8
seed = {seed}

[operator]
coils = 4
mask_kind = {mask}
acceleration = 4
mask_seed = {seed}
maps_seed = {seed}

[sampler]
nfe = 20
dc = dds-cg
"""


@pytest.mark.parametrize("mask", ["uniform1d", "gaussian2d"])
def test_final_dds_cg_residual_sits_at_the_noise_level(mask):
    # noise lands on measured entries only (the hybrid columns of a column
    # mask, the support of a 2-D mask), so the final residual reads near
    # sigma * sqrt(#measured entries). Over seeds 0-19 the ratio measured
    # 0.97-1.06 (uniform1d) and 1.00-1.05 (gaussian2d); with the off-mask
    # noise counted too it read 1.78-2.02.
    ratios = []
    for seed in range(10):
        cfg = ExperimentConfig(NOISY_CFG.format(seed=seed, mask=mask))
        p = build_problem(cfg)
        measured = math.prod(p.a.range_shape)
        res = run_reconstruction(p, sampler_config(cfg, seed), rng=RngStream(seed))
        ratios.append(res.residual / (p.noise_sigma * math.sqrt(measured)))
    assert 0.9 <= min(ratios) and max(ratios) <= 1.15, ratios


@pytest.mark.parametrize("acc", [1, 2, 4])
@pytest.mark.parametrize("mask", MASK_KINDS)
def test_measured_entries_are_the_sense_range(mask, acc):
    # the noise level sigma * sqrt(m) counts m = prod(range_shape) entries
    text = BASE_CFG.replace("mask_kind = uniform1d", f"mask_kind = {mask}")
    p = build_problem(ExperimentConfig(text.replace("acceleration = 2", f"acceleration = {acc}")))
    assert math.prod(p.a.range_shape) == 2 * np.count_nonzero(p.a.plan.mask)


def test_measured_entries_are_the_radon3d_range():
    p = build_problem(ExperimentConfig(CT_CFG))
    assert math.prod(p.a.range_shape) == 2 * 5 * 8  # slices * angles * bins
