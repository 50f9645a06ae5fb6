import configparser
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dds.dtf import MAGIC, read_dtf, write_dtf
from dds.experiments import CONFIG_KEYS
from dds.operators import MASK_KINDS
from dds.samplers import DC_STRATEGIES
from dds.tensor import RngStream

CFG = """
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
eta = 0.0
cg_steps = 3
dc = dds-cg
"""


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "dds.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(CFG)
    return p


def test_simulate_then_reconstruct_roundtrip(cfg_file, tmp_path):
    sim = tmp_path / "sim"
    out = tmp_path / "rec"
    r = run_cli("simulate", "--config", str(cfg_file), "--out", str(sim))
    assert r.returncode == 0, r.stderr
    for name in ("x_true.dtf", "y.dtf", "mask.dtf", "maps.dtf", "config.ini"):
        assert (sim / name).exists()
    r = run_cli("reconstruct", "--config", str(cfg_file), "--in", str(sim),
                "--seed", "3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    x0 = read_dtf(out / "x0.dtf")
    x_true = read_dtf(sim / "x_true.dtf")
    assert np.linalg.norm(x0 - x_true) <= 1e-3 * np.linalg.norm(x_true)
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,residual,gt-error,noise-est,subspace-dist"
    assert len(trace) == 1 + 5


def test_reconstruct_byte_identical_across_runs(cfg_file, tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--config", str(cfg_file), "--out", str(sim))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        r = run_cli("reconstruct", "--config", str(cfg_file), "--in", str(sim),
                    "--seed", "9", "--out", str(out))
        assert r.returncode == 0, r.stderr
        outs.append(((out / "x0.dtf").read_bytes(), (out / "trace.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_sweep_csv_and_jobs_independence(cfg_file, tmp_path):
    o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    r = run_cli("sweep", "--config", str(cfg_file), "--axis", "eta",
                "--values", "0.0,0.5", "--repeats", "2", "--seed", "4",
                "--out", str(o1), "--jobs", "1")
    assert r.returncode == 0, r.stderr
    r = run_cli("sweep", "--config", str(cfg_file), "--axis", "eta",
                "--values", "0.0,0.5", "--repeats", "2", "--seed", "4",
                "--out", str(o2), "--jobs", "2")
    assert r.returncode == 0, r.stderr
    assert o1.read_bytes() == o2.read_bytes()
    lines = o1.read_text().splitlines()
    assert lines[0].startswith("run_id,strategy,nfe,cg_steps,eta,psnr,ssim,residual")
    assert len(lines) == 1 + 4 + 4  # runs + mean/std per value


def test_metrics_and_emit(cfg_file, tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--config", str(cfg_file), "--out", str(sim))
    r = run_cli("metrics", "--x", str(sim / "x_true.dtf"),
                "--ref", str(sim / "x_true.dtf"))
    assert r.returncode == 0
    assert "psnr inf" in r.stdout
    png = tmp_path / "x.pgm"
    r = run_cli("emit", "--in", str(sim / "x_true.dtf"), "--out", str(png))
    assert r.returncode == 0
    assert png.read_bytes().startswith(b"P5\n16 16\n255\n")


def test_missing_config_exits_2(tmp_path):
    r = run_cli("simulate", "--config", str(tmp_path / "nope.ini"),
                "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "error" in r.stderr.lower()


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(CFG.replace("kind = mri2d", "kind = teleportation"))
    r = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert r.returncode == 2


def test_numerical_failure_exits_3(tmp_path):
    nan_file = tmp_path / "nan.dtf"
    payload = struct.pack("<4d", 1.0, float("nan"), 0.0, 0.0)
    nan_file.write_bytes(b"DDS1" + bytes([0, 2]) + struct.pack("<QQ", 2, 2) + payload)
    ref = tmp_path / "ref.dtf"
    write_dtf(ref, RngStream(0).randn((2, 2)))
    r = run_cli("metrics", "--x", str(nan_file), "--ref", str(ref))
    assert r.returncode == 3


def test_overflowing_residual_exits_3(tmp_path):
    # x' overflows the residual norm but stays finite itself; this used to
    # print "residual inf", write a trace with inf in it and exit 0
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace("nfe = 5", "nfe = 20")
                    .replace("dc = dds-cg", "dc = gradient\nxi = 1e16"))
    out = tmp_path / "r"
    r = run_cli("reconstruct", "--config", str(cfgp), "--seed", "0", "--out", str(out))
    _one_line_error(r, code=3)
    assert "residual inf" in r.stderr
    assert not (out / "trace.csv").exists() and not (out / "x0.dtf").exists()


def test_nan_in_measurements_exits_3(cfg_file, tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfg_file), "--out", str(sim)).returncode == 0
    y = read_dtf(sim / "y.dtf")
    y[1, 2, 3] = np.nan
    # write_dtf refuses NaN, so the file is written by hand (complex128)
    (sim / "y.dtf").write_bytes(b"DDS1" + bytes([1, y.ndim]) + struct.pack("<3Q", *y.shape)
                                + y.astype("<c16").tobytes())
    out = tmp_path / "r"
    r = run_cli("reconstruct", "--config", str(cfg_file), "--in", str(sim),
                "--seed", "0", "--out", str(out))
    _one_line_error(r, code=3)
    assert "y.dtf" in r.stderr
    assert not (out / "x0.dtf").exists()


def test_noise_offset_non_finite_phantom_exits_3(tmp_path):
    cfgp = tmp_path / "no.ini"
    cfgp.write_text("[noise_offset]\ntrials = 2\nphantom_scale = inf\n")
    out = tmp_path / "no.csv"
    r = run_cli("noise-offset", "--config", str(cfgp), "--seed", "1", "--out", str(out))
    _one_line_error(r, 3)  # no numpy RuntimeWarning lines before the error
    assert not out.exists()


def test_noise_offset_cli(tmp_path):
    cfgp = tmp_path / "no.ini"
    cfgp.write_text("[noise_offset]\ntrials = 2\n")
    out = tmp_path / "no.csv"
    r = run_cli("noise-offset", "--config", str(cfgp), "--seed", "1",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,strategy,sigma_est,offset"
    assert len(lines) == 1 + 3 * 6  # 2 trials + mean block


CT_CFG = """
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
angles = 5
detector_bins = 11

[sampler]
nfe = 4
mode = ve

[tv]
lam = 0.5
rho = 0.5
cg_steps = 2
"""


@pytest.fixture()
def ct_cfg_file(tmp_path):
    p = tmp_path / "ct.ini"
    p.write_text(CT_CFG)
    return p


def test_ct3d_reconstruct_byte_identical_across_runs(ct_cfg_file, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        r = run_cli("reconstruct", "--config", str(ct_cfg_file), "--seed", "5",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        outs.append(((out / "x0.dtf").read_bytes(), (out / "trace.csv").read_bytes()))
    assert outs[0] == outs[1]
    assert read_dtf(tmp_path / "r1" / "x0.dtf").shape == (3, 8, 8)


def test_ct3d_sweep_jobs_independence(ct_cfg_file, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"s{jobs}.csv"
        r = run_cli("sweep", "--config", str(ct_cfg_file), "--axis", "lambda",
                    "--values", "0.1,0.5,2.0", "--repeats", "2", "--seed", "4",
                    "--out", str(out), "--jobs", jobs)
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].decode().splitlines()) == 1 + 6 + 6


def _one_line_error(r, code=2):
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    prefix = "error: " if code == 2 else "numerical failure: "
    assert r.stderr.startswith(prefix) and r.stderr.count("\n") == 1


def test_sweep_unparsable_value_exits_2(ct_cfg_file, tmp_path):
    out = tmp_path / "s.csv"
    r = run_cli("sweep", "--config", str(ct_cfg_file), "--axis", "nfe",
                "--values", "abc", "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert "'abc'" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("axis, values, named", [("eta", "0.0,0.0", "'0.0'"),
                                                 ("eta", "0.5,0.50", "'0.50'"),
                                                 ("nfe", "4,5,04", "'04'")])
def test_sweep_repeated_value_exits_2(cfg_file, tmp_path, axis, values, named):
    # a repeat used to write two runs under one run id and two equal mean/std pairs
    out = tmp_path / "s.csv"
    r = run_cli("sweep", "--config", str(cfg_file), "--axis", axis,
                "--values", values, "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert named in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_sweep_repeats_below_one_exits_2(cfg_file, tmp_path, repeats):
    out = tmp_path / "s.csv"
    r = run_cli("sweep", "--config", str(cfg_file), "--axis", "eta",
                "--values", "0.0", "--repeats", repeats, "--seed", "0",
                "--out", str(out))
    _one_line_error(r)
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_exits_2(cfg_file, tmp_path, jobs):
    # --jobs 0 and negative counts used to run serially without a word
    out = tmp_path / "s.csv"
    r = run_cli("sweep", "--config", str(cfg_file), "--axis", "eta",
                "--values", "0.0", "--jobs", jobs, "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert "jobs" in r.stderr
    assert not out.exists()


def test_sweep_lambda_on_a_2d_problem_exits_2(cfg_file, tmp_path):
    # [tv] lam is read by ct3d alone: a 2-D lambda sweep used to exit 0 with
    # rows that differed only through each run's derived seed
    out = tmp_path / "s.csv"
    r = run_cli("sweep", "--config", str(cfg_file), "--axis", "lambda",
                "--values", "0.1,100", "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert "lambda" in r.stderr and "mri2d" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("shape", [(8, 8), (16, 16, 2)], ids=["8x8", "16x16x2"])
def test_reconstruct_in_with_misshapen_x_true_exits_2(cfg_file, tmp_path, shape):
    # an x_true.dtf off the operator's domain shape used to end in a numpy
    # broadcast traceback and exit 1
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfg_file), "--out", str(sim)).returncode == 0
    write_dtf(sim / "x_true.dtf", RngStream(0).randn(shape))
    out = tmp_path / "rec"
    r = run_cli("reconstruct", "--config", str(cfg_file), "--in", str(sim),
                "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert "x_true.dtf" in r.stderr
    assert not (out / "x0.dtf").exists()


@pytest.mark.parametrize("name,edits", [
    ("mask.dtf", {"mask_kind = uniform1d": "mask_kind = gaussian1d",
                  "acceleration = 2": "acceleration = 4", "mask_seed = 3": "mask_seed = 4"}),
    ("maps.dtf", {"maps_seed = 5": "maps_seed = 6"}),
], ids=["mask", "maps"])
def test_reconstruct_in_with_another_mask_or_maps_exits_2(cfg_file, tmp_path, name, edits):
    # the operator is rebuilt from the config, and E* keeps only y.dtf's
    # entries on its mask: data simulated on a 2x uniform1d mask and read on
    # a 4x gaussian1d one used to exit 0 with 85% of y.dtf's energy dropped
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfg_file), "--out", str(sim)).returncode == 0
    text = CFG
    for old, new in edits.items():
        text = text.replace(old, new)
    other = tmp_path / "other.ini"
    other.write_text(text)
    out = tmp_path / "rec"
    r = run_cli("reconstruct", "--config", str(other), "--in", str(sim),
                "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert name in r.stderr
    assert not (out / "x0.dtf").exists()


@pytest.mark.parametrize("name", ["y.dtf", "x_true.dtf"])
def test_reconstruct_in_with_complex_data_on_a_real_operator_exits_2(tmp_path, name):
    # radon3d measures and reconstructs real data: a complex y.dtf lost its
    # imaginary part with a ComplexWarning and the run exited 0
    cfgp = tmp_path / "ct.ini"
    cfgp.write_text(CT_CFG)
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfgp), "--out", str(sim)).returncode == 0
    x = read_dtf(sim / name)
    write_dtf(sim / name, x + 1j * x)
    out = tmp_path / "rec"
    r = run_cli("reconstruct", "--config", str(cfgp), "--in", str(sim),
                "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert name in r.stderr and "complex" in r.stderr
    assert not (out / "x0.dtf").exists()


@pytest.mark.parametrize("peak", ["nan", "inf"])
def test_metrics_peak_must_be_finite(cfg_file, tmp_path, peak):
    # --peak nan and --peak inf used to print "psnr nan dB"/"psnr inf dB" and exit 0
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfg_file), "--out", str(sim)).returncode == 0
    x_true = sim / "x_true.dtf"
    write_dtf(tmp_path / "x.dtf", read_dtf(x_true) + 0.1)
    r = run_cli("metrics", "--x", str(tmp_path / "x.dtf"), "--ref", str(x_true),
                "--peak", peak)
    _one_line_error(r)
    assert "peak" in r.stderr


def test_emit_volume_slice_range(tmp_path):
    vol = tmp_path / "vol.dtf"
    write_dtf(vol, RngStream(0).randn((3, 4, 4)))
    for bad in ("3", "7", "-1"):
        r = run_cli("emit", "--in", str(vol), "--out", str(tmp_path / "x.pgm"),
                    "--slice", bad)
        _one_line_error(r)
    assert not (tmp_path / "x.pgm").exists()
    r = run_cli("emit", "--in", str(vol), "--out", str(tmp_path / "x.pgm"), "--slice", "2")
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "x.pgm").read_bytes().startswith(b"P5\n4 4\n255\n")


@pytest.mark.parametrize("dc", ["ddnm", "gradient", "dps", "projection", "dds-proximal-cg"])
def test_ct3d_rejects_dc_other_than_dds_cg(tmp_path, dc):
    # the volume path runs ADMM-TV; it used to ignore [sampler] dc silently
    cfgp = tmp_path / "ct.ini"
    cfgp.write_text(CT_CFG.replace("mode = ve", f"mode = ve\ndc = {dc}"))
    out = tmp_path / "r"
    r = run_cli("reconstruct", "--config", str(cfgp), "--seed", "5", "--out", str(out))
    _one_line_error(r)
    assert f"dc = {dc}" in r.stderr and "dds-cg" in r.stderr
    assert not (out / "x0.dtf").exists()


def test_projection_target_key_exits_2(tmp_path):
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace("dc = dds-cg", "dc = projection\nprojection_target = denoised"))
    r = run_cli("reconstruct", "--config", str(cfgp), "--seed", "0",
                "--out", str(tmp_path / "r"))
    _one_line_error(r)
    assert "projection_target" in r.stderr and "dc = ddnm" in r.stderr


@pytest.mark.parametrize("command, extra", [
    ("simulate", []),
    ("reconstruct", ["--seed", "0"]),
    ("sweep", ["--axis", "eta", "--values", "0.0", "--seed", "0"]),
])
def test_out_path_under_regular_file_exits_2(cfg_file, tmp_path, command, extra):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    r = run_cli(command, "--config", str(cfg_file), *extra,
                "--out", str(blocker / "out"))
    _one_line_error(r)
    assert str(blocker) in r.stderr


@pytest.mark.parametrize("old, new, named", [
    ("cg_steps = 3", "cg_step = 3", "[sampler] cg_step"),
    ("[sampler]", "[samplr]", "[samplr]"),
], ids=["key", "section"])
def test_unknown_config_key_or_section_exits_2(tmp_path, old, new, named):
    # a misspelt key used to run on the defaults with exit 0
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace(old, new))
    out = tmp_path / "r"
    r = run_cli("reconstruct", "--config", str(cfgp), "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert named in r.stderr
    assert not (out / "x0.dtf").exists()


@pytest.mark.parametrize("old, new, named", [
    ("shape = 16 16", "shape = 16 abc", "'abc'"),
    ("shape = 16 16", "shape = 16", "shape = 16"),
    ("dim = 4", "dim = 400", "dim = 400"),
    ("complex = true", "complex = maybe", "[prior] complex='maybe'"),
    ("kind = affine", "kind = gmm\ncomponents = 0", "[prior] components = 0 must be >= 1"),
    ("kind = affine", "kind = gmm\ncomponents = -1", "[prior] components = -1 must be >= 1"),
    ("acceleration = 2", "acceleration = nan", "acceleration = nan must be finite"),
    ("mask_kind = uniform1d\nacceleration = 2",
     "mask_kind = poisson-disk-vd\nacceleration = nan", "acceleration = nan must be finite"),
    ("acceleration = 2", "acceleration = inf", "acceleration = inf must be finite"),
    ("kind = subspace-random", "kind = shepp-logan-3d", "expects a 3-D shape, got (16, 16)"),
    ("mask_seed = 3", "mask_seed = -3", "seed = -3 must be >= 0"),
    ("kind = mri2d", "kind = mri2d\nnoise_sigma = -0.1", "[problem] noise_sigma = -0.1 must be"),
    ("kind = mri2d", "kind = mri2d\nnoise_sigma = nan", "[problem] noise_sigma = nan must be"),
    ("kind = mri2d", "kind = mri2d\nnoise_sigma = inf", "[problem] noise_sigma = inf must be"),
    ("kind = affine", "kind = gmm\ntau = -0.1", "[prior] tau = -0.1 must be finite and >= 0"),
    ("kind = affine", "kind = gmm\ntau = nan", "[prior] tau = nan must be finite and >= 0"),
    ("kind = affine", "kind = gmm\ntau = inf", "[prior] tau = inf must be finite and >= 0"),
    ("dim = 4", "dim = 4\nsmooth = -2", "[prior] smooth = -2.0 must be finite and >= 0"),
    ("dim = 4", "dim = 4\nsmooth = nan", "[prior] smooth = nan must be finite and >= 0"),
    ("dim = 4", "dim = 4\noffset_scale = -1", "[prior] offset_scale = -1.0 must be finite"),
    ("dim = 4", "dim = 4\noffset_scale = nan", "[prior] offset_scale = nan must be finite"),
    ("kind = mri2d", "kind = mri2d\nnoise_seed = -1", "[problem] noise_seed = -1 must be >= 0"),
    ("dim = 4", "dim = 4\ntau = nan", "[prior] tau = nan must be finite and >= 0"),
    ("dim = 4", "dim = 4\ncomponents = 0", "[prior] components = 0 must be >= 1"),
    (CFG, CT_CFG.replace("complex = false", "complex = true"), "[prior] complex"),
    (CFG, CT_CFG.replace("shape = 3 8 8", "shape = 2 12 12")
     .replace("dim = 3", "dim = 3\nsmooth = 2"), "power-of-two sides, got (12, 12)"),
], ids=["non-integer-shape", "one-size-2d-shape", "prior-dim-above-pixels",
        "non-boolean-complex", "gmm-no-components", "gmm-negative-components",
        "nan-acceleration-uniform1d", "nan-acceleration-poisson-disk-vd",
        "inf-acceleration-uniform1d", "shepp-logan-3d-on-2d-shape", "negative-mask-seed",
        "negative-noise-sigma", "nan-noise-sigma", "inf-noise-sigma", "negative-tau",
        "nan-tau", "inf-tau", "negative-smooth", "nan-smooth", "negative-offset-scale",
        "nan-offset-scale", "noiseless-negative-noise-seed", "nan-tau-on-affine",
        "no-components-on-affine", "complex-prior-on-ct3d", "smoothed-prior-on-non-pow2-ct3d"])
def test_malformed_config_value_exits_2(tmp_path, old, new, named):
    # each used to end in a traceback and exit 1, or, from negative-noise-sigma
    # on, to run with exit 0 (a negative or NaN noise_sigma, smooth or
    # offset_scale as 0, a negative tau with its sign lost in tau^2, a complex
    # phantom cast to the real Radon domain) or to carry inf or NaN into the data;
    # the smoothed prior's sides are checked where its shape enters, not per FFT;
    # a key is checked also where its kind ignores it (noise_seed without
    # noise, tau and components on an affine prior), which used to exit 0
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace(old, new))
    r = run_cli("simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim"))
    _one_line_error(r)
    assert named in r.stderr


@pytest.mark.parametrize("old, new, named", [
    ("rho = 0.5", "rho = nan", "rho must be finite and > 0"),
    ("rho = 0.5", "rho = inf", "rho must be finite and > 0"),
    ("lam = 0.5", "lam = nan", "lambda must be finite and >= 0"),
    ("lam = 0.5", "lam = inf", "lambda must be finite and >= 0"),
], ids=["nan-rho", "inf-rho", "nan-lambda", "inf-lambda"])
def test_non_finite_tv_value_exits_2(tmp_path, old, new, named):
    # NaN and inf passed TvConfig's <=/< checks and failed only inside the run
    cfgp = tmp_path / "ct.ini"
    cfgp.write_text(CT_CFG.replace(old, new))
    out = tmp_path / "r"
    r = run_cli("reconstruct", "--config", str(cfgp), "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert named in r.stderr
    assert not (out / "x0.dtf").exists()


@pytest.mark.parametrize("command, extra", [
    ("reconstruct", []),
    ("sweep", ["--axis", "eta", "--values", "0.0"]),
    ("noise-offset", []),
])
def test_negative_command_line_seed_exits_2(cfg_file, tmp_path, command, extra):
    # numpy's "expected non-negative integer" used to end in a traceback
    out = tmp_path / "out"
    r = run_cli(command, "--config", str(cfg_file), *extra, "--seed", "-1", "--out", str(out))
    _one_line_error(r)
    assert "seed = -1 must be >= 0" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("bins", ["0", "-1"])
def test_detector_bins_below_one_exits_2(tmp_path, bins):
    # detector_bins = 0 used to run with `side` bins and exit 0
    cfgp = tmp_path / "ct.ini"
    cfgp.write_text(CT_CFG.replace("detector_bins = 11", f"detector_bins = {bins}"))
    out = tmp_path / "sim"
    r = run_cli("simulate", "--config", str(cfgp), "--out", str(out))
    _one_line_error(r)
    assert "detector_bins >= 1" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("extra, named", [
    ("scale_step_by_residual = maybe", "[sampler] scale_step_by_residual='maybe'"),
    ("max_retries = 0", "max_retries must be >= 1"),
    ("max_retries = -3", "max_retries must be >= 1"),
    ("rejection_tau = -1", "rejection_tau must be >= 0"),
    ("rejection_tau = -1\nmax_retries = 2", "rejection_tau must be >= 0"),
    ("dps_step = -1", "dps_step must be > 0"),
    ("dps_step = 0", "dps_step must be > 0"),
    ("mode = ve\nve_truncation = 1.0", "ve_truncation must lie in [0, 1)"),
    ("mode = ve\nve_truncation = 2.0", "ve_truncation must lie in [0, 1)"),
    ("gamma = nan", "gamma must be > 0"),
    ("xi = 0", "xi must be > 0"),
    ("xi = nan", "xi must be > 0"),
    ("mode = ve\nve_sigma_max = nan", "ve_sigma_max must be finite and > 0"),
    ("mode = ve\nve_sigma_max = inf", "ve_sigma_max must be finite and > 0"),
    ("mode = ve\nve_sigma_max = 1e160", "ve_sigma_max must be finite and > 0, with a finite"),
    ("gamma = inf", "gamma must be > 0 and finite"),
    ("gamma = 1e-320", "gamma must be > 0 with a finite 1/gamma"),
    ("xi = inf", "xi must be > 0 and finite"),
    ("dps_step = inf", "dps_step must be > 0 and finite"),
], ids=["non-boolean", "no-retries", "negative-retries", "negative-tau",
        "negative-tau-with-retries", "negative-dps-step", "zero-dps-step",
        "full-ve-truncation", "ve-truncation-above-1", "nan-gamma", "zero-xi", "nan-xi",
        "nan-ve-sigma-max", "inf-ve-sigma-max", "huge-ve-sigma-max", "inf-gamma",
        "subnormal-gamma", "inf-xi", "inf-dps-step"])
def test_bad_sampler_value_exits_2(tmp_path, extra, named):
    # the boolean ran as false and tau = -1 was rejected only when
    # max_retries > 1 sent it through rejection_wrap; dps_step = -1 ran
    # gradient ascent, dps_step = 0 and ve_truncation = 1 skipped data
    # consistency, ve_truncation = 2 failed with a timestep error and
    # gamma = nan reached the first CG solve; ve_sigma_max = nan or inf
    # built a schedule of non-finite sigmas and exited 3 after numpy warnings,
    # and ve_sigma_max = 1e160 overflowed sigma^2 in a traceback (exit 1);
    # gamma = inf, xi = inf and dps_step = inf passed the config, and
    # gamma = 1e-320 gave the proximal solve an infinite weight 1/gamma
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace("dc = dds-cg", f"dc = dds-cg\n{extra}"))
    out = tmp_path / "r"
    r = run_cli("reconstruct", "--config", str(cfgp), "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert named in r.stderr
    assert not (out / "x0.dtf").exists()


@pytest.mark.parametrize("value, named", [
    ("smooth = -1", "[noise_offset] smooth = -1.0 must be finite and >= 0"),
    ("smooth = nan", "[noise_offset] smooth = nan must be finite and >= 0"),
    ("sigma_gt = -0.1", "[noise_offset] sigma_gt = -0.1 must be finite and >= 0"),
    ("sigma_gt = nan", "[noise_offset] sigma_gt = nan must be finite and >= 0"),
    ("sigma_gt = inf", "[noise_offset] sigma_gt = inf must be finite and >= 0"),
    ("shape = 24 24", "power-of-two sides, got (24, 24)"),
], ids=["negative-smooth", "nan-smooth", "negative-sigma-gt", "nan-sigma-gt", "inf-sigma-gt",
        "non-pow2-shape"])
def test_bad_noise_offset_value_exits_2(tmp_path, value, named):
    # smooth = -1 or nan ran white-noise phantoms with exit 0, and
    # sigma_gt = nan exited 3 in the first CG solve; the smoothed phantom's
    # shape is checked where it enters, not by the FFT
    cfgp = tmp_path / "no.ini"
    cfgp.write_text(f"[noise_offset]\ntrials = 1\n{value}\n")
    out = tmp_path / "no.csv"
    r = run_cli("noise-offset", "--config", str(cfgp), "--seed", "1", "--out", str(out))
    _one_line_error(r)
    assert named in r.stderr
    assert not out.exists()


def _main_exits_2(argv, capsys):
    """Run the CLI in-process; it must return 2 with a one-line error, no traceback."""
    from dds import cli
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # a Latin-1 byte used to raise UnicodeDecodeError out of the CLI (exit 1)
    cfgp = tmp_path / "exp.ini"
    cfgp.write_bytes(CFG.replace("dim = 4", "dim = 4  # r\xe9sum\xe9").encode("latin-1"))
    err = _main_exits_2(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "o")],
                        capsys)
    assert "not UTF-8" in err


@pytest.mark.parametrize("value", ["mri2d%", "%(x)s"], ids=["bare", "reference"])
def test_percent_in_a_config_value_is_read_literally(tmp_path, capsys, value):
    # configparser interpolation used to raise InterpolationSyntaxError or
    # InterpolationMissingOptionError out of the CLI (exit 1)
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace("kind = mri2d", f"kind = {value}"))
    err = _main_exits_2(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "o")],
                        capsys)
    assert f"unknown problem kind {value!r}" in err


@pytest.mark.parametrize("extents", [(2 ** 32, 2 ** 32), (2 ** 62, 4)], ids=["2^32x2^32", "2^62x4"])
@pytest.mark.parametrize("command", ["emit", "metrics", "reconstruct"])
def test_dtf_extents_past_int64_exit_2(cfg_file, tmp_path, capsys, command, extents):
    # the extents' product wrapped to 0 in int64, so an empty payload passed
    # the size check and reshape raised ValueError out of the CLI (exit 1)
    bad = tmp_path / "y.dtf"
    bad.write_bytes(MAGIC + struct.pack("<BB2Q", 0, 2, *extents))
    argv = {"emit": ["emit", "--in", str(bad), "--out", str(tmp_path / "x.pgm")],
            "metrics": ["metrics", "--x", str(bad), "--ref", str(bad)],
            "reconstruct": ["reconstruct", "--config", str(cfg_file), "--in", str(tmp_path),
                            "--seed", "0", "--out", str(tmp_path / "r")]}[command]
    assert "payload size mismatch" in _main_exits_2(argv, capsys)


@pytest.mark.parametrize("side", [10 ** 10, 2 ** 32], ids=["1e10", "2^32"])
def test_phantom_shape_past_numpy_range_exits_2(tmp_path, capsys, side):
    # numpy's product of the sizes wrapped: to a negative size ("negative
    # dimensions are not allowed") or to 0 (the prior's dim bound became
    # [1, 0]), each a traceback with exit 1
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace("shape = 16 16", f"shape = {side} {side}"))
    err = _main_exits_2(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "o")],
                        capsys)
    assert f"{side * side} complex entries are past numpy's size limit" in err


def test_out_of_memory_exits_2(cfg_file, tmp_path, monkeypatch, capsys):
    # a 65536 x 65536 shape raised numpy's _ArrayMemoryError out of the CLI
    # (exit 1); the allocation is faked, since a host that overcommits could
    # grant it and then fill it
    from dds import experiments

    numpy_message = ("Unable to allocate 64.0 GiB for an array with shape (65536, 65536) "
                     "and data type complex128")
    for exc, named in ((MemoryError(numpy_message), f"error: {numpy_message}"),
                       (MemoryError(), "error: out of memory")):
        def build_problem(cfg, exc=exc):
            raise exc

        monkeypatch.setattr(experiments, "build_problem", build_problem)
        for argv in (["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")],
                     ["reconstruct", "--config", str(cfg_file), "--seed", "0",
                      "--out", str(tmp_path / "r")]):
            assert _main_exits_2(argv, capsys) == named + "\n"


def test_ct3d_single_slice_exits_2_before_sampling(tmp_path, monkeypatch, capsys):
    # z-axis TV needs two slices; a 1-slice volume used to run the denoiser
    # through the VE warm-up and fail at the first ADMM sweep
    from dds import cli
    from dds.diffusion import AffineSubspacePrior

    calls = []
    monkeypatch.setattr(AffineSubspacePrior, "denoise", lambda *args: calls.append(args))
    cfgp = tmp_path / "ct.ini"
    cfgp.write_text(CT_CFG.replace("shape = 3 8 8", "shape = 1 8 8"))
    out = tmp_path / "r"
    assert cli.main(["reconstruct", "--config", str(cfgp), "--seed", "0",
                     "--out", str(out)]) == 2
    assert "at least 2 slices" in capsys.readouterr().err
    assert calls == []
    assert not (out / "x0.dtf").exists()


@pytest.mark.parametrize("side", [16, 8])
def test_metrics_on_ct3d_volume(tmp_path, side):
    # SSIM on the middle axial slice; NaN once the slice is below the window
    from dds.metrics import psnr, ssim
    cfgp = tmp_path / "ct.ini"
    cfgp.write_text(CT_CFG.replace("shape = 3 8 8", f"shape = 3 {side} {side}"))
    sim = tmp_path / "sim"
    r = run_cli("simulate", "--config", str(cfgp), "--out", str(sim))
    assert r.returncode == 0, r.stderr
    ref = read_dtf(sim / "x_true.dtf")
    x = ref + 0.05 * RngStream(4).randn(ref.shape)
    write_dtf(tmp_path / "x.dtf", x)
    out = tmp_path / "m.csv"
    r = run_cli("metrics", "--x", str(tmp_path / "x.dtf"), "--ref", str(sim / "x_true.dtf"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[5]) == psnr(np.abs(x), np.abs(ref))
    if side >= 11:
        assert float(row[6]) == ssim(np.abs(x[1]), np.abs(ref[1]))
    else:
        assert row[6] == "nan"


def test_column_mask_y_dtf_is_k_space_and_reads_back(tmp_path):
    # the operator's range on a column mask is hybrid data at the sampled
    # columns; y.dtf stays zero-filled k-space and reconstruct --in maps it back
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace("kind = mri2d", "kind = mri2d-noisy")
                    .replace("mask_kind = uniform1d\nacceleration = 2",
                             "mask_kind = gaussian1d\nacceleration = 4"))
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfgp), "--out", str(sim)).returncode == 0
    y, mask = read_dtf(sim / "y.dtf"), read_dtf(sim / "mask.dtf")
    assert y.shape == (2, 16, 16) and 3 * np.count_nonzero(mask[0]) <= 16
    assert np.all(y[:, mask == 0] == 0) and np.all(y[:, mask != 0] != 0)
    runs = {}
    for name, extra in (("file", ("--in", str(sim))), ("memory", ())):
        out = tmp_path / name
        r = run_cli("reconstruct", "--config", str(cfgp), *extra, "--seed", "2",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = (out / "trace.csv").read_text().splitlines()
        runs[name] = (read_dtf(out / "x0.dtf"), lines[0],
                      np.array([[float(v) for v in row.split(",")] for row in lines[1:]]))
    (x_file, head_file, rows_file), (x_mem, head_mem, rows_mem) = runs["file"], runs["memory"]
    assert np.linalg.norm(x_file - x_mem) <= 1e-12 * np.linalg.norm(x_mem)
    assert head_file == head_mem and rows_file.shape == rows_mem.shape
    assert np.array_equal(rows_file[:, 0], rows_mem[:, 0])
    # round-off, relative to each column's largest entry (the last
    # subspace distance is itself round-off)
    assert np.all(np.abs(rows_file - rows_mem) <= 1e-12 * np.abs(rows_mem).max(axis=0))
    # the operator's own range shape is not the file format
    write_dtf(sim / "y.dtf", y[:, :, mask[0] != 0])
    r = run_cli("reconstruct", "--config", str(cfgp), "--in", str(sim), "--seed", "2",
                "--out", str(tmp_path / "bad"))
    _one_line_error(r)
    assert "measurement shape" in r.stderr


# ---------------------------------------------------------------------------
# Config fuzzer through the run: 1-3 keys of a runnable config set to edge
# values; `dds reconstruct` ends in exit 0, 2 or 3 and raises nothing

RUN_FUZZ_SECTIONS = ("problem", "phantom", "prior", "operator", "sampler", "tv")
RUN_FUZZ_EDGES = ("nan", "inf", "-inf", "-1", "0", "1e-320", "1", "0.5", "abc", "", "true",
                  "mri2d", "mri2d-noisy", "ct3d", "subspace-random", "gmm-draw",
                  "shepp-logan-2d", "shepp-logan-3d", "affine", "gmm", "sense", "radon3d",
                  "vp", "ve", *MASK_KINDS, *DC_STRATEGIES)
# size keys draw only small values, so no run grows past the base's cost
RUN_FUZZ_SIZES = ("-1", "0", "1", "2", "3", "4", "5", "nan", "1e-320", "abc", "")
RUN_FUZZ_SHAPES = ("16 16", "8 8", "4 4", "8 16", "6 6", "16", "0 8", "-1 8", "3 8 8",
                   "2 8 8", "1 8 8", "2 4 4", "3 6 6", "2 2 2 2", "abc", "")
RUN_FUZZ_SIZE_KEYS = {"nfe", "cg_steps", "coils", "dim", "components", "max_retries",
                      "angles", "detector_bins"}


def _run_fuzz_values(key):
    if key == "shape":
        return st.sampled_from(RUN_FUZZ_SHAPES)
    return st.sampled_from(RUN_FUZZ_SIZES if key in RUN_FUZZ_SIZE_KEYS else RUN_FUZZ_EDGES)


RUN_FUZZ_EDIT = st.sampled_from(sorted((section, key) for section in RUN_FUZZ_SECTIONS
                                       for key in CONFIG_KEYS[section])).flatmap(
    lambda sk: st.tuples(st.just(sk), _run_fuzz_values(sk[1])))


@settings(max_examples=800, deadline=None, derandomize=True)
@given(base=st.sampled_from([CFG.replace("nfe = 5", "nfe = 4"), CT_CFG]),
       edits=st.lists(RUN_FUZZ_EDIT, min_size=1, max_size=3, unique_by=lambda e: e[0]))
def test_fuzzed_config_reconstruct_exits_0_2_or_3(base, edits):
    from dds import cli
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(base)
    for (section, key), value in edits:
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = Path(tmp) / "exp.ini"
        with open(cfgp, "w", encoding="utf-8") as fh:
            cp.write(fh)
        code = cli.main(["reconstruct", "--config", str(cfgp), "--seed", "0",
                         "--out", str(Path(tmp) / "r")])
    assert code in (0, 2, 3), edits
