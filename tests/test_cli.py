import struct
import subprocess
import sys

import numpy as np
import pytest

from dds.dtf import read_dtf, write_dtf
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


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_sweep_repeats_below_one_exits_2(cfg_file, tmp_path, repeats):
    out = tmp_path / "s.csv"
    r = run_cli("sweep", "--config", str(cfg_file), "--axis", "eta",
                "--values", "0.0", "--repeats", repeats, "--seed", "0",
                "--out", str(out))
    _one_line_error(r)
    assert not out.exists()


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
], ids=["non-integer-shape", "one-size-2d-shape", "prior-dim-above-pixels",
        "non-boolean-complex"])
def test_malformed_config_value_exits_2(tmp_path, old, new, named):
    # each used to end in a traceback and exit 1
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace(old, new))
    r = run_cli("simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim"))
    _one_line_error(r)
    assert named in r.stderr


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
], ids=["non-boolean", "no-retries", "negative-retries", "negative-tau",
        "negative-tau-with-retries", "negative-dps-step", "zero-dps-step",
        "full-ve-truncation", "ve-truncation-above-1", "nan-gamma", "zero-xi", "nan-xi",
        "nan-ve-sigma-max", "inf-ve-sigma-max"])
def test_bad_sampler_value_exits_2(tmp_path, extra, named):
    # the boolean ran as false and tau = -1 was rejected only when
    # max_retries > 1 sent it through rejection_wrap; dps_step = -1 ran
    # gradient ascent, dps_step = 0 and ve_truncation = 1 skipped data
    # consistency, ve_truncation = 2 failed with a timestep error and
    # gamma = nan reached the first CG solve; ve_sigma_max = nan or inf
    # built a schedule of non-finite sigmas and exited 3 after numpy warnings
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(CFG.replace("dc = dds-cg", f"dc = dds-cg\n{extra}"))
    out = tmp_path / "r"
    r = run_cli("reconstruct", "--config", str(cfgp), "--seed", "0", "--out", str(out))
    _one_line_error(r)
    assert named in r.stderr
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
