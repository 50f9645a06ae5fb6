"""tools/byte_oracle.py names and pins its BLAS threads, and --compare reads two --dump trees and
bounds the moves by number."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dds.dtf import write_dtf
from dds.samplers import SamplerConfig, make_schedule

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("byte_oracle", ROOT / "tools" / "byte_oracle.py")
byte_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_oracle)


def dump(root: Path, x0, residuals, offsets):
    run = root / "mri2d" / "dds-cg"
    run.mkdir(parents=True)
    write_dtf(run / "x0.dtf", np.asarray(x0))
    rows = [f"{len(residuals) - i},{r!r},nan,0.5,nan" for i, r in enumerate(residuals)]
    (run / "trace.csv").write_text("\n".join(["t,residual,gt-error,noise-est,subspace-dist",
                                              *rows]) + "\n")
    study = root / "noise-offset"
    study.mkdir()
    (study / "noise_offset.csv").write_text(
        "trial,strategy,sigma_est,offset\n"
        + "".join(f"0,s{i},nan,{o!r}\n" for i, o in enumerate(offsets)))


def test_compare_prints_relative_moves_and_the_worst(tmp_path, capsys):
    dump(tmp_path / "p", [3.0, 4.0], [2.0, 1.0, 0.5], [1.0, 2.0])
    dump(tmp_path / "c", [3.0, 4.0 + 5e-3], [2.0, 1.0 + 1e-3, 0.5], [1.0, 2.0])
    byte_oracle.compare(tmp_path / "p", tmp_path / "c")
    assert capsys.readouterr().out.splitlines() == [
        "mri2d/dds-cg x0 1.0e-03 residual 5.0e-04",
        "noise-offset csv 0",
        "worst: x0 1.0e-03 (mri2d/dds-cg) residual 5.0e-04 (mri2d/dds-cg) csv 0",
    ]


def test_compare_flags_other_steps_and_missing_files(tmp_path, capsys):
    dump(tmp_path / "p", [3.0, 4.0], [2.0, 1.0, 0.5], [1.0, 2.0])
    dump(tmp_path / "c", [3.0, 4.0], [2.0, 1.0], [1.0, 2.0])
    (tmp_path / "c" / "mri2d" / "dds-cg" / "x0.dtf").unlink()
    byte_oracle.compare(tmp_path / "p", tmp_path / "c")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mri2d/dds-cg x0 inf residual inf"


def test_compare_reads_sweep_and_metrics_csvs(tmp_path, capsys):
    header = "run_id,strategy,nfe,cg_steps,eta,psnr,ssim,residual\n"
    for side, psnr, run_id in (("p", 20.0, "eta=0.0:rep=0"), ("c", 20.002, "eta=0.0:rep=0"),
                               ("c2", 20.0, "eta=0.5:rep=0")):
        for name, csv in (("sweep/mri2d/eta/jobs1", "sweep.csv"),
                          ("metrics/mri2d", "metrics.csv")):
            (tmp_path / side / name).mkdir(parents=True)
            (tmp_path / side / name / csv).write_text(
                f"{header}{run_id},dds-cg,8,5,0.0,{psnr!r},0.5,0.25\n")
    byte_oracle.compare(tmp_path / "p", tmp_path / "c")
    assert capsys.readouterr().out.splitlines() == [
        "metrics/mri2d csv 1.0e-04",
        "sweep/mri2d/eta/jobs1 csv 1.0e-04",
        "worst: csv 1.0e-04 (metrics/mri2d)",
    ]
    byte_oracle.compare(tmp_path / "p", tmp_path / "c2")  # a run id moved
    assert capsys.readouterr().out.splitlines()[:2] == [
        "metrics/mri2d csv inf", "sweep/mri2d/eta/jobs1 csv inf"]


def test_header_names_the_blas_threads_and_cpus(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "4")
    assert byte_oracle.blas_header() == ("blas OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset "
                                         f"MKL_NUM_THREADS=4 cpus={os.cpu_count()} "
                                         f"numpy={np.__version__}")


def test_script_pins_unset_blas_threads_to_one():
    # the bench pins one BLAS thread where none is set, and the
    # bench/mri2d-dds bytes differ between 1 and 2 threads
    env = {k: v for k, v in os.environ.items() if k not in byte_oracle.BLAS_THREAD_VARIABLES}
    proc = subprocess.Popen([sys.executable, str(ROOT / "tools" / "byte_oracle.py")],
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        header = proc.stdout.readline()
    finally:
        proc.kill()
        proc.communicate()
    assert header.split()[1:4] == [f"{v}=1" for v in byte_oracle.BLAS_THREAD_VARIABLES]


def test_grid_names_the_cli_paths_no_other_line_reaches():
    # built, not run: the shepp-logan phantoms, the prior's offset and complex
    # smooth field, the fully sampled mask, the single-coil pseudo-inverse
    # that stops on its tolerance, the 2-D rejection runs, and the estimates
    # emit reads
    configs = dict(byte_oracle.grid(ROOT))
    assert len(configs) == 113
    for dc in ("ddnm", "projection"):
        for mask in ("uniform1d", "gaussian2d"):
            text = configs[f"mri2d-noisy/{dc}/vp/{mask}-1-coil"]
            assert "coils = 1\n" in text and f"mask_kind = {mask}\n" in text
            assert "kind = mri2d-noisy\n" in text and "mode = vp\n" in text
    assert "kind = shepp-logan-2d" in configs["mri2d/dds-cg/vp/shepp-logan-2d"]
    assert "kind = shepp-logan-3d" in configs["ct3d/vp/shepp-logan-3d"]
    assert "offset_scale = 0.5\nsmooth = 2" in configs["mri2d/dds-cg/vp/offset-smooth"]
    assert "acceleration = 1\n" in configs["mri2d/dds-cg/vp/fully-sampled"]
    # the 2-D rejection runs: one attempt with tau set, all attempts failing, accepted at once
    assert "rejection_tau = 1e-12\n" in configs["mri2d/dds-cg/vp/rejection-once"]
    assert "max_retries" not in configs["mri2d/dds-cg/vp/rejection-once"]
    assert "rejection_tau = 1e-12\nmax_retries = 3" in configs["mri2d/dds-cg/vp/rejection"]
    assert "mode = ve\n" in configs["mri2d/dds-cg/ve/rejection-accept"]
    assert "rejection_tau = 10\nmax_retries = 3" in configs["mri2d/dds-cg/ve/rejection-accept"]
    assert all(name in configs for name, _ in byte_oracle.EMITS)
    assert "[sweep]\naxis = eta" in byte_oracle.SWEEP_SECTION


def test_grid_stops_above_step_1_in_three_more_runs():
    # the default ve_truncation of 1/50 stops VE at step 2 of nfe 100 and VP
    # not at all; 0.4 stops ct3d's nfe 6 at step 2, below its ADMM switch at 3
    configs = dict(byte_oracle.grid(ROOT))
    for mode in ("vp", "ve"):
        assert f"mode = {mode}\nnfe = 100\n" in configs[f"mri2d/dds-cg/{mode}/nfe-100"]
    assert "mode = ve\nnfe = 6\nve_truncation = 0.4\n" in configs["ct3d/ve/truncation"]
    runs = (dict(mode="vp", nfe=100), dict(mode="ve", nfe=100),
            dict(mode="ve", nfe=6, ve_truncation=0.4))
    assert [make_schedule(SamplerConfig(**kw)).stop for kw in runs] == [1, 2, 2]
