"""tools/byte_oracle.py --compare reads two --dump trees and bounds the moves by number."""

import importlib.util
from pathlib import Path

import numpy as np

from dds.dtf import write_dtf

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
