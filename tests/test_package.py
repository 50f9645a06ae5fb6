"""The package root is the library surface: exactly the entry points below,
and the README library example runs on them alone."""

import contextlib
import io
import re
import types
from pathlib import Path

import dds

ROOT_NAMES = {
    # the README library example
    "AffineSubspacePrior", "MaskSpec", "RngStream", "SamplerConfig", "dds_reconstruct",
    "make_coil_maps", "make_mask", "sense_operator",
    # operators, priors and schedules, the volume path
    "LinearMap", "RadonGeometry", "radon_operator",
    "GmmPrior", "Schedule", "TvConfig", "dds_3d_reconstruct", "ReconResult",
    # dtypes, files and errors
    "REAL", "COMPLEX", "read_dtf", "write_dtf",
    "ConfigError", "NumericalError", "SamplerDivergedError",
}


def test_root_exports_exactly_the_library_entry_points():
    public = {name for name, value in vars(dds).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    assert float(out.getvalue()) < 1e-3
