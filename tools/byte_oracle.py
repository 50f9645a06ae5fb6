"""Byte oracle: hash the artifacts of `dds reconstruct`/`noise-offset --seed 3` over configs.

Runs the CLI's `reconstruct` command in-process on 85 configs and prints one
line per config: its name, the sha256 of `x0.dtf`, the sha256 of
`trace.csv` and the exit code ("-" for a file the run did not write). Then
it runs `noise-offset` on 2 configs and prints the name, the sha256 of the
CSV and the exit code. Two checkouts behave the same on these configs
exactly when the outputs match:

    python3 tools/byte_oracle.py > change.txt
    python3 tools/byte_oracle.py --repo ../parent-checkout > parent.txt
    diff parent.txt change.txt

``--repo`` picks the checkout whose `src/dds` and `bench/workloads.py` are
run (default: the checkout holding this script), so the same grid runs
against a checkout that predates this script.

``--dump DIR`` keeps the outputs instead of hashing them in a temporary
directory: `DIR/<config>/x0.dtf` and `trace.csv` per reconstruct config,
`DIR/<config>/noise_offset.csv` per noise-offset config. Two dumps, one per
checkout, bound a round-off move by number where the hashes only show that
it happened (read the volumes with `dds.read_dtf`).

The grid:
- `mri2d` and `mri2d-noisy` (16x16, 2 coils) x the six DC strategies x
  VP (nfe 8) and VE (nfe 12) x {defaults, `scale_step_by_residual` with
  `xi` = `dps_step` = 0.5, `eta` = 0.5}: 72 configs;
- a GMM prior with `dds-cg`/VP, `gradient`/VE and `ddnm`/VP with eta 0.5;
- VE `dds-cg` with `ve_truncation` = 0.2;
- VP `gradient` with `xi` = 1e16 and nfe 20, whose residual overflows, so
  its line pins the exit code of a diverging run (3);
- `ct3d` 3x8x8 in VP, VE, VE with eta 0.5, and rejection runs that use up
  all attempts in VP (3) and VE (2);
- the three `bench/workloads.py` configs at phantom seed 1;
- `noise-offset` on its defaults with 3 trials, and with every
  `[noise_offset]` key set.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

DC_STRATEGIES = ("dds-cg", "dds-proximal-cg", "ddnm", "projection", "gradient", "dps")

MRI = """
[problem]
kind = {kind}

[phantom]
kind = {phantom}
shape = 16 16
seed = 7

[prior]
{prior}
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
{sampler}
"""

AFFINE = "kind = affine\ndim = 4"
GMM = "kind = gmm\ncomponents = 3\ntau = 0.1"

CT = """
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
{sampler}

[tv]
lam = 0.5
rho = 0.5
cg_steps = 2
"""

NOISE_OFFSET = {
    "noise-offset/defaults": "[noise_offset]\ntrials = 3\n",
    "noise-offset/every-key": """
[noise_offset]
trials = 2
sigma_gt = 0.05
shape = 16 16
prior_dim = 6
angles = 30
smooth = 4.0
phantom_scale = 2.5
""",
}

MODES = {"vp": "mode = vp\nnfe = 8", "ve": "mode = ve\nnfe = 12"}
VARIANTS = {
    "defaults": "",
    "scaled": "scale_step_by_residual = true\nxi = 0.5\ndps_step = 0.5",
    "eta": "eta = 0.5",
}


def grid(repo: Path) -> list[tuple[str, str]]:
    """(name, config text) for every config of the oracle, in output order."""
    out = []
    for kind in ("mri2d", "mri2d-noisy"):
        for dc in DC_STRATEGIES:
            for mode, mode_keys in MODES.items():
                for variant, extra in VARIANTS.items():
                    sampler = f"dc = {dc}\n{mode_keys}\n{extra}"
                    out.append((f"{kind}/{dc}/{mode}/{variant}",
                                MRI.format(kind=kind, phantom="subspace-random",
                                           prior=AFFINE, sampler=sampler)))
    for dc, mode, extra in (("dds-cg", "vp", ""), ("gradient", "ve", ""),
                            ("ddnm", "vp", "eta = 0.5")):
        sampler = f"dc = {dc}\n{MODES[mode]}\n{extra}"
        out.append((f"gmm/{dc}/{mode}", MRI.format(kind="mri2d", phantom="gmm-draw",
                                                   prior=GMM, sampler=sampler)))
    out.append(("mri2d/dds-cg/ve/truncation", MRI.format(
        kind="mri2d", phantom="subspace-random", prior=AFFINE,
        sampler=f"dc = dds-cg\n{MODES['ve']}\nve_truncation = 0.2")))
    out.append(("mri2d/gradient/vp/overflow", MRI.format(
        kind="mri2d", phantom="subspace-random", prior=AFFINE,
        sampler="dc = gradient\nmode = vp\nnfe = 20\nxi = 1e16")))
    for name, sampler in (
        ("vp", "mode = vp\nnfe = 6"),
        ("ve", "mode = ve\nnfe = 6"),
        ("ve/eta", "mode = ve\nnfe = 6\neta = 0.5"),
        ("vp/rejection", "mode = vp\nnfe = 6\nrejection_tau = 1e-12\nmax_retries = 3"),
        ("ve/rejection", "mode = ve\nnfe = 6\nrejection_tau = 1e-12\nmax_retries = 2"),
    ):
        out.append((f"ct3d/{name}", CT.format(sampler=sampler)))
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  repo / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    for name, w in workloads.WORKLOADS.items():
        out.append((f"bench/{name}", w.config_text(1)))
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def run_quietly(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout to run (default: the one holding this script)")
    ap.add_argument("--dump", type=Path, metavar="DIR",
                    help="keep every config's outputs under DIR/<config>/ (DIR must be "
                         "empty or absent)")
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    if args.dump is not None and args.dump.exists() and any(args.dump.iterdir()):
        ap.error(f"--dump directory {args.dump} is not empty")
    sys.path.insert(0, str(repo / "src"))
    from dds import cli

    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, text) in enumerate(grid(repo)):
            cfg = Path(tmp) / f"{i}.ini"
            cfg.write_text(text)
            out = args.dump / name if args.dump else Path(tmp) / f"out{i}"
            code = run_quietly(cli, ["reconstruct", "--config", str(cfg), "--seed", "3",
                                     "--out", str(out)])
            print(f"{name} {sha256(out / 'x0.dtf')} {sha256(out / 'trace.csv')} {code}",
                  flush=True)
        for name, text in NOISE_OFFSET.items():
            cfg = Path(tmp) / "noise_offset.ini"
            cfg.write_text(text)
            if args.dump:
                out = args.dump / name / "noise_offset.csv"
                out.parent.mkdir(parents=True, exist_ok=True)
            else:
                out = Path(tmp) / f"{name.replace('/', '-')}.csv"
            code = run_quietly(cli, ["noise-offset", "--config", str(cfg), "--seed", "3",
                                     "--out", str(out)])
            print(f"{name} {sha256(out)} {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
