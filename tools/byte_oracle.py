"""Byte oracle: hash the artifacts of `dds reconstruct`/`sweep`/`noise-offset`/`metrics`/`emit`.

The first line names the BLAS thread settings (`OPENBLAS_NUM_THREADS`,
`OMP_NUM_THREADS`, `MKL_NUM_THREADS`, each value or `unset`), the CPU
count and the numpy version: some 64x64 outputs (the `bench/mri2d-dds`
line) differ between 1 and 2 BLAS threads, and every FFT's bytes are those
of the pocketfft gufuncs of the numpy that runs, so two outputs compare
only when this line matches. Run as
a script, the oracle sets each of the three that is unset to 1 before numpy
loads, as `bench/run.py` does, so its bytes are the bench's. Then
it runs the CLI's `reconstruct` command in-process with `--seed 3` on 113
configs and prints one line per config: its name, the sha256 of `x0.dtf`,
the sha256 of `trace.csv` and the exit code ("-" for a file the run did not
write). Then it runs `sweep` on 11 axis/config/`--jobs` cases,
`noise-offset` on 2 configs and `metrics` on 2 pairs of DTF files, and
prints for each the name, the sha256 of the CSV and the exit code; and
`emit` on 2 estimates, printing the sha256 of the PGM and the exit code.
Then it runs `simulate` on 3 configs and prints the sha256 of `x_true.dtf`,
`y.dtf`, `mask.dtf` and `maps.dtf` and the exit code, each followed by a
`reconstruct --in` line on the files it wrote, hashed as above. Last, a
`reconstruct` on a config file that does not exist prints `- - 2`: 137
hash lines after the header. Two checkouts behave the same on these runs
exactly when the outputs match:

    python3 tools/byte_oracle.py > change.txt
    python3 tools/byte_oracle.py --repo ../parent-checkout > parent.txt
    diff parent.txt change.txt

``--repo`` picks the checkout whose `src/dds` and `bench/workloads.py` are
run (default: the checkout holding this script), so the same grid runs
against a checkout that predates this script.

``--dump DIR`` keeps the outputs instead of hashing them in a temporary
directory: `DIR/<config>/x0.dtf` and `trace.csv` per reconstruct config,
`DIR/<name>/sweep.csv`, `noise_offset.csv` or `metrics.csv` per CSV line,
`DIR/simulate/<config>/` and `DIR/reconstruct-in/<config>/` per
simulated config, and `DIR/emit/<config>/image.pgm` per PGM (which
`--compare` leaves out). Two dumps, one per checkout, bound a round-off
move by number where the hashes only show that it happened:

    python3 tools/byte_oracle.py --compare PARENT_DUMP CHANGE_DUMP

prints, per config, ||x0' - x0|| / ||x0||, the largest change of a trace
`residual` relative to the run's largest residual, and for a sweep,
noise-offset or metrics CSV the largest change of a numeric cell relative
to its largest cell (0 when equal; inf when the rows, shapes or text cells
disagree or one side lacks the file), then the worst case of each.

The grid:
- `mri2d` and `mri2d-noisy` (16x16, 2 coils, 2x) x the six DC strategies x
  VP (nfe 8) and VE (nfe 12) x {defaults, `scale_step_by_residual` with
  `xi` = `dps_step` = 0.5, `eta` = 0.5}: 72 configs;
- a GMM prior with `dds-cg`/VP, `gradient`/VE and `ddnm`/VP with eta 0.5;
- VE `dds-cg` with `ve_truncation` = 0.2, and VP and VE `dds-cg` at nfe 100,
  where the default `ve_truncation` of 1/50 stops VE at step 2 and VP
  ignores it;
- VP `gradient` with `xi` = 1e16 and nfe 20, whose residual overflows, so
  its line pins the exit code of a diverging run (3);
- VP `dds-cg` on each random mask kind (`gaussian1d`, `gaussian2d`,
  `poisson-disk-vd`; the configs above use `uniform1d`);
- VP `dps` with `dps_step` = -1, which the config check rejects (exit 2);
- VP `dds-cg` with `rejection_tau` = 1e-12 and no `max_retries` (one
  attempt, on the base stream), the same with `max_retries` = 3 (every
  attempt fails), and VE `dds-cg` with `rejection_tau` = 10 and
  `max_retries` = 3 (accepted on the first attempt);
- `mri2d` and `mri2d-noisy` with VP `dds-cg` and VE `ddnm` on `uniform1d`
  and `gaussian1d` at acceleration 4, whose masks keep at most a third of
  the columns, so SENSE keeps its data in hybrid space at the sampled
  columns (every other `mri2d` config samples at acceleration 2, where
  SENSE keeps the measured k-space entries and runs the 2-D FFT);
- `mri2d-noisy` with VP `ddnm` on `gaussian2d` and `poisson-disk-vd` at
  acceleration 4, the noisy 2-D-mask path;
- `mri2d-noisy` with one coil, VP `ddnm` and `projection` on `uniform1d`
  and `gaussian2d`: A A* is then a projector, so each pseudo-inverse solve
  stops on its relative tolerance after one step (the 2-coil solves stop on
  it after 17 to 37 steps, or run to the cap of 200);
- `mri2d` VP `dds-cg` on the `shepp-logan-2d` phantom, on an affine prior
  with `offset_scale` = 0.5 and `smooth` = 2 (the offset and the complex
  smooth field), and at acceleration 1 (the fully sampled mask);
- `ct3d` 3x8x8 in VP, VE, VE with eta 0.5, VE with `ve_truncation` = 0.4
  (nfe 6 stops at step 2, below the ADMM warm-up switch at step 3), and
  rejection runs that use up all attempts in VP (3) and VE (2), and VP on
  the `shepp-logan-3d` phantom;
- the three `bench/workloads.py` configs at phantom seed 1;
- `sweep --seed 3 --repeats 2` over `eta`, `nfe` and `cg-steps` on the
  `mri2d` VP `dds-cg` config, and over `cg-steps` and `lambda` on the
  `ct3d` VP config, each at `--jobs` 1 and 2 (no rejection), and one over
  `eta` on the `mri2d` config that takes axis, values and repeats from its
  `[sweep]` section alone;
- `noise-offset` on its defaults with 3 trials, and with every
  `[noise_offset]` key set;
- `metrics --out` of the `mri2d/dds-cg/vp/defaults` estimate against the
  phantom `simulate` writes for that config, and against itself (PSNR inf);
- `emit` of that estimate, and of slice 1 of the `ct3d/vp` estimate;
- `simulate`, then `reconstruct --in --seed 3` on its files, for the
  `mri2d` `gaussian1d` 4x column mask, the `mri2d-noisy` `gaussian2d` 4x
  mask and `ct3d` VP: the coil maps and mask files, and the E* read path
  (k-space back to the operator's range), that no other line reaches;
- `reconstruct` on a missing config file, which pins its exit code (2).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import math
import os
import sys
import tempfile
from pathlib import Path

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # importing the module leaves the environment alone
    for _var in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

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
coils = {coils}
mask_kind = {mask}
acceleration = {acc}
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


def mri(sampler: str, kind="mri2d", phantom="subspace-random", prior=AFFINE,
        mask="uniform1d", acc=2, coils=2) -> str:
    """An `MRI` config; the defaults are the grid's 2-coil 2x `uniform1d` problem."""
    return MRI.format(kind=kind, phantom=phantom, prior=prior, mask=mask, acc=acc,
                      coils=coils, sampler=sampler)


def grid(repo: Path) -> list[tuple[str, str]]:
    """(name, config text) for every config of the oracle, in output order."""
    out = []
    for kind in ("mri2d", "mri2d-noisy"):
        for dc in DC_STRATEGIES:
            for mode, mode_keys in MODES.items():
                for variant, extra in VARIANTS.items():
                    sampler = f"dc = {dc}\n{mode_keys}\n{extra}"
                    out.append((f"{kind}/{dc}/{mode}/{variant}", mri(sampler, kind=kind)))
    for dc, mode, extra in (("dds-cg", "vp", ""), ("gradient", "ve", ""),
                            ("ddnm", "vp", "eta = 0.5")):
        sampler = f"dc = {dc}\n{MODES[mode]}\n{extra}"
        out.append((f"gmm/{dc}/{mode}", mri(sampler, phantom="gmm-draw", prior=GMM)))
    for name, mask, sampler in (
        ("dds-cg/ve/truncation", "uniform1d", f"dc = dds-cg\n{MODES['ve']}\nve_truncation = 0.2"),
        *((f"dds-cg/{mode}/nfe-100", "uniform1d", f"dc = dds-cg\nmode = {mode}\nnfe = 100")
          for mode in ("vp", "ve")),
        ("gradient/vp/overflow", "uniform1d", "dc = gradient\nmode = vp\nnfe = 20\nxi = 1e16"),
        *((f"dds-cg/vp/{m}", m, f"dc = dds-cg\n{MODES['vp']}")
          for m in ("gaussian1d", "gaussian2d", "poisson-disk-vd")),
        ("dps/vp/negative-step", "uniform1d", f"dc = dps\n{MODES['vp']}\ndps_step = -1"),
        # rejection: one attempt on the base stream; every attempt fails; accepted at once
        *((f"dds-cg/{mode}/{name}", "uniform1d", f"dc = dds-cg\n{MODES[mode]}\n{keys}")
          for name, mode, keys in (
              ("rejection-once", "vp", "rejection_tau = 1e-12"),
              ("rejection", "vp", "rejection_tau = 1e-12\nmax_retries = 3"),
              ("rejection-accept", "ve", "rejection_tau = 10\nmax_retries = 3"))),
    ):
        out.append((f"mri2d/{name}", mri(sampler, mask=mask)))
    # 4x column masks keep at most a third of the columns: the SENSE column path
    for kind in ("mri2d", "mri2d-noisy"):
        for mask in ("uniform1d", "gaussian1d"):
            for dc, mode in (("dds-cg", "vp"), ("ddnm", "ve")):
                out.append((f"{kind}/{dc}/{mode}/{mask}-4x",
                            mri(f"dc = {dc}\n{MODES[mode]}", kind=kind, mask=mask, acc=4)))
    for mask in ("gaussian2d", "poisson-disk-vd"):
        out.append((f"mri2d-noisy/ddnm/vp/{mask}-4x",
                    mri(f"dc = ddnm\n{MODES['vp']}", kind="mri2d-noisy", mask=mask, acc=4)))
    # one coil: A A* is a projector, so the pseudo-inverse stops on its tolerance
    for dc in ("ddnm", "projection"):
        for mask in ("uniform1d", "gaussian2d"):
            out.append((f"mri2d-noisy/{dc}/vp/{mask}-1-coil",
                        mri(f"dc = {dc}\n{MODES['vp']}", kind="mri2d-noisy", mask=mask, coils=1)))
    vp = f"dc = dds-cg\n{MODES['vp']}"
    out.append(("mri2d/dds-cg/vp/shepp-logan-2d", mri(vp, phantom="shepp-logan-2d")))
    out.append(("mri2d/dds-cg/vp/offset-smooth",
                mri(vp, prior=f"{AFFINE}\noffset_scale = 0.5\nsmooth = 2")))
    out.append(("mri2d/dds-cg/vp/fully-sampled", mri(vp, acc=1)))
    for name, sampler in (
        ("vp", "mode = vp\nnfe = 6"),
        ("ve", "mode = ve\nnfe = 6"),
        ("ve/eta", "mode = ve\nnfe = 6\neta = 0.5"),
        ("ve/truncation", "mode = ve\nnfe = 6\nve_truncation = 0.4"),
        ("vp/rejection", "mode = vp\nnfe = 6\nrejection_tau = 1e-12\nmax_retries = 3"),
        ("ve/rejection", "mode = ve\nnfe = 6\nrejection_tau = 1e-12\nmax_retries = 2"),
    ):
        out.append((f"ct3d/{name}", CT.format(sampler=sampler)))
    out.append(("ct3d/vp/shepp-logan-3d", CT.format(sampler="mode = vp\nnfe = 6")
                .replace("kind = subspace-random", "kind = shepp-logan-3d")))
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  repo / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    for name, w in workloads.WORKLOADS.items():
        out.append((f"bench/{name}", w.config_text(1)))
    return out


# (problem, axis, values); each sweep runs at --jobs 1 and 2
SWEEPS = (("mri2d", "eta", "0.0,0.5"), ("mri2d", "nfe", "5,8"), ("mri2d", "cg-steps", "1,3"),
          ("ct3d", "cg-steps", "1,3"), ("ct3d", "lambda", "0.0,0.5"))
SWEEP_CONFIGS = {
    "mri2d": mri(f"dc = dds-cg\n{MODES['vp']}"),
    "ct3d": CT.format(sampler="mode = vp\nnfe = 6"),
}
# a sweep whose axis, values and repeats all come from its [sweep] section
SWEEP_SECTION = SWEEP_CONFIGS["mri2d"] + "\n[sweep]\naxis = eta\nvalues = 0.0 0.5\nrepeats = 2\n"
# the reconstruct config whose estimate `metrics` scores against its phantom
METRICS = "mri2d/dds-cg/vp/defaults"
# the reconstruct estimates `emit` writes a PGM of, with the --slice of a volume
EMITS = ((METRICS, None), ("ct3d/vp", "1"))
# the configs `simulate` writes files for, which `reconstruct --in` reads back
SIMULATE = ("mri2d/dds-cg/vp/gaussian1d-4x", "mri2d-noisy/ddnm/vp/gaussian2d-4x", "ct3d/vp")
SIMULATED = ("x_true.dtf", "y.dtf", "mask.dtf", "maps.dtf")


def blas_header() -> str:
    """The first output line: each BLAS thread variable (or `unset`), the CPU
    count and the numpy version."""
    settings = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREAD_VARIABLES)
    return f"blas {settings} cpus={os.cpu_count()} numpy={np.__version__}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


CSVS = ("sweep.csv", "noise_offset.csv", "metrics.csv")
ARTIFACTS = ("x0.dtf", "trace.csv", *CSVS)


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def _relative(change, parent) -> float:
    """max |change - parent| / max |parent| over float arrays of one shape.

    NaN cells (the noise-offset means, gt-error without a truth) must sit in
    the same places and are left out.
    """
    if change.shape != parent.shape or not np.array_equal(np.isnan(change), np.isnan(parent)):
        return math.inf
    if np.array_equal(change, parent, equal_nan=True):
        return 0.0
    keep = ~np.isnan(parent)
    scale = np.max(np.abs(parent[keep]), initial=0.0)
    diff = np.max(np.abs(change[keep] - parent[keep]))
    return float(diff / scale) if scale > 0 else math.inf


def _x0_move(parent: Path, change: Path) -> float:
    from dds import read_dtf

    p, c = read_dtf(parent), read_dtf(change)
    if p.shape != c.shape:
        return math.inf
    if np.array_equal(p, c):
        return 0.0
    return float(np.linalg.norm(c - p) / np.linalg.norm(p))


def _residual_move(parent: Path, change: Path) -> float:
    (hp, p), (hc, c) = _table(parent), _table(change)
    col = hp.index("residual")
    if hp != hc or [r[0] for r in p] != [r[0] for r in c]:
        return math.inf  # other columns or other steps
    return _relative(np.array([float(r[col]) for r in c]),
                     np.array([float(r[col]) for r in p]))


def _csv_move(parent: Path, change: Path) -> float:
    (hp, p), (hc, c) = _table(parent), _table(change)
    if hp != hc or len(p) != len(c):
        return math.inf
    numbers = ([], [])
    for row_p, row_c in zip(p, c):
        for a, b in zip(row_p, row_c):
            try:
                numbers[0].append(float(a))
                numbers[1].append(float(b))
            except ValueError:
                if a != b:
                    return math.inf  # a text cell (the strategy name) moved
    return _relative(np.array(numbers[1]), np.array(numbers[0]))


MOVES = (("x0", "x0.dtf", _x0_move), ("residual", "trace.csv", _residual_move),
         *(("csv", name, _csv_move) for name in CSVS))


def compare(parent: Path, change: Path) -> None:
    """Print each config's relative moves between two --dump trees, then the worst."""
    def configs(root):
        return {f.parent.relative_to(root).as_posix()
                for name in ARTIFACTS for f in root.rglob(name)}

    worst = {}
    for name in sorted(configs(parent) | configs(change)):
        fields = []
        for label, fname, move in MOVES:
            p, c = parent / name / fname, change / name / fname
            if not (p.exists() or c.exists()):
                continue
            d = move(p, c) if p.exists() and c.exists() else math.inf
            fields.append(f"{label} {d:.1e}" if d else f"{label} 0")
            if d > worst.get(label, (-1.0, ""))[0]:
                worst[label] = (d, name)
        print(name, *fields)
    print("worst:", *(f"{label} {d:.1e} ({name})" if d else f"{label} 0"
                      for label, (d, name) in worst.items()))


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
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT_DUMP", "CHANGE_DUMP"),
                    help="compare two --dump trees by number instead of running the grid")
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    if args.compare is not None:
        compare(*args.compare)
        return 0
    if args.dump is not None and args.dump.exists() and any(args.dump.iterdir()):
        ap.error(f"--dump directory {args.dump} is not empty")
    from dds import cli

    print(blas_header(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def config_file(text: str) -> str:
            (tmp / "config.ini").write_text(text)
            return str(tmp / "config.ini")

        def csv_line(name: str, csv: str, argv: list[str]) -> None:
            """Run one command writing one CSV (--out) and print its line."""
            out = (args.dump if args.dump else tmp / "csv") / name / csv
            out.parent.mkdir(parents=True, exist_ok=True)
            code = run_quietly(cli, [*argv, "--out", str(out)])
            print(f"{name} {sha256(out)} {code}", flush=True)

        configs, outs = grid(repo), {}
        for i, (name, text) in enumerate(configs):
            out = outs[name] = args.dump / name if args.dump else tmp / f"out{i}"
            code = run_quietly(cli, ["reconstruct", "--config", config_file(text),
                                     "--seed", "3", "--out", str(out)])
            print(f"{name} {sha256(out / 'x0.dtf')} {sha256(out / 'trace.csv')} {code}",
                  flush=True)
        for problem, axis, values in SWEEPS:
            for jobs in ("1", "2"):
                csv_line(f"sweep/{problem}/{axis}/jobs{jobs}", "sweep.csv",
                         ["sweep", "--config", config_file(SWEEP_CONFIGS[problem]),
                          "--axis", axis, "--values", values, "--repeats", "2",
                          "--seed", "3", "--jobs", jobs])
        csv_line("sweep/mri2d/section", "sweep.csv",
                 ["sweep", "--config", config_file(SWEEP_SECTION), "--seed", "3"])
        for name, text in NOISE_OFFSET.items():
            csv_line(name, "noise_offset.csv",
                     ["noise-offset", "--config", config_file(text), "--seed", "3"])
        sim = tmp / "sim"
        run_quietly(cli, ["simulate", "--config", config_file(dict(configs)[METRICS]),
                          "--out", str(sim)])
        csv_line(f"metrics/{METRICS}", "metrics.csv",
                 ["metrics", "--x", str(outs[METRICS] / "x0.dtf"),
                  "--ref", str(sim / "x_true.dtf")])
        csv_line(f"metrics-self/{METRICS}", "metrics.csv",
                 ["metrics", "--x", str(outs[METRICS] / "x0.dtf"),
                  "--ref", str(outs[METRICS] / "x0.dtf")])
        root = args.dump if args.dump else tmp
        for name, slice_ in EMITS:
            pgm = root / "emit" / name / "image.pgm"
            pgm.parent.mkdir(parents=True, exist_ok=True)
            code = run_quietly(cli, ["emit", "--in", str(outs[name] / "x0.dtf"),
                                     "--out", str(pgm), *(["--slice", slice_] if slice_ else [])])
            print(f"emit/{name} {sha256(pgm)} {code}", flush=True)
        for name in SIMULATE:
            sim, rec = root / "simulate" / name, root / "reconstruct-in" / name
            config = config_file(dict(configs)[name])
            code = run_quietly(cli, ["simulate", "--config", config, "--out", str(sim)])
            print(f"simulate/{name}", *(sha256(sim / f) for f in SIMULATED), code, flush=True)
            code = run_quietly(cli, ["reconstruct", "--config", config, "--in", str(sim),
                                     "--seed", "3", "--out", str(rec)])
            print(f"reconstruct-in/{name} {sha256(rec / 'x0.dtf')} {sha256(rec / 'trace.csv')} "
                  f"{code}", flush=True)
        out = root / "missing-config"
        code = run_quietly(cli, ["reconstruct", "--config", str(tmp / "missing.ini"),
                                 "--seed", "3", "--out", str(out)])
        print(f"missing-config {sha256(out / 'x0.dtf')} {sha256(out / 'trace.csv')} {code}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
