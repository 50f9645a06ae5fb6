"""Batch command-line interface.

Subcommands: simulate, reconstruct, sweep, noise-offset, metrics, emit.
Exit codes: 0 success, 2 validation or file-system error, 3 numerical
failure. Artifacts are byte-reproducible from (config, seed) at a given
BLAS thread count; wall-clock timing columns are opt-in via --timing
because they would break that contract.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments as xp
from .dtf import read_dtf, write_csv, write_dtf
from .errors import ConfigError, NumericalError
from .metrics import psnr
from .tensor import RngStream


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _sense_arrays(problem) -> dict:  # a SENSE plan's mask and maps, by file stem
    plan = getattr(problem.a, "plan", None)
    return {} if plan is None else {"mask": plan.mask, "maps": plan.maps}


def cmd_simulate(args) -> int:
    cfg = xp.ExperimentConfig.load(args.config)
    problem = xp.build_problem(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dtf(out / "x_true.dtf", problem.x_true)
    write_dtf(out / "y.dtf", problem.a.embedding.apply(problem.y))
    for name, arr in _sense_arrays(problem).items():
        write_dtf(out / f"{name}.dtf", arr)
    (out / "config.ini").write_text(cfg.text, encoding="utf-8")
    print(f"simulated {problem.kind}: wrote x_true.dtf, y.dtf to {out}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = xp.ExperimentConfig.load(args.config)
    problem = xp.build_problem(cfg)
    indir = Path(args.indir) if args.indir else None
    if indir is not None:
        y_path = indir / "y.dtf"
        y = read_dtf(y_path)
        e = problem.a.embedding
        if y.shape != e.range_shape:
            raise ConfigError("measurement shape does not match the configured operator")
        if y.dtype.kind == "c" and e.range_dtype.kind != "c":  # the cast would drop y.imag
            raise ConfigError(f"{y_path} is complex, but {problem.a.name} measures real data")
        for name, built in _sense_arrays(problem).items():  # E* keeps y.dtf on this mask only
            saved_path = indir / f"{name}.dtf"
            if saved_path.exists() and not _same_bits(read_dtf(saved_path), built):
                raise ConfigError(f"{saved_path} differs from the configured operator's {name}")
        problem.y = e.adjoint(y.astype(e.range_dtype))
        xt_path = indir / "x_true.dtf"
        if xt_path.exists():
            problem.x_true = read_dtf(xt_path)
            if problem.x_true.shape != problem.a.domain_shape:
                raise ConfigError("x_true.dtf shape does not match the operator domain")
            if problem.x_true.dtype.kind == "c" and problem.a.domain_dtype.kind != "c":
                raise ConfigError(f"{xt_path} is complex, but {problem.a.name} has a real domain")
    scfg = xp.sampler_config(cfg, seed=args.seed)
    tv = xp.tv_config(cfg)  # checked also on 2-D problems, whose runs ignore it
    retries = cfg.get("sampler", "max_retries", 1, int)
    res = xp.run_reconstruction(problem, scfg, tv=tv, rng=RngStream(args.seed),
                                max_retries=retries)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dtf(out / "x0.dtf", res.x0)
    res.trace.to_csv(out / "trace.csv")
    msg = f"reconstructed: residual {res.residual:.6e}, {len(res.trace)} steps"
    if res.accepted is not None:
        msg += f", accepted={res.accepted} after {res.attempts} attempt(s)"
    if args.timing:
        msg += f", {res.wall_seconds:.2f} s"
    print(msg)
    return 0


def cmd_sweep(args) -> int:
    cfg = xp.ExperimentConfig.load(args.config)
    axis = args.axis or cfg.get("sweep", "axis")
    if args.values:
        values = [v for v in args.values.split(",") if v]
    else:
        values = [str(v) for v in cfg.get("sweep", "values").split()]
    repeats = args.repeats if args.repeats is not None else cfg.get("sweep", "repeats", 1, int)
    rows = xp.run_sweep(cfg, axis, values, repeats, seed=args.seed, jobs=args.jobs)
    header = xp.MET_COLUMNS if args.timing else xp.MET_HEADER
    write_csv(args.out, header, [r.as_list(timing=args.timing) for r in rows])
    print(f"sweep over {axis}: {len(rows)} rows -> {args.out}")
    return 0


def cmd_noise_offset(args) -> int:
    cfg = xp.ExperimentConfig.load(args.config) if args.config else xp.ExperimentConfig("")
    ncfg = cfg.read("noise_offset", xp.NoiseOffsetConfig)
    rows, means, wins = xp.run_noise_offset_experiment(ncfg, args.seed)
    write_csv(args.out, xp.NOISE_OFFSET_HEADER, rows)
    print(f"noise offset: dds-cg smallest in {wins}/{ncfg.trials} trials -> {args.out}")
    for strat, off in means.items():
        print(f"  {strat:12s} mean offset {off:.5f}")
    return 0


def cmd_metrics(args) -> int:
    x = read_dtf(args.x)
    ref = read_dtf(args.ref)
    mx = np.abs(x)
    mref = np.abs(ref)
    row = xp.MetricsRow(run_id=Path(args.x).stem, strategy="metrics", nfe=0, cg_steps=0,
                        eta=math.nan, psnr=psnr(mx, mref, peak=args.peak),
                        ssim=xp.magnitude_ssim(mx, mref),
                        residual=float(np.linalg.norm((x - ref).ravel())))
    if args.out:
        write_csv(args.out, xp.MET_HEADER, [row.as_list()])
    print(f"psnr {row.psnr:.4f} dB, ssim {row.ssim:.6f}, residual {row.residual:.6e}")
    return 0


def cmd_emit(args) -> int:
    x = read_dtf(args.infile)
    if np.iscomplexobj(x):
        x = np.abs(x)
    if x.ndim == 3:
        if args.slice is None:
            raise ConfigError("volume input: pick an axial slice with --slice")
        if not 0 <= args.slice < x.shape[0]:
            raise ConfigError(f"--slice {args.slice} out of range for {x.shape[0]} slices")
        x = x[args.slice]
    xp.emit_image(x, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dds", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="phantom + operator + measurements -> DTF")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="DTF measurements in -> DTF estimate + trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="indir", default=None,
                   help="directory with y.dtf (defaults to re-simulating from config)")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sweep", help="axis sweep -> metrics CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=xp.SWEEP_AXES, default=None)
    p.add_argument("--values", default=None, help="comma-separated axis values")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("noise-offset", help="one-step DC noise-offset table")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_noise_offset)

    p = sub.add_parser("metrics", help="pair of DTF files -> metrics row")
    p.add_argument("--x", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--peak", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("emit", help="DTF -> 8-bit PGM")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--slice", type=int, default=None)
    p.set_defaults(func=cmd_emit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, MemoryError) as exc:  # e.g. an --out path that cannot be
        # created, or a [phantom] shape whose arrays this host cannot hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
