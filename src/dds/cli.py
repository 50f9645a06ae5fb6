"""Batch command-line interface.

Subcommands: simulate, reconstruct, sweep, noise-offset, metrics, emit.
Exit codes: 0 success, 2 validation error, 3 numerical failure. Artifacts
are byte-reproducible from (config, seed); wall-clock timing columns are
opt-in via --timing because they would break that contract.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments as xp
from .dtf import read_dtf, write_dtf
from .errors import ConfigError, NumericalError
from .metrics import psnr, ssim
from .tensor import RngStream


def _load_cfg(path) -> xp.ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return xp.ExperimentConfig.load(p)


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args.config)
    problem = xp.build_problem(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dtf(out / "x_true.dtf", problem.x_true)
    write_dtf(out / "y.dtf", problem.y)
    if "mask" in problem.aux:
        write_dtf(out / "mask.dtf", problem.aux["mask"])
    if "maps" in problem.aux:
        write_dtf(out / "maps.dtf", problem.aux["maps"])
    (out / "config.ini").write_text(cfg.text)
    print(f"simulated {problem.kind}: wrote x_true.dtf, y.dtf to {out}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _load_cfg(args.config)
    problem = xp.build_problem(cfg)
    indir = Path(args.indir) if args.indir else None
    if indir is not None:
        y_path = indir / "y.dtf"
        if not y_path.exists():
            raise ConfigError(f"measurements not found: {y_path}")
        y = read_dtf(y_path)
        if y.shape != problem.a.range_shape:
            raise ConfigError("measurement shape does not match the configured operator")
        problem.y = y.astype(problem.a.range_dtype)
        xt_path = indir / "x_true.dtf"
        problem.x_true = read_dtf(xt_path) if xt_path.exists() else problem.x_true
    scfg = xp.sampler_config(cfg, seed=args.seed)
    tv = xp.tv_config(cfg) if problem.kind == "ct3d" else None
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
    cfg = _load_cfg(args.config)
    axis = args.axis or cfg.get("sweep", "axis")
    if args.values:
        values = [v for v in args.values.split(",") if v]
    else:
        values = [str(v) for v in cfg.get("sweep", "values").split()]
    repeats = args.repeats if args.repeats is not None else cfg.get("sweep", "repeats", 1, int)
    rows = xp.run_sweep(cfg, axis, values, repeats, seed=args.seed, jobs=args.jobs)
    header = list(xp.MET_HEADER) + (["wall_seconds"] if args.timing else [])
    xp.write_csv(args.out, header, [r.as_list(timing=args.timing) for r in rows])
    print(f"sweep over {axis}: {len(rows)} rows -> {args.out}")
    return 0


def cmd_noise_offset(args) -> int:
    cfg = _load_cfg(args.config) if args.config else None

    def get(key, default, cast):
        if cfg is not None and cfg.has("noise_offset", key):
            return cfg.get("noise_offset", key, default, cast)
        return default

    rows, means, wins = xp.run_noise_offset_experiment(
        trials=get("trials", 50, int),
        sigma_gt=get("sigma_gt", 0.07, float),
        seed=args.seed,
        shape=tuple(cfg.get_ints("noise_offset", "shape", (32, 32))) if cfg else (32, 32),
        prior_dim=get("prior_dim", 8, int),
        angles=get("angles", 40, int),
        smooth=get("smooth", 5.0, float),
        phantom_scale=get("phantom_scale", 3.0, float),
    )
    xp.write_csv(args.out, xp.NOISE_OFFSET_HEADER, rows)
    trials = get("trials", 50, int)
    print(f"noise offset: dds-cg smallest in {wins}/{trials} trials -> {args.out}")
    for strat, off in means.items():
        print(f"  {strat:12s} mean offset {off:.5f}")
    return 0


def cmd_metrics(args) -> int:
    x = read_dtf(args.x)
    ref = read_dtf(args.ref)
    mx = np.abs(x)
    mref = np.abs(ref)
    p = psnr(mx, mref, peak=args.peak)
    sx, sref = (mx, mref) if mx.ndim == 2 else (mx[mx.shape[0] // 2], mref[mref.shape[0] // 2])
    try:
        s = ssim(sx, sref)
    except ConfigError:
        s = math.nan
    resid = float(np.linalg.norm((x - ref).ravel()))
    row = [Path(args.x).stem, "metrics", 0, 0, math.nan, p, s, resid]
    if args.out:
        xp.write_csv(args.out, xp.MET_HEADER, [row])
    print(f"psnr {p:.4f} dB, ssim {s:.6f}, residual {resid:.6e}")
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


if __name__ == "__main__":
    sys.exit(main())
