"""Closed-loop benchmark of the dds reconstruction path.

One operation is the per-run path that `dds reconstruct` and `dds sweep`
share: experiments.run_reconstruction, experiments.evaluate, then writing
x0.dtf and trace.csv. Set-up is experiments.build_problem plus one adjoint
apply as warm-up, repeated several times. Phantoms and sampler seeds are
drawn from --seed, one per set-up and per operation. A single client runs
operations back to back in this process for --seconds.

    python3 bench/run.py --workload mri2d-dds --seed 1 --seconds 30 --trace 0
    for w in mri2d-dds mri2d-pinv ct3d-admm; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30; done

--trace 0 gives the end-to-end metrics, with nothing wrapped while timing.
--trace 1 alternates traced and untraced operations and gives per-layer
counts and self times (see tracing.py) plus the tracing overhead. Both
modes check every operation against the workload's correctness gate,
re-run the first operation and require byte-identical x0.dtf/trace.csv and
identical per-layer counts. Times are rescaled for host speed drift (see
speed.py); the unadjusted wall clock is printed above the result. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

# One client thread, and BLAS kept to it unless the caller sets otherwise:
# the BLAS calls here are small, and idle BLAS threads spin on a second core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from tracing import (  # noqa: E402
    Tracer, counts, installed, median_metrics, operation_metrics, scaled, setup_metrics,
)
from speed import Speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DDS_MODULES = ("admm", "dtf", "errors", "experiments", "operators", "samplers", "tensor")


def import_dds() -> dict:
    """The dds modules of this checkout's src/; exits non-zero when it has none."""
    src = ROOT / "src"
    if not (src / "dds" / "__init__.py").is_file():
        sys.exit(f"error: no dds package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"dds.{name}") for name in DDS_MODULES}
    if Path(mods["tensor"].__file__).resolve().parent != src / "dds":
        sys.exit("error: imported a dds package from outside this checkout")
    return mods


def environment(seed: int) -> dict:
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "client_threads": 1,
        "seed": seed,
    }


def tail(samples):
    """(value, percentile, samples beyond it): the highest percentile with at
    least 10 samples beyond it, or the smallest sample when n <= 11."""
    s = sorted(samples)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


class Bench:
    def __init__(self, dds, workload, seed: int, outdir: Path):
        self.dds = dds
        self.wl = workload
        self.outdir = outdir
        base = dds["tensor"].RngStream(seed)
        self._setup_phantoms = base.child(0)
        self._op_phantoms = base.child(1)
        self._op_seeds = base.child(2)
        self.case = None      # (config, problem) of the first set-up
        self.attempted = 0
        self.failed = 0
        self.failures = []    # one line per failed operation or check

    def setup(self, k: int, tracer: Tracer | None):
        """Build problem k; returns (seconds, per-layer metrics or None).

        Operations use the first problem only, so that peak memory is that
        of one problem, as in one `dds reconstruct` process.
        """
        xp = self.dds["experiments"]
        cfg = xp.ExperimentConfig(self.wl.config_text(self._setup_phantoms.child(k).seed))
        spans = None
        t0 = time.perf_counter()
        if tracer is None:
            problem = xp.build_problem(cfg)
            problem.a.adjoint(problem.y)
        else:
            with installed(tracer, self.dds):
                problem = xp.build_problem(cfg)
                problem.a.adjoint(problem.y)
            spans = tracer.take()
        seconds = time.perf_counter() - t0
        if self.case is None:
            self.case = (cfg, problem)
        return seconds, setup_metrics(spans) if spans is not None else None

    def inputs(self, i: int):
        """Inputs of operation i: the problem with phantom i and its
        measurement, as `dds simulate` writes them for `dds reconstruct --in`."""
        xp = self.dds["experiments"]
        cfg, problem = self.case
        x_true = xp.build_phantom(
            xp.ExperimentConfig(self.wl.config_text(self._op_phantoms.child(i).seed)),
            problem.prior)
        y = problem.a.apply(x_true.astype(problem.a.domain_dtype))
        return cfg, replace(problem, x_true=x_true, y=y), self._op_seeds.child(i).seed

    def operation(self, i: int, cfg, problem, seed: int):
        """Operation i, as `dds reconstruct --seed <seed>` runs it.

        Returns (relative error or None when the operation failed, seconds).
        """
        xp, dtf = self.dds["experiments"], self.dds["dtf"]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            scfg = xp.sampler_config(cfg, seed=seed)
            tv = xp.tv_config(cfg) if problem.kind == "ct3d" else None
            res = xp.run_reconstruction(problem, scfg, tv=tv,
                                        rng=self.dds["tensor"].RngStream(seed),
                                        max_retries=cfg.get("sampler", "max_retries", 1, int))
            row = xp.evaluate(problem, res, f"op{i}", scfg)
            dtf.write_dtf(self.outdir / "x0.dtf", res.x0)
            res.trace.to_csv(self.outdir / "trace.csv")
        except (self.dds["errors"].NumericalError, self.dds["errors"].ConfigError) as exc:
            self.fail(f"op {i}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        err = float(np.linalg.norm((res.x0 - problem.x_true).ravel())
                    / np.linalg.norm(problem.x_true.ravel()))
        if not (np.all(np.isfinite(res.x0)) and math.isfinite(row.psnr)
                and err <= self.wl.rel_error_gate):
            self.fail(f"op {i}: rel_error {err!r} over gate "
                      f"{self.wl.rel_error_gate} or non-finite output")
            return None, seconds
        return err, seconds

    def traced_operation(self, i: int, tracer: Tracer, cfg, problem, seed: int):
        """operation() with every layer wrapped; adds its per-layer metrics."""
        with installed(tracer, self.dds, problem):
            err, seconds = self.operation(i, cfg, problem, seed)
        x0 = self.outdir / "x0.dtf"
        return err, seconds, operation_metrics(tracer.take(),
                                               x0.stat().st_size if x0.exists() else 0)

    def fail(self, why: str):
        self.failed += 1
        self.failures.append(why)

    def artifacts(self) -> tuple[bytes, ...]:
        paths = (self.outdir / "x0.dtf", self.outdir / "trace.csv")
        return tuple(p.read_bytes() if p.exists() else b"" for p in paths)


def run(dds, workload, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    bench = Bench(dds, workload, seed, outdir)
    tracer = Tracer()
    speed = Speed()
    setup_s, setup_layers = [], []
    for k in range(workload.setups):
        wall, metrics = bench.setup(k, tracer if trace else None)
        setup_s.append(speed.adjust(wall))
        if trace:
            setup_layers.append(scaled(metrics, speed.ratios[-1]))

    # Warm-up: operation 0, traced so that its counts can be checked below.
    first = bench.inputs(0)
    _, _, reference = bench.traced_operation(0, tracer, *first)
    reference_bytes = bench.artifacts()

    times, wall_times, traced_times, errors, layers = [], [], [], [], []
    i = 0
    speed.mark()  # the warm-up ran since the last kernel
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        i += 1
        args = bench.inputs(i)
        if trace and i % 2 == 1:
            err, wall, metrics = bench.traced_operation(i, tracer, *args)
            traced_times.append(speed.adjust(wall))
            layers.append(scaled(metrics, speed.ratios[-1]))
        else:
            err, wall = bench.operation(i, *args)
            times.append(speed.adjust(wall))
            wall_times.append(wall)
        if err is not None:
            errors.append(err)
        if time.perf_counter() >= deadline and (not trace or i >= 2):
            break
    elapsed = time.perf_counter() - start

    # Re-run operation 0: the same seed must give the same bytes and counts.
    _, _, rerun = bench.traced_operation(0, tracer, *first)
    if bench.artifacts() != reference_bytes:
        bench.failures.append("re-run of op 0: x0.dtf/trace.csv bytes differ")
    if counts(rerun) != counts(reference):
        bench.failures.append(f"re-run of op 0: counts differ: {counts(reference)} "
                              f"vs {counts(rerun)}")

    if not errors:
        sys.exit("error: no operation succeeded\n" + "\n".join(bench.failures))
    report = {"attempted": bench.attempted, "failed": bench.failed,
              "failures": bench.failures,
              "wall": {"recon_s_p50": statistics.median(wall_times),
                       "recons_per_s": i / elapsed,
                       "host_speed": statistics.median(speed.ratios)}}
    if trace:
        metrics = median_metrics(layers)
        metrics.update(counts(reference))  # exact for this seed
        metrics.update(median_metrics(setup_layers))
        metrics["bench.trace_overhead"] = (statistics.median(traced_times)
                                           / statistics.median(times) - 1.0)
        metrics["bench.traced_recons"] = len(traced_times)
        report["metrics"] = metrics
        return report
    value, pct, beyond = tail(times)
    report["metrics"] = {
        "setup_s": statistics.median(setup_s),
        "recon_s_p50": statistics.median(times),
        "recon_s_tail": value,
        "recons_per_s": len(times) / sum(times),
        "rel_error": statistics.median(errors),
        "matvecs_per_recon": reference["operators.matvecs"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report["tail"] = {"percentile": pct, "beyond": beyond, "n": len(times)}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    dds = import_dds()
    workload = WORKLOADS[args.workload]
    # BENCHMARK.json names every metric of each mode, with its unit.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("env " + json.dumps(environment(args.seed)), flush=True)

    outdir = Path(tempfile.mkdtemp(prefix=".bench-out-", dir=ROOT))
    try:
        report = run(dds, workload, args.seed, args.seconds, bool(args.trace), outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    metrics = report["metrics"]
    if set(metrics) != set(unit):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(unit))} disagree with BENCHMARK.json")
    for failure in report["failures"]:
        print(f"FAIL {failure}")
    print(f"{workload.name}: {report['attempted']} operations, "
          f"failed_ratio {report['failed'] / report['attempted']!r}")
    w = report["wall"]
    print(f"unadjusted wall clock: recon_s_p50 {w['recon_s_p50']!r} s, "
          f"recons_per_s {w['recons_per_s']!r} 1/s, host speed {w['host_speed']!r} "
          f"x reference")
    if "tail" in report:
        t = report["tail"]
        print(f"recon_s_tail is p{t['percentile']:.1f} of n={t['n']} "
              f"({t['beyond']} samples beyond)")
    for name, value in metrics.items():
        print(f"{name:34s} {value!r} {unit[name]}")
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
