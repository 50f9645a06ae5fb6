"""Paired benchmark runs: a parent checkout against this one, alternating.

Runs `bench/run.py --trace 0` of the parent checkout and of the checkout
holding this script in --pairs pairs, one process at a time; the side that
runs first alternates (the parent leads pair 1). Each run's last standard
output line is its JSON summary, and its `unadjusted wall clock:` line
gives the times before the host-speed rescaling. Every run is printed as it
ends, then, per end-to-end metric of this checkout's BENCHMARK.json: the
parent's median and quartiles, the change's median, the change's wins and
ties over the pairs, and whether a gain holds by the paired rule: the
change wins at least nine tenths of the pairs (ties count for neither) and
its median is better than the parent's by more than the parent's
interquartile range; and the no-regression verdict against the metric's
bound: `none`, `worse` (the change's median is worse than the parent's by
more than the bound, relative to the parent's median), or `unresolved` (the
parent's IQR over its median exceeds the bound, so the runs cannot tell,
unless every change run beats every parent run). A run whose summary says
`correct: false` or `failed > 0` is flagged. Last, per side, the medians of
the unadjusted `recon_s_p50` and `recons_per_s` and of the host-speed
ratio: the rescaling divides by a speed measured in the same process, so an
adjusted metric can move against the wall clock, and these show whether it
did.

    python3 tools/bench_pairs.py --parent ../parent-checkout --workload mri2d-pinv \
        --pairs 10 --seconds 30 --seed 1
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(parent: list[float], change: list[float], better: str) -> dict:
    """The paired verdict for one metric; parent[i] and change[i] form pair i."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    gap = sign * (change_median - median)
    return {
        "parent_median": median, "parent_q1": q1, "parent_q3": q3,
        "change_median": change_median, "pairs": len(parent), "wins": wins, "ties": ties,
        "gain": wins >= 0.9 * len(parent) and gap > q3 - q1,
    }


def regression(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The no-regression verdict for one metric: none, worse or unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return "none"
    q1, median, q3 = quartiles(parent)
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    return "worse" if sign * (statistics.median(change) - median) < -bound * abs(median) else "none"


UNADJUSTED = re.compile(r"^unadjusted wall clock: recon_s_p50 (\S+) s, recons_per_s (\S+) "
                        r"1/s, host speed (\S+) x reference$", re.MULTILINE)


def parse_run(stdout: str) -> dict:
    """The JSON summary on the last line of one bench/run.py output, with the
    ``unadjusted`` recon_s_p50, recons_per_s and host_speed of its wall clock
    line (None when the output has no such line)."""
    out = json.loads(stdout.strip().splitlines()[-1])
    m = UNADJUSTED.search(stdout)
    out["unadjusted"] = None if m is None else dict(
        zip(("recon_s_p50", "recons_per_s", "host_speed"), map(float, m.groups())))
    return out


def unadjusted_line(side: str, runs: list[dict]) -> str:
    """The medians of one side's unadjusted times and host-speed ratios."""
    walls = [r["unadjusted"] for r in runs if r["unadjusted"] is not None]
    if not walls:
        return f"unadjusted {side}: no wall clock line"
    med = {k: statistics.median(w[k] for w in walls) for k in walls[0]}
    return (f"unadjusted {side}: recon_s_p50 {med['recon_s_p50']:.6g} s, recons_per_s "
            f"{med['recons_per_s']:.6g} 1/s, host speed {med['host_speed']:.6g} x reference "
            f"(medians of {len(walls)} runs)")


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {checkout}/bench/run.py exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    flagged = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(sides[side], args.workload, args.seconds, args.seed)
            runs[side].append(out)
            bad = not out["correct"] or out["failed"] > 0
            flagged += bad
            values = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.6g}"
                              for m in spec)
            print(f"pair {i + 1} {side}: {values}" + ("  FLAGGED: correct "
                  f"{out['correct']}, failed {out['failed']}" if bad else ""), flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seed {args.seed}")
    for m in spec:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        s = summary(parent, change, m["better"])
        base = s["parent_median"]
        move = f"{(s['change_median'] / base - 1) * 100:+.1f}%" if base else "n/a"
        print(f"{name:18s} parent {base:.6g} [{s['parent_q1']:.6g}, "
              f"{s['parent_q3']:.6g}] -> change {s['change_median']:.6g} ({move}), "
              f"wins {s['wins']}/{s['pairs']}, ties {s['ties']}, "
              f"gain {'holds' if s['gain'] else 'not shown'}, regression "
              f"{regression(parent, change, m['better'], m['bound'])}")
    for side in ("parent", "change"):
        print(unadjusted_line(side, runs[side]))
    if flagged:
        print(f"FLAGGED: {flagged} run(s) with correct false or failed > 0")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
