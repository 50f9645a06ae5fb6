"""tools/bench_pairs.py's paired verdict on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summary = bench_pairs.summary

PARENT = [1.50, 1.52, 1.48, 1.55, 1.51, 1.49, 1.53, 1.50, 1.47, 1.54]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_holds_in_either_direction():
    s = summary(PARENT, [p + 0.25 for p in PARENT], "higher")
    assert s["parent_median"] == pytest.approx(1.505)
    assert s["parent_q1"] == pytest.approx(1.4925)
    assert s["parent_q3"] == pytest.approx(1.5275)
    assert s["change_median"] == pytest.approx(1.755)
    assert (s["pairs"], s["wins"], s["ties"], s["gain"]) == (10, 10, 0, True)
    # the same numbers read as times: lower is better, so the change lost
    s = summary(PARENT, [p + 0.25 for p in PARENT], "lower")
    assert (s["wins"], s["gain"]) == (0, False)
    s = summary(PARENT, [p - 0.25 for p in PARENT], "lower")
    assert (s["wins"], s["gain"]) == (10, True)


def test_nine_wins_hold_and_eight_or_ties_do_not():
    change = [p + 0.25 for p in PARENT]
    change[0] = PARENT[0] - 0.01
    assert summary(PARENT, change, "higher")["wins"] == 9
    assert summary(PARENT, change, "higher")["gain"]
    change[1] = PARENT[1]  # a tie counts for neither side
    s = summary(PARENT, change, "higher")
    assert (s["wins"], s["ties"], s["gain"]) == (8, 1, False)


def test_a_gap_inside_the_parent_spread_is_no_gain():
    # the change wins every pair, but by less than the parent's IQR (0.035)
    s = summary(PARENT, [p + 0.01 for p in PARENT], "higher")
    assert (s["wins"], s["gain"]) == (10, False)


def test_regression_verdict_against_the_bound():
    # PARENT's median is 1.505 and its IQR 0.035 (2.3% of the median)
    regression = bench_pairs.regression
    assert regression(PARENT, [p * 1.04 for p in PARENT], "lower", 0.05) == "none"
    assert regression(PARENT, [p * 1.06 for p in PARENT], "lower", 0.05) == "worse"
    assert regression(PARENT, [p * 1.06 for p in PARENT], "higher", 0.05) == "none"
    assert regression(PARENT, [p * 0.94 for p in PARENT], "higher", 0.05) == "worse"
    # a bound inside the parent's spread cannot tell a change either way ...
    assert regression(PARENT, PARENT, "lower", 0.02) == "unresolved"
    assert regression(PARENT, [p * 1.5 for p in PARENT], "lower", 0.02) == "unresolved"
    # ... unless every change run beats every parent run
    assert regression(PARENT, [1.46] * 10, "lower", 0.02) == "none"
    assert regression(PARENT, [1.56] * 10, "higher", 0.02) == "none"
    assert regression(PARENT, [1.47] * 10, "lower", 0.02) == "unresolved"  # ties min(PARENT)
    # exact counts: zero spread and a bound of 2%
    assert regression([540] * 5, [540] * 5, "lower", 0.02) == "none"
    assert regression([540] * 5, [552] * 5, "lower", 0.02) == "worse"


RUN_OUTPUT = """\
env {"python": "3.11.7", "seed": 1}
ct3d-admm: 14 operations, failed_ratio 0.0
unadjusted wall clock: recon_s_p50 0.23979535199759994 s, recons_per_s 3.7115401797652248 1/s, \
host speed 0.41096647594684815 x reference
recon_s_p50                        0.09933879532442753 s
{"correct": true, "attempted": 14, "failed": 0, "metrics": {"recon_s_p50": \
{"value": 0.09933879532442753, "unit": "s"}}}
"""


def test_a_run_reads_its_unadjusted_wall_clock():
    out = bench_pairs.parse_run(RUN_OUTPUT)
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 14, 0)
    assert out["metrics"]["recon_s_p50"]["value"] == 0.09933879532442753
    assert out["unadjusted"] == {"recon_s_p50": 0.23979535199759994,
                                 "recons_per_s": 3.7115401797652248,
                                 "host_speed": 0.41096647594684815}
    # an output without the line (an older bench/run.py) still parses
    no_line = "\n".join(line for line in RUN_OUTPUT.splitlines()
                        if not line.startswith("unadjusted"))
    assert bench_pairs.parse_run(no_line)["unadjusted"] is None


def test_unadjusted_medians_per_side():
    runs = [{"unadjusted": {"recon_s_p50": p50, "recons_per_s": 1 / p50, "host_speed": speed}}
            for p50, speed in ((0.2, 0.5), (0.4, 1.0), (0.25, 0.75))]
    assert bench_pairs.unadjusted_line("parent", runs) == (
        "unadjusted parent: recon_s_p50 0.25 s, recons_per_s 4 1/s, "
        "host speed 0.75 x reference (medians of 3 runs)")
    runs.append({"unadjusted": None})  # a run without the line is left out
    assert bench_pairs.unadjusted_line("change", runs).endswith("(medians of 3 runs)")
    assert bench_pairs.unadjusted_line("change", [{"unadjusted": None}]) == (
        "unadjusted change: no wall clock line")
