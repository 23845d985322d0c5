"""Run-to-run spread of end-to-end metrics over saved runs.

    python3 perfbench/spread.py runs/batch-*.out
    python3 perfbench/spread.py runs/batch-*.out --second again/batch-*.out

Each file is the standard output of one ``run.py --trace 0`` run.  For
each metric this prints the median and the quartile spread
(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives
them, next to the metric's bound in ``BENCHMARK.json``.  With
``--second`` it also prints how much worse the second set's median is
than the first's, as a share of the first.  Exits 1 when a spread
(other than ``setup_s``'s) or a median shift is past its bound, or a
run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def load(paths) -> dict:
    """Metric name -> values over the runs in ``paths``; raises on a run
    that was not correct."""
    values: dict = {}
    for path in paths:
        result = json.loads(Path(path).read_text().splitlines()[-1])
        if not result["correct"]:
            raise ValueError(f"{path}: run not correct")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--second", nargs="+", default=[])
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first = load(args.runs)
    second = load(args.second) if args.second else {}
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = first[name]
        median = statistics.median(values)
        spread = quartile_spread(values)
        line = (
            f"{name:20s} n={len(values):2d} median={median:12.4f} "
            f"spread={spread:.3f} bound={bound}"
        )
        if name != "setup_s" and spread > bound:
            ok = False
            line += "  SPREAD PAST BOUND"
        if name in second:
            shift = worse_by(
                median, statistics.median(second[name]), metric["better"]
            )
            line += f"  second median worse by {shift:+.3f}"
            if shift > bound:
                ok = False
                line += "  PAST BOUND"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
