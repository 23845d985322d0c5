"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch --seed 1603 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload again under spans and reports the per-layer metrics instead,
writing the spans to ``.perfbench_out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed output check exits 1; a missing program (no
``src/repro`` next to this directory) exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import OUT, ROOT, SRC  # noqa: E402

DEFAULT_SEED = 1603
WORKLOADS = ("batch", "crawl_http", "serve_open")


def _metric_units(key: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def layer_values(names, measured: dict, not_exercised) -> tuple[dict, list]:
    """Per-layer values for ``names``, and what is wrong with them.

    Only the metrics a workload declares it does not exercise read 0; a
    metric neither measured nor declared, or both, is a failure, and so
    is a measured name ``BENCHMARK.json`` does not list.
    """
    problems = [
        f"per-layer metric {name} was not measured"
        for name in names
        if name not in measured and name not in not_exercised
    ]
    problems += [
        f"per-layer metric {name} is measured but declared not exercised"
        for name in names
        if name in measured and name in not_exercised
    ]
    problems += [
        f"measured {name} is not a per-layer metric of BENCHMARK.json"
        for name in measured
        if name not in names
    ]
    return {name: measured.get(name, 0) for name in names}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench.env import environment

    env = environment()
    workload = importlib.import_module(f"perfbench.{args.workload}")
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    failures = result["failures"]
    if args.trace:
        units = _metric_units("per_layer")
        values, problems = layer_values(
            units, result["layers"], workload.NOT_EXERCISED
        )
        failures += problems
        stem = f"{args.workload}-{args.seed}"
        result["tracer"].write(OUT / f"{stem}-spans.jsonl")
    else:
        units = _metric_units("end_to_end")
        values = {name: result["metrics"][name] for name in units}
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "env": env,
             "info": result.get("info", {})},
            default=str,
        )
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in values
                },
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
