"""Shared plumbing: where the program is, set-up probes, warning counts."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run outputs (spans, work directories); listed in .gitignore.
OUT = ROOT / ".perfbench_out"

#: The program's modules, used as layer names.
LAYERS = (
    "simworld",
    "steamapi",
    "crawler",
    "store",
    "engine",
    "tailfit",
    "pipeline",
    "delta",
    "serving",
    "obs",
)

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3


def program_env() -> dict:
    """Environment for child interpreters that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def import_seconds(modules: tuple[str, ...]) -> float:
    """Wall time for a fresh interpreter to import ``modules`` and exit."""
    code = "import " + ", ".join(modules)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        env=program_env(),
        check=True,
        timeout=120,
    )
    return time.perf_counter() - start


def median_setup(step) -> float:
    """Median over :data:`SETUP_REPEATS` calls of ``step() -> seconds``."""
    return statistics.median(step() for _ in range(SETUP_REPEATS))


def layer_of(filename: str) -> str | None:
    """The program layer a source file belongs to, if any."""
    parts = Path(filename).parts
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and parts[i + 1] in LAYERS:
            return parts[i + 1]
    return None


@contextmanager
def counted_warnings(counts: dict):
    """Record every Python warning raised in the block (none is turned
    into an error) and add them to ``counts[layer]``; every layer, and
    ``other``, gets a count, 0 when it raised none."""
    for layer in LAYERS + ("other",):
        counts.setdefault(layer, 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield counts
        finally:
            for item in caught:
                layer = layer_of(item.filename) or "other"
                counts[layer] = counts.get(layer, 0) + 1


def workdir(name: str) -> Path:
    path = OUT / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
