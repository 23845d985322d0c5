"""World-generation performance: the substrate's own cost curve."""

import time

from repro import SteamWorld, WorldConfig
from repro.obs import bench_metric


def test_generation_speed(benchmark, record, record_json):
    result = benchmark.pedantic(
        SteamWorld.generate,
        args=(WorldConfig(n_users=100_000, seed=77),),
        rounds=1,
        iterations=1,
    )
    assert result.dataset.n_users == 100_000

    # One-off scaling curve for the results file.
    lines = ["World generation cost (single run per scale)"]
    json_metrics = []
    for n in (10_000, 50_000, 100_000):
        start = time.perf_counter()
        world = SteamWorld.generate(WorldConfig(n_users=n, seed=78))
        elapsed = time.perf_counter() - start
        lines.append(
            f"  {n:>9,} accounts: {elapsed:6.2f}s "
            f"({world.dataset.friends.n_edges:,} edges, "
            f"{world.dataset.library.owned.nnz:,} library entries)"
        )
        json_metrics.append(
            bench_metric(
                f"generate_seconds_{n // 1000}k", round(elapsed, 3), "s"
            )
        )
    lines.append(
        "(1M accounts, seed 78: 13.6s, 1.0 GB peak RSS, measured once "
        "on a 2-vCPU Xeon VM)"
    )
    record("generation_speed", lines)
    record_json("generation", json_metrics, seed=78, n_users=100_000)


def test_analysis_speed(benchmark, bench_study, record, record_json):
    """Full analysis (without Table 4) on the 150k benchmark world."""
    timing = {}

    def run_analysis():
        start = time.perf_counter()
        report = bench_study.run(
            include_table4=False, include_week_panel=True
        )
        timing["seconds"] = time.perf_counter() - start
        return report

    report = benchmark.pedantic(run_analysis, rounds=1, iterations=1)
    assert report.table3 is not None
    record(
        "analysis_speed",
        [
            "Full analysis (Tables 1-3, Figures 1-12, Sections 4-10) on "
            "150k accounts: see bench timing table",
            "Table 4 classification adds ~20-60s depending on max_tail",
        ],
    )
    record_json(
        "analysis",
        [
            bench_metric(
                "analysis_seconds", round(timing["seconds"], 3), "s"
            )
        ],
        seed=bench_study.world.config.seed,
        n_users=bench_study.world.config.n_users,
    )
