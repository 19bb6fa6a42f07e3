"""Names, units and directions of every metric the benchmark reports.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 perfbench/metrics.py > BENCHMARK.json`), and the self-test
checks that the two agree.
"""

from __future__ import annotations

import json

CODE_LABELS = (
    "gkp-rep",
    "gkp-tms",
    "gkp-tms-15db",
    "squeezed-rep-3",
    "squeezed-rep-5",
    "gaussian-rep-3",
)
GKP_LABELS = CODE_LABELS[:5]
SEARCHES = ("optimize", "optimize-noisy", "threshold", "threshold-20db", "critical")
FIGURES = ("fig3", "fig45", "fig8", "appendix-d", "checks")
RUN_SECONDS = 40
# Every job runs in the traced pass; the benchmark's workloads are a subset.
# `searches` is left out of them: on a shared 2-core host its wall time
# spread 14-29% (quartiles over ten 25 s runs), as its time is a few long
# pure-Python searches.  Its layers are still measured per layer, and
# `figures` exercises analytic and tuning end to end.
JOBS = ("mc-long", "searches", "figures")

WORKLOADS = [
    {
        "name": "mc-long",
        "why": "long Monte Carlo runs, one per code label: only the per-trial "
               "pipeline works (draw, reshape, decode, reduce); analytic, tuning "
               "and the shard pool are bypassed",
    },
    {
        "name": "figures",
        "why": "the CLI experiments users run, shards = nproc: closed-form spreads "
               "and gain searches (analytic, tuning), many short Monte Carlo calls "
               "and the shard pool",
    },
]

# name, unit, better, bound.  The time bounds are wide because a shared
# 2-core host slows every run by up to a third for minutes at a time;
# peak memory moves with the shard threads' malloc arenas.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("work_per_s", "1/s", "higher", 0.25),
)


def per_layer():
    """(name, unit, better) of every metric of the traced pass."""
    out = []
    for label in CODE_LABELS:
        out += [
            (f"noise.draw_ns_per_trial.{label}", "ns", "lower"),
            (f"noise.reshape_ns_per_trial.{label}", "ns", "lower"),
            (f"noise.draw_bytes.{label}", "B-computed", "lower"),
            (f"noise.reshape_bytes.{label}", "B-computed", "lower"),
            (f"decoders.decode_ns_per_trial.{label}", "ns", "lower"),
            (f"montecarlo.run_ns_per_trial.{label}", "ns", "lower"),
            (f"montecarlo.reduce_ns_per_trial.{label}", "ns-derived", "lower"),
            (f"montecarlo.reduce_bytes.{label}", "B-computed", "lower"),
            (f"montecarlo.call_overhead_ms.{label}", "ms", "lower"),
            (f"montecarlo.edge_bin_frac.{label}", "frac", "lower"),
            (f"codes.build_ms.{label}", "ms", "lower"),
        ]
    out += [(f"decoders.wrap_frac.{label}", "frac", "lower") for label in GKP_LABELS]
    out += [
        ("modular.centered_mod_ns_per_elem", "ns", "lower"),
        ("modular.measure_noisy_ns_per_elem", "ns", "lower"),
        ("montecarlo.trials_per_s", "1/s", "higher"),
        ("montecarlo.shard_speedup", "x", "higher"),
        ("montecarlo.blocks", "count", "lower"),
        ("analytic.gkp_repetition_stds_ms", "ms", "lower"),
        ("analytic.tms_variance_us", "us", "lower"),
        ("analytic.tms_variance_noisy_gkp_us", "us", "lower"),
        ("tuning.optimize_ms_p50", "ms", "lower"),
        ("tuning.optimize_ms_p90", "ms", "lower"),
        ("tuning.optimize_samples", "count", "higher"),
    ]
    for search in SEARCHES:
        out += [
            (f"tuning.objective_calls.{search}", "count", "lower"),
            (f"tuning.self_ms.{search}", "ms", "lower"),
            (f"tuning.wall_ms.{search}", "ms", "lower"),
        ]
    for fig in FIGURES:
        out += [(f"cli.wall_s.{fig}", "s", "lower"), (f"cli.self_ms.{fig}", "ms", "lower")]
        if fig != "checks":
            out.append((f"cli.csv_bytes.{fig}", "count", "lower"))
    out += [
        ("checks.run_all_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.self_sum_err_max", "frac", "lower"),
    ]
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
