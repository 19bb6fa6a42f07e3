"""One benchmark measurement, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py job WORKLOAD SEED SECONDS TRACE SIZE OUT_DIR SHARDS SETUPS

`setup` times importing the package and building every code and
decoder.  `job` runs a workload, with at least SETUPS set-up probes
between its passes when untraced, and prints one JSON object as its
last line of output.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time

if sys.argv[1:2] == ["setup"]:
    # timed before anything of the package or numpy is imported
    start = time.perf_counter()
    import jobs

    jobs.build_all()
    print(time.perf_counter() - start)
    sys.exit(0)

import hashlib
import json

import gkpstab
import numpy
import scipy
from gkpstab import cli, montecarlo, tuning

import jobs
import metrics
import probes
from tracing import END, START, Tracer, children, self_times, subtree, worst_self_sum_error


def setup_seconds():
    """Set-up time measured in a fresh interpreter (see `setup` above)."""
    proc = subprocess.run([sys.executable, __file__, "setup"], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def passes(ctx, workload, seconds, min_setups):
    """Repeat the workload for about `seconds`, at least once.

    Stops before a pass that would end more than half a pass late.  A
    set-up probe runs before the first pass and after each pass, so the
    set-up samples spread over the run like the passes do.
    """
    out, setups = [], [setup_seconds()]
    measured = last = 0.0
    while not out or measured + last / 2 < seconds:
        start = time.perf_counter()
        out.append(ctx.run_pass(workload))
        last = time.perf_counter() - start
        measured += last
        setups.append(setup_seconds())
    while len(setups) < min_setups:
        setups.append(setup_seconds())
    return out, setups


def work_done(workload, ops):
    """Units of work in one pass and the seconds they took."""
    if workload == "mc-long":
        return sum(op.result.n_trials for op in ops if op.error is None), sum(
            op.seconds for op in ops
        )
    if workload == "searches":
        opt = [op for op in ops if op.label.startswith("optimize")]
        return len(opt), sum(op.seconds for op in opt)
    figs = [op for op in ops if op.label != "checks" and op.error is None]
    rows = sum(
        sum(1 for line in op.result[1].splitlines() if line and line[:1] != b"#")
        for op in figs
    )
    return rows, sum(op.seconds for op in figs)


def end_to_end(workload, pass_ops):
    walls = [sum(op.seconds for op in ops) for ops in pass_ops]
    rates = []
    for ops in pass_ops:
        units, seconds = work_done(workload, ops)
        rates.append(units / seconds)
    return {"wall_s": statistics.median(walls), "work_per_s": statistics.median(rates)}


def step_times(pass_ops):
    """Median seconds and call count of every operation label."""
    by_label = {}
    for ops in pass_ops:
        for op in ops:
            by_label.setdefault(op.label, []).append(op.seconds)
    return {
        label: {"median_s": statistics.median(v), "calls": len(v)}
        for label, v in by_label.items()
    }


def install(tracer):
    def traced_run(name, run):
        def wrapper(code, decoder, *args, **kwargs):
            decoder = tracer.wrap_decoder("decoders.decode", decoder)
            return tracer.call(name, run, code, decoder, *args, **kwargs)

        return wrapper

    tracer.patch(cli, "run", "cli.run", traced_run)
    tracer.patch(cli, "optimize", "cli.optimize")
    tracer.patch(cli, "gkp_repetition_stds", "cli.gkp_repetition_stds")
    for name in ("tms_variance", "tms_variance_noisy_gkp", "tms_variance_erfc_approx"):
        tracer.patch(tuning, name, f"tuning.{name}")
    tracer.patch(tuning, "optimize", "tuning.optimize")


def layer_metrics(spans, traced_ops, probe):
    """Per-layer metrics from the traced passes and the layer probes."""
    out = dict(probe)
    kids = children(spans)
    selfs = self_times(spans, kids)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    reports = {op.key: op.result for op in traced_ops["mc-long"]}
    trials = run_time = 0.0
    blocks = 0
    for label in metrics.CODE_LABELS:
        (run,) = by_name[f"op:run:{label}"]
        rep = reports[label]
        n = rep.n_trials
        decodes = [j for j in subtree(kids, run) if spans[j][0].startswith("decoders.")]
        decoded = sum(spans[j][4] for j in decodes)
        out[f"decoders.decode_ns_per_trial.{label}"] = (
            1e9 * sum(dur(j) for j in decodes) / decoded
        )
        out[f"montecarlo.run_ns_per_trial.{label}"] = 1e9 * dur(run) / n
        out[f"montecarlo.reduce_ns_per_trial.{label}"] = (
            1e9 * selfs[run] / n
            - probe[f"noise.draw_ns_per_trial.{label}"]
            - probe[f"noise.reshape_ns_per_trial.{label}"]
        )
        edge = rep.counts_q[[0, -1]].sum() + rep.counts_p[[0, -1]].sum()
        out[f"montecarlo.edge_bin_frac.{label}"] = float(edge) / (2 * n)
        trials += n
        run_time += dur(run)
        blocks += math.ceil(n / montecarlo.BLOCK_SIZE)
    out["montecarlo.trials_per_s"] = trials / run_time
    out["montecarlo.blocks"] = blocks

    def objective_spans(i):
        return [j for j in subtree(kids, i) if spans[j][0].startswith("tuning.tms_variance")]

    sweep = []
    for search in metrics.SEARCHES:
        ids = by_name[f"op:{search}"]
        walls, tuning_self, calls = [], [], []
        for i in ids:
            objective = objective_spans(i)
            walls.append(dur(i))
            tuning_self.append(dur(i) - sum(dur(j) for j in objective))
            calls.append(len(objective))
        if search.startswith("optimize"):
            sweep += walls
        out[f"tuning.objective_calls.{search}"] = statistics.median(calls)
        out[f"tuning.self_ms.{search}"] = 1e3 * statistics.median(tuning_self)
        out[f"tuning.wall_ms.{search}"] = 1e3 * statistics.median(walls)
    quartiles = statistics.quantiles(sweep, n=10)
    out["tuning.optimize_ms_p50"] = 1e3 * statistics.median(sweep)
    out["tuning.optimize_ms_p90"] = 1e3 * quartiles[8]
    out["tuning.optimize_samples"] = len(sweep)
    stds = [dur(i) for name in ("op:gkp_repetition_stds", "cli.gkp_repetition_stds")
            for i in by_name.get(name, [])]
    out["analytic.gkp_repetition_stds_ms"] = 1e3 * statistics.median(stds)

    for op in traced_ops["figures"]:
        (i,) = by_name[f"op:{op.label}"]
        out[f"cli.wall_s.{op.label}"] = dur(i)
        out[f"cli.self_ms.{op.label}"] = 1e3 * selfs[i]
        if op.label != "checks":
            out[f"cli.csv_bytes.{op.label}"] = len(op.result[1])
    return out


def job(workload, seed, seconds, trace, size_name, out_dir, shards, min_setups):
    size = jobs.FULL if size_name == "full" else jobs.TINY
    os.makedirs(out_dir, exist_ok=True)
    ctx = jobs.Context(seed, size, out_dir, shards)
    if not trace:
        pass_ops, setups = passes(ctx, workload, seconds, min_setups)
        all_ops = [op for ops in pass_ops for op in ops]
        result = end_to_end(workload, pass_ops)
        result["setup_s"] = statistics.median(setups)
        detail = {"passes": len(pass_ops), "setup_s": setups, "steps": step_times(pass_ops),
                  "op_seconds": [[op.seconds for op in ops] for ops in pass_ops]}
        if workload == "figures":
            detail["csv_sha256"] = {
                op.label: hashlib.sha256(op.result[1]).hexdigest()
                for op in pass_ops[0] if op.label != "checks" and op.error is None
            }
    else:
        untraced = ctx.run_pass(workload)
        tracer = Tracer()
        install(tracer)
        try:
            traced = {workload: ctx.run_pass(workload, tracer)}
            for other in metrics.JOBS:
                if other != workload:
                    traced[other] = ctx.run_pass(other, tracer)
        finally:
            tracer.restore()
        all_ops = untraced + [op for ops in traced.values() for op in ops]
        spans = tracer.spans
        probe = probes.run_all(ctx.built, seed, shards)
        result = layer_metrics(spans, traced, probe)
        wall = sum(op.seconds for op in untraced)
        result["trace.overhead_s"] = sum(op.seconds for op in traced[workload]) - wall
        result["trace.spans"] = len(spans)
        result["trace.self_sum_err_max"] = worst_self_sum_error(spans)
        tracer.dump(os.path.join(out_dir, f"spans-{workload}.json.gz"))
        detail = {"untraced_wall_s": wall, "steps": step_times([untraced])}

    failed = jobs.failures(all_ops)
    attempted = len(all_ops)
    if trace:
        attempted += 1
        if result["trace.self_sum_err_max"] > 0.05:
            failed.append((None, "self times do not sum to the traced wall time"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["failures"] = [
        f"{op.workload}/{op.label}: {why}" if op else why for op, why in failed
    ]
    detail["package"] = gkpstab.__file__
    detail["versions"] = {"gkpstab": gkpstab.__version__, "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps({
        "metrics": result,
        "attempted": attempted,
        "failed": len(failed),
        "detail": detail,
    }))


if __name__ == "__main__":
    _, mode, workload, seed, seconds, trace, size_name, out_dir, shards, setups = sys.argv
    job(workload, int(seed), float(seconds), trace == "1", size_name, out_dir, int(shards),
        int(setups))
