"""Benchmark entry point.

    python3 perfbench/run.py --workload mc-long --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  With --trace 0 a fresh worker interpreter repeats the workload for
--seconds and reports the end-to-end metrics: its wall time, peak memory
and work rate, and the set-up time, the median over fresh interpreters
started between the passes.  With --trace 1 a fresh worker runs
the workload once untraced and once traced, traces the other workloads
too so that every layer is covered, runs the layer probes, and reports
the per-layer metrics.  The last line of output is one JSON object;
details, the environment and the spans go under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("GKPSTAB_SEED", None)
    # shards x BLAS threads must not exceed the cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def worker(args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=TIME_LIMIT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def environment(shards, versions):
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "shards": shards,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.JOBS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; the numbers mean nothing")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gkpstab" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    shards = nproc()

    names = metrics.per_layer() if args.trace else metrics.END_TO_END
    line = worker(
        ["job", args.workload, str(args.seed), str(args.seconds), str(args.trace),
         "tiny" if args.tiny else "full", str(out_dir / "work"), str(shards),
         str(2 if args.tiny else SETUP_PROBES)],
    )
    report = json.loads(line)
    if not report["detail"]["package"].startswith(str(ROOT / "src")):
        print(f"error: imported {report['detail']['package']}", file=sys.stderr)
        return 2
    measured = report["metrics"]
    env = environment(shards, report["detail"].pop("versions"))

    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": measured[n], "unit": u} for n, u, *_ in names},
    }
    record = {"args": vars(args), "environment": env, "detail": report["detail"],
              "result": result}
    path = out_dir / f"result-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for failure in report["detail"]["failures"]:
        print(f"FAILED {failure}")
    print(f"environment {json.dumps(env)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
