"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches metrics.py, that every workload emits
each metric BENCHMARK.json names, with its unit, in both the untraced
and the traced pass, that all output checks pass, and that a small fig3
gives byte-identical CSV with --shards 1 and --shards 2.  Exits nonzero
on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def last_json_line(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def shard_invariance():
    sys.path.insert(0, str(ROOT / "src"))
    from gkpstab import cli

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        texts = []
        for shards in ("1", "2"):
            path = os.path.join(tmp, f"fig3-{shards}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["fig3", "--points", "3", "--trials", "200000",
                                   "--seed", "11", "--shards", shards, "--out", path])
            check(status == 0, f"fig3 --shards {shards} exited {status}")
            texts.append(Path(path).read_bytes())
    check(texts[0] == texts[1], "fig3 CSV differs between --shards 1 and --shards 2")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(spec == metrics.benchmark_json(), "BENCHMARK.json differs from metrics.py")
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    shard_invariance()
    print("ok fig3 CSV identical for --shards 1 and 2")
    for workload in metrics.JOBS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = last_json_line(workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: {result['failed']} of "
                  f"{result['attempted']} operations failed")
            emitted = result["metrics"]
            for entry in spec[key]:
                got = emitted.get(entry["name"])
                check(got is not None, f"{workload} trace={trace}: {entry['name']} missing")
                check(got["unit"] == entry["unit"],
                      f"{entry['name']}: unit {got['unit']}, expected {entry['unit']}")
                check(isinstance(got["value"], (int, float)),
                      f"{entry['name']}: value {got['value']!r}")
            check(len(emitted) == len(spec[key]), f"{workload}: extra metrics emitted")
            print(f"ok {workload} trace={trace}: {len(emitted)} metrics")
    print("selftest passed")


if __name__ == "__main__":
    main()
