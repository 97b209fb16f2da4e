"""Self-tests of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py            # every workload, a few minutes
    python3 perfbench/selftest.py --workloads serve-spike

Checks, per workload, on full-size traced repetitions (``job.py --mode
traced``) with seeds 1, 1 and 2:

* two runs with the same seed give bit-identical virtual metrics and
  per-layer counts; a run with another seed changes both;
* the output checks pass;
* the checks ``run.py --trace 1`` makes of a traced repetition: every
  per-layer metric named in ``BENCHMARK.json`` is emitted, every wrapped
  attribute is the original object again afterwards, and the wall-time
  accounting holds.

And once: the numpy oracle agrees with a pure-Python join, and ``run.py``
fails without printing a result when the program's sources are absent.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from run import WORKLOADS, trace_problems  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, text: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {text}", flush=True)
    if not ok:
        FAILURES.append(text)


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "traced", "--full"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str, per_layer: list[str]) -> None:
    a = traced(workload, 1)
    b = traced(workload, 1)
    c = traced(workload, 2)
    check(a["virtual"] == b["virtual"], f"{workload}: same seed, same virtual metrics")
    check(a["counts"] == b["counts"], f"{workload}: same seed, same per-layer counts")
    check(a["virtual"] != c["virtual"], f"{workload}: another seed changes virtual metrics")
    check(a["counts"] != c["counts"], f"{workload}: another seed changes per-layer counts")
    check(a["failed"] == 0 and not a["problems"],
          f"{workload}: output checks pass {a['problems']}")
    problems = trace_problems(a, per_layer)
    check(not problems, f"{workload}: trace emitted, restored and accounted {problems}")


def check_oracle() -> None:
    rng = random.Random(5)
    rows = [(rng.uniform(0, 50), rng.randrange(6), rng.uniform(0, 2), rng.random() < 0.5)
            for _ in range(400)]
    event, key, payload, is_r = (list(col) for col in zip(*rows))
    count, total = oracle.window_join(event, key, payload, is_r, 10.0, 5)
    for w in range(5):
        inside = [r for r in rows if w * 10.0 <= r[0] < (w + 1) * 10.0]
        pairs = [(x, y) for x in inside if x[3] for y in inside if not y[3] and x[1] == y[1]]
        ok = count[w] == len(pairs) and abs(total[w] - sum(x[2] for x, _ in pairs)) < 1e-9
        check(ok, f"oracle window {w}: {count[w]} pairs")


def check_no_program() -> None:
    """``run.py`` in a directory holding only the benchmark must fail."""
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-batch", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"run.py without the program exits {proc.returncode} and prints no result")


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    check_oracle()
    check_no_program()
    for workload in args.workloads:
        check_workload(workload, per_layer)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
