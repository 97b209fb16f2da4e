"""Steadiness evidence for the benchmark: interleaved rounds of runs.

Usage (from the repository root)::

    python3 perfbench/steady.py --rounds 10 --out .bench_build/perfbench/set-a.json
    python3 perfbench/steady.py --compare set-a.json set-b.json

A round runs every workload once through ``run.py --trace 0`` with the
round's seed (rounds use seeds 1, 2, ...), rotating the workload order
from round to round, so a drift of the host's speed over minutes spreads
over all workloads instead of hitting one workload's runs back to back.

For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the interquartile
spread and the range as shares of the median, and whether the spread
stays within a third of the metric's bound in ``BENCHMARK.json``.
The unscaled wall medians each run prints (``raw``) are summarized too,
as ``raw.throughput_tps`` and ``raw.setup_s``, to show what the
host-speed scaling removes.  ``--compare`` prints how far two sets'
medians lie apart.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, environment  # noqa: E402


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def collect(rounds: int, workloads, seconds: float) -> dict:
    """Run the interleaved rounds; per workload, per metric, the values."""
    values: dict = {w: {} for w in workloads}
    for r in range(rounds):
        seed = r + 1
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                raise SystemExit(f"{w} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            for line in proc.stdout.splitlines():
                if line.startswith("  raw: "):
                    for name, value in ast.literal_eval(line[7:]).items():
                        values[w].setdefault(f"raw.{name}", []).append(value)
            print(f"round {r + 1} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), flush=True)
    return values


def _base(name: str) -> str:
    """The end-to-end metric a ``raw.`` (unscaled wall) entry belongs to."""
    return name.removeprefix("raw.")


def summarize(values: dict, bounds: dict) -> list[dict]:
    """Median, quartiles and spreads per workload and metric."""
    rows = []
    for w, metrics in values.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med
            rows.append({
                "workload": w, "metric": name, "n": len(vals), "median": med,
                "q1": q1, "q3": q3, "iqr_share": iqr,
                "range_share": (max(vals) - min(vals)) / med,
                "bound": bounds[_base(name)], "within_third": iqr < bounds[_base(name)] / 3,
            })
    return rows


def _print_rows(rows) -> None:
    print(f"{'workload':13s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}  ok")
    for r in rows:
        print(f"{r['workload']:13s} {r['metric']:16s} {r['median']:12.6g} {r['q1']:12.6g} "
              f"{r['q3']:12.6g} {r['iqr_share']:8.4f} {r['range_share']:9.4f} "
              f"{r['bound']:6.2f}  {'yes' if r['within_third'] else 'NO'}")


def compare(path_a: str, path_b: str, bounds: dict) -> None:
    """How far the medians of two sets lie apart, as shares of the first."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    print(f"{'workload':13s} {'metric':16s} {'median A':>12s} {'median B':>12s} "
          f"{'apart':>8s} {'bound':>6s}")
    for w, metrics in a["values"].items():
        for name, vals in metrics.items():
            ma = statistics.median(vals)
            mb = statistics.median(b["values"][w][name])
            apart = abs(mb - ma) / ma
            print(f"{w:13s} {name:16s} {ma:12.6g} {mb:12.6g} {apart:8.4f} "
                  f"{bounds[_base(name)]:6.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark steadiness rounds")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    spec = _bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.compare:
        compare(*args.compare, bounds)
        return 0
    values = collect(args.rounds, args.workloads, spec["run_seconds"])
    rows = summarize(values, bounds)
    _print_rows(rows)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"env": environment(_numpy_version()), "values": values,
                       "summary": rows}, fh, indent=1)
    return 0


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
