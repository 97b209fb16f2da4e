"""End-to-end benchmark of the PECJ reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 60 --trace 0

Workloads: ``paper-batch`` and ``serve-spike`` (see ``workloads.py`` for
what each runs and why).

With ``--trace 0`` the run repeats the workload's whole job, each time in
a fresh process (``job.py``), in one lane per CPU, until the next
repetition would overrun ``--seconds``; set-up-only processes fill the
rest of the budget.  Next to each lane, pinned to the same CPU,
``reference.py`` times a fixed unit of work every 0.1 s, and every wall
time is scaled by how fast that CPU ran the unit around it
(``REF_UNIT_S`` reads as nominal), because the speed of a small shared
host drifts by a third within minutes.  It prints every end-to-end
metric with its unit and sample count, the unscaled wall medians and
the host speeds beside them, then, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Wall metrics are medians over the repetitions.  Virtual-time metrics are
deterministic: every repetition must reproduce them exactly.  Repetitions
run with one BLAS thread (``JOB_ENV``), as the program is serial.

With ``--trace 1`` it runs the job once untraced and once traced, and
prints the per-layer metrics instead (units from ``BENCHMARK.json``).

The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
#: Set-up time samples per lane, counting the timed repetitions' own.
MIN_SETUPS = 2
#: Concurrent lanes of repetitions, one per CPU.
MAX_LANES = 2
REFERENCE = os.path.join(HERE, "reference.py")
#: Seconds one reference unit takes at the nominal host speed (about the
#: median on a 2-CPU container with Python 3.11 and numpy 2.4).
REF_UNIT_S = 0.0018
#: Reference bursts around an interval span at least this many seconds
#: (a CPU's speed wobbles from burst to burst; it drifts over minutes).
MIN_WINDOW_S = 10.0
#: Fewest reference bursts an interval is scaled by.
MIN_BURSTS = 20
#: No run may take longer than this, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0
WORKLOADS = ("paper-batch", "serve-spike")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
#: The program runs serially; a BLAS thread pool would only add a second
#: thread whose scheduling on a small, shared box makes timings jumpy.
JOB_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """A repetition failed to run; the benchmark prints no result."""


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str) -> dict:
    """What every result is recorded with."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_sha": _git_sha(),
    }


def _child(args, deadline: float) -> dict:
    """Run one ``job.py`` repetition; its parsed JSON plus its wall time."""
    t0 = time.perf_counter()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        proc = subprocess.run(
            [sys.executable, JOB, *args],
            cwd=ROOT,
            env={**os.environ, **JOB_ENV},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition {args} failed:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t0
    return out


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _virtual_mismatch(reps) -> list[str]:
    """Virtual metrics any repetition failed to reproduce exactly."""
    first = reps[0]["virtual"]
    bad = []
    for rep in reps[1:]:
        for name, value in rep["virtual"].items():
            if name in first and first[name] != value:
                bad.append(name)
    return sorted(set(bad))


def _ref_seconds(bursts: list, lo: float, duration: float) -> float:
    """``duration`` seconds starting at ``lo``, scaled to the nominal host
    speed: times the reference's nominal unit time over the median unit
    time of the bursts in a window of at least ``MIN_WINDOW_S`` around it."""
    pad = max(0.0, (MIN_WINDOW_S - duration) / 2)
    times = [b - a for a, b in bursts if lo - pad <= a and b <= lo + duration + pad]
    if len(times) < MIN_BURSTS:
        raise BenchError("the host-speed reference did not cover a timed interval")
    return duration * REF_UNIT_S / statistics.median(times)


def _reference_bursts(proc: subprocess.Popen) -> list:
    """Stop a reference process and read its bursts."""
    proc.terminate()
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("the host-speed reference did not stop")
    if proc.returncode != 0 or not out.strip():
        raise BenchError("the host-speed reference failed")
    return json.loads(out.strip().splitlines()[-1])


def run_timed(workload: str, seed: int, seconds: float, started: float):
    """The ``--trace 0`` run: metrics, samples, checks, environment.

    One lane per CPU (at most ``MAX_LANES``) runs fresh processes back to
    back, pinned to its CPU next to that CPU's host-speed reference
    (``reference.py``).  A lane runs timed repetitions while the next one
    (estimated from its last, without the scoring) still fits in
    ``seconds`` next to the set-up samples it still owes; set-up-only
    processes then fill the rest of its budget.  Every wall time is
    scaled to the nominal host speed by the reference bursts around it
    (``_ref_seconds``).
    """
    end = started + seconds
    hard = started + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]

    def next_fits(cost: float, setups_after: int, setup_cost: float) -> bool:
        owed = max(0, MIN_SETUPS - setups_after)
        return time.perf_counter() + cost + owed * setup_cost <= end

    def lane(cpu: int, first: list[str]):
        pinned = common + ["--cpu", str(cpu)]
        ref = subprocess.Popen(
            [sys.executable, REFERENCE, str(cpu), str(RUN_LIMIT_S)],
            cwd=ROOT, env={**os.environ, **JOB_ENV}, stdout=subprocess.PIPE, text=True,
        )
        try:
            if ref.stdout.readline().strip() != "ready":
                raise BenchError("the host-speed reference did not start")
            reps = [_child(pinned + first, hard)]
            setup_cost = reps[0]["wall_s"] - reps[0]["job_s"] - reps[0]["score_s"]
            while next_fits(reps[-1]["wall_s"] - reps[-1]["score_s"], len(reps) + 1, setup_cost):
                reps.append(_child(pinned, hard))
            setups = list(reps)
            while len(setups) < MIN_SETUPS or next_fits(setup_cost, len(setups) + 1, setup_cost):
                setups.append(_child(pinned + ["--mode", "setup"], hard))
                setup_cost = setups[-1]["wall_s"]
        finally:
            bursts = _reference_bursts(ref)
        for r in reps:
            r["job_ref_s"] = _ref_seconds(bursts, r["job_start"], r["job_s"])
        for r in setups:
            r["setup_ref_s"] = _ref_seconds(bursts, r["start"], r["setup_s"])
        return reps, setups

    cpus = sorted(os.sched_getaffinity(0))[:MAX_LANES]
    with ThreadPoolExecutor(len(cpus)) as pool:
        done = list(pool.map(lane, cpus, [["--full"]] + [[]] * (len(cpus) - 1)))
    reps = [r for lane_reps, _ in done for r in lane_reps]
    setups = [r for _, lane_setups in done for r in lane_setups]

    metrics = {
        "setup_s": statistics.median(r["setup_ref_s"] for r in setups),
        "throughput_tps": statistics.median(r["tuples"] / r["job_ref_s"] for r in reps),
        **reps[0]["virtual"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    samples = {
        **reps[0]["samples"],
        "setup_s": len(setups),
        "throughput_tps": len(reps),
        "peak_rss_mb": len(reps),
    }
    problems = [p for r in reps for p in r["problems"]]
    mismatch = _virtual_mismatch(reps)
    if mismatch:
        problems.append(f"virtual metrics differ between repetitions: {mismatch}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps) + len(mismatch)
    info = {
        "lanes": len(cpus),
        "repetitions": len(reps),
        "fail_ratio": sum(r["failed_ops"] for r in reps) / attempted,
        "job_s": [round(r["job_s"], 4) for r in reps],
        "host_speed": [round(r["job_ref_s"] / r["job_s"], 4) for r in reps],
        "raw": {
            "throughput_tps": statistics.median(r["tuples"] / r["job_s"] for r in reps),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
        },
        "env": environment(reps[0]["numpy"]),
    }
    return metrics, samples, attempted, failed, problems, info


def trace_problems(traced: dict, per_layer: list[str]) -> list[str]:
    """Checks of one traced repetition: accounting, restore, completeness."""
    import tracing

    problems = tracing.accounting_problems(traced["layers"])
    if not traced["restored"]:
        problems.append("a wrapped attribute was not restored after the traced run")
    missing = [n for n in per_layer if n not in traced["layers"] and n != "trace.overhead_ratio"]
    if missing:
        problems.append(f"per-layer metrics missing from the trace: {missing}")
    return problems


def run_traced(workload: str, seed: int, started: float, per_layer: list[str]):
    """The ``--trace 1`` run: per-layer metrics of one traced repetition."""
    hard = started + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    base = _child(common, hard)
    trace_out = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json")
    traced = _child(
        common + ["--mode", "traced", "--full", "--trace-out", trace_out], hard
    )
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["job_s"] / base["job_s"]
    own = trace_problems(traced, per_layer)
    changed = _virtual_mismatch([traced, base])
    if changed:
        own.append(f"tracing changed virtual metrics: {changed}")
    info = {
        "unattributed_ms": metrics["trace.unattributed_ms"],
        "trace_file": os.path.relpath(trace_out, ROOT),
        "env": environment(traced["numpy"]),
    }
    metrics = {name: metrics[name] for name in per_layer}
    problems = list(traced["problems"]) + own
    return metrics, traced["attempted"], traced["failed"] + len(own), problems, info


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="PECJ reproduction benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to the benchmark", file=sys.stderr)
        return 2
    spec = _load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            metrics, attempted, failed, problems, info = run_traced(
                args.workload, args.seed, started, names
            )
            samples = {}
        else:
            metrics, samples, attempted, failed, problems, info = run_timed(
                args.workload, args.seed, args.seconds, started
            )
            metrics = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:40s} {value:>16.6g} {units[name]}{count}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
