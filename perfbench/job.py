"""One cold repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition
pays imports, input generation and cold program caches exactly as a user's
figure run does.  Modes:

* ``timed``: set up, run the timed job, score it; ``--full`` adds the
  expensive checks (the service's recorded replay).
* ``setup``: set up only, to sample set-up time once more.
* ``traced``: wrap the program's layers (``tracing.py``) around set-up
  and job, then score; reports per-layer metrics.

The last line of standard output is one JSON object.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Program modules imported during set-up, so no import lands in a job.
PROGRAM_MODULES = (
    "repro.bench.executor",
    "repro.bench.workloads",
    "repro.core.estimators.mlp_backend",
    "repro.engine.simulator",
    "repro.faults.plan",
    "repro.joins.partitioned",
    "repro.joins.runner",
    "repro.serve.service",
    "repro.streaming.operators",
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(workload, args) -> dict:
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - START
    if args.mode == "setup":
        return {"start": START, "setup_s": setup_s}
    job_start = time.perf_counter()
    out = workload.job(inputs)
    job_s = time.perf_counter() - job_start
    rss = _peak_rss_mb()
    t0 = time.perf_counter()
    score = workload.score(inputs, out, full=args.full)
    return {
        "start": START,
        "setup_s": setup_s,
        "job_start": job_start,
        "job_s": job_s,
        "score_s": time.perf_counter() - t0,
        "tuples": workload.tuples(inputs, out),
        "peak_rss_mb": rss,
        **_score_fields(score),
    }


def _score_fields(score) -> dict:
    return {
        "virtual": score.metrics,
        "samples": score.samples,
        "attempted": score.attempted,
        "failed": score.failed,
        "failed_ops": score.failed_ops,
        "problems": score.problems,
    }


def _traced(workload, args) -> dict:
    from repro import obs

    import tracing

    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer, tracing.TARGETS)
    originals = patches.current()
    patches.install()
    try:
        with obs.scoped() as registry:
            root = tracer.begin(tracing.ROOT)
            with tracer.span(tracing.SETUP):
                inputs = workload.setup(args.seed)
            t0 = time.perf_counter()
            out = workload.job(inputs, tracer)
            job_s = time.perf_counter() - t0
            tracer.end(root)
    finally:
        patches.restore()
    own = workload.own_counts(inputs, out) if hasattr(workload, "own_counts") else {}
    layers = tracing.layer_metrics(tracer, registry.snapshot(), own)
    score = workload.score(inputs, out, full=args.full)
    if args.trace_out:
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        tracer.dump(args.trace_out)
    return {
        "job_s": job_s,
        "layers": layers,
        "counts": {k: layers[k] for k in tracing.COUNT_METRICS},
        "restored": all(a is b for a, b in zip(patches.current(), originals)),
        **_score_fields(score),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "setup", "traced"), default="timed")
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--cpu", type=int, help="pin the process to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import numpy

    from workloads import WORKLOADS

    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    workload = WORKLOADS[args.workload]
    result = _traced(workload, args) if args.mode == "traced" else _timed(workload, args)
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
