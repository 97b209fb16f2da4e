"""The benchmark's two workloads.

Each workload has three steps:

* ``setup(seed)`` generates the inputs from the seed (input
  generation counts as set-up time);
* ``job(inputs, tracer)`` is the timed job: what a user of the program
  runs, with cold caches — nothing built by an earlier job is reused;
* ``score(inputs, out, full)`` derives the paper's virtual-time metrics
  and checks every answer against a numpy oracle (``oracle.py``).

Why these two (each stresses layers the other leaves alone):

* ``paper-batch`` runs three batch parts, one after the other, as one
  job:

  - the paper's headline Fig. 6 grid (Q1 COUNT and Q2 SUM, omega in
    {7, 10, 12} ms, WMJ/KSJ/PECJ-AEMA; 18 cells over 600K-tuple inputs),
    where the runner, the aggregator reads and the metrics code do most
    of the work;
  - Q3 (regime-switching disorder, Delta = 1000 ms, 9 s of stream) at
    omega = 300 ms with PECJ-MLP and PECJ-SVI, where MLP pre-training
    and the learning/VI estimators do most of the work;
  - one skewed micro stream (512 keys, Zipf 1.1, Delta = 5 ms) through
    the three other PECJ callers: the partitioned operator in the
    runner, the push-based streaming operator and the skew-partitioned
    PRJ engine.

  Its virtual metrics pool the answers and latency samples of all three.
* ``serve-spike`` is the multi-tenant service under a rate spike, burst
  and drought with telemetry and a mid-run migration.  It is the only
  workload that writes the delta grid and the delay profile per ingest
  chunk; the runner and the metrics module never run in it, so a
  batch-path change must leave it unchanged, and a serve-path change
  must leave ``paper-batch`` unchanged.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

import oracle
from repro.bench.executor import make_operator
from repro.bench.workloads import micro_spec, q1_spec, q2_spec, q3_spec
from repro.engine.simulator import ParallelJoinEngine
from repro.faults.plan import serve_load_plan
from repro.joins import runner
from repro.joins.arrays import AggKind, BatchArrays
from repro.serve import shards, telemetry
from repro.serve.admission import TenantQuota
from repro.serve.service import JoinService, ServeConfig
from repro.streaming.operators import StreamingPECJ
from repro.streams import sources
from repro.streams.datasets import make_dataset
from repro.streams.disorder import UniformDelay
from repro.streams.tuples import Side, StreamTuple

#: Tuples pushed between two span boundaries of the streaming caller.
PUSH_CHUNK = 4096


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def nearest_rank(samples: np.ndarray, q: float) -> float:
    """Nearest-rank percentile ``q`` (in [0, 100]) of a non-empty array."""
    rank = max(1, math.ceil(q / 100.0 * len(samples)))
    return float(np.partition(samples, rank - 1)[rank - 1])


@dataclass
class Answer:
    """One window answer of one caller, ready to be scored."""

    group: int
    value: float
    emit_time: float
    window_start: float
    pecj: bool
    #: The program's own oracle value, if it reports one.
    expected: float | None = None


@dataclass
class Score:
    """Virtual metrics and check outcomes of one job."""

    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    #: Answers or invariants that failed a correctness check.
    failed: int = 0
    #: Windows or queries that failed (checks, latency limit, shed, rejected).
    failed_ops: int = 0
    problems: list = field(default_factory=list)


def _score_answers(score, answers, exact, integral, limit_ms, label):
    """Check answers against the oracle and fold them into ``score``."""
    errors = []
    for ans in answers:
        truth = float(exact[ans.group])
        bad = not math.isfinite(ans.value)
        if ans.expected is not None and not oracle.agrees(ans.expected, truth, integral):
            bad = True
        if bad:
            score.failed += 1
            if len(score.problems) < 5:
                score.problems.append(
                    f"{label}: window {ans.window_start}: value {ans.value}, "
                    f"expected {ans.expected}, oracle {truth}"
                )
        late = ans.emit_time - ans.window_start > limit_ms
        score.failed_ops += int(bad or late)
        score.attempted += 1
        if ans.pecj:
            errors.append(oracle.bounded_error(ans.value, truth))
    return errors


def _finish_batch(score, errors, latency_parts):
    """Derive the virtual metrics of checked batch answers; ``score``."""
    samples = np.concatenate([np.asarray(p, dtype=np.float64) for p in latency_parts])
    score.metrics["error_mean"] = float(np.mean(errors))
    for q in (50, 95, 99):
        score.metrics[f"vlatency_p{q}_ms"] = nearest_rank(samples, q)
        score.samples[f"vlatency_p{q}_ms"] = int(len(samples))
    score.samples["error_mean"] = len(errors)
    score.metrics["ok_ratio"] = 1.0 - score.failed_ops / score.attempted
    score.samples["ok_ratio"] = score.attempted
    return score


def _run_records(result, spec, pecj):
    return [
        Answer(
            group=int(round(r.window.start / spec.window_ms)),
            value=float(r.value),
            emit_time=float(r.emit_time),
            window_start=float(r.window.start),
            pecj=pecj,
            expected=float(r.expected),
        )
        for r in result.records
    ]


def _window_oracle(arrays, spec):
    num = int(math.ceil(float(arrays.event.max()) / spec.window_ms)) + 1
    count, total = oracle.window_join(
        arrays.event, arrays.key, arrays.payload, arrays.is_r, spec.window_ms, num
    )
    return count if spec.agg.value == "count" else total


@dataclass
class _Run:
    spec: object
    method: str
    omega: float
    result: object
    #: What the figure row reports (computed inside the timed job).
    row: tuple
    #: Input tuples the run processed.
    tuples: int


def _standalone(spec, arrays, method, omega):
    operator = make_operator(method, spec.agg, seed=spec.seed)
    result = runner.run_operator(
        operator,
        arrays,
        spec.window_ms,
        omega,
        t_start=spec.t_start,
        t_end=spec.t_end,
        warmup_windows=spec.warmup_windows,
    )
    row = (result.mean_error, result.p95_latency)
    return _Run(spec, method, omega, result, row, len(arrays))


class StandaloneGrid:
    """Standalone operators over paper workloads, as a figure runs them.

    Args:
        specs: ``WorkloadSpec`` factories taking ``seed=``; each spec's
            batch is built once and shared by its cells, as the figure
            executor does.
        cells: ``(omega, method)`` pairs run on every spec.
        latency_limit_ms: A window fails if its answer comes later than
            this after the window opens.
    """

    def __init__(self, specs, cells, latency_limit_ms):
        self.specs = specs
        self.cells = cells
        self.latency_limit_ms = latency_limit_ms

    def setup(self, seed):
        specs = [make(seed=seed) for make in self.specs]
        return [(spec, spec.build()) for spec in specs]

    def job(self, inputs, tracer=None):
        return [
            _standalone(spec, arrays, method, omega)
            for spec, arrays in inputs
            for omega, method in self.cells
        ]

    def tuples(self, inputs, out):
        return sum(run.tuples for run in out)

    def collect(self, inputs, out):
        """Checked answers: the score so far, PECJ errors, latency parts."""
        score = Score()
        exact = {id(spec): _window_oracle(arrays, spec) for spec, arrays in inputs}
        errors, latency = [], []
        for run in out:
            answers = _run_records(run.result, run.spec, run.method.startswith("pecj"))
            errors += _score_answers(
                score, answers, exact[id(run.spec)], run.spec.agg.value == "count",
                self.latency_limit_ms, f"{run.method}@{run.omega:g}",
            )
            latency.append(run.result.latency.samples)
        return score, errors, latency


@dataclass
class _Callers:
    partitioned: _Run
    emissions: list
    live_windows_max: int
    engine: object
    engine_row: tuple


class PecjCallers:
    latency_limit_ms = 20.0
    omega = 10.0
    duration_ms = 6000.0
    warmup_ms = 500.0
    rate = 25.0

    def setup(self, seed):
        spec = micro_spec(
            rate=self.rate,
            agg=AggKind.COUNT,
            delay=UniformDelay(5.0),
            dataset=make_dataset("micro", num_keys=512, key_skew=1.1),
            duration_ms=self.duration_ms,
            warmup_ms=self.warmup_ms,
            seed=seed,
            name="pecj-callers",
        )
        arrays = sources.make_disordered_arrays(
            spec.dataset, spec.delay, spec.duration_ms, spec.rate_r, spec.rate_s, spec.seed
        )
        engine_arrays = BatchArrays(
            arrays.event.copy(), arrays.arrival.copy(), arrays.key.copy(),
            arrays.payload.copy(), arrays.is_r.copy(),
        )
        order = np.argsort(arrays.arrival, kind="stable")
        push = [
            StreamTuple(k, p, e, a, Side.R if r else Side.S, i)
            for i, (k, p, e, a, r) in enumerate(zip(
                arrays.key[order].tolist(), arrays.payload[order].tolist(),
                arrays.event[order].tolist(), arrays.arrival[order].tolist(),
                arrays.is_r[order].tolist(),
            ))
        ]
        return spec, arrays, engine_arrays, push

    def job(self, inputs, tracer=None):
        spec, arrays, engine_arrays, push = inputs
        partitioned = _standalone(spec, arrays, "pecj-part-aema", self.omega)
        stream = StreamingPECJ(
            spec.window_ms, self.omega, spec.agg, backend="aema", seed=spec.seed
        )
        emissions = []
        live_max = 0
        for lo in range(0, len(push), PUSH_CHUNK):
            with _span(tracer, "streaming.push"):
                for t in push[lo:lo + PUSH_CHUNK]:
                    emissions.extend(stream.push(t))
            live_max = max(live_max, stream.live_windows)
        with _span(tracer, "streaming.push"):
            emissions.extend(stream.finish())
        engine = ParallelJoinEngine(
            "prj", agg=spec.agg, pecj=True, omega=self.omega,
            window_length=spec.window_ms, seed=spec.seed, partitioning="skew",
        )
        result = engine.run(
            engine_arrays, t_start=spec.t_start, t_end=spec.t_end,
            warmup_windows=spec.warmup_windows,
        )
        return _Callers(
            partitioned, emissions, live_max, result,
            (result.mean_error, result.p95_latency),
        )

    def tuples(self, inputs, out):
        return 3 * len(inputs[1])

    def own_counts(self, inputs, out):
        """The streaming caller's counts, measured by the push loop."""
        return {
            "streaming.tuples": len(inputs[3]),
            "streaming.windows": len(out.emissions),
            "streaming.live_windows_max": out.live_windows_max,
        }

    def collect(self, inputs, out):
        """Checked answers: the score so far, PECJ errors, latency parts."""
        spec, arrays, _, push = inputs
        score = Score()
        exact = _window_oracle(arrays, spec)
        errors, latency = [], []
        errors += _score_answers(
            score, _run_records(out.partitioned.result, spec, True), exact, True,
            self.latency_limit_ms, "partitioned",
        )
        latency.append(out.partitioned.result.latency.samples)
        errors += _score_answers(
            score, _run_records(out.engine, spec, True), exact, True,
            self.latency_limit_ms, "engine",
        )
        latency.append(out.engine.latency.samples)

        # The push caller reports no oracle and no latencies: score its
        # emissions over the runner's window range, and derive each
        # window's contributing tuples (those that arrived before its
        # cutoff), which must number exactly what it reports observing.
        first = spec.t_start + spec.warmup_windows * spec.window_ms
        by_event = np.argsort(arrays.event, kind="stable")
        event = arrays.event[by_event]
        arrival = arrays.arrival[by_event]
        answers = []
        for em in out.emissions:
            if em.window_start < first - 1e-9 or em.window_end > spec.t_end + 1e-9:
                continue
            lo, hi = np.searchsorted(event, [em.window_start, em.window_end])
            seen = arrival[lo:hi]
            seen = seen[seen < em.window_start + self.omega]
            if len(seen) != em.observed:
                score.failed += 1
                score.problems.append(
                    f"streaming: window {em.window_start}: observed {em.observed}, "
                    f"{len(seen)} tuples arrived before the cutoff"
                )
            latency.append(em.emit_time - seen)
            answers.append(Answer(
                group=int(round(em.window_start / spec.window_ms)),
                value=float(em.value), emit_time=float(em.emit_time),
                window_start=float(em.window_start), pecj=True,
            ))
        errors += _score_answers(
            score, answers, exact, True, self.latency_limit_ms, "streaming"
        )
        return score, errors, latency


class ServeSpike:
    name = "serve-spike"
    duration_ms = 10000.0
    intensity = 2.0

    def config(self, seed):
        return ServeConfig(
            tenants=64,
            n_shards=4,
            num_keys=64,
            window_ms=50.0,
            omega_ms=10.0,
            duration_ms=self.duration_ms,
            warmup_ms=200.0,
            rate_per_ms=150.0,
            mean_query_interval_ms=50.0,
            quota=TenantQuota(rate_per_s=18.0, burst=3.0),
            min_workers=1,
            max_workers=6,
            autoscale_interval_ms=50.0,
            migrate_at_ms=0.5 * self.duration_ms,
            seed=seed,
        )

    def setup(self, seed):
        config = self.config(seed)
        plan = serve_load_plan(self.intensity, 0.0, config.duration_ms, seed=seed)
        return config, plan

    def job(self, inputs, tracer=None):
        config, plan = inputs
        service = JoinService(config, plan)
        with _span(tracer, "serve.service"):
            report = asyncio.run(service.run())
        return service, report

    def tuples(self, inputs, out):
        return out[1]["events"]

    def score(self, inputs, out, full=True):
        config, plan = inputs
        service, report = out
        score = Score()
        submitted = report["queries_submitted"]
        for lhs, rhs, text in (
            (submitted, report["queries_admitted"] + report["queries_rejected"],
             "submitted = admitted + rejected"),
            (report["queries_admitted"], report["queries_completed"] + report["shed_queue"],
             "admitted = completed + shed_queue"),
        ):
            if lhs != rhs:
                score.failed += 1
                score.problems.append(f"serve: {text} fails: {lhs} != {rhs}")
        refused = report["queries_rejected"] + report["shed_queue"] + report["shed_starved"]
        score.attempted = submitted
        score.failed_ops = refused
        latencies = np.asarray(service.latencies, dtype=np.float64)
        for q in (50, 95, 99):
            score.metrics[f"vlatency_p{q}_ms"] = nearest_rank(latencies, q)
            score.samples[f"vlatency_p{q}_ms"] = int(len(latencies))
        score.metrics["ok_ratio"] = 1.0 - refused / submitted
        score.samples["ok_ratio"] = submitted
        if full:
            errors = self._answer_errors(config, plan, report, score)
            score.metrics["error_mean"] = float(np.mean(errors))
            score.samples["error_mean"] = len(errors)
        return score

    def _answer_errors(self, config, plan, report, score):
        """Replay the run recording every answer; score them on the oracle.

        The service keeps no per-query answers, so a second, untimed run
        of the same config records them at ``ShardStore.query`` (window,
        compensated and observed answer) and ``ServeTelemetry.on_query``
        (shed, fallback and warm-up flags); the run is deterministic, so
        its report must equal the timed one.  The value scored is the one
        the tenant was served: the observed aggregate when the query was
        starved-shed or its shard was in fallback, else the compensated one.
        """
        asked, told = [], []
        query, on_query = shards.ShardStore.query, telemetry.ServeTelemetry.on_query

        def record_query(store, start, end, *args, **kwargs):
            answer = query(store, start, end, *args, **kwargs)
            asked.append((store.shard_id, start, answer.value, answer.observed))
            return answer

        def record_outcome(tel, tenant, shard, ts, latency, value, completeness,
                           shed, fallback, warm):
            told.append((shed or fallback, warm))
            return on_query(tel, tenant, shard, ts, latency, value, completeness,
                            shed, fallback, warm)

        shards.ShardStore.query = record_query
        telemetry.ServeTelemetry.on_query = record_outcome
        try:
            replay = JoinService(config, plan)
            again = asyncio.run(replay.run())
        finally:
            shards.ShardStore.query = query
            telemetry.ServeTelemetry.on_query = on_query
        if again != report or len(asked) != len(told) or len(asked) != report["queries_completed"]:
            score.failed += 1
            score.problems.append("serve: the recorded replay differs from the timed run")
        event, _, key, payload, is_r = JoinService(config, plan)._generate_ingest()
        n = config.n_shards
        windows = int(math.ceil(config.duration_ms / config.window_ms)) + 1
        groups = np.floor(event / config.window_ms).astype(np.int64) * n + key % n
        count, total = oracle.group_join(groups, key, payload, is_r, windows * n)
        exact = count if config.agg == "count" else total
        errors = []
        for (shard, start, value, observed), (degraded, warm) in zip(asked, told):
            if degraded:
                value = observed
            truth = float(exact[int(round(start / config.window_ms)) * n + shard])
            if not math.isfinite(value):
                score.failed += 1
                score.problems.append(f"serve: shard {shard} window {start}: answer {value}")
            elif warm:
                errors.append(oracle.bounded_error(value, truth))
        return errors


class BatchSuite:
    """Batch parts run one after the other as one job and scored as one.

    Set-up builds every part's inputs; the job runs the parts in order;
    the virtual metrics pool every part's checked answers and latency
    samples, and the throughput counts every part's input tuples.
    """

    def __init__(self, name, parts):
        self.name = name
        self.parts = parts

    def setup(self, seed):
        return [part.setup(seed) for part in self.parts]

    def job(self, inputs, tracer=None):
        return [part.job(i, tracer) for part, i in zip(self.parts, inputs)]

    def tuples(self, inputs, out):
        return sum(p.tuples(i, o) for p, i, o in zip(self.parts, inputs, out))

    def own_counts(self, inputs, out):
        counts = {}
        for part, i, o in zip(self.parts, inputs, out):
            if hasattr(part, "own_counts"):
                counts.update(part.own_counts(i, o))
        return counts

    def score(self, inputs, out, full=True):
        score, errors, latency = Score(), [], []
        for part, i, o in zip(self.parts, inputs, out):
            own, part_errors, part_latency = part.collect(i, o)
            score.attempted += own.attempted
            score.failed += own.failed
            score.failed_ops += own.failed_ops
            score.problems += own.problems
            errors += part_errors
            latency += part_latency
        return _finish_batch(score, errors, latency)


WORKLOADS = {
    w.name: w
    for w in (
        BatchSuite("paper-batch", (
            # Fig. 6.  Twice |W|: the largest omega plus the overload
            # grace stays below.
            StandaloneGrid(
                (q1_spec, q2_spec),
                [(omega, method) for omega in (7.0, 10.0, 12.0)
                 for method in ("wmj", "ksj", "pecj-aema")],
                latency_limit_ms=20.0,
            ),
            # The paper's Q3 latency target.  Q3 runs 9 s of its stream
            # (paper: 12 s), 4000 scored windows after the 5 s warm-up.
            StandaloneGrid(
                (functools.partial(q3_spec, duration_ms=9000.0),),
                [(300.0, "pecj-mlp"), (300.0, "pecj-svi")],
                latency_limit_ms=500.0,
            ),
            PecjCallers(),
        )),
        ServeSpike(),
    )
}
