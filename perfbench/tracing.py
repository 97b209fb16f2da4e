"""Wall-clock spans around calls into the ``repro`` layers.

The traced run replaces selected attributes of ``repro`` modules and
classes with wrappers that record one span per call: name, start, end and
the span that was open when the call began.  A wrapper sits on the
attribute its caller looks up (``repro.joins.runner`` imports
``apply_pipeline_costs`` by name, so that is the attribute wrapped).
Every wrapped call is per window, per ingest chunk or per query, never
per tuple.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover; because the program is
single-threaded (the service's asyncio workers never await inside a
wrapped call) spans nest strictly, and the self times of all spans
partition the root span's duration.  The root's own self time is the
time no other span covers (``trace.unattributed_ms``); the run fails
when it grows past a small share of the wall (``accounting_problems``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    """An in-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        #: Work counted by wrappers (e.g. tuples built), per span name.
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        """Open a span; returns its index."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        """Close the innermost span, which must be ``idx``."""
        self.ends[idx] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def span(self, name: str):
        """Context manager recording one span."""
        return _Span(self, name)

    def self_times_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i] - child[i]) * 1e3
        return dict(out)

    def calls(self) -> dict[str, int]:
        """Number of spans per name."""
        out: dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON (one write, at the end of the run)."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_us", "end_us", "parent"],
                       "spans": rows}, fh)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.idx)
        return False


def _wrap_function(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if count is not None:
            tracer.counts[name] += count(args, result)
        return result

    return wrapper


class Patches:
    """Installs span wrappers and puts every original back.

    Args:
        tracer: Receives the spans.
        targets: ``(module, owner, attribute, span name, count)`` tuples.
            ``owner`` is a class name inside the module, or ``None`` for
            a module attribute; ``count`` optionally maps ``(args,
            result)`` to work done by the call.  A class attribute must
            be defined on that class itself (not inherited), so that
            putting it back restores exactly the original.
    """

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self.saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target attribute."""
        for (owner, attr), (_, _, _, span_name, count) in zip(self._sites(), self.targets):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(
                    _wrap_function(self.tracer, span_name, raw.__func__, count)
                )
            else:
                new = _wrap_function(self.tracer, span_name, raw, count)
            self.saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every original attribute back (last wrapped, first restored)."""
        while self.saved:
            owner, attr, raw = self.saved.pop()
            setattr(owner, attr, raw)

    def current(self) -> list:
        """The objects the target attributes hold now."""
        return [vars(owner)[attr] for owner, attr in self._sites()]

    def _sites(self):
        for module_name, owner_name, attr, _, _ in self.targets:
            module = importlib.import_module(module_name)
            yield (getattr(module, owner_name) if owner_name else module), attr


def _len_result(args, result):
    return len(result)


def _len_first_arg(args, result):
    return len(args[1])


#: Every wrapped call, by layer.  The span name is the layer's metric stem.
TARGETS = [
    ("repro.streams.sources", None, "make_disordered_arrays", "streams.build", _len_result),
    ("repro.bench.workloads", None, "make_disordered_arrays", "streams.build", _len_result),
    ("repro.joins.runner", None, "apply_pipeline_costs", "joins.pipeline", None),
    ("repro.joins.arrays", "BatchArrays", "completion_order", "joins.arrays.order", None),
    ("repro.joins.arrays", "BatchArrays", "arrival_order", "joins.arrays.order", None),
    ("repro.joins.arrays", "BatchArrays", "aggregator", "joins.aggregator.build", None),
    ("repro.joins.aggregator", "WindowAggregator", "at", "joins.aggregator.query", None),
    ("repro.joins.aggregator", "WindowAggregator", "try_at", "joins.aggregator.query", None),
    ("repro.joins.aggregator", "DeltaGrid", "delta_append", "joins.delta.append", None),
    ("repro.joins.aggregator", "DeltaGrid", "query", "joins.delta.query", None),
    ("repro.joins.baselines", "WatermarkJoin", "process_window", "joins.baselines.window", None),
    ("repro.joins.baselines", "KSlackJoin", "process_window", "joins.baselines.window", None),
    ("repro.joins.runner", None, "run_operator", "joins.runner", None),
    ("repro.core.pecj", "PECJoin", "prepare", "core.pecj.prepare", None),
    ("repro.core.pecj", "PECJoin", "process_window", "core.pecj.window", None),
    ("repro.core.delay_profile", "DelayProfile", "update", "core.delay_profile.update", None),
    ("repro.core.delay_profile", "DelayProfile", "completeness_many",
     "core.delay_profile.completeness", None),
    ("repro.core.estimators.aema", "AEMAEstimator", "__init__", "core.estimators.init", None),
    ("repro.core.estimators.mlp_backend", "MLPEstimator", "__init__", "core.estimators.init", None),
    ("repro.core.estimators.svi_backend", "SVIEstimator", "__init__", "core.estimators.init", None),
    ("repro.core.estimators.base", "PosteriorEstimator", "observe_many",
     "core.estimators.observe", None),
    ("repro.core.estimators.aema", "AEMAEstimator", "observe", "core.estimators.observe", None),
    ("repro.core.estimators.aema", "AEMAEstimator", "blend", "core.estimators.blend", None),
    ("repro.core.estimators.mlp_backend", "MLPEstimator", "observe",
     "core.estimators.observe", None),
    ("repro.core.estimators.mlp_backend", "MLPEstimator", "blend", "core.estimators.blend", None),
    ("repro.core.estimators.svi_backend", "SVIEstimator", "observe", "vi.svi", None),
    ("repro.core.estimators.svi_backend", "SVIEstimator", "blend", "vi.svi", None),
    ("repro.nn.mlp", "MLP", "fit", "nn.fit", None),
    ("repro.metrics.latency", "LatencyTracker", "extend", "metrics.latency", _len_first_arg),
    ("repro.metrics.latency", "LatencyTracker", "p95", "metrics.percentile", None),
    ("repro.metrics.error", None, "bounded_window_error", "metrics.error", None),
    ("repro.joins.runner", None, "bounded_window_error", "metrics.error", None),
    ("repro.engine.simulator", None, "bounded_window_error", "metrics.error", None),
    ("repro.streaming.operators", None, "bounded_window_error", "metrics.error", None),
    ("repro.joins.partitioned", "PartitionedPECJoin", "process_window",
     "joins.partitioned.window", None),
    ("repro.engine.simulator", "ParallelJoinEngine", "run", "engine.run", None),
    ("repro.serve.shards", "ShardStore", "ingest", "serve.shards.ingest", None),
    ("repro.serve.shards", "ShardStore", "query", "serve.shards.query", None),
    ("repro.serve.shards", "ShardStore", "checkpoint", "serve.shards.checkpoint", None),
    ("repro.serve.shards", "ShardStore", "restore", "serve.shards.checkpoint", None),
    ("repro.serve.admission", "AdmissionController", "admit", "serve.admission", None),
    ("repro.serve.autoscaler", "VerticalAutoscaler", "observe", "serve.autoscaler", None),
] + [
    ("repro.serve.telemetry", "ServeTelemetry", hook, "serve.telemetry", None)
    for hook in (
        "on_admission", "on_queue_shed", "on_query", "on_widen", "on_fallback_entered",
        "on_rescale", "on_migrate", "on_profile_poison", "on_profile_repair", "on_tick",
    )
]

#: The span around a workload's set-up; its self time is the benchmark's
#: own glue there (building the push caller's tuples, copying arrays).
SETUP = "bench.setup"
#: The root span of a traced run; its self time is ``unattributed_ms``.
ROOT = "trace"


#: The self-time metric of every span name.  Together with the root's
#: ``trace.unattributed_ms`` these partition the traced wall time.
SELF_TIME_METRICS = {
    "streams.build": "streams.build_ms",
    "joins.pipeline": "joins.pipeline.ms",
    "joins.arrays.order": "joins.arrays.order_ms",
    "joins.aggregator.build": "joins.aggregator.build_ms",
    "joins.aggregator.query": "joins.aggregator.query_ms",
    "joins.delta.append": "joins.delta.append_ms",
    "joins.delta.query": "joins.delta.query_ms",
    "joins.baselines.window": "joins.baselines.window_ms",
    "joins.runner": "joins.runner.self_ms",
    "core.pecj.prepare": "core.pecj.prepare_ms",
    "core.pecj.window": "core.pecj.window_self_ms",
    "core.delay_profile.update": "core.delay_profile.update_ms",
    "core.delay_profile.completeness": "core.delay_profile.completeness_ms",
    "core.estimators.init": "core.estimators.init_ms",
    "core.estimators.observe": "core.estimators.observe_ms",
    "core.estimators.blend": "core.estimators.blend_ms",
    "nn.fit": "nn.fit_ms",
    "vi.svi": "vi.svi_ms",
    "metrics.latency": "metrics.latency_ms",
    "metrics.percentile": "metrics.percentile_ms",
    "metrics.error": "metrics.error_ms",
    "joins.partitioned.window": "joins.partitioned.window_ms",
    "streaming.push": "streaming.push_ms",
    "engine.run": "engine.run_ms",
    "serve.shards.ingest": "serve.shards.ingest_ms",
    "serve.shards.query": "serve.shards.query_ms",
    "serve.shards.checkpoint": "serve.shards.checkpoint_ms",
    "serve.admission": "serve.admission.ms",
    "serve.autoscaler": "serve.autoscaler.ms",
    "serve.telemetry": "serve.telemetry.ms",
    "serve.service": "serve.service.self_ms",
    SETUP: "bench.setup_ms",
    ROOT: "trace.unattributed_ms",
}


def _counter_sum(counters: dict, prefix: str) -> int:
    return int(sum(v for k, v in counters.items() if k.startswith(prefix)))


def layer_metrics(tracer: Tracer, snapshot: dict, own: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Args:
        tracer: The run's spans.
        snapshot: The ``repro.obs`` registry snapshot of the traced
            region (the program's own counters and timers).
        own: Counts the benchmark measured in its own loop
            (``streaming.*``).
    """
    ms = tracer.self_times_ms()
    calls = tracer.calls()
    counters = snapshot.get("counters", {})
    hist = snapshot.get("histograms", {})
    build = hist.get("aggregator.build_ms", {})
    hits = counters.get("aggregator.query.grid_hit", 0)
    fallbacks = _counter_sum(counters, "aggregator.query.fallback.")
    n = lambda name: calls.get(name, 0)  # noqa: E731
    out = {metric: ms.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    out.update({
        "streams.tuples": tracer.counts.get("streams.build", 0),
        "joins.pipeline.calls": n("joins.pipeline"),
        "joins.aggregator.index_build_ms": build.get("count", 0.0) * build.get("mean", 0.0),
        "joins.aggregator.grid_hit_ratio": hits / (hits + fallbacks) if hits + fallbacks else 0.0,
        "joins.delta.append_calls": n("joins.delta.append"),
        "joins.runner.windows": counters.get("runner.windows", 0)
        + counters.get("runner.warmup_windows", 0),
        "core.pecj.windows": n("core.pecj.window"),
        "core.delay_profile.update_calls": n("core.delay_profile.update"),
        "core.estimators.clamps": int(sum(
            v for k, v in counters.items() if k.startswith("pecj.") and ".clamp." in k
        )),
        "nn.fit_calls": n("nn.fit"),
        "metrics.latency_samples": tracer.counts.get("metrics.latency", 0),
        "joins.partitioned.promotions": counters.get("partition.promotions", 0),
        "joins.partitioned.demotions": counters.get("partition.demotions", 0),
        "streaming.tuples": own.get("streaming.tuples", 0),
        "streaming.windows": own.get("streaming.windows", 0),
        "streaming.live_windows_max": own.get("streaming.live_windows_max", 0),
        "engine.windows": counters.get("engine.windows", 0),
        "serve.shards.ingest_calls": n("serve.shards.ingest"),
        "serve.shards.queries": n("serve.shards.query"),
        "serve.admission.rejected": counters.get("serve.admission.rejected", 0),
        "serve.autoscaler.rescales": counters.get("serve.autoscaler.scale_ups", 0)
        + counters.get("serve.autoscaler.scale_downs", 0),
        "trace.wall_ms": (tracer.ends[0] - tracer.starts[0]) * 1e3,
    })
    return out


#: Per-layer metrics that are counts: they must repeat exactly for a seed.
COUNT_METRICS = (
    "streams.tuples", "joins.pipeline.calls", "joins.aggregator.grid_hit_ratio",
    "joins.delta.append_calls", "joins.runner.windows", "core.pecj.windows",
    "core.delay_profile.update_calls", "core.estimators.clamps", "nn.fit_calls",
    "metrics.latency_samples", "joins.partitioned.promotions",
    "joins.partitioned.demotions", "streaming.tuples", "streaming.windows",
    "streaming.live_windows_max", "engine.windows", "serve.shards.ingest_calls",
    "serve.shards.queries", "serve.admission.rejected", "serve.autoscaler.rescales",
)


#: ``trace.unattributed_ms`` may be at most this share of the traced wall:
#: a hot path that no span covers lands there and fails the run.
UNATTRIBUTED_MAX_SHARE = 0.02


def accounting_problems(layers: dict) -> list[str]:
    """What is wrong with a traced run's wall-time accounting.

    Two checks on the emitted per-layer metrics: the self-time metrics
    (``SELF_TIME_METRICS``) must add up to ``trace.wall_ms`` — which fails
    when a span has no metric — and ``trace.unattributed_ms`` must stay
    within ``UNATTRIBUTED_MAX_SHARE`` of it.
    """
    wall = layers["trace.wall_ms"]
    self_sum = sum(layers[m] for m in SELF_TIME_METRICS.values())
    problems = []
    if abs(self_sum - wall) > 1e-6 * wall:
        problems.append(f"trace accounting: self-time metrics sum to {self_sum:.3f} ms "
                        f"but the traced wall is {wall:.3f} ms")
    unattributed = layers["trace.unattributed_ms"]
    if unattributed > UNATTRIBUTED_MAX_SHARE * wall:
        problems.append(f"trace accounting: {unattributed:.1f} ms of {wall:.1f} ms "
                        f"unattributed, over {UNATTRIBUTED_MAX_SHARE:.0%}")
    return problems
