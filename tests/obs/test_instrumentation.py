"""End-to-end checks of the instrumented hot paths.

Two properties matter: the instrumentation must *see* the events we care
about (fast-path hits, memo hits, engine phase time), and it must never
*change* anything — results with metrics disabled are bit-identical to
results with metrics enabled.
"""

import pytest

from repro import obs
from repro.engine.simulator import ParallelJoinEngine
from repro.joins.arrays import AggKind
from repro.joins.baselines import WatermarkJoin
from repro.joins.runner import run_operator
from repro.joins.sliding import run_sliding_operator
from repro.streams.datasets import make_dataset
from repro.streams.disorder import UniformDelay
from repro.streams.sources import make_disordered_arrays


def small_arrays(seed=11):
    return make_disordered_arrays(
        make_dataset("micro", num_keys=50),
        UniformDelay(5.0),
        duration_ms=400.0,
        rate_r=40.0,
        rate_s=40.0,
        seed=seed,
    )


def run_wmj(arrays):
    return run_operator(
        WatermarkJoin(AggKind.COUNT), arrays, 10.0, 12.0,
        t_start=50.0, t_end=380.0,
    )


def run_engine(arrays, pecj=False):
    engine = ParallelJoinEngine(
        "prj", threads=4, agg=AggKind.COUNT, pecj=pecj, omega=10.0
    )
    return engine.run(arrays, t_start=50.0, t_end=380.0, warmup_windows=5)


class TestRunnerMetrics:
    def test_runresult_carries_snapshot(self):
        res = run_wmj(small_arrays())
        counters = res.metrics["counters"]
        assert counters["runner.windows"] == res.num_windows
        assert counters["aggregator.query.grid_hit"] > 0
        assert "runner.wall_ms" in res.metrics["histograms"]

    def test_runner_sweep_never_leaves_fast_path(self):
        """Every runner query is grid-aligned; a fallback is a regression."""
        res = run_wmj(small_arrays())
        counters = res.metrics["counters"]
        assert counters.get("aggregator.query.fallback.unbound", 0) == 0
        assert counters.get("aggregator.query.fallback.off_grid", 0) == 0

    def test_cost_memo_hits_on_repeat_run(self):
        arrays = small_arrays()
        run_wmj(arrays)
        res = run_wmj(arrays)
        counters = res.metrics["counters"]
        assert counters["pipeline.cost_memo.hit"] == 1
        assert counters.get("pipeline.cost_memo.miss", 0) == 0

    def test_sliding_merges_phase_metrics(self):
        arrays = small_arrays()
        res = run_sliding_operator(
            lambda origin: WatermarkJoin(AggKind.COUNT), arrays, 20.0, 10.0, 22.0,
            t_start=50.0, t_end=380.0,
        )
        counters = res.metrics["counters"]
        assert counters["sliding.phases"] == 2
        # Each phase's runner scope folded into the sliding scope.
        assert counters["runner.windows"] > 0


class TestEngineMetrics:
    def test_engineresult_carries_phase_times(self):
        res = run_engine(small_arrays())
        gauges = res.metrics["gauges"]
        for phase in ("partition", "build_probe", "sync"):
            assert gauges[f"engine.prj.time_ms.{phase}"] > 0.0
        assert res.metrics["counters"]["engine.windows"] == len(res.records)

    def test_pecj_engine_reports_estimator_health(self):
        res = run_engine(small_arrays(), pecj=True)
        counters = res.metrics["counters"]
        assert counters["pecj.aema.blend_calls"] > 0
        assert "engine.prj.time_ms.compensate" in res.metrics["gauges"]


class TestLearningBackendMetrics:
    def test_additive_fill_path_counts_blends(self):
        """Regression: the additive-fill path (learning backends only —
        the one path no aema test reaches) once shadowed the obs module
        with a loop variable and crashed on its own counter call."""
        from repro.core.pecj import PECJoin

        arrays = small_arrays()
        op = PECJoin(AggKind.COUNT, backend="mlp", learning_inference_ms=0.0)
        res = run_operator(op, arrays, 10.0, 12.0, t_start=50.0, t_end=380.0)
        # The learned regime factor is live, so later windows went
        # through _additive_fill, not the Eq. 9 blend.
        assert op.rate_r.completeness_factor() is not None
        assert res.metrics["counters"]["pecj.mlp.blend_calls"] > 0


class TestEquivalence:
    """Disabling instrumentation must change no computed value."""

    def _with_obs_disabled(self, fn):
        obs.disable()
        try:
            return fn()
        finally:
            obs.enable()

    def test_runner_results_identical(self):
        on = run_wmj(small_arrays())
        off = self._with_obs_disabled(lambda: run_wmj(small_arrays()))
        assert off.mean_error == on.mean_error
        assert off.p95_latency == on.p95_latency
        assert [(r.window.start, r.value, r.expected) for r in off.records] == [
            (r.window.start, r.value, r.expected) for r in on.records
        ]
        assert off.metrics == {
            "schema_version": obs.SNAPSHOT_SCHEMA_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_engine_results_identical(self):
        on = run_engine(small_arrays(), pecj=True)
        off = self._with_obs_disabled(lambda: run_engine(small_arrays(), pecj=True))
        assert off.mean_error == on.mean_error
        assert off.p95_latency == on.p95_latency
        assert [r.value for r in off.records] == [r.value for r in on.records]
        assert off.metrics == {
            "schema_version": obs.SNAPSHOT_SCHEMA_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
