"""Push-based streaming join operators.

The batch runner replays a finite segment for experiments; these classes
are the deployable form: tuples are **pushed** one at a time in arrival
order, windows emit as the clock passes their cutoff, and state is
finalized and evicted once the delay horizon guarantees completeness.

    op = StreamingPECJ(window_length=10.0, omega=10.0)
    for t in arrival_ordered_tuples:
        for emission in op.push(t):
            handle(emission)          # emitted at cutoff, compensated
    op.finish()
    print(op.scored)                  # per-window error vs finalized truth

Three operators share the machinery:

* :class:`StreamingWMJ` — watermark-style: answers from whatever was
  ingested by the cutoff;
* :class:`StreamingKSJ` — the same, behind a real heap-based k-slack
  reorder buffer (tuples the buffer still holds at the cutoff are missed,
  reproducing KSJ's completeness/latency tradeoff);
* :class:`StreamingPECJ` — proactive compensation: the batch operator's
  estimation step (:class:`~repro.core.pecj.PECJEstimation`) on
  incremental state, so its answers carry the same credible interval.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from repro.obs import trace
from repro.core.pecj import PECJEstimation, make_estimator
from repro.joins.arrays import AggKind
from repro.metrics.error import bounded_window_error
from repro.streaming.kslack import KSlackBuffer
from repro.streaming.state import WindowJoinState
from repro.streams.tuples import StreamTuple

__all__ = [
    "WindowEmission",
    "ScoredWindow",
    "StreamingWMJ",
    "StreamingKSJ",
    "StreamingPECJ",
]


@dataclass(frozen=True, slots=True)
class WindowEmission:
    """One window's output, released at its cutoff."""

    window_start: float
    window_end: float
    value: float
    emit_time: float
    observed: int
    #: 95% credible interval of a compensated PECJ answer; None for
    #: baselines and for PECJ's cold-start windows.
    interval: tuple[float, float] | None = None


@dataclass(frozen=True, slots=True)
class ScoredWindow:
    """An emission scored against the finalized (complete) window."""

    window_start: float
    value: float
    truth: float
    error: float


class _StreamingBase:
    """Shared clockwork: window states, emission, finalization, eviction.

    Args:
        window_length: ``|W|`` in ms.
        omega: Emission cutoff from each window's start.
        agg: Output aggregation.
        horizon_ms: Age at which a window is treated as complete and
            evicted; ``None`` derives it from the observed delays.
        num_buckets: Sub-interval resolution of the per-window state.
    """

    name = "streaming-base"

    def __init__(
        self,
        window_length: float,
        omega: float,
        agg: AggKind = AggKind.COUNT,
        horizon_ms: float | None = None,
        num_buckets: int = 10,
    ):
        if window_length <= 0 or omega <= 0:
            raise ValueError("window_length and omega must be positive")
        self.window_length = window_length
        self.omega = omega
        self.agg = agg
        self.fixed_horizon = horizon_ms
        self.num_buckets = num_buckets
        self.clock = -math.inf
        self._states: dict[int, WindowJoinState] = {}
        self._emitted: dict[int, WindowEmission] = {}
        self._next_emit: int | None = None
        self._next_final: int | None = None
        #: Emissions scored against finalized windows, in window order.
        self.scored: list[ScoredWindow] = []
        #: Tuples that arrived after their window was already finalized.
        self.dropped_late = 0
        self._max_widx: int | None = None
        # Finalization involves the delay horizon, which can be costly to
        # recompute; check at most once per window of clock progress.
        self._next_final_check = -math.inf

    # -- hooks -------------------------------------------------------------

    def _emit_value(
        self, state: WindowJoinState, cutoff: float
    ) -> tuple[float, tuple[float, float] | None, float]:
        """Return (value, credible interval, extra emission delay)."""
        return state.value(self.agg), None, 0.0

    def _on_ingest(self, t: StreamTuple) -> None:
        """Called for every tuple accepted into a window."""

    def _on_finalize(self, widx: int, state: WindowJoinState) -> None:
        """Called when a window is complete, before eviction."""

    def _horizon(self) -> float:
        return self.fixed_horizon if self.fixed_horizon is not None else 0.0

    # -- ingestion -----------------------------------------------------------

    def _widx(self, event_time: float) -> int:
        return int(math.floor(event_time / self.window_length))

    def _state_for(self, event_time: float) -> WindowJoinState | None:
        w = self._widx(event_time)
        if self._next_final is not None and w < self._next_final:
            # Before anything has been emitted the cursors may still move
            # back (stream start under disorder: an older window's tuple
            # can show up after a newer window opened).  After the first
            # emission the grid is locked and older tuples are late.
            untouched = (
                self._next_final == self._next_emit
                and not self._emitted
                and w * self.window_length + self.omega > self.clock
            )
            if untouched:
                self._next_emit = self._next_final = w
            else:
                self.dropped_late += 1
                return None
        state = self._states.get(w)
        if state is None:
            start = w * self.window_length
            state = self._states[w] = WindowJoinState(
                start, start + self.window_length, self.num_buckets
            )
            if self._next_emit is None:
                self._next_emit = w
                self._next_final = w
        return state

    def _ingest(self, t: StreamTuple) -> None:
        state = self._state_for(t.event_time)
        if state is not None:
            state.add(t)
            self._on_ingest(t)
            w = self._widx(t.event_time)
            if self._max_widx is None or w > self._max_widx:
                self._max_widx = w

    def push(self, t: StreamTuple) -> list[WindowEmission]:
        """Ingest one tuple (arrival order) and return due emissions."""
        if t.arrival_time < self.clock - 1e-9:
            raise ValueError(
                f"arrival clock went backwards: {t.arrival_time} < {self.clock}"
            )
        emissions = self.advance(t.arrival_time)
        self._ingest(t)
        return emissions

    # -- clockwork -------------------------------------------------------------

    def advance(self, now: float) -> list[WindowEmission]:
        """Advance the virtual clock, emitting and finalizing due windows."""
        self.clock = max(self.clock, now)
        emissions: list[WindowEmission] = []
        if self._next_emit is None:
            return emissions
        # Emit windows whose cutoff has passed.  Never emit past the last
        # window that received data: the stream may simply have ended, and
        # fabricating outputs for windows after its end is meaningless.
        while (
            self._next_emit * self.window_length + self.omega <= self.clock
            and self._max_widx is not None
            and self._next_emit <= self._max_widx
        ):
            w = self._next_emit
            start = w * self.window_length
            state = self._states.get(w) or WindowJoinState(
                start, start + self.window_length, self.num_buckets
            )
            cutoff = start + self.omega
            value, interval, extra = self._emit_value(state, cutoff)
            emission = WindowEmission(
                window_start=start,
                window_end=start + self.window_length,
                value=value,
                emit_time=cutoff + extra,
                observed=state.n_r + state.n_s,
                interval=interval,
            )
            emissions.append(emission)
            self._emitted[w] = emission
            if trace.is_tracing():
                trace.instant(
                    "streaming.emit", emission.emit_time,
                    cat="window", track=f"streaming.{self.name}",
                    args={
                        "window_start": float(start),
                        "value": float(value),
                        "observed": int(emission.observed),
                    },
                )
            self._next_emit += 1
        # Finalize windows older than the delay horizon.  The horizon
        # recomputation is throttled: eviction may lag by one window,
        # which only delays scoring, never correctness.
        if self.clock < self._next_final_check and not emissions:
            return emissions
        self._next_final_check = self.clock + self.window_length
        horizon = self._horizon()
        while (
            self._next_final is not None
            and self._next_final < self._next_emit
            and (self._next_final + 1) * self.window_length + horizon <= self.clock
        ):
            w = self._next_final
            state = self._states.pop(w, None)
            emission = self._emitted.pop(w, None)
            if state is not None:
                self._on_finalize(w, state)
            if emission is not None:
                if state is None:
                    # The window never received a tuple: truth is empty.
                    start = w * self.window_length
                    state = WindowJoinState(
                        start, start + self.window_length, self.num_buckets
                    )
                truth = state.value(self.agg)
                # Shared degenerate-window semantics: a zero-truth window
                # with a nonzero (compensated) answer scores at most 1.
                err = bounded_window_error(emission.value, truth)
                self.scored.append(
                    ScoredWindow(state.start, emission.value, truth, err)
                )
            self._next_final += 1
        return emissions

    def finish(self) -> list[WindowEmission]:
        """Flush: emit and finalize everything still pending."""
        return self.advance(self.clock + self.omega + self._horizon() + 2 * self.window_length)

    @property
    def live_windows(self) -> int:
        """Number of window states currently held (memory bound)."""
        return len(self._states)

    @property
    def mean_error(self) -> float:
        if not self.scored:
            return 0.0
        return sum(s.error for s in self.scored) / len(self.scored)


class StreamingWMJ(_StreamingBase):
    """Watermark-join: answers from everything ingested by the cutoff."""

    name = "StreamingWMJ"

    def __init__(self, window_length: float, omega: float, agg: AggKind = AggKind.COUNT,
                 horizon_ms: float | None = None):
        super().__init__(window_length, omega, agg, horizon_ms)
        self._max_delay = 0.0

    def _on_ingest(self, t: StreamTuple) -> None:
        self._max_delay = max(self._max_delay, t.delay)

    def _horizon(self) -> float:
        if self.fixed_horizon is not None:
            return self.fixed_horizon
        return self._max_delay * 1.05 + self.window_length


class StreamingKSJ(StreamingWMJ):
    """K-slack join: a reorder buffer precedes the window states.

    Tuples still held by the buffer at a window's cutoff are missed —
    exactly the k-slack accuracy/latency tradeoff.  ``slack`` defaults to
    ``omega`` (the paper ties the tuning knob to the buffer's control).
    """

    name = "StreamingKSJ"

    def __init__(
        self,
        window_length: float,
        omega: float,
        agg: AggKind = AggKind.COUNT,
        slack: float | None = None,
        horizon_ms: float | None = None,
    ):
        super().__init__(window_length, omega, agg, horizon_ms)
        self._adaptive_slack = slack is None
        self.buffer = KSlackBuffer(0.0 if slack is None else slack)

    def push(self, t: StreamTuple) -> list[WindowEmission]:
        """Feed one arriving tuple; join and emit whatever it releases."""
        if t.arrival_time < self.clock - 1e-9:
            raise ValueError(
                f"arrival clock went backwards: {t.arrival_time} < {self.clock}"
            )
        if self._adaptive_slack:
            # Adaptive k-slack (Ji et al.): K tracks the largest disorder
            # seen so far.
            self.buffer.slack = max(self.buffer.slack, t.delay)
        emissions = self.advance(t.arrival_time)
        for released in self.buffer.push(t):
            self._ingest(released)
        return emissions

    def _emit_value(self, state: WindowJoinState, cutoff: float):
        # The join consults the reorder buffer at emission: tuples that
        # have arrived but are still being ordered join the answer (this
        # is what keeps KSJ's completeness aligned with WMJ's at equal
        # omega, per the paper's Section 6.3 observation).
        pending = self.buffer.peek_range(state.start, state.end)
        if pending:
            state = state.clone()
            for t in pending:
                state.add(t)
        return state.value(self.agg), None, 0.0

    def finish(self) -> list[WindowEmission]:
        """Flush the reorder buffer and join the stragglers (end of stream)."""
        for released in self.buffer.flush():
            self._ingest(released)
        return super().finish()


class StreamingPECJ(_StreamingBase, PECJEstimation):
    """Push-based PECJ: the batch operator's estimation step on pushed tuples.

    :class:`~repro.core.pecj.PECJEstimation` does the per-window step, as
    for :class:`~repro.core.pecj.PECJoin`.  Push-specific: batched profile
    updates, the recent-delay sample behind the context, and per-bucket
    rate observation at finalization.  Warm emissions carry the credible
    interval; cold ones carry ``None``.
    """

    name = "StreamingPECJ"

    def __init__(
        self,
        window_length: float,
        omega: float,
        agg: AggKind = AggKind.COUNT,
        backend: str = "aema",
        min_completeness: float = 0.05,
        finalize_quantile: float = 0.995,
        learning_inference_ms: float | None = None,
        seed: int = 0,
    ):
        super().__init__(window_length, omega, agg)
        self.backend = backend
        self.min_completeness = min_completeness
        self.finalize_quantile = finalize_quantile
        if learning_inference_ms is None:
            learning_inference_ms = 90.0 if backend == "mlp" else 0.0
        self.learning_inference_ms = learning_inference_ms
        self._reset_estimation(lambda: make_estimator(backend, seed), omega, window_length)
        #: Recent (event_time, delay) pairs for the delay-shape context.
        self._recent_delays: collections.deque[tuple[float, float]] = (
            collections.deque(maxlen=4096)
        )
        # Per-push profile updates would allocate one array per tuple;
        # batch them and flush before the profile is queried.
        self._pending_delays: list[float] = []

    # -- observation machinery ----------------------------------------------

    def _on_ingest(self, t: StreamTuple) -> None:
        delay = max(t.delay, 0.0)
        self._pending_delays.append(delay)
        self._recent_delays.append((t.event_time, delay))

    def _flush_delays(self) -> None:
        if self._pending_delays:
            self.profile.update(np.asarray(self._pending_delays))
            self._pending_delays.clear()

    def _horizon(self) -> float:
        self._flush_delays()
        return self.profile.horizon(self.finalize_quantile) + self.window_length

    def _emit_value(self, state: WindowJoinState, cutoff: float):
        self._flush_delays()
        extra = self.learning_inference_ms
        if self._cold_window(cutoff, state.start):
            return state.value(self.agg), None, extra
        span_start = state.start - 4.0 * self.window_length
        context = self._delay_context(
            cutoff - 0.5 * (state.start + state.end),
            lambda: np.asarray(
                [d for e, d in self._recent_delays if span_start <= e < state.end]
            ),
        )
        bucket_len = state.length / state.num_buckets
        buckets = [
            (n_r, n_s, self.profile.completeness(cutoff - (state.start + (b + 0.5) * bucket_len)))
            for b, (n_r, n_s) in enumerate(state.buckets)
        ]
        value = self._estimate(
            state, context, buckets, bucket_len, state.length,
            self._widx(state.start), cutoff, state.start,
        )
        return value, self.last_interval, extra

    def _on_finalize(self, widx: int, state: WindowJoinState) -> None:
        bucket_len = state.length / state.num_buckets
        for cnt_r, cnt_s in state.buckets:
            self.rate_r.observe(cnt_r / bucket_len, 1.0)
            self.rate_s.observe(cnt_s / bucket_len, 1.0)
        self._window_feedback(widx, state, state.length)
        self.profile.decay_step()
