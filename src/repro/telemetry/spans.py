"""Nestable timed spans over the simulated clock (and the wall clock).

A span brackets one unit of work — a pipeline stage, a record
signing, an appraisal — with a context manager::

    with telemetry.span("pisa.stage", track="s1", table="ipv4_lpm"):
        ...

Each finished span records *both* clocks:

- **simulated time** (:class:`~repro.util.clock.SimClock`): where the
  work sits on the dataplane timeline. Work inside one discrete event
  is instantaneous in simulated time, so sim durations are often 0 —
  that is the discrete-event model being honest, not a bug.
- **wall time** (``perf_counter``): what the work actually cost this
  process — the breakdown perf regressions are diagnosed from.

Spans nest: the recorder tracks depth so exports can indent and the
Chrome trace viewer can stack them. The whole thing has a no-op fast
path — when a recorder is disabled, :meth:`SpanRecorder.span` returns
a shared null span whose enter/exit do nothing and allocate nothing.
Finished spans land in a bounded ring buffer (evictions are counted),
so span recording cannot eat the heap on a long run either.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

from repro.util.clock import SimClock
from repro.util.ring import RingBuffer

DEFAULT_MAX_SPANS = 65536


class Span:
    """One live (then finished) timed region. Use via ``with``."""

    __slots__ = (
        "_recorder", "name", "track", "args",
        "sim_start", "sim_end", "wall_start", "wall_end", "depth",
    )

    def __init__(
        self,
        recorder: "SpanRecorder",
        name: str,
        track: str,
        args: Optional[Dict[str, object]],
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.track = track
        self.args = args
        self.sim_start = 0.0
        self.sim_end = 0.0
        self.wall_start = 0.0
        self.wall_end = 0.0
        self.depth = 0

    @property
    def wall_duration(self) -> float:
        return self.wall_end - self.wall_start

    def note(self, **args: object) -> None:
        """Attach key/value detail to the span (shown in exports)."""
        if self.args is None:
            self.args = {}
        self.args.update(args)

    def __enter__(self) -> "Span":
        recorder = self._recorder
        self.depth = recorder._depth
        recorder._depth += 1
        self.sim_start = recorder.clock.now
        self.wall_start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_end = perf_counter()
        recorder = self._recorder
        self.sim_end = recorder.clock.now
        recorder._depth -= 1
        recorder._finished.append(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, track={self.track!r}, "
            f"sim={self.sim_start:.6f}..{self.sim_end:.6f}, "
            f"wall={self.wall_duration * 1e6:.1f}us)"
        )


class _NullSpan:
    """The disabled fast path: no allocation, no clock reads."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def note(self, **args: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Collects finished spans against one (rebindable) sim clock."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.clock = clock or SimClock()
        self._finished: RingBuffer[Span] = RingBuffer(max_spans)
        self._depth = 0

    def bind_clock(self, clock: SimClock) -> None:
        """Point sim timestamps at a (new) simulator's clock."""
        self.clock = clock

    def span(
        self,
        name: str,
        track: str = "main",
        **args: object,
    ) -> Span:
        return Span(self, name, track, args or None)

    @property
    def records(self) -> List[Span]:
        """Finished spans, oldest first (bounded; see ``dropped``)."""
        return self._finished.to_list()

    @property
    def dropped(self) -> int:
        """Finished spans evicted from the ring buffer."""
        return self._finished.dropped

    def clear(self) -> None:
        self._finished.clear()

    def __len__(self) -> int:
        return len(self._finished)
