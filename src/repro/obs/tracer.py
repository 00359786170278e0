"""Span-based tracing on the virtual clock.

``with tracer.span("epoch.audit", epoch=4): ...`` records a structured
event whose start/end are *simulated* milliseconds. Since most spans
cover code that advances the clock only at the end of the epoch, spans
also support an explicit ``advance_ms`` attribution (the epoch loop
passes the phase cost it is about to charge), and an optional wall-clock
capture (``capture_wall=True``) for profiling the simulator itself —
the one deliberately non-deterministic feature, off by default.

The event buffer is bounded: once ``max_events`` is reached new events
are counted in ``dropped`` instead of stored, so tracing can stay on
for arbitrarily long fleet runs.
"""

import itertools
import time


class SpanEvent:
    """One completed span (or point event, when start == end)."""

    __slots__ = ("span_id", "parent_id", "name", "start_ms", "end_ms",
                 "attrs", "wall_start_s", "wall_end_s")

    def __init__(self, span_id, parent_id, name, start_ms, end_ms,
                 attrs=None, wall_start_s=None, wall_end_s=None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.attrs = dict(attrs or {})
        self.wall_start_s = wall_start_s
        self.wall_end_s = wall_end_s

    @property
    def duration_ms(self):
        return self.end_ms - self.start_ms

    @property
    def wall_duration_s(self):
        if self.wall_start_s is None or self.wall_end_s is None:
            return None
        return self.wall_end_s - self.wall_start_s

    def to_dict(self):
        """JSON-ready form (the JSONL exporter writes one per line)."""
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.wall_start_s is not None:
            out["wall_duration_s"] = self.wall_duration_s
        return out

    def __repr__(self):
        return "SpanEvent(%s, %.3f..%.3fms)" % (
            self.name, self.start_ms, self.end_ms,
        )


class _OpenSpan:
    """One span from ``__enter__`` to ``__exit__``: :meth:`Tracer.span`.

    The span takes its id, parent and start when it is entered, not when
    it is made. Exiting pops whatever span is on top of the tracer's
    stack and records this one, even when the block raised; the
    exception goes on.
    """

    __slots__ = ("tracer", "span_id", "parent_id", "name", "start_ms",
                 "attrs", "wall_start_s", "extra_ms")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.extra_ms = 0.0

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = next(tracer._ids)
        self.start_ms = tracer.clock.now
        self.wall_start_s = (time.perf_counter() if tracer.capture_wall
                             else None)
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self.tracer
        # The pop is guarded: a span still open when its tenant was
        # quarantined was abort-closed with the rest of the stack, and
        # may exit later to an empty one.
        if tracer._stack:
            tracer._stack.pop()
        tracer._record(SpanEvent(
            self.span_id, self.parent_id, self.name, self.start_ms,
            tracer.clock.now + self.extra_ms, self.attrs, self.wall_start_s,
            time.perf_counter() if tracer.capture_wall else None,
        ))
        return False

    def annotate(self, **attrs):
        self.attrs.update(attrs)

    def attribute_ms(self, delta_ms):
        """Attribute virtual time the caller will charge after closing."""
        self.extra_ms += float(delta_ms)


class Tracer:
    """Produces a structured stream of :class:`SpanEvent`."""

    def __init__(self, clock, capture_wall=False, max_events=100000):
        self.clock = clock
        self.capture_wall = capture_wall
        self.max_events = max_events
        self.events = []
        self.dropped = 0
        self._stack = []
        self._ids = itertools.count(1)

    def _record(self, event):
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def span(self, name, **attrs):
        """Context manager: record one span around the enclosed block.

        Entering it yields the open span, so the block can
        ``annotate(...)`` results or ``attribute_ms(...)`` virtual time
        charged after the block.
        """
        return _OpenSpan(self, name, attrs)

    def event(self, name, **attrs):
        """Record a zero-duration point event (verdicts, incidents...)."""
        parent_id = self._stack[-1].span_id if self._stack else None
        now = self.clock.now
        wall = time.perf_counter() if self.capture_wall else None
        self._record(SpanEvent(
            span_id=next(self._ids), parent_id=parent_id, name=name,
            start_ms=now, end_ms=now, attrs=attrs,
            wall_start_s=wall, wall_end_s=wall,
        ))

    @property
    def current_span_id(self):
        """ID of the innermost open span, or None outside any span."""
        return self._stack[-1].span_id if self._stack else None

    def open_spans(self):
        """Still-open spans as JSON-ready dicts, outermost first.

        Exporters call this so an export taken mid-span (or after a
        crash) shows the in-flight work with ``"unfinished": true``
        instead of dropping it; the open span keeps accumulating and is
        recorded normally when it eventually closes.
        """
        now = self.clock.now
        out = []
        for open_span in self._stack:
            entry = {
                "span_id": open_span.span_id,
                "parent_id": open_span.parent_id,
                "name": open_span.name,
                "start_ms": open_span.start_ms,
                "end_ms": now + open_span.extra_ms,
                "duration_ms": now + open_span.extra_ms - open_span.start_ms,
                "unfinished": True,
            }
            if open_span.attrs:
                entry["attrs"] = dict(open_span.attrs)
            out.append(entry)
        return out

    def abort_open(self, reason="aborted"):
        """Force-close every open span, innermost first; returns the count.

        A raising scan module (or any third-party code handed the
        observer) can enter a span and blow up before exiting it; once
        the tenant is fenced off that span would stay on the stack
        forever, and every later trace export would report it as
        ``unfinished: true``. Aborting records each open span as a
        normal completed event ending *now*, tagged ``aborted: true``
        with the fencing reason, so exports tell the true story: the
        work was cut short, not still in flight.
        """
        closed = 0
        while self._stack:
            open_span = self._stack.pop()
            attrs = dict(open_span.attrs)
            attrs["aborted"] = True
            attrs["abort_reason"] = reason
            self._record(SpanEvent(
                span_id=open_span.span_id,
                parent_id=open_span.parent_id,
                name=open_span.name,
                start_ms=open_span.start_ms,
                end_ms=self.clock.now + open_span.extra_ms,
                attrs=attrs,
                wall_start_s=open_span.wall_start_s,
                wall_end_s=time.perf_counter() if self.capture_wall else None,
            ))
            closed += 1
        return closed

    def spans_named(self, name):
        return [event for event in self.events if event.name == name]

    def summary(self):
        """Per-name rollup: span counts and total simulated duration."""
        by_name = {}
        for event in self.events:
            row = by_name.setdefault(
                event.name, {"count": 0, "total_ms": 0.0}
            )
            row["count"] += 1
            row["total_ms"] += event.duration_ms
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "by_name": by_name,
        }

    def clear(self):
        self.events = []
        self.dropped = 0
