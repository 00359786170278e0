"""The Observer: one handle bundling a registry, a tracer and a journal.

Every :class:`~repro.core.crimes.Crimes` instance owns one
(``crimes.observer``) and hands it to each component it builds — the
checkpointer, detector, VMI instance, output buffer, async scanner,
overlapped audit and fault injector — as their one ``observer``
argument; a component built alone makes its own. Components record
metrics in ``observer.registry`` and events in ``observer.flight``, the
tenant's hash-chained flight journal; a counter that counts one journal
kind is bound to it (:meth:`~repro.obs.flight.FlightRecorder.bind_counter`)
and bumped by the journal. ``summary()`` is the machine-readable export
the CLI prints and the BENCH writer persists.
"""

from repro.obs.exporters import (
    bench_payload,
    export_jsonl,
    export_prometheus,
    write_bench_json,
)
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer


class Observer:
    """Metrics + tracing + flight journal for one protected VM."""

    def __init__(self, clock, name="vm"):
        self.name = name
        self.clock = clock
        self.registry = MetricsRegistry(clock)
        self.tracer = Tracer(clock)
        self.flight = FlightRecorder(clock, tenant=name)

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs)

    def journal(self, kind, epoch=None, **attrs):
        """Record a flight event, causally tied to the current span."""
        return self.flight.record(
            kind, epoch=epoch, span_id=self.tracer.current_span_id, **attrs
        )

    # -- exports -----------------------------------------------------------

    def summary(self):
        """Plain-data snapshot: all instruments + the trace rollup."""
        return {
            "observer": self.name,
            "virtual_time_ms": self.clock.now,
            "metrics": self.registry.snapshot(),
            "trace": self.tracer.summary(),
            "flight": self.flight.summary(),
        }

    def prometheus_text(self):
        return export_prometheus(self.registry)

    def write_trace_jsonl(self, path):
        """Write the span stream as JSONL, including still-open spans.

        Open spans (an export can happen mid-epoch, or after a crash cut
        the loop short) are emitted last with ``"unfinished": true``
        instead of being silently dropped.
        """
        events = list(self.tracer.events) + self.tracer.open_spans()
        return export_jsonl(events, path)

    def write_bench(self, directory, name, extra=None):
        payload = bench_payload(name, registry=self.registry, extra=extra)
        return write_bench_json(directory, name, payload)
