"""Per-layer spans recorded from the benchmark's side of each layer.

Nothing under ``src/`` changes: :meth:`LayerTracer.installed` swaps the
public functions each layer exposes for wrappers that open a span around
the call, and puts the originals back on exit. The span store is
``repro.obs.tracer.Tracer(capture_wall=True, max_events=None)`` — one per
thread, owned by the benchmark and never by a tenant's observer.

Between operations the workload calls :meth:`LayerTracer.fold`, which
turns the finished spans into per-layer totals (calls, wall time, self
time = wall time minus the wrapped child spans inside it) and drops them,
so memory stays flat however long the run is.

Fleet workers fork after the wrappers are in place. Each worker folds its
own spans around ``ShardHost.run_rounds`` and ships only the totals back
inside the batch report; the scheduling process merges them when
``ShardWorkerHandle.finish_rounds`` returns.
"""

import contextlib
import functools
import json
import pickle
import threading
import time

from repro.analyzer.analyzer import Analyzer
from repro.checkpoint.checkpointer import Checkpointer
from repro.checkpoint.store import PageStore
from repro.core import crimes as crimes_module
from repro.core.crimes import Crimes
from repro.core.fleet import FleetScheduler
from repro.core.fleet_worker import ShardHost, ShardWorkerHandle
from repro.detectors.canary import CanaryScanModule
from repro.detectors.malware import MalwareScanModule
from repro.detectors.syscall_table import TableIntegrityModule
from repro.hypervisor.xen import Domain
from repro.netbuf.buffer import OutputBuffer
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLOWatchdog
from repro.obs.tracer import Tracer
from repro.vmi.libvmi import VMIInstance
from repro.workloads.attacks import OverflowAttackProgram
from repro.workloads.kvstore import KeyValueStoreProgram

from programs import CanaryChurnProgram, DirtyPagesProgram

#: Per-layer metric -> the registry counter summed into it.
COUNTERS = {
    "checkpoint.copy_retries": "checkpoint.copy_retries",
    "checkpoint.sync_retries": "checkpoint.sync_retries",
    "faults.escalated": "faults.escalated_total",
}

#: Key of the worker's shipment inside a fleet batch report.
_SHIPMENT = "crimes_bench"


def _scan_layer(module):
    return "detectors.%s.scan" % module.name


def _slab_entries(result):
    return len(result[1])


def epoch_targets():
    """``(layer, owner, attribute, item_count)`` for the epoch layers."""
    targets = [
        ("core.run_epoch", Crimes, "run_epoch", None),
        ("hypervisor.harvest_dirty", Domain, "harvest_dirty", None),
        ("checkpoint.run_checkpoint", Checkpointer, "run_checkpoint", None),
        ("checkpoint.commit", Checkpointer, "commit", None),
        ("checkpoint.abort", Checkpointer, "abort", None),
        ("checkpoint.rollback", Checkpointer, "rollback", None),
        ("store.ingest_frames", PageStore, "ingest_frames", None),
        (_scan_layer, CanaryScanModule, "scan", None),
        (_scan_layer, MalwareScanModule, "scan", None),
        (_scan_layer, TableIntegrityModule, "scan", None),
        ("netbuf.commit", OutputBuffer, "commit", None),
        ("netbuf.discard", OutputBuffer, "discard", None),
        ("obs.flight.record", FlightRecorder, "record", None),
        ("obs.slo.evaluate", SLOWatchdog, "evaluate", None),
        ("analyzer.respond", Analyzer, "respond", None),
        # A module-level function: the epoch loop calls it through the
        # name it imported, so that is the binding to wrap.
        ("obs.incident.build", crimes_module, "build_incident_bundle", None),
        ("fleet.send", ShardWorkerHandle, "start_rounds", None),
    ]
    for program in (CanaryChurnProgram, DirtyPagesProgram,
                    KeyValueStoreProgram, OverflowAttackProgram):
        targets.append(("guest.step", program, "step", None))
    for attr in sorted(vars(VMIInstance)):
        if attr.startswith(("read_", "list_")):
            count = _slab_entries if attr == "read_canary_table_slab" \
                else None
            targets.append(("vmi.read", VMIInstance, attr, count))
    return targets


def service_targets():
    """``(layer, owner, attribute, item_count)`` for the case service."""
    from repro.service import vault as vault_module
    from repro.service.http import CaseService
    from repro.service.vault import CaseVault

    return [
        ("service.handle", CaseService, "handle_get", None),
        ("service.handle", CaseService, "handle_post", None),
        ("service.vault.ingest", CaseVault, "ingest", None),
        ("service.vault.validate", vault_module, "validate_bundle", None),
        ("service.vault.findings", CaseVault, "findings", None),
        ("service.vault.case", CaseVault, "case", None),
    ]


def virtual_totals(records):
    """Summed virtual pause phases over epoch ``records``."""
    totals = {"epochs": 0}
    for epoch in records:
        totals["epochs"] += 1
        for phase, value in epoch.phase_ms.items():
            totals[phase] = totals.get(phase, 0.0) + value
    return totals


def counter_totals(tenants):
    """The :data:`COUNTERS` summed over ``tenants`` (Crimes objects)."""
    totals = dict.fromkeys(COUNTERS, 0)
    for crimes in tenants:
        registry = crimes.observer.registry
        for metric, counter in COUNTERS.items():
            if counter in registry:
                totals[metric] += registry.get(counter).value
    return totals


class FleetTotals:
    """What the fleet workers shipped back, batch by batch."""

    def __init__(self):
        self.batches = 0
        #: Worker time inside ``run_rounds``, summed over workers.
        self.busy_s = 0.0
        #: The busier worker's time, summed over batches.
        self.busy_max_s = 0.0
        #: Pickled size of the batch reports, summed over workers.
        self.report_bytes = 0
        #: Shard name -> latest counters, store stats and (once the
        #: checked round is reached) virtual phase totals.
        self.shards = {}
        self._batch_busy = []

    def add(self, shard, shipment, store):
        self.busy_s += shipment["busy_s"]
        self._batch_busy.append(shipment["busy_s"])
        self.report_bytes += shipment["report_bytes"]
        latest = self.shards.setdefault(shard, {})
        latest["counters"] = shipment["counters"]
        latest["store"] = store
        if shipment["virtual"] is not None:
            latest["virtual"] = shipment["virtual"]

    def end_batch(self):
        if self._batch_busy:
            self.batches += 1
            self.busy_max_s += max(self._batch_busy)
            self._batch_busy = []


class _SpanClock:
    """Virtual clock of the tenant being traced (0 when there is none)."""

    source = None

    @property
    def now(self):
        return self.source.now if self.source is not None else 0.0


class LayerTracer:
    """Benchmark-owned span store with per-layer totals."""

    def __init__(self, out=None, virtual_at=None):
        #: Open text file receiving one JSON span per line, or None.
        self.out = out
        #: Fleet round at which workers report the virtual phase totals.
        self.virtual_at = virtual_at
        self.clock = _SpanClock()
        self._local = threading.local()
        self._tracers = []
        self._lock = threading.Lock()
        self._restore = []
        self.reset()

    # -- span store ---------------------------------------------------------

    def follow(self, clock):
        """Stamp spans with ``clock``'s virtual time (one tenant runs)."""
        self.clock.source = clock

    def _tracer(self):
        tracer = getattr(self._local, "tracer", None)
        if tracer is None:
            tracer = Tracer(self.clock, capture_wall=True, max_events=None)
            self._local.tracer = tracer
            with self._lock:
                self._tracers.append(tracer)
        return tracer

    def reset(self):
        """Drop every span and total recorded so far (end of warm-up)."""
        with self._lock:
            for tracer in self._tracers:
                tracer.clear()
        #: layer -> [calls, wall_s, self_s, items]
        self.totals = {}
        self.fleet = FleetTotals()

    def fold(self):
        """Fold finished spans into :attr:`totals`; no span may be open."""
        with self._lock:
            tracers = list(self._tracers)
        for tracer in tracers:
            events, tracer.events = tracer.events, []
            child_s = {}
            for event in events:
                if event.parent_id is not None:
                    child_s[event.parent_id] = (child_s.get(event.parent_id,
                                                            0.0)
                                                + event.wall_duration_s)
            for event in events:
                wall = event.wall_duration_s
                row = self.totals.setdefault(event.name, [0, 0.0, 0.0, 0])
                row[0] += 1
                row[1] += wall
                row[2] += wall - child_s.get(event.span_id, 0.0)
                row[3] += event.attrs.get("items", 0)
                if self.out is not None:
                    record = event.to_dict()
                    record["wall_start_s"] = event.wall_start_s
                    self.out.write(json.dumps(record, sort_keys=True) + "\n")

    def merge(self, totals):
        """Add totals folded elsewhere (a fleet worker, the service)."""
        for name, (calls, wall, self_s, items) in totals.items():
            row = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += calls
            row[1] += wall
            row[2] += self_s
            row[3] += items

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, layer, count):
        owner = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args[0]) if callable(layer) else layer
            with owner._tracer().span(name) as span:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.annotate(items=count(result))
                return result

        return traced

    def _patch(self, owner, attr, wrapper):
        original = vars(owner).get(attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self, targets, fleet=False):
        """Wrap ``targets`` (and, with ``fleet``, the shard protocol)
        for the duration of the block."""
        for layer, owner, attr, count in targets:
            self._patch(owner, attr,
                        self._span(getattr(owner, attr), layer, count))
        if fleet:
            self._install_fleet()
        try:
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- fleet --------------------------------------------------------------

    def _install_fleet(self):
        layer = self
        run_rounds = ShardHost.run_rounds
        finish_rounds = ShardWorkerHandle.finish_rounds
        fleet_rounds = FleetScheduler.run_rounds

        @functools.wraps(run_rounds)
        def worker_run_rounds(shard, rounds):
            # Runs inside the worker: anything recorded before this batch
            # (admission, the parent's spans copied by fork) is not ours,
            # and the span file belongs to the parent.
            layer.reset()
            layer.out = None
            started = time.perf_counter()
            report = run_rounds(shard, rounds)
            busy_s = time.perf_counter() - started
            layer.fold()
            tenants = shard.host.tenants.values()
            report[_SHIPMENT] = {
                "busy_s": busy_s,
                "report_bytes": len(pickle.dumps(report)),
                "layers": layer.totals,
                "counters": counter_totals(record.crimes
                                           for record in tenants),
                "virtual": (virtual_totals(epoch for record in tenants
                                           for epoch in record.crimes.records)
                            if shard.host.rounds_run == layer.virtual_at
                            else None),
            }
            return report

        @functools.wraps(finish_rounds)
        def wait_rounds(handle):
            with layer._tracer().span("fleet.wait"):
                report = finish_rounds(handle)
            shipment = report.pop(_SHIPMENT)
            layer.merge(shipment["layers"])
            layer.fleet.add(handle.name, shipment, report.get("store"))
            return report

        @functools.wraps(fleet_rounds)
        def scheduler_run_rounds(scheduler, rounds):
            # One batch per call: fleet_store drives one round at a time
            # with batch_rounds=1.
            ran = fleet_rounds(scheduler, rounds)
            layer.fleet.end_batch()
            return ran

        self._patch(ShardHost, "run_rounds", worker_run_rounds)
        self._patch(ShardWorkerHandle, "finish_rounds", wait_rounds)
        self._patch(FleetScheduler, "run_rounds", scheduler_run_rounds)
