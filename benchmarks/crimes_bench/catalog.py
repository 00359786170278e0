"""What the benchmark measures: workloads, metrics, units, bounds.

This table is the single source for ``run.py`` (which metrics a run
prints), ``compare.py`` (each metric's direction and bound) and the
root ``BENCHMARK.json`` (a test pins the two together).
"""

#: name -> why the workload exists (one line each).
WORKLOADS = {
    "canary_audit": "64 MiB guest, 24k live heap tripwires, sparse dirty "
                    "set: audit (detectors, vmi) and guest-state freezing "
                    "dominate the epoch",
    "dirty_rollback": "2048 random dirty pages per epoch plus a seeded "
                      "audit-timeout fault: checkpoint commit and "
                      "rollback dominate, audit is under 1%",
    "fleet_store": "128 small tenants on 2 process workers with a page "
                   "store: fixed per-epoch overhead, store dedup and "
                   "fleet IPC dominate",
    "case_service": "2 keep-alive callers, ~25 req/s, against the case "
                    "service: HTTP handling and vault reads beside "
                    "verified writes",
}

#: Workload order for the all-workloads mode of run.py.
ORDER = tuple(WORKLOADS)


class Metric:
    """One reported number: name, unit, direction and regression bound."""

    __slots__ = ("name", "unit", "better", "bound")

    def __init__(self, name, unit, better="lower", bound=None):
        self.name = name
        self.unit = unit
        self.better = better
        self.bound = bound

    def improved(self, new, old):
        """True when ``new`` is strictly better than ``old``."""
        return new > old if self.better == "higher" else new < old

    def worse_by(self, new, old):
        """How much worse ``new`` is than ``old``, as a share of ``old``."""
        change = (new - old) / abs(old)
        return -change if self.better == "higher" else change


#: Metrics a user of the system sees; every workload reports all of
#: them. Throughput is epochs/s (canary_audit, dirty_rollback),
#: tenant-epochs/s (fleet_store) or completed requests/s
#: (case_service); latency is per epoch, per fleet round, or per
#: request. Each bound is about twice the
#: largest run-to-run quartile spread any workload showed in the
#: calibration runs under calibration/ (capped at 0.25); set-up time
#: gets the largest.
END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("throughput_per_s", "1/s", "higher", bound=0.20),
    Metric("latency_p50_ms", "ms", "lower", bound=0.20),
    Metric("latency_p90_ms", "ms", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
)

#: Layers traced as spans around calls into their public functions.
#: Each yields ``<layer>.calls`` and ``<layer>.self_ms``, both per
#: operation (epoch, fleet round or request).
SPAN_LAYERS = (
    "core.run_epoch",
    "guest.step",
    "hypervisor.harvest_dirty",
    "checkpoint.run_checkpoint",
    "checkpoint.commit",
    "checkpoint.abort",
    "checkpoint.rollback",
    "store.ingest_frames",
    "detectors.canary.scan",
    "detectors.malware.scan",
    "detectors.syscall-table.scan",
    "vmi.read",
    "netbuf.commit",
    "netbuf.discard",
    "obs.flight.record",
    "obs.slo.evaluate",
    "analyzer.respond",
    "obs.incident.build",
    "fleet.send",
    "fleet.wait",
    "service.handle",
    "service.vault.ingest",
    "service.vault.validate",
    "service.vault.findings",
    "service.vault.case",
)

#: Virtual pause phases the cost model charges (ms per epoch, over the
#: checked prefix, so they are bit-identical from run to run).
VIRTUAL_PHASES = ("suspend", "bitscan", "map", "copy", "vmi", "resume",
                  "rollback")

PER_LAYER = tuple(
    [metric
     for layer in SPAN_LAYERS
     for metric in (Metric("%s.calls" % layer, "count/op"),
                    Metric("%s.self_ms" % layer, "ms/op"))]
    + [
        Metric("detectors.canary.checked_ratio", "ratio", "higher"),
        Metric("checkpoint.copy_retries", "count/op"),
        Metric("checkpoint.sync_retries", "count/op"),
        Metric("faults.escalated", "count/op"),
        Metric("checkpoint.resident_mb", "MB"),
        Metric("store.resident_mb", "MB"),
        Metric("store.dedup_hit_ratio", "ratio", "higher"),
        Metric("fleet.report_kb", "KiB/op"),
        Metric("fleet.worker_busy_ms", "ms/op"),
        Metric("fleet.ipc_overhead_ms", "ms/op"),
        Metric("service.wire_ms", "ms/op"),
    ]
    + [Metric("virtual.%s_ms" % phase, "ms/op") for phase in VIRTUAL_PHASES]
    + [
        Metric("trace.overhead_ops_per_s", "1/s"),
        Metric("trace.overhead_p50_pct", "%"),
        Metric("host.probe_ms", "ms"),
    ]
)

RUN_SECONDS = 15


def metric(name):
    """Look a metric up by name in either table."""
    for entry in END_TO_END + PER_LAYER:
        if entry.name == name:
            return entry
    raise KeyError(name)


def benchmark_json():
    """The root ``BENCHMARK.json`` document this catalog describes."""
    return {
        "command": ["python3", "benchmarks/crimes_bench/run.py"],
        "paths": ["benchmarks/crimes_bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
