"""Asynchronous checkpoint scanning (the §5.3 future-work extension).

Expensive analyses run against the *committed backup checkpoint* on a
separate (modeled) core while the VM keeps executing epochs. The VM's
pause time is untouched; in exchange the guarantee weakens from
"zero-window" to a bounded detection lag:

    lag = (time between the snapshot and the verdict)
        = scan queueing + scan duration  (plus the epoch that produced
          the evidence, if the attack landed mid-epoch)

Outputs released while the scan was in flight have already escaped —
exactly the Best-Effort-style trade the paper describes for expensive
scanners like Volatility.
"""

from repro.detectors.base import DetectionResult, Severity
from repro.errors import NetbufReleaseError
from repro.forensics.dumps import MemoryDump
from repro.obs.observer import Observer


class AsyncScanJob:
    """One in-flight deep scan of a committed checkpoint."""

    __slots__ = ("dump", "snapshot_epoch", "snapshot_time_ms", "started_at",
                 "completes_at", "modules")

    def __init__(self, dump, snapshot_epoch, snapshot_time_ms, started_at,
                 completes_at, modules):
        self.dump = dump
        self.snapshot_epoch = snapshot_epoch
        self.snapshot_time_ms = snapshot_time_ms
        self.started_at = started_at
        self.completes_at = completes_at
        self.modules = modules

    def __repr__(self):
        return "AsyncScanJob(epoch=%d, completes_at=%.1fms)" % (
            self.snapshot_epoch,
            self.completes_at,
        )


class AsyncVerdict:
    """The outcome of one completed deep scan."""

    __slots__ = ("job", "findings", "verdict_time_ms")

    def __init__(self, job, findings, verdict_time_ms):
        self.job = job
        self.findings = findings
        self.verdict_time_ms = verdict_time_ms

    @property
    def attack_detected(self):
        return any(f.severity is Severity.CRITICAL for f in self.findings)

    @property
    def detection_lag_ms(self):
        """Time between the scanned snapshot and the verdict."""
        return self.verdict_time_ms - self.job.snapshot_time_ms

    def critical_findings(self):
        return [f for f in self.findings if f.severity is Severity.CRITICAL]


class DeferredRelease:
    """One audited-clean epoch whose outputs await their verdict time."""

    __slots__ = ("epoch", "ready_at_ms", "scan_cost_ms")

    def __init__(self, epoch, ready_at_ms, scan_cost_ms):
        self.epoch = epoch
        self.ready_at_ms = ready_at_ms
        self.scan_cost_ms = scan_cost_ms

    def __repr__(self):
        return "DeferredRelease(epoch=%d, ready_at=%.1fms)" % (
            self.epoch, self.ready_at_ms)


class OverlappedAudit:
    """Deferred output release for the overlapped synchronous audit.

    With ``config.overlap_audit`` the end-of-epoch scan runs against the
    staged copy on a modeled second core: the guest resumes right after
    the copy phase and the scan cost becomes *release lag* instead of
    pause time. The verdict itself is computed at the boundary (same
    reads, same findings, same jitter draws as the pause-and-scan
    pipeline); what moves in virtual time is when the epoch's buffered
    outputs may leave — never before ``commit_time + scan_cost``, so the
    escape window stays zero.

    The queue holds one entry per committed-but-unreleased epoch.
    :meth:`drain` releases every entry whose verdict time has passed; a
    downstream sink failure (NETBUF_RELEASE fault) leaves the entry
    queued so the next boundary retries it.
    """

    def __init__(self, clock, buffer, observer=None):
        self.clock = clock
        self.buffer = buffer
        if observer is None:
            observer = Observer(clock)
        self._flight = observer.flight
        self._queue = []
        self.releases = 0
        self.retries = 0
        self.max_release_lag_ms = 0.0
        registry = observer.registry
        self._lag_gauge = registry.gauge(
            "overlap.release_lag_ms",
            help="commit-to-release lag of the latest overlapped epoch")
        self._queue_gauge = registry.gauge(
            "overlap.queued_epochs",
            help="committed epochs whose outputs await their verdict")

    @property
    def queued(self):
        """Epochs committed but not yet released, oldest first."""
        return [entry.epoch for entry in self._queue]

    def defer(self, epoch, scan_cost_ms):
        """Queue a clean epoch's outputs until its verdict time passes."""
        entry = DeferredRelease(
            epoch=epoch,
            ready_at_ms=self.clock.now + scan_cost_ms,
            scan_cost_ms=scan_cost_ms,
        )
        self._queue.append(entry)
        self._flight.record(
            "overlap.deferred", epoch=epoch,
            ready_at_ms=entry.ready_at_ms,
        )
        self._queue_gauge.set(len(self._queue))
        return entry

    def drain(self):
        """Release every queued epoch whose verdict time has passed.

        Returns ``(packets, disk_writes)`` released. Entries stay in
        commit order; a sink failure stops the drain (order-preserving —
        a newer epoch must not overtake a held older one).
        """
        packets = disk_writes = 0
        while self._queue and self._queue[0].ready_at_ms <= self.clock.now:
            entry = self._queue[0]
            try:
                released = self.buffer.release(entry.epoch)
            except NetbufReleaseError:
                self.retries += 1
                self._flight.record("overlap.release_held",
                                    epoch=entry.epoch)
                break
            self._queue.pop(0)
            packets += released[0]
            disk_writes += released[1]
            self.releases += 1
            lag = self.clock.now - (entry.ready_at_ms - entry.scan_cost_ms)
            self.max_release_lag_ms = max(self.max_release_lag_ms, lag)
            self._lag_gauge.set(lag)
        self._queue_gauge.set(len(self._queue))
        return packets, disk_writes

    def flush(self):
        """Release everything regardless of verdict time (shutdown path).

        Used when the epoch loop stops for good: the scans have no VM to
        race against any more, so waiting buys nothing.
        """
        if self._queue:
            barrier = max(entry.ready_at_ms for entry in self._queue)
            if self.clock.now < barrier:
                self.clock.advance(barrier - self.clock.now)
        return self.drain()

    def discard(self, reason="rollback"):
        """Drop the queue (the buffer's discard destroyed the outputs).

        A rollback annihilates every unreleased epoch — including
        audited-clean predecessors still waiting on their verdict time.
        Conservative by design: nothing unreleased survives an incident.
        """
        dropped, self._queue = [e.epoch for e in self._queue], []
        if dropped:
            self._flight.record("overlap.discarded", epochs=dropped,
                                reason=reason)
        self._queue_gauge.set(0)
        return dropped


class AsyncScanner:
    """Schedules deep scans over committed checkpoints.

    One scan runs at a time (one dedicated scanning core, as Aftersight
    dedicates a core — but here only *memory*, not a replaying CPU, is
    consumed). While busy, newer checkpoints are skipped, not queued:
    scanning the freshest committed state dominates scanning stale ones.
    """

    def __init__(self, clock, observer=None):
        self.clock = clock
        if observer is None:
            observer = Observer(clock)
        self._flight = observer.flight
        self.modules = []
        self._active_job = None
        self.verdicts = []
        registry = observer.registry
        self._jobs_counter = self._flight.bind_counter(
            "async.dispatch", registry.counter(
                "async.jobs_started", help="deep scans dispatched"))
        self._skipped_counter = registry.counter(
            "async.snapshots_skipped",
            help="checkpoints not scanned because the core was busy")
        self._cancelled_counter = self._flight.bind_counter(
            "async.cancelled", registry.counter(
                "async.jobs_cancelled",
                help="in-flight scans abandoned because their snapshot "
                     "was rolled back"))
        self._lag_gauge = registry.gauge(
            "async.detection_lag_ms",
            help="snapshot-to-verdict lag of the latest deep scan")
        self._duration_hist = registry.histogram(
            "async.scan_duration_ms", help="deep scan durations")

    def install(self, module):
        self.modules.append(module)
        return module

    @property
    def busy(self):
        return self._active_job is not None

    # Read-only views of the registry counters (the journal bumps the
    # first two per async.dispatch / async.cancelled event).
    jobs_started = property(lambda self: self._jobs_counter.value)
    jobs_cancelled = property(lambda self: self._cancelled_counter.value)
    snapshots_skipped = property(lambda self: self._skipped_counter.value)

    def skip_snapshot(self):
        """Record a checkpoint passed over because the scanner was busy."""
        self._skipped_counter.inc()

    def offer_snapshot(self, vm, snapshot, epoch):
        """Offer a freshly committed checkpoint for deep scanning."""
        if not self.modules:
            return None
        if self._active_job is not None:
            self.skip_snapshot()
            return None
        dump = MemoryDump.from_snapshot(vm, snapshot,
                                        label="async-epoch-%d" % epoch)
        total_cost = sum(module.cost_ms(dump) for module in self.modules)
        job = AsyncScanJob(
            dump=dump,
            snapshot_epoch=epoch,
            snapshot_time_ms=snapshot.taken_at,
            started_at=self.clock.now,
            completes_at=self.clock.now + total_cost,
            modules=list(self.modules),
        )
        self._active_job = job
        self._flight.record(
            "async.dispatch", epoch=epoch,
            completes_at_ms=job.completes_at,
            modules=[module.name for module in job.modules],
        )
        return job

    def cancel(self, reason="rollback"):
        """Abandon the in-flight scan (its snapshot was just undone).

        A deep scan of an epoch the framework rolled back must never
        deliver a verdict: the state it scanned no longer exists, so a
        late "clean" would vouch for outputs that were already discarded
        and a late "attack" would punish a guest that was already reset.
        Returns the cancelled job, or None if the scanner was idle.
        """
        job, self._active_job = self._active_job, None
        if job is None:
            return None
        self._flight.record("async.cancelled", epoch=job.snapshot_epoch,
                            reason=reason)
        return job

    def poll(self):
        """Return the finished scan's verdict once the clock passes it."""
        job = self._active_job
        if job is None or self.clock.now < job.completes_at:
            return None
        self._active_job = None
        findings = []
        for module in job.modules:
            findings.extend(module.scan(job.dump) or [])
        verdict = AsyncVerdict(job, findings, verdict_time_ms=self.clock.now)
        self.verdicts.append(verdict)
        self._lag_gauge.set(verdict.detection_lag_ms)
        self._duration_hist.observe(self.clock.now - job.started_at)
        self._flight.record(
            "scan.verdict", epoch=job.snapshot_epoch, async_scan=True,
            findings=len(findings), attack=verdict.attack_detected,
            lag_ms=verdict.detection_lag_ms,
        )
        return verdict

    def as_detection_result(self, verdict):
        """Adapt an async verdict to the Detector's result type."""
        return DetectionResult(
            verdict.findings,
            cost_ms=0.0,  # paid off the VM's critical path
            modules_run=[module.name for module in verdict.job.modules],
            epoch=verdict.job.snapshot_epoch,
        )
