"""The CRIMES epoch loop.

Each epoch (Figure 2):

1. **Speculate** — the guest's programs run for the interval; device
   outputs land in the hypervisor buffer; stores set dirty bits (and pay
   the log-dirty fault tax).
2. **Suspend** — the domain is paused.
3. **Checkpoint pipeline** — bitscan / map / copy stage the epoch's dirty
   pages (not yet committed to the backup).
4. **Audit** — the Detector's modules introspect the paused VM, focused on
   the dirtied pages.
5. **Commit or respond** — on a clean audit the staged checkpoint becomes
   the new backup, buffered outputs are released, and the VM resumes; on a
   critical finding outputs are discarded and the Analyzer takes over.
"""

from repro.analyzer.analyzer import Analyzer
from repro.analyzer.timeline import AttackTimeline
from repro.checkpoint.checkpointer import Checkpointer, CopyFidelity
from repro.core.async_scan import AsyncScanner, OverlappedAudit
from repro.checkpoint.costmodel import CheckpointCostModel
from repro.core.config import CrimesConfig
from repro.detectors.base import Detector
from repro.errors import (
    AuditTimeoutError,
    CheckpointError,
    CrimesError,
    ForensicsError,
    GuestFault,
    HypervisorError,
    IntrospectionError,
    NetbufReleaseError,
)
from repro.faults.injector import FaultInjector
from repro.faults.planes import FaultPlane
from repro.hypervisor.xen import Hypervisor
from repro.log import get_logger
from repro.netbuf.buffer import OutputBuffer
from repro.obs.incident import build_incident_bundle
from repro.obs.observer import Observer
from repro.obs.registry import DEFAULT_COUNT_BUCKETS
from repro.obs.slo import SLOWatchdog
from repro.sim.clone import freeze_state, thaw_state
from repro.vmi.libvmi import VMIInstance

logger = get_logger("core")

#: Canonical phase order of the paper's pause breakdown (Table 1 / Fig 4).
PHASE_ORDER = ("suspend", "vmi", "bitscan", "map", "copy", "resume")


class EpochRecord:
    """Everything measured about one epoch.

    ``run_epoch`` opens the record when the epoch begins; the checkpoint
    step fills in the dirty counts and pause phases, the audit its
    ``detection``, and whichever exit ends the epoch stamps its
    ``outcome``: ``"committed"``, ``"held"``, ``"attack"`` or
    ``"rolled-back"``.
    """

    __slots__ = ("epoch", "start_ms", "interval_ms", "phase_ms", "dirty_pages",
                 "real_dirty", "logdirty_tax_ms", "work_done_ms",
                 "detection", "released_packets", "released_disk_writes",
                 "async_verdict", "outcome")

    def __init__(self, epoch, start_ms, interval_ms):
        self.epoch = epoch
        self.start_ms = start_ms
        self.interval_ms = interval_ms
        self.phase_ms = {}
        self.dirty_pages = self.real_dirty = 0
        self.logdirty_tax_ms = self.work_done_ms = 0.0
        self.released_packets = self.released_disk_writes = 0
        self.detection = self.async_verdict = self.outcome = None

    @property
    def committed(self):
        return self.outcome == "committed"

    @property
    def pause_ms(self):
        return sum(self.phase_ms.values())

    def __repr__(self):
        return "%s(epoch=%d, dirty=%d, pause=%.3fms, outcome=%s)" % (
            type(self).__name__, self.epoch, self.dirty_pages, self.pause_ms,
            self.outcome,
        )


class Crimes:
    """One protected VM under the CRIMES framework."""

    def __init__(self, vm, config=None, hypervisor=None, cost_model=None,
                 fault_plan=None, store=None):
        self.config = config if config is not None else CrimesConfig()
        self.hypervisor = (
            hypervisor if hypervisor is not None else Hypervisor(clock=vm.clock)
        )
        self.clock = self.hypervisor.clock
        self.vm = vm
        self.domain = self.hypervisor.create_domain(vm)
        self.costs = cost_model if cost_model is not None else CheckpointCostModel()

        # Cross-cutting observability: one registry, tracer and journal
        # shared by the epoch loop and every substrate component below it.
        observer = self.observer = Observer(self.clock, name=vm.name)
        registry = observer.registry
        self._pause_hists = {
            phase: registry.histogram(
                "epoch.pause.%s_ms" % phase,
                help="per-epoch %s pause phase" % phase)
            for phase in PHASE_ORDER
        }
        self._pause_total_hist = registry.histogram(
            "epoch.pause.total_ms", help="total per-epoch pause")
        self._dirty_pages_hist = registry.histogram(
            "epoch.dirty_pages", buckets=DEFAULT_COUNT_BUCKETS,
            help="dirty pages per epoch")
        self._committed_counter = registry.counter(
            "epoch.committed", help="epochs whose audit passed")
        self._rolled_back_counter = registry.counter(
            "epoch.rolled_back", help="epochs destroyed by a detection")
        self._detect_latency_gauge = registry.gauge(
            "epoch.detection_latency_ms",
            help="worst-case attack-to-verdict latency of the last audit")
        self._interval_gauge = registry.gauge(
            "epoch.interval_ms", help="current epoch interval")
        self._audit_error_counter = registry.counter(
            "faults.audit_error",
            help="audits that raised instead of returning a verdict")
        self._held_counter = observer.flight.bind_counter(
            "epoch.held", registry.counter(
                "epoch.held",
                help="epochs whose outputs were held in degraded mode"))
        self._shed_counter = registry.counter(
            "epoch.shed",
            help="held epochs shed (discarded + rolled back) after the "
                 "hold budget ran out")

        # Deterministic fault injection. The injector exists whenever a
        # plan was passed — even FaultPlan.none() — so the hook overhead
        # of an unarmed injector is a measured quantity, not a guess.
        self.injector = None
        if fault_plan is not None:
            self.injector = FaultInjector(fault_plan, observer=observer)

        # Interpose the output buffer between the guest devices and the world.
        self.external_sink = vm.output_sink
        self.buffer = OutputBuffer(
            self.external_sink, mode=self.config.safety.buffer_mode,
            clock=self.clock, observer=observer, injector=self.injector,
        )
        vm.set_output_sink(self.buffer)

        self.checkpointer = Checkpointer(
            self.domain,
            level=self.config.optimization,
            cost_model=self.costs,
            fidelity=self.config.fidelity,
            remote=self.config.remote_backup,
            nominal_frames=self.config.nominal_frames,
            history_capacity=self.config.history_capacity,
            observer=observer,
            injector=self.injector,
            store=store,
            owner=vm.name,
        )
        self.vmi = VMIInstance(self.domain, seed=self.config.seed,
                               observer=observer)
        if self.injector is not None:
            self.vmi.attach_injector(self.injector)
        self.detector = Detector(self.vmi, observer=observer)
        self.analyzer = Analyzer(
            self.domain, self.checkpointer, self.vmi, seed=self.config.seed
        )

        self.programs = []
        self._clean_program_states = []
        self.records = []
        self.started = False
        self.suspended = False
        self.epochs_run = 0
        self.last_outcome = None
        #: "healthy" or "degraded" — degraded means audited-clean output
        #: is parked in the buffer because the checkpointer or the
        #: downstream sink is unhealthy (hold-and-shed, §degraded modes).
        self.health = "healthy"
        self._held_epochs = 0          # consecutive holds this episode
        self.fault_rollbacks = 0       # epochs undone by escalated faults
        self.async_scanner = AsyncScanner(self.clock, observer=observer)
        #: Deferred-release queue for config.overlap_audit; idle otherwise.
        self.overlap = OverlappedAudit(self.clock, self.buffer,
                                       observer=observer)
        self.last_async_verdict = None
        #: The most recent incident bundle (built on any failed audit or
        #: failed async deep scan); None until something goes wrong.
        self.last_incident = None
        #: When True (honeypot mode), critical findings are logged as
        #: observations instead of suspending the VM; outputs flow into
        #: the quarantine sink the HoneypotSession installed.
        self.honeypot_active = False
        self._hooks = {"epoch": [], "attack": [], "async-verdict": []}
        # Always-on SLO watchdog: observation only by default. Pass a
        # controller via repro.obs.slo.attach_slo_watchdog to let budget
        # breaches steer the epoch interval.
        self.slo_watchdog = SLOWatchdog(observer)
        self.on("epoch", self.slo_watchdog.evaluate)

    # Lifetime holds (the journal bumps epoch.held) and sheds (held
    # epochs lost): read-only views of the registry counters.
    epochs_held = property(lambda self: self._held_counter.value)
    epochs_shed = property(lambda self: self._shed_counter.value)

    # -- setup --------------------------------------------------------------

    def install_module(self, module):
        """Install a Detector scan module."""
        return self.detector.install(module)

    def install_async_module(self, module):
        """Install a deep scan module run asynchronously on checkpoints.

        Asynchronous scans (§5.3's future-work extension) analyze the
        committed backup on a separate modeled core: they add nothing to
        the VM's pause time, but their verdicts lag the evidence and
        outputs released in the meantime have already escaped. Requires
        FULL copy fidelity (the backup image is the scan input).
        """
        if self.config.fidelity is not CopyFidelity.FULL:
            raise CrimesError(
                "asynchronous scanning needs a real backup image; "
                "use CopyFidelity.FULL"
            )
        return self.async_scanner.install(module)

    def add_program(self, program):
        """Attach a guest program (workload or attack) to the epoch loop."""
        program.bind(self.vm)
        self.programs.append(program)
        return program

    def on(self, event, callback):
        """Register a monitoring hook.

        Events: ``"epoch"`` (every EpochRecord), ``"attack"`` (the failed
        epoch's record), ``"async-verdict"`` (each completed deep scan).
        Hook exceptions are logged, never propagated — monitoring must
        not break protection.
        """
        if event not in self._hooks:
            raise CrimesError(
                "unknown hook %r (known: %s)"
                % (event, ", ".join(sorted(self._hooks)))
            )
        self._hooks[event].append(callback)
        return callback

    def _emit(self, event, payload):
        for callback in self._hooks[event]:
            try:
                callback(payload)
            # Hooks are third-party code: a raising hook must not unwind
            # the epoch loop, and the failure is logged with a traceback,
            # not dropped — hence the justified broad catch below.
            except Exception:  # noqa: BLE001  # crimeslint: ignore[CRL006]
                logger.exception(
                    "%s: %r hook raised; continuing", self.vm.name, event
                )

    def start(self):
        if self.started:
            raise CrimesError("framework already started")
        self.checkpointer.start()
        self.clock.advance(self.checkpointer.init_cost_ms)
        self._snapshot_program_states()
        # Outputs emitted while binding programs (e.g. a store seeding
        # its disk) predate the initial backup: they are not speculative,
        # and a later rollback must not destroy them — the guest state
        # that produced them survives in the backup. Release them now.
        self.buffer.commit()
        self.started = True
        logger.info(
            "%s: protection started (%s; %d scan modules, %d programs)",
            self.vm.name, self.config, len(self.detector.modules),
            len(self.programs),
        )

    def _snapshot_program_states(self):
        # Programs are third-party code, so their states keep pickle
        # isolation: frozen once per committed epoch, thawed only by the
        # rollback and replay paths that load them.
        self._clean_program_states = [
            freeze_state(program.state_dict()) for program in self.programs
        ]

    # -- the epoch loop ----------------------------------------------------------

    def run_epoch(self):
        """Run one full epoch; returns its :class:`EpochRecord`.

        If the audit fails and ``auto_respond`` is set, the Analyzer runs
        before this method returns (see :attr:`last_outcome`); the
        framework is then suspended and further epochs raise.
        """
        if not self.started:
            raise CrimesError("call start() before run_epoch()")
        if self.suspended:
            raise CrimesError("VM is suspended after an attack; cannot continue")

        interval = self.config.epoch_interval_ms
        start_ms = self.clock.now
        tracer = self.observer.tracer
        injector = self.injector
        record = EpochRecord(self.checkpointer.epoch + 1, start_ms, interval)
        self._interval_gauge.set(interval)
        self.observer.journal(
            "epoch.begin", epoch=record.epoch, interval_ms=interval,
        )
        if injector is not None:
            injector.begin_epoch(record.epoch)
        self.buffer.begin_epoch(record.epoch)

        with tracer.span("epoch") as epoch_span:
            # 1. Speculative execution.
            with tracer.span("epoch.speculate"):
                synthetic_dirty = 0
                for program in self.programs:
                    report = program.step(start_ms, interval) or {}
                    synthetic_dirty += int(report.get("synthetic_dirty", 0))
                self.clock.advance(interval)
                if injector is not None:
                    skew = injector.check(FaultPlane.CLOCK_SKEW)
                    if skew is not None and skew.fires():
                        # The epoch ran long: the timer interrupt arrived
                        # late, so the guest speculated extra time before
                        # the suspend landed.
                        self.clock.advance(skew.magnitude_ms)
                        self.observer.journal(
                            "fault.observed", epoch=record.epoch,
                            plane=FaultPlane.CLOCK_SKEW.value,
                            skew_ms=skew.magnitude_ms,
                        )

            # 2-3. Suspend + checkpoint pipeline.
            self.domain.pause()
            try:
                with tracer.span("epoch.checkpoint") as checkpoint_span:
                    checkpoint = self.checkpointer.run_checkpoint(
                        interval, synthetic_dirty=synthetic_dirty
                    )
                    dirty_pages = record.dirty_pages = checkpoint.dirty_pages
                    record.real_dirty = checkpoint.real_dirty
                    record.logdirty_tax_ms = self.costs.logdirty_running_ms(
                        dirty_pages)
                    phase_ms = record.phase_ms = {
                        "suspend": self.costs.suspend_ms(dirty_pages, interval),
                        "bitscan": checkpoint.phase_ms["bitscan"],
                        "map": checkpoint.phase_ms["map"],
                        "copy": checkpoint.phase_ms["copy"],
                    }
                    checkpoint_span.annotate(epoch=checkpoint.epoch,
                                             dirty_pages=dirty_pages)
                    # The clock is charged in one batch at epoch end; attribute
                    # this span's share so trace durations stay meaningful.
                    checkpoint_span.attribute_ms(sum(phase_ms.values()))
            except (CheckpointError, HypervisorError) as err:
                if injector is None:
                    raise
                # The pipeline could not stage this epoch at all. The
                # speculated interval is unauditable: undo it.
                record.phase_ms["suspend"] = self.costs.suspend_ms(0, interval)
                return self._fault_rollback(record, "checkpoint-failed", err)
            epoch_span.annotate(epoch=checkpoint.epoch)

            # 4. Audit. An audit that *errors* or *stalls* is as bad as
            # one that fails: the epoch was never proven clean, so it is
            # escalated to a synchronous rollback — never released.
            detection = None
            audit_error = None
            with tracer.span("epoch.audit") as audit_span:
                if self.config.scan_enabled:
                    try:
                        detection = self.detector.scan(
                            dirty_pfns=set(self.checkpointer.staged_pfns),
                            output_buffer=self.buffer,
                            epoch=checkpoint.epoch,
                            now_ms=self.clock.now,
                        )
                    except (IntrospectionError, ForensicsError,
                            GuestFault) as err:
                        # Previously this unwound the whole epoch loop
                        # silently; now it is observed evidence. A
                        # GuestFault is a read the guest's own pointers
                        # sent outside RAM.
                        audit_error = err
                        self._audit_error_counter.inc()
                        # Charge the partial audit work the scan did
                        # before it blew up.
                        phase_ms["vmi"] = self.vmi.take_cost_ms()
                        self.observer.journal(
                            "fault.observed", epoch=checkpoint.epoch,
                            site="audit", error=type(err).__name__,
                            detail=str(err),
                        )
                    else:
                        phase_ms["vmi"] = detection.cost_ms
                        audit_span.annotate(
                            findings=len(detection.findings),
                            attack=detection.attack_detected,
                        )
                        self.observer.journal(
                            "scan.verdict", epoch=checkpoint.epoch,
                            modules=list(detection.modules_run),
                            findings=len(detection.findings),
                            attack=detection.attack_detected,
                            cost_ms=detection.cost_ms,
                        )
                        for finding in detection.critical_findings():
                            self.observer.journal(
                                "scan.finding", epoch=checkpoint.epoch,
                                module=finding.module,
                                finding_kind=finding.kind,
                                summary=finding.summary,
                            )
                        if injector is not None:
                            stall = injector.check(FaultPlane.AUDIT_TIMEOUT)
                            if stall is not None and stall.fires():
                                # The scanner hung; the watchdog fired
                                # after the stall's magnitude.
                                phase_ms["vmi"] += stall.magnitude_ms
                                detection = None
                                audit_error = AuditTimeoutError(
                                    "audit stalled %.1f ms past its verdict "
                                    "(epoch %d)"
                                    % (stall.magnitude_ms, checkpoint.epoch)
                                )
                                injector.escalated(
                                    FaultPlane.AUDIT_TIMEOUT,
                                    checkpoint.epoch, site="audit",
                                    stall_ms=stall.magnitude_ms,
                                )
                        budget = self.config.audit_timeout_ms
                        if (audit_error is None and budget is not None
                                and phase_ms["vmi"] > budget):
                            detection = None
                            audit_error = AuditTimeoutError(
                                "audit took %.1f ms against a %.1f ms budget "
                                "(epoch %d)"
                                % (phase_ms["vmi"], budget, checkpoint.epoch)
                            )
                            self.observer.journal(
                                "fault.observed", epoch=checkpoint.epoch,
                                site="audit-timeout", budget_ms=budget,
                                cost_ms=phase_ms["vmi"],
                            )
                else:
                    phase_ms["vmi"] = 0.0
                audit_span.attribute_ms(phase_ms["vmi"])
                record.detection = detection

            # Overlapped audit: the scan just ran against the staged copy,
            # but in this mode it is modeled on a second core — its cost
            # leaves the pause and becomes release lag for this epoch's
            # outputs (deferred below). Verdicts, findings, and jitter
            # draws are identical to the pause-and-scan pipeline; only
            # where the time is charged differs.
            overlap_scan_ms = None
            if (self.config.overlap_audit and audit_error is None
                    and detection is not None):
                overlap_scan_ms = phase_ms["vmi"]
                phase_ms["vmi"] = 0.0

            if audit_error is not None:
                timed_out = isinstance(audit_error, AuditTimeoutError)
                return self._fault_rollback(
                    record, "audit-timeout" if timed_out else "audit-error",
                    audit_error)

            attack = detection is not None and detection.attack_detected
            if attack and self.honeypot_active:
                # Observation mode: the attack proceeds against the honeypot;
                # its outputs only ever reach the quarantine sink.
                attack = False
            self.epochs_run += 1
            if self.config.scan_enabled:
                # Worst case: the attack landed at the epoch's first
                # instruction and the verdict arrives after the audit.
                self._detect_latency_gauge.set(
                    interval + sum(phase_ms.values())
                    + (overlap_scan_ms or 0.0)
                )

            if attack:
                # Charge the pause phases spent before the verdict, then
                # destroy the attacked epoch.
                self.clock.advance(sum(phase_ms.values()))
                dropped_packets, dropped_writes = self._destroy_epoch("attack")
                logger.warning(
                    "%s: AUDIT FAILED at epoch %d — %s; destroyed %d packet(s) "
                    "and %d disk write(s) from the attacked epoch",
                    self.vm.name, checkpoint.epoch,
                    "; ".join(f.summary for f in detection.critical_findings()),
                    dropped_packets, dropped_writes,
                )
                self.suspended = True
                self._close_epoch(record, "attack")
                tracer.event(
                    "epoch.attack", epoch=checkpoint.epoch,
                    dropped_packets=dropped_packets,
                    dropped_disk_writes=dropped_writes,
                )
                self._emit("epoch", record)
                self._emit("attack", record)
                if self.config.auto_respond:
                    with tracer.span("epoch.respond"):
                        self.last_outcome = self.respond(detection, interval)
                self._open_incident(record.epoch, "audit-failed", detection)
                return record

            # 5. Commit, release, resume — or hold, if the backup sync or
            # the downstream sink is unhealthy (degraded mode).
            phase_ms["resume"] = self.costs.resume_ms(dirty_pages, interval)
            packets = disk_writes = 0
            sync_ok = False
            hold_reason = None
            with tracer.span("epoch.commit") as commit_span:
                try:
                    sync = self.checkpointer.commit()
                    sync_ok = True
                    phase_ms["copy"] += sync["backoff_ms"]
                except CheckpointError as err:
                    if injector is None:
                        raise
                    phase_ms["copy"] += self.checkpointer.last_sync_backoff_ms
                    hold_reason = "backup-sync"
                    logger.warning("%s: epoch %d held — %s",
                                   self.vm.name, checkpoint.epoch, err)
                if sync_ok and overlap_scan_ms is None:
                    try:
                        packets, disk_writes = self.buffer.commit()
                    except NetbufReleaseError as err:
                        hold_reason = "netbuf-release"
                        logger.warning("%s: epoch %d outputs held — %s",
                                       self.vm.name, checkpoint.epoch, err)
                    phase_ms["resume"] += self.buffer.last_release_backoff_ms
                commit_span.annotate(released_packets=packets,
                                     released_disk_writes=disk_writes,
                                     held=hold_reason is not None)

            if hold_reason is not None:
                return self._hold_epoch(record, hold_reason, sync_ok)

            self.domain.resume()
            self.clock.advance(sum(phase_ms.values()))
            if overlap_scan_ms is not None:
                # The epoch's outputs leave only when its verdict lands
                # (commit time + scan cost); drain whatever earlier
                # verdicts the clock has now passed. The released counts
                # below are therefore those of predecessor epochs whose
                # release windows closed at this boundary. A sink failure
                # inside drain keeps the entry queued for the next one.
                self.overlap.defer(checkpoint.epoch, overlap_scan_ms)
                packets, disk_writes = self.overlap.drain()
            if self.health == "degraded":
                # The sync/sink recovered and buffer.commit() flushed
                # every held epoch's outputs along with this one's.
                self.observer.journal(
                    "degraded.exit", epoch=checkpoint.epoch,
                    epochs_recovered=self._held_epochs,
                )
                self.health = "healthy"
                self._held_epochs = 0

            record.released_packets = packets
            record.released_disk_writes = disk_writes
            self._close_epoch(record, "committed", snapshot=True)
            record.async_verdict = self._drive_async_scanner(checkpoint.epoch)
        self._emit("epoch", record)
        if record.async_verdict is not None:
            self._emit("async-verdict", record.async_verdict)
        return record

    def _hold_epoch(self, record, reason, sync_ok):
        """Degraded mode: park an audited-clean epoch instead of failing.

        The audit passed but the epoch could not be made durable
        (``backup-sync``) or its outputs could not be flushed
        (``netbuf-release``). The VM keeps running — the epoch's outputs
        stay in the buffer — until either a later commit drains the
        backlog (``degraded.exit``) or ``config.max_hold_epochs``
        consecutive holds exhaust the budget and everything held is shed
        (discarded + rolled back, ``degraded.shed``).
        """
        record.outcome = "held"  # a shed below sees it passed its audit
        if self.health != "degraded":
            self.health = "degraded"
            self.observer.journal("degraded.enter", epoch=record.epoch,
                                  reason=reason)
        self._held_epochs += 1
        self.observer.journal(
            "epoch.held", epoch=record.epoch, reason=reason,
            held=self._held_epochs, limit=self.config.max_hold_epochs,
        )
        if self._held_epochs >= self.config.max_hold_epochs:
            if sync_ok:
                # The backup already advanced past this epoch; align the
                # program-state snapshot so the rollback target is
                # internally consistent.
                self._snapshot_program_states()
            return self._fault_rollback(record, "hold-budget-exhausted")
        self.domain.resume()
        self.clock.advance(record.pause_ms)
        # If the backup did advance (only the sink flush failed), the
        # rollback target now includes this epoch's program state.
        self._close_epoch(record, "held", snapshot=sync_ok)
        self._emit("epoch", record)
        return record

    def _fault_rollback(self, record, reason, error=None):
        """Synchronous rollback of an epoch the framework could not prove.

        Used when the checkpoint pipeline failed, the audit errored or
        timed out, or the degraded-mode hold budget ran out: the epoch's
        outputs are destroyed, guest memory and program state return to
        the last committed backup, and the VM resumes — the service
        degrades (lost epochs) but never emits unaudited output.
        """
        if self.config.fidelity is not CopyFidelity.FULL:
            # No backup image to restore from; all we can do is propagate.
            raise error if error is not None else CrimesError(
                "cannot roll back %s in ACCOUNTING fidelity" % reason
            )
        self.fault_rollbacks += 1
        if record.outcome is None:
            # A held epoch passed its audit and was counted there; an
            # epoch undone before its verdict is counted here.
            self.epochs_run += 1
        dropped_packets, dropped_writes = self._destroy_epoch(reason)
        if self._held_epochs:
            # Degraded-mode backlog goes down with the ship: the held
            # outputs were just discarded along with this epoch's.
            self._shed_counter.inc(self._held_epochs)
            self.observer.journal(
                "degraded.shed", epoch=record.epoch,
                epochs_shed=self._held_epochs, reason=reason,
            )
            self.health = "healthy"
            self._held_epochs = 0
        record.detection = None  # no verdict survives the rollback
        record.phase_ms["rollback"] = self.checkpointer.rollback()
        for program, state in zip(self.programs, self._clean_program_states):
            program.load_state_dict(thaw_state(state))
        self.domain.resume()
        self.clock.advance(record.pause_ms)
        logger.warning(
            "%s: epoch %d rolled back (%s)%s — destroyed %d packet(s) and "
            "%d disk write(s)",
            self.vm.name, record.epoch, reason,
            ": %s" % error if error is not None else "",
            dropped_packets, dropped_writes,
        )
        self.observer.journal(
            "epoch.rolled_back", epoch=record.epoch, reason=reason,
            dropped_packets=dropped_packets,
            dropped_disk_writes=dropped_writes,
        )
        self._close_epoch(record, "rolled-back")
        self._emit("epoch", record)
        return record

    def _destroy_epoch(self, reason):
        """Destroy all the epoch produced; returns the dropped outputs.

        A deep scan still in flight scans a timeline that just ended, so
        its late verdict must never land; deferred releases — audited-clean
        predecessors still waiting on their verdict time — go down too.
        The staged checkpoint is dropped (the backup stays clean) and the
        buffered ``(packets, disk_writes)`` are discarded, never released.
        """
        self.async_scanner.cancel(reason=reason)
        self.overlap.discard(reason=reason)
        self.checkpointer.abort()
        return self.buffer.discard()

    def _close_epoch(self, record, outcome, snapshot=False):
        """Stamp ``outcome``, keep the record and fold it into the registry.

        Committed and held epochs also end the programs' epoch; only then
        does ``snapshot`` freeze program state as the rollback target, so
        a later rollback+replay restores the complete state.
        """
        record.outcome = outcome
        if outcome != "rolled-back":
            record.work_done_ms = max(
                record.interval_ms - record.logdirty_tax_ms, 0.0)
        self.records.append(record)
        for phase, hist in self._pause_hists.items():
            hist.observe(record.phase_ms.get(phase, 0.0))
        self._pause_total_hist.observe(record.pause_ms)
        self._dirty_pages_hist.observe(record.dirty_pages)
        if outcome == "committed":
            self._committed_counter.inc()
        elif outcome != "held":  # held: the epoch.held counter tracks it
            self._rolled_back_counter.inc()
        if outcome in ("committed", "held"):
            for program in self.programs:
                program.on_epoch_end(record)
            if snapshot:
                self._snapshot_program_states()

    def _open_incident(self, epoch, reason, detection):
        """Journal an incident and snapshot its evidence bundle."""
        self.observer.journal("incident", epoch=epoch, reason=reason)
        self.last_incident = build_incident_bundle(
            self, reason=reason, detection=detection, incident_epoch=epoch,
        )

    def _drive_async_scanner(self, epoch):
        """Collect any finished deep scan; start one on the new backup."""
        if not self.async_scanner.modules:
            return None
        verdict = self.async_scanner.poll()
        if verdict is not None:
            self.observer.tracer.event(
                "async.verdict", epoch=verdict.job.snapshot_epoch,
                attack=verdict.attack_detected,
                lag_ms=verdict.detection_lag_ms,
            )
        if verdict is not None and verdict.attack_detected:
            # Weakened guarantee: the evidence epoch's outputs already
            # escaped; all we can do now is stop the VM and report.
            self.last_async_verdict = verdict
            self.suspended = True
            self.domain.suspend()
            logger.warning(
                "%s: ASYNC SCAN FAILED on checkpoint of epoch %d "
                "(verdict lagged the evidence by %.1f ms) — %s",
                self.vm.name, verdict.job.snapshot_epoch,
                verdict.detection_lag_ms,
                "; ".join(f.summary for f in verdict.critical_findings()),
            )
            self._open_incident(
                verdict.job.snapshot_epoch, "async-scan-failed",
                self.async_scanner.as_detection_result(verdict),
            )
            return verdict
        if self.async_scanner.busy:
            # Don't copy a snapshot the scanner cannot take anyway.
            self.async_scanner.skip_snapshot()
        else:
            self.async_scanner.offer_snapshot(
                self.vm, self.checkpointer.backup_snapshot(), epoch
            )
        return verdict

    def respond(self, detection, interval_ms):
        """Hand the first critical finding to the Analyzer."""
        finding = detection.critical_findings()[0]
        module = None
        for candidate in self.detector.modules:
            if candidate.name == finding.module:
                module = candidate
                break
        timeline = AttackTimeline(self.clock)
        outcome = self.analyzer.respond(
            finding, module,
            programs=self.programs,
            program_states=[thaw_state(state)
                            for state in self._clean_program_states],
            interval_ms=interval_ms,
            timeline=timeline,
        )
        if outcome.replayed:
            self.observer.journal(
                "replay", epoch=self.checkpointer.epoch,
                pinpointed=outcome.pinpoint is not None
                and outcome.pinpoint.matched,
            )
        self.observer.journal(
            "analyzer.report", epoch=self.checkpointer.epoch,
            title=outcome.report.title, replayed=outcome.replayed,
        )
        return outcome

    # -- convenience drivers ---------------------------------------------------------

    def run(self, max_epochs=None, until_ms=None):
        """Run epochs until a bound is hit, programs finish, or an attack."""
        while not self.suspended:
            if max_epochs is not None and self.epochs_run >= max_epochs:
                break
            if until_ms is not None and self.clock.now >= until_ms:
                break
            if self.programs and all(p.finished for p in self.programs):
                break
            record = self.run_epoch()
            if self.suspended:
                # Attack response (or async verdict) stopped the VM.
                # Held or fault-rolled-back epochs keep the loop running:
                # degraded modes are for riding faults out, not stopping.
                break
        return self.records

    # -- summary metrics -----------------------------------------------------------------

    def _committed_mean(self, value):
        committed = [r for r in self.records if r.committed]
        if not committed:
            return 0.0
        return sum(value(r) for r in committed) / len(committed)

    def mean_pause_ms(self):
        return self._committed_mean(lambda r: r.pause_ms)

    def mean_phase_breakdown(self):
        """Average per-phase cost across committed epochs (Table 1 rows)."""
        return {
            phase: self._committed_mean(lambda r: r.phase_ms.get(phase, 0.0))
            for phase in PHASE_ORDER
        }

    def mean_dirty_pages(self):
        return self._committed_mean(lambda r: r.dirty_pages)

    def metrics(self):
        """One plain-data snapshot of operational metrics.

        The monitoring surface an adopting provider would export: epoch
        throughput, pause behaviour, audit cost, buffer statistics, and
        incident state.
        """
        return {
            "epochs_run": self.epochs_run,
            "virtual_time_ms": self.clock.now,
            "suspended": self.suspended,
            "honeypot_active": self.honeypot_active,
            "mean_pause_ms": self.mean_pause_ms(),
            "mean_dirty_pages": self.mean_dirty_pages(),
            "phase_breakdown_ms": self.mean_phase_breakdown(),
            "scans_run": self.detector.scans_run,
            "scan_cost_total_ms": self.detector.total_cost_ms,
            "packets_released": self.buffer.committed_packets,
            "packets_discarded": self.buffer.discarded_packets,
            "disk_writes_released": self.buffer.committed_disk_writes,
            "disk_writes_discarded": self.buffer.discarded_disk_writes,
            "checkpoints_committed": self.observer.registry.get(
                "checkpoint.commits").value,
            "pages_copied_total": self.checkpointer.total_pages_copied,
            "async_jobs_started": self.async_scanner.jobs_started,
            "async_snapshots_skipped": self.async_scanner.snapshots_skipped,
            "async_jobs_cancelled": self.async_scanner.jobs_cancelled,
            "backup_memory_bytes": self.checkpointer.retained_bytes(),
            "health": self.health,
            "epochs_held": self.epochs_held,
            "epochs_shed": self.epochs_shed,
            "fault_rollbacks": self.fault_rollbacks,
            "faults": (self.injector.summary()
                       if self.injector is not None else None),
        }
