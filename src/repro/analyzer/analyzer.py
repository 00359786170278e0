"""The Analyzer: orchestrates the response to a critical finding (§3.3).

Two stages, as in the paper:

* **Rollback and Replay (optional)** — when the triggering module can name
  memory addresses to watch (``replay_targets``), the epoch is replayed
  from the clean backup under write trapping to pinpoint the attacking
  store.
* **Postmortem Analysis** — memory dumps from the last clean checkpoint,
  the failed-audit point, and (if replayed) the attack point are fed to
  the Volatility battery, and full system checkpoints are "written to
  disk" (priced by the cost model; §5.5 notes 100+ seconds for large VMs).
"""

from repro.analyzer.postmortem import PostMortem
from repro.analyzer.replay import ReplayEngine
from repro.analyzer.timeline import AttackTimeline
from repro.errors import ReplayDivergenceError
from repro.forensics.dumps import MemoryDump
from repro.log import get_logger

logger = get_logger("analyzer")


class AnalysisOutcome:
    """Everything the response produced."""

    __slots__ = ("finding", "pinpoint", "report", "dumps", "timeline",
                 "replayed")

    def __init__(self, finding, pinpoint, report, dumps, timeline, replayed):
        self.finding = finding
        self.pinpoint = pinpoint
        self.report = report
        self.dumps = dumps
        self.timeline = timeline
        self.replayed = replayed

    def __repr__(self):
        return "AnalysisOutcome(finding=%r, replayed=%s)" % (
            self.finding.kind,
            self.replayed,
        )


class Analyzer:
    """Drives replay + post-mortem for one domain."""

    #: Capturing a per-process memory dump takes ≈5 s in §5.5.
    PROCESS_DUMP_MS = 5000.0

    def __init__(self, domain, checkpointer, vmi, postmortem=None, seed=0):
        self.domain = domain
        self.checkpointer = checkpointer
        self.vmi = vmi
        self.clock = domain.vm.clock
        self.replay = ReplayEngine(domain, checkpointer, vmi)
        self.postmortem = postmortem if postmortem is not None else PostMortem(seed=seed)

    def respond(self, finding, module, programs=(), program_states=(),
                interval_ms=0.0, timeline=None, write_checkpoints=True):
        """Full response pipeline for one critical finding."""
        vm = self.domain.vm
        if timeline is None:
            timeline = AttackTimeline(self.clock)
        timeline.mark("audit failed: %s" % finding.kind)

        # The failed-audit dump must be captured before rollback destroys it.
        dump_detected = MemoryDump.from_vm(vm, label="audit-failed")
        dump_clean = MemoryDump.from_snapshot(
            vm, self.checkpointer.backup_snapshot(), label="last-clean"
        )

        # Stage 1 (optional): rollback and replay to pinpoint the store.
        pinpoint = None
        dump_at_attack = None
        targets = module.replay_targets(finding)
        replayed = bool(targets) and bool(programs)
        self.checkpointer.abort()
        if replayed:
            self.replay.prepare(programs, program_states, targets)
            timeline.mark("rollback + replay prepared")
            try:
                pinpoint = self.replay.run(
                    programs, interval_ms, targets,
                    expected_value=finding.details.get("expected"),
                )
            except ReplayDivergenceError:
                # §6: CRIMES does not guarantee deterministic replay; a
                # nondeterministic guest may not reproduce the attack.
                # Degrade gracefully: no pinpoint, post-mortem continues
                # on the recorded dumps.
                pinpoint = None
                timeline.mark("replay diverged (nondeterministic guest); "
                              "pinpoint unavailable")
                logger.warning(
                    "%s: replay of epoch diverged; continuing post-mortem "
                    "without a pinpoint", vm.name,
                )
            if pinpoint is not None and pinpoint.matched:
                timeline.mark("attack pinpointed (rip=0x%x)" % pinpoint.rip)
                dump_at_attack = MemoryDump.from_vm(vm, label="at-attack")

        # The VM is left suspended: the attack must not continue.
        self.domain.suspend()
        timeline.mark("vm suspended")

        # Stage 2: post-mortem.
        self.clock.advance(self.PROCESS_DUMP_MS)
        timeline.mark("process memory dumped")
        report = self.postmortem.report(
            dump_clean, dump_detected, finding,
            pinpoint=pinpoint, dump_at_attack=dump_at_attack,
        )
        self.clock.advance(self.postmortem.take_cost_ms())
        timeline.mark("forensic report complete")

        dumps = [dump_clean, dump_detected]
        if dump_at_attack is not None:
            dumps.append(dump_at_attack)
        if write_checkpoints:
            # Full system checkpoints exported for future analysis
            # (Figure 8: "write checkpoints: 100+ sec" on large VMs).
            per_dump_ms = self.checkpointer.costs.disk_write_ms(
                self.checkpointer.nominal_frames * 4096
            )
            self.clock.advance(per_dump_ms * len(dumps))
            timeline.mark("system checkpoints written to disk")

        return AnalysisOutcome(
            finding=finding,
            pinpoint=pinpoint,
            report=report,
            dumps=dumps,
            timeline=timeline,
            replayed=replayed,
        )
