"""Host wall-clock phase attribution for the full epoch pipeline.

Where ``test_wallclock_substrate.py`` times the checkpoint *substrate* in
isolation, this bench drives ``Crimes.run_epoch`` end to end — guest
workload, dirty harvest + staging, VMI-backed audit, commit + release,
program snapshots — under the benchmark's canary-churn program
(``benchmarks/crimes_bench/programs.py``, the §5.5 regime: tens of
thousands of live tripwires, a small dirty set per epoch).

Phase times come from the spans ``run_epoch`` opens, with wall time
captured on the tenant's own tracer: ``epoch.speculate``,
``epoch.checkpoint`` (harvest + stage), ``epoch.audit`` and
``epoch.commit`` (commit + release); ``epoch.self`` is the ``epoch``
span's time outside them (program snapshots, the epoch close, the
journal).

The "before" side rebuilds the seed revision's hot paths from
``benchmarks/perf/legacy.py``: per-field struct decodes, the per-entry
canary filter, the copying checkpointer, and deepcopy program snapshots.
The copying checkpointer deep-copies today's guest state, so the before
side moves with the current state format. Both sides charge
bit-identical *virtual* time: the bench asserts the final virtual
clocks, audit cost and checks agree, so the speedup is host efficiency,
not a change in what the simulation models.

Each repeat is a fresh loop. Its first ``WARMUP_EPOCHS`` epochs give the
gated number: their mean, best of ``REPEATS``, at least 5x at full scale
(``CRIMES_PERF_FRAMES`` scales the RAM down, see ``harness.py``). The
``STEADY_EPOCHS`` after them give each phase's steady-state samples.
"""

import os
import sys

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.canary import CanaryScanModule
from repro.detectors.malware import MalwareScanModule
from repro.guest.linux import LinuxGuest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "crimes_bench"))
import harness  # noqa: E402
from harness import FRAMES, RAM_BYTES  # noqa: E402
from legacy import (  # noqa: E402
    LegacyCanaryScanModule,
    LegacyCheckpointer,
    LegacyCrimes,
    LegacyVMIInstance,
)
from programs import CanaryChurnProgram  # noqa: E402

FULL_SCALE = FRAMES >= harness.DEFAULT_FRAMES

#: Live tripwired objects the guest maintains (~1.5 per RAM frame at
#: full scale — 24k canaries over 64 MiB, the paper's §5.5 ballpark).
LIVE_OBJECTS = max(512, int(FRAMES * 1.5))
#: Object size picks the tripwire density per heap page (~9 with the 32
#: bytes of allocator overhead); the dirty filter then passes a small
#: fraction of the table each epoch — the sparse-dirty regime §5.5's
#: 90k-canaries/ms headline depends on.
OBJECT_SIZE = 384
FREES_PER_EPOCH = 128       # objects freed + reallocated each epoch
WRITES_PER_EPOCH = 192      # live objects rewritten each epoch
WARMUP_EPOCHS = 4           # a fresh loop's first epochs: the gated window
STEADY_EPOCHS = 12
REPEATS = 3  # best-of; one extra repeat buys headroom against host noise

THRESHOLDS = {
    "epoch_full_fidelity": 5.0,
}


def _make_crimes(kind, seed=31):
    """Build one epoch loop: live paths ("after") or seed paths ("before")."""
    # Same guest name on both sides: the VMI jitter stream is seeded from
    # "vmi/<name>", so differing names would fork the virtual timelines.
    vm = LinuxGuest(name="phases", memory_bytes=RAM_BYTES, seed=seed)
    config = CrimesConfig(epoch_interval_ms=25.0, seed=seed,
                          nominal_frames=FRAMES)
    if kind == "before":
        crimes = LegacyCrimes(vm, config)
        legacy_vmi = LegacyVMIInstance(crimes.domain, seed=config.seed,
                                       observer=crimes.observer)
        crimes.vmi = legacy_vmi
        crimes.detector.vmi = legacy_vmi
        crimes.checkpointer = LegacyCheckpointer(
            crimes.domain,
            level=config.optimization,
            cost_model=crimes.costs,
            fidelity=config.fidelity,
            remote=config.remote_backup,
            nominal_frames=config.nominal_frames,
            history_capacity=config.history_capacity,
            observer=crimes.observer,
        )
        crimes.install_module(LegacyCanaryScanModule())
    else:
        crimes = Crimes(vm, config)
        crimes.install_module(CanaryScanModule())
    crimes.install_module(MalwareScanModule(detect_hidden=False))
    crimes.add_program(CanaryChurnProgram(
        LIVE_OBJECTS, OBJECT_SIZE, FREES_PER_EPOCH, WRITES_PER_EPOCH,
        WARMUP_EPOCHS + STEADY_EPOCHS, seed=seed))
    crimes.start()
    crimes.observer.tracer.capture_wall = True
    return crimes


def _phase_ms(tracer):
    """Per ``epoch`` span, in order: ``{phase: wall ms}``.

    Each child span of an ``epoch`` span is a phase; ``epoch.self`` is the
    epoch span's wall time outside its children.
    """
    children = {}
    for event in tracer.events:
        children.setdefault(event.parent_id, []).append(event)
    epochs = []
    for epoch in tracer.spans_named("epoch"):
        phases = {}
        for child in children.get(epoch.span_id, ()):
            phases[child.name] = (phases.get(child.name, 0.0)
                                  + child.wall_duration_s * 1000.0)
        phases["epoch.self"] = (epoch.wall_duration_s * 1000.0
                                - sum(phases.values()))
        epochs.append(phases)
    return epochs


def _loop(kind, loops):
    """A callable running one fresh loop of ``kind`` per call.

    It appends the loop's per-epoch ms, per-epoch phase ms and evidence
    to ``loops`` and returns the gated sample: the warm-up epochs' mean
    ms.
    """

    def run():
        crimes = _make_crimes(kind)
        epoch_ms = []
        for _ in range(WARMUP_EPOCHS + STEADY_EPOCHS):
            record, elapsed_ms = harness.timed(crimes.run_epoch)
            assert record.committed, "bench epochs must audit clean"
            epoch_ms.append(elapsed_ms)
        canary = crimes.detector.module("canary")
        evidence = {
            "virtual_now_ms": crimes.clock.now,
            "audit_cost_ms": crimes.detector.total_cost_ms,
            "canaries_checked": canary.canaries_checked,
            "freed_checked": canary.freed_regions_checked,
            "findings": sum(len(r.detection.findings) for r in crimes.records
                            if r.detection is not None),
        }
        loops.append({"epoch_ms": epoch_ms,
                      "phases": _phase_ms(crimes.observer.tracer),
                      "evidence": evidence})
        return sum(epoch_ms[:WARMUP_EPOCHS]) / WARMUP_EPOCHS

    return run


def test_epoch_phase_attribution():
    loops = {"after": [], "before": []}
    sides = harness.sample(REPEATS, {kind: _loop(kind, loops[kind])
                                     for kind in ("after", "before")})

    # Equivalence evidence: every loop modeled the exact same simulation
    # — same virtual clock, same charged audit cost, same tripwires
    # validated, same (zero) findings. Only host time moved.
    evidence = loops["after"][0]["evidence"]
    for kind, runs in loops.items():
        for loop in runs:
            assert loop["evidence"] == evidence, (
                "%s run diverged from the first live run: %r != %r"
                % (kind, loop["evidence"], evidence))
    assert evidence["canaries_checked"] > 0

    bench = harness.Bench(
        "epoch_phases",
        "host wall-clock phase attribution of the full epoch pipeline, "
        "live paths vs the seed revision's, read from run_epoch's spans; "
        "the before checkpointer deep-copies today's guest state, so its "
        "cost follows the current state format",
        FULL_SCALE, frames=FRAMES, ram_mib=RAM_BYTES // (1 << 20),
        live_canaries=LIVE_OBJECTS, warmup_epochs=WARMUP_EPOCHS,
        steady_epochs=STEADY_EPOCHS, repeats=REPEATS)
    bench.case(
        "epoch_full_fidelity",
        "full run_epoch, mean of a fresh loop's first %d epochs, %d live "
        "canaries, %d freed + %d rewritten objects per epoch"
        % (WARMUP_EPOCHS, LIVE_OBJECTS, FREES_PER_EPOCH, WRITES_PER_EPOCH),
        sides, speedup=harness.ratio(sides["before"], sides["after"]))
    bench.gate("epoch_full_fidelity", "speedup", ">=",
               THRESHOLDS["epoch_full_fidelity"], applies=FULL_SCALE)

    for name, first, last in (
            ("warmup_epochs", 1, WARMUP_EPOCHS),
            ("steady_epochs", WARMUP_EPOCHS + 1,
             WARMUP_EPOCHS + STEADY_EPOCHS)):
        bench.case(name, "full run_epoch, per epoch, epochs %d-%d of every "
                   "loop" % (first, last),
                   {kind: [ms for loop in runs
                           for ms in loop["epoch_ms"][first - 1:last]]
                    for kind, runs in loops.items()})

    # Each phase: its steady-state samples per side, and its warm-up mean
    # in the loop that gave that side's gated number.
    best = {kind: runs[sides[kind].index(min(sides[kind]))]["phases"]
            for kind, runs in loops.items()}
    for phase in best["after"][0]:
        steady = {kind: [epoch[phase] for loop in runs
                         for epoch in loop["phases"][WARMUP_EPOCHS:]]
                  for kind, runs in loops.items()}
        warmup = {"warmup_ms_%s" % kind: sum(
            epoch[phase] for epoch in phases[:WARMUP_EPOCHS])
            / WARMUP_EPOCHS for kind, phases in best.items()}
        bench.case(phase, "span wall time per steady-state epoch", steady,
                   **warmup)
    bench.finish(evidence=evidence)
