"""Fault-plane hook overhead: disarmed probes must be (almost) free.

The injector's probes are compiled into the epoch loop's hot path
unconditionally — ``OutputBuffer._release_gate``, the checkpointer's
harvest/copy/sync seams, every VMI read charge. This benchmark drives
the identical seeded workload twice, once with no injector at all
(``fault_plan=None``) and once with a disarmed injector
(``FaultPlan.none()``: hooks installed, every probe a guaranteed-miss
dict lookup), and holds the wall-time delta **under 2%**.

The two configurations take turns, five runs each, and each keeps its
minimum, so scheduler noise does not masquerade as hook cost. Results
go to ``BENCH_faults_overhead.json``; the epoch count scales with
``CRIMES_PERF_FRAMES`` (see ``harness.py``), and the ceiling holds at
every scale.
"""

import os
import sys

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors import SyscallTableModule
from repro.faults import FaultPlan
from repro.guest.linux import LinuxGuest
from repro.workloads.webserver import WebServerWorkload

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

EPOCHS = max(32, min(512, harness.FRAMES // 8))
REPETITIONS = 5
OVERHEAD_CEILING_PCT = 2.0


def _drive(fault_plan, epochs=EPOCHS, seed=47):
    """``(crimes, wall ms)`` of ``epochs`` epochs of the seeded web
    workload."""
    vm = LinuxGuest(name="faults-perf", memory_bytes=8 * 1024 * 1024,
                    seed=seed)
    crimes = Crimes(
        vm, CrimesConfig(epoch_interval_ms=25.0, seed=seed,
                         history_capacity=4),
        fault_plan=fault_plan,
    )
    crimes.install_module(SyscallTableModule())
    crimes.add_program(WebServerWorkload("light", seed=seed))
    crimes.start()
    elapsed_ms = harness.timed(crimes.run, max_epochs=epochs)[1]
    assert crimes.epochs_run == epochs
    return crimes, elapsed_ms


def test_disarmed_fault_hooks_are_cheap():
    _drive(None, epochs=32)  # warm caches/allocator before timing
    last = []

    def run(fault_plan):
        # The previous run's guest is freed only after this run: a run
        # that starts right after the other side's guest was freed read
        # about 5 points higher (median of 8 interleaved sets on a
        # 2-vCPU host), more than the ceiling.
        crimes, elapsed_ms = _drive(fault_plan)
        last[:] = [crimes]
        return elapsed_ms

    sides = harness.sample(REPETITIONS, {
        "bare": lambda: run(None),
        "disarmed": lambda: run(FaultPlan.none()),
    })
    bench = harness.Bench(
        "faults_overhead", "disarmed fault-injector hooks vs no injector",
        harness.FRAMES >= harness.DEFAULT_FRAMES, epochs=EPOCHS,
        repetitions=REPETITIONS)
    bench.case("epoch_loop", "%d epochs of the light web workload" % EPOCHS,
               sides, overhead_pct=100.0 * (
                   harness.ratio(sides["disarmed"], sides["bare"]) - 1.0))
    bench.gate("epoch_loop", "overhead_pct", "<", OVERHEAD_CEILING_PCT)
    bench.finish()
