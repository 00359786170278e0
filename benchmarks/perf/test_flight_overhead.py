"""Flight-recorder self-overhead: the always-on journal must stay cheap.

The recorder charges every ``record()`` call to its own wall-clock
meter (``FlightRecorder.overhead_wall_s``); this benchmark drives a
CRIMES-protected guest — including a detected attack, so the incident
path journals too — and compares that meter against the host wall time
of the whole epoch loop. The acceptance bar is the one the VMI
container-monitoring literature sets for always-on monitors: the
journal's own cost must stay **under 5%** of epoch wall time.

Results go to ``BENCH_flight_overhead.json``. The epoch count scales
with ``CRIMES_PERF_FRAMES`` (see ``harness.py``) so the CI smoke run
(2048) stays quick while the default run measures a longer loop; the 5%
ceiling holds at every scale — per-event cost is size-independent.
"""

import os
import sys

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.canary import CanaryScanModule
from repro.guest.linux import LinuxGuest
from repro.workloads.attacks import OverflowAttackProgram
from repro.workloads.webserver import WebServerWorkload

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

#: 256 epochs on the CI smoke, 512 at full scale (the guest heap feeds
#: the web workload for ~1500 epochs before it would run dry).
EPOCHS = max(32, min(512, harness.FRAMES // 8))
OVERHEAD_CEILING_PCT = 5.0


def test_flight_recorder_overhead():
    seed = 31
    vm = LinuxGuest(name="flight-perf", memory_bytes=8 * 1024 * 1024,
                    seed=seed)
    crimes = Crimes(
        vm, CrimesConfig(epoch_interval_ms=25.0, seed=seed,
                         history_capacity=4)
    )
    crimes.install_module(CanaryScanModule())
    crimes.add_program(WebServerWorkload("light", seed=seed))
    # A detection at the end exercises the incident/bundle journal path.
    crimes.add_program(OverflowAttackProgram(trigger_epoch=EPOCHS))
    crimes.start()
    loop_ms = harness.timed(crimes.run, max_epochs=EPOCHS)[1]

    recorder = crimes.observer.flight
    overhead = recorder.overhead()
    assert crimes.last_incident is not None  # the incident path journaled
    assert recorder.verify_chain()["ok"]

    bench = harness.Bench(
        "flight_overhead",
        "flight-recorder self-overhead vs epoch wall time",
        harness.FRAMES >= harness.DEFAULT_FRAMES, epochs=EPOCHS)
    recorder_ms = overhead["wall_s"] * 1000.0
    bench.case(
        "journal",
        "%d epochs of the light web workload ending in a detected "
        "overflow; recorder is the journal's own metered time within loop"
        % crimes.epochs_run,
        {"loop": [loop_ms], "recorder": [recorder_ms]},
        overhead_pct=100.0 * recorder_ms / loop_ms,
        per_event_us=(1000.0 * recorder_ms / overhead["events_recorded"]
                      if overhead["events_recorded"] else 0.0),
        events_recorded=overhead["events_recorded"],
        events_retained=len(recorder), evicted=recorder.evicted)
    bench.gate("journal", "overhead_pct", "<", OVERHEAD_CEILING_PCT)
    bench.finish()
