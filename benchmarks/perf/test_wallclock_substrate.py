"""Wall-clock before/after microbenchmarks for the epoch substrate.

Times the host-side hot paths the delta-checkpoint / zero-copy rewrite
changed, against the reference implementations kept in
``benchmarks/perf/legacy.py``:

* ``epoch_full_fidelity`` — one FULL-fidelity epoch end to end
  (harvest + stage + commit, history disabled),
* ``commit_with_history``  — commit() with a capacity-8 history ring
  (the seed materialized ``bytes(backup)`` + a deepcopy per commit),
* ``rollback``             — restore after an aborted epoch (the seed
  diffed every frame of RAM in a Python loop),
* ``bitmap_harvest``       — word-scan harvest at 10% dirty density
  (the seed looped a Python list of ints word by word).

The "before" checkpointer is not frozen at the seed revision: it
deep-copies today's ``vm.state_dict()``, so its staging cost follows the
current guest-state format (see ``LegacyCheckpointer``). Read each
side's samples in ``BENCH_wallclock_substrate.json`` for the live side's
trajectory, not the speedup alone.

The thresholds (>= 5x on commit-with-history and rollback, >= 2x on
harvest, >= 1.4x on the epoch) are asserted only at the full 64 MiB
size; ``CRIMES_PERF_FRAMES`` scales the RAM down for a smoke run
(see ``harness.py``).
"""

import functools
import os
import random
import sys

from repro.checkpoint.checkpointer import Checkpointer
from repro.hypervisor.dirty import DirtyBitmap

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
from harness import EPOCH_DIRTY, FRAMES, HISTORY_CAPACITY  # noqa: E402
from legacy import LegacyCheckpointer, LegacyWordBitmap  # noqa: E402

FULL_SCALE = FRAMES >= harness.DEFAULT_FRAMES
HARVEST_DENSITY = 0.10
REPEATS = 3

THRESHOLDS = {
    "commit_with_history": 5.0,
    "rollback": 5.0,
    "bitmap_harvest": 2.0,
    # The substrate's end-to-end epoch case is memory-bandwidth-bound
    # (its dirty set is synthetic and the audit trivial), so its floor
    # is modest; the full-pipeline >= 5x floor lives in
    # test_epoch_phases.py, whose workload exercises the VMI/detector
    # hot paths this case cannot.
    "epoch_full_fidelity": 1.4,
}


def _harvest_run(bitmap, dirty_pfns, results):
    """A callable timing one ``harvest()`` of ``dirty_pfns``."""

    def run():
        bitmap.set_many(dirty_pfns)
        (dirty, stats), elapsed_ms = harness.timed(bitmap.harvest, True)
        results.append((dirty, stats.words_visited, stats.bits_visited,
                        stats.dirty_found))
        return elapsed_ms

    return run


def test_wallclock_substrate():
    bench = harness.Bench(
        "wallclock_substrate",
        "host wall-clock before/after for the delta-checkpoint and "
        "zero-copy substrate rewrite; the before checkpointer deep-copies "
        "today's guest state, so its cost follows the current state format",
        FULL_SCALE, frames=FRAMES, ram_mib=harness.RAM_BYTES // (1 << 20),
        epoch_dirty=EPOCH_DIRTY, epochs=harness.CHECKPOINT_EPOCHS,
        repeats=REPEATS)

    def compare(name, detail, after, before):
        sides = harness.sample(REPEATS, {"after": after, "before": before})
        bench.case(name, detail, sides,
                   speedup=harness.ratio(sides["before"], sides["after"]))
        bench.gate(name, "speedup", ">=", THRESHOLDS[name],
                   applies=FULL_SCALE)

    dirty = harness.dirty_sets()
    new = functools.partial(harness.checkpointer, Checkpointer)
    old = functools.partial(harness.checkpointer, LegacyCheckpointer)
    compare("epoch_full_fidelity",
            "per-epoch harvest+stage+commit, %d dirty frames, mean of %d "
            "epochs per sample" % (EPOCH_DIRTY, harness.CHECKPOINT_EPOCHS),
            lambda: harness.epoch_ms(new, dirty),
            lambda: harness.epoch_ms(old, dirty))
    compare("commit_with_history",
            "commit() with capacity-%d history, %d dirty frames"
            % (HISTORY_CAPACITY, EPOCH_DIRTY),
            lambda: harness.commit_ms(
                functools.partial(new, history_capacity=HISTORY_CAPACITY),
                dirty),
            lambda: harness.commit_ms(
                functools.partial(old, history_capacity=HISTORY_CAPACITY),
                dirty))
    compare("rollback",
            "restore after one aborted epoch + %d live dirty frames"
            % (EPOCH_DIRTY - EPOCH_DIRTY // 2),
            harness.rollback_run(new, dirty),
            harness.rollback_run(old, dirty))

    # Every harvest, of either bitmap, must find the same dirty set and
    # scan stats (words and bits visited): the stats are what Fig. 6b's
    # functional check compares. The cost model prices the bitscan from
    # the optimization level and the dirty count alone.
    dirty_pfns = random.Random(7).sample(range(FRAMES),
                                         int(FRAMES * HARVEST_DENSITY))
    harvests = []
    compare("bitmap_harvest",
            "word-scan harvest of %d dirty frames (10%% density)"
            % len(dirty_pfns),
            _harvest_run(DirtyBitmap(FRAMES), dirty_pfns, harvests),
            _harvest_run(LegacyWordBitmap(FRAMES), dirty_pfns, harvests))
    assert all(result == harvests[0] for result in harvests)
    bench.finish()
