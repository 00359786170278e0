"""Wall-clock and dedup benchmarks for the content-addressed page store.

Measured against the flat (delta-history) substrate as the baseline:

* **Dedup**: a fleet of same-image tenants sharing one ``PageStore``
  must hold far fewer resident bytes than the sum of its logical
  checkpoint bytes. The floor is >= 3x at every scale (identical images
  dedup much harder; the floor is deliberately conservative so CI noise
  cannot flake it).
* **Commit and rollback**: ``commit()`` alone and ``rollback()`` alone
  through the store must stay within 20% of the flat substrate's wall
  time at the full 64 MiB guest. The store swaps refcounted keys where
  the flat path swaps byte buffers, and the 1.2x ceiling catches an
  accidental O(frames) reintroduction.
* **Whole epochs** (``epoch``, not gated): ``run_checkpoint()`` +
  ``commit()`` on the same dirty sets. The store hashes every dirty page
  in ``run_checkpoint()``, so a whole epoch costs more on the store even
  where its commit alone costs less; the two gated cases do not say
  which backend is faster.

Thresholds on commit and rollback are asserted only at full scale;
``CRIMES_PERF_FRAMES`` / ``CRIMES_PERF_TENANTS`` scale the run down (see
``harness.py``).
"""

import functools
import os
import sys

from repro.checkpoint.store import PageStore
from repro.core.cloud import CloudHost
from repro.core.config import CrimesConfig
from repro.guest.linux import LinuxGuest
from repro.guest.memory import PAGE_SIZE
from repro.workloads.kvstore import KeyValueStoreProgram

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
from harness import (  # noqa: E402
    EPOCH_DIRTY,
    FRAMES,
    HISTORY_CAPACITY,
    TENANTS,
)

FULL_SCALE = (FRAMES >= harness.DEFAULT_FRAMES
              and TENANTS >= harness.DEFAULT_TENANTS)
REPEATS = 3
MIB = 1024 * 1024

THRESHOLDS = {
    "fleet_dedup_ratio": 3.0,     # floor: logical vs resident bytes
    "commit_with_history": 1.2,   # ceiling: store_ms / flat_ms
    "rollback": 1.2,              # ceiling: store_ms / flat_ms
}


def _fleet_dedup():
    """A same-image fleet on one shared store: (run ms, store stats)."""
    shared = PageStore()
    host = CloudHost(name="dedup-fleet", store=shared)
    for index in range(TENANTS):
        # Same seed everywhere: the fleet boots one golden image, the
        # dedup case the store exists for. (Names must differ — they
        # key the host's tenant table — and name-derived image bytes
        # are a few pages per guest, which the conservative 3x floor
        # already absorbs.)
        vm = LinuxGuest(name="tenant-%03d" % index, memory_bytes=2 * MIB,
                        seed=1234)
        config = CrimesConfig(epoch_interval_ms=20.0, seed=1234)
        host.admit(vm, config, programs=[KeyValueStoreProgram(seed=1234)])
    run_ms = harness.timed(host.run, 2)[1]
    return run_ms, shared.stats()


def test_checkpoint_store():
    bench = harness.Bench(
        "checkpoint_store",
        "content-addressed page store against the flat substrate: "
        "cross-tenant dedup, commit() and rollback() alone (gated) and "
        "whole epochs with staging (not gated)",
        FULL_SCALE, frames=FRAMES, ram_mib=harness.RAM_BYTES // MIB,
        tenants=TENANTS, epoch_dirty=EPOCH_DIRTY,
        history_capacity=HISTORY_CAPACITY,
        epochs=harness.CHECKPOINT_EPOCHS, repeats=REPEATS)
    dirty = harness.dirty_sets()

    def compare(name, detail, flat, store):
        sides = harness.sample(REPEATS, {"flat": flat, "store": store})
        bench.case(name, detail, sides,
                   ratio=harness.ratio(sides["store"], sides["flat"]))

    def flat():
        return harness.checkpointer(history_capacity=HISTORY_CAPACITY)

    def store():
        return harness.checkpointer(history_capacity=HISTORY_CAPACITY,
                                    store=PageStore())

    compare("commit_with_history",
            "commit() alone with capacity-%d history, %d dirty frames"
            % (HISTORY_CAPACITY, EPOCH_DIRTY),
            functools.partial(harness.commit_ms, flat, dirty),
            functools.partial(harness.commit_ms, store, dirty))
    compare("rollback",
            "rollback() alone after one aborted epoch + %d live dirty "
            "frames" % (EPOCH_DIRTY - EPOCH_DIRTY // 2),
            harness.rollback_run(flat, dirty),
            harness.rollback_run(store, dirty))
    compare("epoch",
            "run_checkpoint() + commit() per epoch, %d dirty frames, mean "
            "of %d epochs per sample"
            % (EPOCH_DIRTY, harness.CHECKPOINT_EPOCHS),
            functools.partial(harness.epoch_ms, flat, dirty),
            functools.partial(harness.epoch_ms, store, dirty))
    for name in ("commit_with_history", "rollback"):
        bench.gate(name, "ratio", "<=", THRESHOLDS[name], applies=FULL_SCALE)

    run_ms, stats = _fleet_dedup()
    logical_bytes = stats["logical_pages"] * PAGE_SIZE
    bench.case(
        "fleet_dedup",
        "%d same-image 2 MiB tenants, 2 rounds, shared store" % TENANTS,
        {"run": [run_ms]},
        tenants=TENANTS, guest_mib=2, logical_mib=logical_bytes / MIB,
        resident_mib=stats["resident_bytes"] / MIB,
        unique_pages=stats["unique_pages"],
        dedup_ratio=logical_bytes / max(stats["resident_bytes"], 1))
    bench.gate("fleet_dedup", "dedup_ratio", ">=",
               THRESHOLDS["fleet_dedup_ratio"])
    bench.finish()
