"""Tests for the content-addressed page store and its lifecycle wiring.

Three layers:

* ``PageStore`` unit behavior — content keys, refcounts, tiering
  (hot/cold/spilled), LRU budget enforcement, spill round-trips, and
  the evidence-grade re-verification of spilled dedup hits.
* Adversarial refcount lifecycles through the real ``CloudHost`` /
  ``Checkpointer`` integration — double rollback, eviction mid-hold,
  quarantine with an in-flight async scan, ring folds — each ending in
  the two assertions that matter: no page another tenant references is
  ever freed (``release_errors == 0`` + byte-identical snapshots), and
  no page outlives its last reference (store drains to zero on
  eviction, ``verify_integrity()`` cross-checks on every path).
* The accounting regression: ``memory_overhead_bytes()`` follows one
  definition (bytes the checkpoint tier retains) — ACCOUNTING tenants
  cost 0, snapshot offers/skips never move the number, and per-tenant
  store attribution sums back to the deduped resident set.
"""

import os

import pytest

from repro.checkpoint import CopyFidelity, PageStore
from repro.core.cloud import CloudHost
from repro.core.config import CrimesConfig
from repro.detectors.canary import CanaryScanModule
from repro.detectors.deep import SignatureSweepModule
from repro.detectors.syscall_table import SyscallTableModule
from repro.errors import CrimesError, StoreError, StoreIOError
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.guest.linux import LinuxGuest
from repro.guest.memory import PAGE_SIZE
from repro.workloads.attacks import OverflowAttackProgram
from repro.workloads.kvstore import KeyValueStoreProgram

MIB = 1024 * 1024
PAGE = 4096


def page(fill, size=PAGE):
    return bytes([fill]) * size


def small_linux(name, seed, memory=2 * MIB):
    return LinuxGuest(name=name, memory_bytes=memory, seed=seed)


def config(**kwargs):
    kwargs.setdefault("epoch_interval_ms", 20.0)
    return CrimesConfig(**kwargs)


class TestPageStoreBasics:
    def test_identical_pages_share_one_entry(self):
        store = PageStore()
        key_a = store.put(page(1), owner="a")
        key_b = store.put(page(1), owner="b")
        assert key_a == key_b
        assert store.unique_pages == 1
        assert store.logical_pages == 2
        assert store.refs(key_a) == 2
        assert store.dedup_hits == 1
        assert store.get(key_a) == page(1)

    def test_release_frees_at_zero_refs(self):
        store = PageStore()
        key = store.put(page(2), owner="a")
        store.retain(key, owner="a")
        store.release(key, owner="a")
        assert store.contains(key)
        store.release(key, owner="a")
        assert not store.contains(key)
        assert store.resident_bytes == 0
        with pytest.raises(StoreError):
            store.get(key)

    def test_release_without_a_reference_is_loud(self):
        store = PageStore()
        key = store.put(page(3), owner="a")
        with pytest.raises(StoreError):
            store.release(key, owner="stranger")
        assert store.release_errors == 1
        # The misuse did not damage the real holder's reference.
        assert store.refs(key) == 1
        store.verify_integrity()

    def test_wrong_page_size_rejected(self):
        with pytest.raises(StoreError):
            PageStore().put(b"short", owner="a")

    def test_materialize_concatenates_in_key_order(self):
        store = PageStore()
        keys = [store.put(page(fill), owner="a") for fill in (9, 8, 7)]
        assert store.materialize(keys) == page(9) + page(8) + page(7)

    def test_per_tenant_attribution_sums_to_resident(self):
        store = PageStore()
        store.put(page(1), owner="a")
        store.put(page(1), owner="b")
        store.put(page(2), owner="b")
        per = store.per_tenant()
        assert per["a"]["logical_pages"] == 1
        assert per["b"]["logical_pages"] == 2
        assert sum(row["attributed_bytes"] for row in per.values()) == \
            pytest.approx(store.resident_bytes)


class TestPageStoreTiering:
    def test_budget_demotes_to_compressed_cold_tier(self):
        store = PageStore(budget_bytes=PAGE, compress=True)
        store.put(page(1), owner="a")
        store.put(page(2), owner="a")
        stats = store.stats()
        assert stats["cold_pages"] >= 1
        assert store.compressions >= 1
        # Both pages still read back exactly.
        assert store.get(store.put(page(1), owner="a")) == page(1)
        store.verify_integrity()

    def test_budget_zero_spills_to_disk_and_reads_back(self, tmp_path):
        store = PageStore(budget_bytes=0, spill_dir=str(tmp_path))
        keys = [store.put(page(fill), owner="a") for fill in (1, 2, 3)]
        stats = store.stats()
        assert stats["spilled_pages"] == 3
        assert store.resident_bytes == 0
        assert len(os.listdir(tmp_path)) == 3
        for fill, key in zip((1, 2, 3), keys):
            assert store.get(key, promote=False) == page(fill)
        store.verify_integrity()

    def test_promotion_brings_a_spilled_page_home(self, tmp_path):
        store = PageStore(budget_bytes=0, spill_dir=str(tmp_path))
        key = store.put(page(4), owner="a")
        assert store.stats()["spilled_pages"] == 1
        # promote=True pulls it hot; budget 0 immediately re-evicts it,
        # so drop the budget constraint first to observe the promotion.
        store.budget_bytes = None
        assert store.get(key) == page(4)
        stats = store.stats()
        assert stats["hot_pages"] == 1
        assert stats["spilled_pages"] == 0
        assert os.listdir(tmp_path) == []
        store.verify_integrity()

    def test_lru_spills_the_coldest_page_first(self, tmp_path):
        store = PageStore(budget_bytes=2 * PAGE, compress=False,
                          spill_dir=str(tmp_path))
        key_a = store.put(page(1), owner="a")
        key_b = store.put(page(2), owner="a")
        # Touch A so B is the LRU victim when C overflows the budget.
        store.get(key_a)
        store.put(page(3), owner="a")
        assert store._entries[key_b].spilled
        assert not store._entries[key_a].spilled
        store.verify_integrity()

    def test_freeing_a_spilled_page_removes_its_file(self, tmp_path):
        store = PageStore(budget_bytes=0, spill_dir=str(tmp_path))
        key = store.put(page(5), owner="a")
        assert len(os.listdir(tmp_path)) == 1
        store.release(key, owner="a")
        assert os.listdir(tmp_path) == []
        assert store.spilled_bytes == 0

    def test_budget_without_spill_dir_degrades_to_retention(self):
        store = PageStore(budget_bytes=0, compress=False)
        key = store.put(page(6), owner="a")
        # Nowhere to spill: the page stays resident past the budget and
        # the degradation is counted, never silent.
        assert store.spill_degraded >= 1
        assert store.get(key, promote=False) == page(6)
        store.verify_integrity()


class TestSpilledDedupVerification:
    def test_tampered_spill_file_fails_the_dedup_hit(self, tmp_path):
        store = PageStore(budget_bytes=0, spill_dir=str(tmp_path),
                          compress=False)
        key = store.put(page(7), owner="a")
        with open(store._spill_path(key), "wb") as handle:
            handle.write(page(0xEE))
        with pytest.raises(StoreIOError):
            store.put(page(7), owner="a")
        assert store.verify_mismatches == 1
        # The failed put handed out no reference.
        assert store.refs(key) == 1
        assert store.logical_pages == 1

    def test_verification_can_be_disabled(self, tmp_path):
        store = PageStore(budget_bytes=0, spill_dir=str(tmp_path),
                          compress=False, verify_spilled_dedup=False)
        key = store.put(page(7), owner="a")
        with open(store._spill_path(key), "wb") as handle:
            handle.write(page(0xEE))
        assert store.put(page(7), owner="a") == key
        assert store.verify_reads == 0

    def test_failed_ingest_releases_partial_references(self, tmp_path):
        store = PageStore(budget_bytes=0, spill_dir=str(tmp_path),
                          compress=False)
        good_key = store.put(page(1), owner="seed")
        bad_key = store.put(page(2), owner="seed")
        with open(store._spill_path(bad_key), "wb") as handle:
            handle.write(page(0xEE))
        image = page(1) + page(2)
        with pytest.raises(StoreIOError):
            store.ingest_frames(memoryview(image), [0, 1], owner="a")
        # Frame 0 was staged before frame 1 blew up; its reference must
        # not leak.
        assert store.refs(good_key) == 1
        assert store.refs(bad_key) == 1
        assert "a" not in store.per_tenant()


class TestAdversarialLifecycles:
    """Refcount safety through the real CloudHost integration."""

    def _shared_host(self, store, seeds=(7, 7), history_capacity=2):
        host = CloudHost(store=store)
        for index, seed in enumerate(seeds):
            host.admit(
                small_linux("t%d" % index, seed),
                config(seed=seed, history_capacity=history_capacity),
                modules=[SyscallTableModule()],
                programs=[KeyValueStoreProgram(seed=seed)],
            )
        return host

    def test_evicting_one_tenant_never_frees_shared_pages(self):
        store = PageStore()
        host = self._shared_host(store)  # same seed: ~all pages shared
        host.run(3)
        survivor = host.tenant("t1").checkpointer
        before = survivor.backup_snapshot().memory_image
        host.evict("t0")
        store.verify_integrity()
        assert store.release_errors == 0
        # The survivor's snapshot still reads back byte-identically
        # through the store, and its history still reconstructs.
        assert survivor.backup_snapshot().memory_image == before
        for entry in survivor.history.all():
            assert len(entry.memory_image) == 2 * MIB
        host.evict("t1")
        assert store.unique_pages == 0
        assert store.logical_pages == 0

    def test_double_rollback_to_the_same_checkpoint(self):
        store = PageStore()
        host = self._shared_host(store, seeds=(7,))
        host.run(2)
        crimes = host.tenant("t0")
        checkpointer = crimes.checkpointer
        backup = checkpointer.backup_snapshot().memory_image
        refs_before = store.logical_pages
        checkpointer.rollback()
        checkpointer.rollback()
        store.verify_integrity()
        assert store.release_errors == 0
        # Rolling back consumes no references and restores the backup
        # bytes both times.
        assert store.logical_pages == refs_before
        view = crimes.vm.memory.view()
        try:
            assert bytes(view) == backup
        finally:
            view.release()
        host.evict("t0")
        assert store.unique_pages == 0

    def test_attack_rollback_on_a_shared_store(self):
        store = PageStore()
        host = CloudHost(store=store)
        for index, attack in enumerate((4, None)):
            programs = [KeyValueStoreProgram(seed=9)]
            modules = [SyscallTableModule(), CanaryScanModule()]
            if attack is not None:
                programs.append(OverflowAttackProgram(trigger_epoch=attack))
            host.admit(small_linux("t%d" % index, 9),
                       config(seed=9, history_capacity=2),
                       modules=modules, programs=programs)
        incidents = host.run(6)
        assert incidents == ["t0"]
        store.verify_integrity()
        assert store.release_errors == 0
        # The attacked tenant rolled back and suspended; its backup (the
        # clean state) is evidence and still materializes.
        assert len(host.tenant("t0").checkpointer.backup_snapshot()
                   .memory_image) == 2 * MIB
        host.evict("t0")
        host.evict("t1")
        assert store.unique_pages == 0

    def test_eviction_mid_hold_releases_the_staged_epoch(self):
        # A persistent backup-sync fault holds commits: the pending
        # epoch stays staged (holding store refs) across epochs. Evicting
        # the tenant in that state must drop staged + backup + undo refs.
        store = PageStore()
        plan = FaultPlan({FaultPlane.BACKUP_SYNC:
                          FaultSchedule.persistent(start_epoch=2)}, seed=3)
        host = CloudHost(store=store)
        host.admit(small_linux("held", 3), config(seed=3,
                                                  history_capacity=2),
                   modules=[SyscallTableModule()],
                   programs=[KeyValueStoreProgram(seed=3)],
                   fault_plan=plan)
        host.admit(small_linux("bystander", 3),
                   config(seed=3, history_capacity=2),
                   modules=[SyscallTableModule()],
                   programs=[KeyValueStoreProgram(seed=3)])
        host.run(3)
        held = host.tenant("held")
        assert held.epochs_held >= 1
        # The owner's references: one per backup frame, one per undo
        # page, and one per frame of the held (still staged) epoch.
        checkpointer = held.checkpointer
        staged = len(checkpointer.staged_pfns)
        assert staged
        assert store.per_tenant()["held"]["logical_pages"] == (
            checkpointer.domain.vm.memory.frame_count
            + checkpointer.history.delta_pages_retained() + staged)
        bystander = host.tenant("bystander").checkpointer
        before = bystander.backup_snapshot().memory_image
        host.evict("held")
        store.verify_integrity()
        assert store.release_errors == 0
        assert bystander.backup_snapshot().memory_image == before
        host.evict("bystander")
        assert store.unique_pages == 0

    def test_quarantine_with_async_scan_in_flight(self):
        # Quarantine fences the tenant but retains its evidence: staged
        # refs drop, backup + ring refs stay until eviction — even with
        # a deep scan still in flight against the backup snapshot.
        store = PageStore()
        host = CloudHost(store=store)
        host.admit(small_linux("t0", 5), config(seed=5,
                                                history_capacity=1),
                   modules=[SyscallTableModule()],
                   async_modules=[SignatureSweepModule()],
                   programs=[KeyValueStoreProgram(seed=5)])
        host.run(2)
        record = host.tenants["t0"]
        crimes = record.crimes
        assert crimes.async_scanner.busy  # sweep outlasts an epoch
        refs_backup = store.logical_pages
        host._quarantine(record, CrimesError("induced: substrate died"))
        assert host.quarantined_tenants() == ["t0"]
        store.verify_integrity()
        # No staged epoch existed (commit had completed), so the
        # quarantine released nothing — evidence refs intact.
        assert store.logical_pages == refs_backup
        assert len(crimes.checkpointer.backup_snapshot()
                   .memory_image) == 2 * MIB
        host.evict("t0")
        assert store.unique_pages == 0

    def test_ring_fold_of_deduped_epochs(self):
        # capacity 1 evicts the previous entry on every commit, dropping
        # the undo record the commit just attached to it; the store must
        # end balanced.
        store = PageStore()
        host = self._shared_host(store, seeds=(11,), history_capacity=1)
        host.run(5)
        checkpointer = host.tenant("t0").checkpointer
        assert checkpointer.history.total_recorded >= 4
        assert len(checkpointer.history) == 1
        assert len(checkpointer.history.all()[0].memory_image) == 2 * MIB
        store.verify_integrity()
        assert store.release_errors == 0
        host.evict("t0")
        assert store.unique_pages == 0


class TestAccountingDefinition:
    """The satellite regression: one overhead definition everywhere."""

    def test_accounting_fidelity_retains_nothing(self):
        host = CloudHost()
        host.admit(small_linux("t0", 1),
                   config(fidelity=CopyFidelity.ACCOUNTING))
        host.run(2)
        # The old definition charged vm.memory.size regardless of
        # fidelity; an ACCOUNTING tenant keeps no backup image.
        assert host.memory_overhead_bytes() == 0

    def test_full_fidelity_charges_backup_plus_ring(self):
        host = CloudHost()
        host.admit(small_linux("t0", 1), config(history_capacity=2))
        host.run(3)
        crimes = host.tenant("t0")
        checkpointer = crimes.checkpointer
        retained = checkpointer.retained_bytes()
        assert host.memory_overhead_bytes() == retained
        # The slab's touched rows: the backup image and the ring's undo
        # pages, plus free slots of at most the ring's capacity in
        # epochs.
        undo = checkpointer.history.delta_pages_retained() * PAGE_SIZE
        largest = max(record.real_dirty for record in crimes.records)
        assert 2 * MIB + undo <= retained <= \
            2 * MIB + 2 * largest * PAGE_SIZE

    def test_snapshot_offers_and_skips_never_move_the_number(self):
        host = CloudHost()
        host.admit(small_linux("t0", 2), config(),
                   async_modules=[SignatureSweepModule()],
                   programs=[KeyValueStoreProgram(seed=2)])
        host.run(1)
        overhead = host.memory_overhead_bytes()
        scanner = host.tenant("t0").async_scanner
        offered = scanner.jobs_started
        host.run(3)
        # Offers happened (or were skipped while busy) — both are
        # transient copies and neither moves the retained-bytes number.
        assert scanner.jobs_started + scanner.snapshots_skipped > offered
        assert host.memory_overhead_bytes() == overhead

    def test_store_host_charges_the_deduped_resident_set(self):
        store = PageStore()
        host = CloudHost(store=store)
        host.admit(small_linux("t0", 4), config(seed=4))
        host.admit(small_linux("t1", 4), config(seed=4))
        host.run(2)
        assert host.memory_overhead_bytes() == store.resident_bytes
        # Same-image tenants: the deduped charge is far below two flat
        # backup images.
        assert store.resident_bytes < 2 * MIB
        per = store.per_tenant()
        assert sum(row["attributed_bytes"] for row in per.values()) == \
            pytest.approx(store.resident_bytes)

    def test_rollup_exposes_store_stats(self):
        store = PageStore()
        host = CloudHost(store=store)
        host.admit(small_linux("t0", 6), config(seed=6))
        host.run(2)
        rollup = host.observability_rollup()
        assert rollup["store"]["stats"]["unique_pages"] == \
            store.unique_pages
        assert "t0" in rollup["store"]["per_tenant"]
        snapshot = host.observer.registry.snapshot()
        assert "store.dedup_hits" in snapshot["counters"]
        assert "store.resident_bytes" in snapshot["gauges"]


class TestPageStoreThreadSafety:
    def test_concurrent_owners_share_and_release_cleanly(self):
        """Regression: the store grew an internal RLock in PR 10 — HTTP
        stat threads and fleet checkpointers hit one instance at once.
        Each thread plays a full acquire/read/release lifecycle against
        a shared page set; the refcount and byte accounting must come
        out exact, and ``verify_integrity`` must hold throughout."""
        import threading

        store = PageStore()
        errors = []

        def tenant(owner, fills):
            try:
                for _round in range(10):
                    keys = [store.put(page(f), owner=owner) for f in fills]
                    for key in keys:
                        assert store.get(key) == store.get(key)
                        store.retain(key, owner=owner)
                        store.release(key, owner=owner)
                    snap = store.stats()
                    assert snap["unique_pages"] >= len(set(fills))
                    store.release_many(keys, owner=owner)
            except Exception as err:  # pragma: no cover - fail loud
                errors.append((owner, err))

        threads = [
            threading.Thread(target=tenant,
                             args=("t%d" % i, [1, 2, 3, 4 + i]))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.verify_integrity()
        assert store.logical_pages == 0
        assert store.resident_bytes == 0
        assert store.release_errors == 0
