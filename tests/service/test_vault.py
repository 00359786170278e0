"""Case vault tests: adversarial ingest, audit chain, queries, dumps."""

import collections
import copy
import json
import os
import stat
import sys
import threading

import pytest

from repro.errors import (
    CaseNotFoundError,
    DuplicateCaseError,
    IngestError,
    ServiceError,
    VaultIntegrityError,
)
from repro.obs.fleet_merge import merge_flight_snapshots
from repro.service.ingest import case_id_for, verify_fleet_export
from repro.service.vault import AUDIT_GENESIS, CASE_SCHEMA, CaseVault


def index_of(vault):
    """The vault's finding index as its two queries answer it."""
    return vault.case_ids(), vault.findings()


def assert_vault_unchanged(vault, before, cases=0):
    """The adversarial invariant: rejected evidence leaves no trace in
    ``cases/`` or in the finding index (``before`` is :func:`index_of`
    taken ahead of the rejection; the rejection itself is audited)."""
    assert sorted(os.listdir(vault.cases_dir)) == sorted(vault.case_ids())
    assert len(vault.case_ids()) == cases
    assert index_of(vault) == before
    assert vault.verify_audit()["ok"]


class TestIngest:
    def test_valid_bundle_becomes_a_case(self, vault, rootkit_bundle):
        case = vault.ingest(rootkit_bundle)
        assert case["schema"] == CASE_SCHEMA
        assert case["case_id"] == case_id_for(rootkit_bundle)
        assert case["tenant"] == "tenant-rk"
        assert case["reason"] == "audit-failed"
        assert case["state"] == "open"
        assert vault.case(case["case_id"]) == case
        assert vault.bundle(case["case_id"]) == rootkit_bundle

    def test_stored_evidence_is_read_only(self, vault, rootkit_bundle):
        case = vault.ingest(rootkit_bundle)
        path = os.path.join(vault.cases_dir, case["case_id"],
                            "bundle.json")
        mode = stat.S_IMODE(os.stat(path).st_mode)
        assert not mode & (stat.S_IWUSR | stat.S_IWGRP | stat.S_IWOTH)

    def test_ingest_is_audited(self, vault, rootkit_bundle):
        case = vault.ingest(rootkit_bundle)
        entries = vault.audit_entries()
        assert [entry["kind"] for entry in entries] == ["vault.ingest"]
        assert entries[0]["case_id"] == case["case_id"]
        assert entries[0]["prev_hash"] == AUDIT_GENESIS
        assert entries[0]["t_ms"] == rootkit_bundle["virtual_time_ms"]

    def test_dump_attachment_recorded(self, vault, rootkit_bundle,
                                      rootkit_dump):
        case = vault.ingest(rootkit_bundle, dump=rootkit_dump)
        assert case["dump"]["image_bytes"] == rootkit_dump.size
        restored = vault.load_dump(case["case_id"])
        assert restored.image == rootkit_dump.image
        assert restored.guest_state == rootkit_dump.guest_state
        assert restored.symbols == rootkit_dump.symbols


class TestAdversarialIngest:
    def test_tampered_flight_event_rejected(self, vault, rootkit_bundle):
        tampered = copy.deepcopy(rootkit_bundle)
        tampered["flight"]["events"][3]["attrs"] = {"forged": True}
        before = index_of(vault)
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(tampered)
        assert excinfo.value.code == "hash-chain-broken"
        assert_vault_unchanged(vault, before)
        reject = vault.audit_entries()[-1]
        assert reject["kind"] == "vault.reject"
        assert reject["code"] == "hash-chain-broken"

    def test_truncated_epoch_chain_rejected(self, vault, rootkit_bundle):
        truncated = copy.deepcopy(rootkit_bundle)
        del truncated["epoch_chain"][-1]
        before = index_of(vault)
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(truncated)
        assert excinfo.value.code == "epoch-chain-truncated"
        assert_vault_unchanged(vault, before)

    def test_empty_epoch_chain_rejected(self, vault, rootkit_bundle):
        gutted = copy.deepcopy(rootkit_bundle)
        gutted["epoch_chain"] = []
        before = index_of(vault)
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(gutted)
        assert excinfo.value.code == "epoch-chain-empty"
        assert_vault_unchanged(vault, before)

    def test_duplicate_case_rejected(self, vault, rootkit_bundle):
        vault.ingest(rootkit_bundle)
        before = index_of(vault)
        with pytest.raises(DuplicateCaseError) as excinfo:
            vault.ingest(copy.deepcopy(rootkit_bundle))
        assert excinfo.value.code == "duplicate-case"
        assert_vault_unchanged(vault, before, cases=1)
        assert vault.stats()["rejects"] == 1

    def test_wrong_schema_rejected(self, vault, rootkit_bundle):
        wrong = copy.deepcopy(rootkit_bundle)
        wrong["schema"] = "crimes-obs/1"
        before = index_of(vault)
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(wrong)
        assert excinfo.value.code == "schema-mismatch"
        assert_vault_unchanged(vault, before)

    def test_traversal_case_id_never_touches_the_filesystem(
            self, tmp_path, vault):
        before = index_of(vault)
        # Plant a readable case.json *outside* the vault root; a
        # traversal ID that would resolve to it must 404 instead.
        outside = tmp_path / "loot"
        outside.mkdir()
        (outside / "case.json").write_text(json.dumps({"planted": True}))
        (outside / "bundle.json").write_text(json.dumps({"planted": True}))
        for case_id in ("../../loot", "..\\..\\loot", "case-../../loot",
                        "case-FEEDFACEFEEDFACE", "case-feedface", "",
                        None, "cases/../../../loot"):
            with pytest.raises(CaseNotFoundError):
                vault.case(case_id)
            with pytest.raises(CaseNotFoundError):
                vault.bundle(case_id)
            with pytest.raises(CaseNotFoundError):
                vault.load_dump(case_id)
        assert_vault_unchanged(vault, before)

    def test_bad_dump_attachment_leaves_no_staging(self, vault,
                                                   rootkit_bundle):
        before = index_of(vault)
        with pytest.raises(ServiceError):
            vault.ingest(copy.deepcopy(rootkit_bundle),
                         dump=object())  # not a MemoryDump
        assert_vault_unchanged(vault, before)
        # The rejection must not poison the case ID: a later ingest of
        # the same (valid) evidence succeeds.
        case = vault.ingest(rootkit_bundle)
        assert case["case_id"] == case_id_for(rootkit_bundle)
        assert os.listdir(vault.cases_dir) == vault.case_ids() \
            == [case["case_id"]]
        assert vault.verify_audit()["ok"]

    def test_fleet_export_head_mismatch_rejected(self, rootkit_crimes,
                                                 overflow_crimes):
        snapshots = [rootkit_crimes.observer.flight.snapshot(),
                     overflow_crimes.observer.flight.snapshot()]
        merged = merge_flight_snapshots(snapshots)
        assert verify_fleet_export(merged)["ok"]
        # Swap one tenant's declared head for the other's: each chain
        # is individually intact, but the heads no longer belong.
        forged = copy.deepcopy(merged)
        names = sorted(forged["tenants"])
        forged["tenants"][names[0]]["head_hash"] = \
            merged["tenants"][names[1]]["head_hash"]
        with pytest.raises(IngestError) as excinfo:
            verify_fleet_export(forged)
        assert excinfo.value.code == "fleet-chain-mismatch"
        assert names[0] in str(excinfo.value)


class TestAuditChain:
    def test_chain_survives_reopen(self, tmp_path, rootkit_bundle,
                                   overflow_bundle):
        vault = CaseVault(tmp_path / "v")
        vault.ingest(rootkit_bundle)
        head = vault.stats()["audit_head"]
        reopened = CaseVault(tmp_path / "v")
        assert reopened.stats()["audit_head"] == head
        reopened.ingest(overflow_bundle)
        assert reopened.verify_audit() == {"ok": True, "checked": 2,
                                           "error": None}

    def test_tampered_audit_line_detected(self, vault, rootkit_bundle):
        vault.ingest(rootkit_bundle)
        entries = vault.audit_entries()
        entries[0]["case_id"] = "case-0000000000000000"
        with open(vault.audit_path, "w") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        verdict = vault.verify_audit()
        assert not verdict["ok"]
        assert "hash mismatch" in verdict["error"]

    def test_dropped_audit_line_detected(self, vault, rootkit_bundle,
                                         overflow_bundle):
        vault.ingest(rootkit_bundle)
        vault.ingest(overflow_bundle)
        entries = vault.audit_entries()
        with open(vault.audit_path, "w") as handle:
            handle.write(json.dumps(entries[-1], sort_keys=True) + "\n")
        verdict = vault.verify_audit()
        assert not verdict["ok"]
        assert "broken" in verdict["error"]

    def test_tampered_dump_detected(self, vault, rootkit_bundle,
                                    rootkit_dump):
        case = vault.ingest(rootkit_bundle, dump=rootkit_dump)
        path = os.path.join(vault.cases_dir, case["case_id"], "dump.pkl")
        os.chmod(path, 0o644)
        with open(path, "r+b") as handle:
            handle.seek(100)
            handle.write(b"\xff")
        with pytest.raises(VaultIntegrityError):
            vault.load_dump(case["case_id"])


class TestQueries:
    def test_cross_tenant_findings_causally_ordered(self, vault,
                                                    rootkit_bundle,
                                                    overflow_bundle):
        vault.ingest(rootkit_bundle)
        vault.ingest(overflow_bundle)
        rows = vault.findings()
        assert {row["tenant"] for row in rows} == {"tenant-rk",
                                                   "tenant-ov"}
        order = [(row["t_ms"], row["tenant"],
                  1 if row["seq"] is None else 0, row["seq"] or 0)
                 for row in rows]
        assert order == sorted(order)

    def test_module_filter_normalizes_underscores(self, vault,
                                                  rootkit_bundle,
                                                  overflow_bundle):
        vault.ingest(rootkit_bundle)
        vault.ingest(overflow_bundle)
        rows = vault.findings(module="syscall_table")
        assert rows == vault.findings(module="syscall-table")
        assert rows
        assert all(row["module"] == "syscall-table" for row in rows)
        assert all(row["kind"] == "syscall-hijack" for row in rows)
        assert all(row["tenant"] == "tenant-rk" for row in rows)

    def test_since_and_tenant_filters(self, vault, rootkit_bundle,
                                      overflow_bundle):
        vault.ingest(rootkit_bundle)
        vault.ingest(overflow_bundle)
        rows = vault.findings(tenant="tenant-ov")
        assert rows and all(row["tenant"] == "tenant-ov" for row in rows)
        cutoff = rows[0]["t_ms"]
        later = vault.findings(since=cutoff + 0.001)
        assert all(row["t_ms"] > cutoff for row in later)
        assert len(later) < len(vault.findings())

    def test_missing_case_raises(self, vault):
        with pytest.raises(CaseNotFoundError):
            vault.case("case-feedfacefeedface")


class TestFindingIndex:
    def test_reopened_vault_rebuilds_the_same_index(self, tmp_path,
                                                    rootkit_bundle,
                                                    overflow_bundle):
        """The original vault answers from the index ingest filled; the
        reopened one from the index it rebuilt off disk. They agree."""
        # Ingest against the IDs' lexical order, so the rebuilt order
        # must come from the recorded ingest sequence.
        bundles = sorted([rootkit_bundle, overflow_bundle], key=case_id_for,
                         reverse=True)
        vault = CaseVault(tmp_path / "v")
        for bundle in bundles:
            vault.ingest(bundle)
        vault.attach_report(case_id_for(rootkit_bundle),
                            {"job_id": "job-0000", "kind": "triage"})
        assert vault.case_ids() == [case_id_for(b) for b in bundles]
        everything = vault.findings()
        cutoff = max(row["t_ms"] for row in everything)

        reopened = CaseVault(tmp_path / "v")
        assert reopened.case_ids() == vault.case_ids()
        for query in ({}, {"module": "syscall_table"},
                      {"tenant": "tenant-ov"}, {"since": cutoff}):
            rows = vault.findings(**query)
            assert rows, query
            assert reopened.findings(**query) == rows, query
        assert len(vault.findings(since=cutoff)) < len(everything)

    def test_answers_are_copies(self, vault, rootkit_bundle):
        vault.ingest(rootkit_bundle)
        ids, rows = index_of(vault)
        expected = copy.deepcopy(rows)
        ids.append("case-0000000000000000")
        rows[0]["module"] = "forged"
        rows[0]["t_ms"] = -1.0
        rows.pop()
        assert index_of(vault) == ([case_id_for(rootkit_bundle)], expected)


class TestConcurrentIndex:
    def test_readers_see_whole_cases_in_ingest_order(self, tmp_path,
                                                     small_bundles):
        """Four threads ingest while four threads query the index.
        Every ``case_ids()`` snapshot must be a prefix of the final
        ingest order, and every ``findings()`` answer must hold all rows
        of each case it mentions: no case is ever half-indexed. These
        bundles carry one finding row each, so a half-indexed case is
        also one listed without its rows, or with rows but unlisted:
        each answer must cover every case listed before it and mention
        none that is unlisted after it."""
        reference = CaseVault(tmp_path / "reference")
        for bundle in small_bundles:
            reference.ingest(bundle)
        rows_per_case = collections.Counter(
            row["case_id"] for row in reference.findings())

        vault = CaseVault(tmp_path / "vault")
        done = threading.Event()
        errors = []
        torn = []
        snapshots = [[] for _ in range(4)]

        def ingester(bundles):
            try:
                for bundle in bundles:
                    vault.ingest(bundle)
            except Exception as err:  # pragma: no cover - fail loud
                errors.append(err)

        def reader(seen):
            try:
                while not done.is_set():
                    ids = vault.case_ids()
                    if not seen or ids != seen[-1]:
                        seen.append(ids)
                    counts = collections.Counter(
                        row["case_id"] for row in vault.findings())
                    listed_after = set(vault.case_ids())
                    torn.extend(case_id for case_id, count in counts.items()
                                if count != rows_per_case[case_id]
                                or case_id not in listed_after)
                    torn.extend(case_id for case_id in ids
                                if case_id not in counts)
            except Exception as err:  # pragma: no cover - fail loud
                errors.append(err)

        ingesters = [threading.Thread(target=ingester,
                                      args=(small_bundles[lane::4],))
                     for lane in range(4)]
        readers = [threading.Thread(target=reader, args=(seen,))
                   for seen in snapshots]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers + ingesters:
                thread.start()
            for thread in ingesters:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=10)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in ingesters + readers)
        assert errors == []
        assert torn == []
        final = vault.case_ids()
        assert sorted(final) == sorted(reference.case_ids())
        for seen in snapshots:
            assert seen, "a reader never ran"
            for ids in seen:
                assert ids == final[:len(ids)]


class TestConcurrentAudit:
    def test_verify_audit_is_stable_under_concurrent_appends(
            self, tmp_path, rootkit_bundle):
        """Regression: ``verify_audit`` used to read the entry list and
        the head hash in two separate steps; an ingest racing between
        them made a perfectly healthy chain verify as tampered. Every
        duplicate ingest below appends a ``vault.reject`` audit entry
        while the main thread verifies in a loop — each verification
        must see some consistent (entries, head) snapshot and pass."""
        import threading

        vault = CaseVault(tmp_path / "vault")
        vault.ingest(copy.deepcopy(rootkit_bundle))

        stop = threading.Event()
        errors = []

        def hammer():
            while not stop.is_set():
                try:
                    vault.ingest(copy.deepcopy(rootkit_bundle))
                except DuplicateCaseError:
                    pass
                except Exception as err:  # pragma: no cover - fail loud
                    errors.append(err)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                verdict = vault.verify_audit()
                assert verdict["ok"], verdict
                stats = vault.stats()
                # The torn-counter shape: more audited rejects than the
                # audit chain has entries (stats raced the append).
                assert stats["audit_entries"] >= 1
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        assert vault.verify_audit()["ok"]
