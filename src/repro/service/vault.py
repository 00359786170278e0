"""The case vault: read-only evidence storage with an audited boundary.

Layout (everything under one ``root`` directory)::

    root/
      audit.jsonl            append-only, hash-chained vault audit log
      cases/<case-id>/
        case.json            crimes-case/1 metadata + attached reports
        bundle.json          the validated crimes-obs/2 bundle (0444)
        dump.pkl             optional memory-dump attachment (0444)

Three properties make this a *vault* rather than a directory of JSON:

* **Verified on ingest** — every bundle goes through
  :mod:`repro.service.ingest`, which re-derives the flight hash chain
  and the causal epoch chain; a rejected artifact never touches
  ``cases/``.
* **Read-only evidence** — ``bundle.json`` and ``dump.pkl`` are written
  once and chmod'd read-only; the case ID is derived from the flight
  chain head, so "overwriting" a case with altered evidence is
  structurally impossible (altered evidence hashes to a different ID,
  and re-ingesting identical evidence is a typed duplicate rejection).
* **Append-only audit log** — every ingest, rejection, and report
  attachment appends one line to ``audit.jsonl``, hash-chained by the
  flight journal's own rule (:mod:`repro.obs.flight`); the chain
  re-verifies with :meth:`CaseVault.verify_audit`, so the vault's own
  history carries the same tamper evidence as the bundles it holds.

Timestamps in the audit log are *virtual* (the evidence's own timeline)
plus a monotone logical sequence — the vault never reads the wall
clock, which keeps the whole storage layer deterministic and inside the
repo's crimeslint envelope; only the HTTP layer above is "real".
"""

import hashlib
import json
import os
import pickle
import re
import threading

from repro.errors import (
    CaseNotFoundError,
    DuplicateCaseError,
    IngestError,
    ServiceError,
    VaultIntegrityError,
)
from repro.forensics.dumps import MemoryDump
from repro.obs.flight import link_digest, verify_event_chain
from repro.service.ingest import case_id_for, validate_bundle

#: Schema tag for stored case artifacts.
CASE_SCHEMA = "crimes-case/1"

#: The audit chain's genesis (an empty vault has this head).
AUDIT_GENESIS = hashlib.sha256(b"crimes-case-vault-genesis").hexdigest()

#: The only shape a case ID can have: ``case-`` + 16 hex chars of the
#: flight chain head (:func:`~repro.service.ingest.case_id_for`).
_CASE_ID_RE = re.compile(r"^case-[0-9a-f]{16}$")


def _normalize_module(name):
    """Query-side module aliasing: ``syscall_table`` == ``syscall-table``."""
    return str(name).replace("_", "-")


def _finding_rows(case_id, bundle):
    """Flatten one bundle into queryable finding rows (causally stamped).

    Primary source is the journaled ``scan.finding`` flight events
    (virtual-time stamped, hash-covered); detection-result findings that
    never hit the journal (async verdicts, non-critical severities) ride
    along stamped with the bundle's incident time. Severity is joined in
    from the detection result where the module+summary matches.
    """
    detection = bundle.get("detection") or {}
    severity_by_key = {
        (finding["module"], finding["summary"]): finding["severity"]
        for finding in detection.get("findings", ())
    }
    rows = []
    seen = set()
    for event in bundle["flight"]["events"]:
        if event["kind"] != "scan.finding":
            continue
        attrs = event.get("attrs", {})
        key = (attrs.get("module"), attrs.get("summary"))
        seen.add(key)
        rows.append({
            "case_id": case_id,
            "tenant": event.get("tenant"),
            "t_ms": event.get("t_ms"),
            "epoch": event.get("epoch"),
            "seq": event.get("seq"),
            "module": attrs.get("module"),
            "kind": attrs.get("finding_kind"),
            "severity": severity_by_key.get(key),
            "summary": attrs.get("summary"),
            "source": "flight",
        })
    for finding in detection.get("findings", ()):
        if (finding["module"], finding["summary"]) in seen:
            continue
        rows.append({
            "case_id": case_id,
            "tenant": bundle.get("tenant"),
            "t_ms": bundle.get("virtual_time_ms"),
            "epoch": detection.get("epoch"),
            "seq": None,
            "module": finding["module"],
            "kind": finding["kind"],
            "severity": finding["severity"],
            "summary": finding["summary"],
            "source": "detection",
        })
    return rows


def _row_order(row):
    # Causal order across tenants: virtual time, then tenant, then the
    # per-tenant journal sequence (detection-only rows sort after the
    # journaled rows of the same instant — they carry no seq).
    return (row["t_ms"], row["tenant"] or "",
            1 if row["seq"] is None else 0, row["seq"] or 0)


class CaseVault:
    """Directory-backed case storage; safe for concurrent service use.

    The vault must be the only writer of its root: the audit head and
    the finding index are held in memory and recovered from disk only
    when a vault opens.
    """

    def __init__(self, root):
        self.root = os.path.abspath(root)
        self.cases_dir = os.path.join(self.root, "cases")
        self.audit_path = os.path.join(self.root, "audit.jsonl")
        os.makedirs(self.cases_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._audit_seq = 0
        self._audit_head = AUDIT_GENESIS
        self.rejects = 0
        self._reload_audit_state()
        # The finding index: case IDs in ingest order, and every case's
        # finding rows in causal order (:func:`_row_order`).
        self._case_ids, self._rows = self._load_index()

    # -- audit log ---------------------------------------------------------

    def _reload_audit_state(self):
        """Recover the audit chain head after a reopen (append-only)."""
        if not os.path.exists(self.audit_path):
            return
        with open(self.audit_path, "r") as handle:
            for line in handle:
                if not line.strip():
                    continue
                entry = json.loads(line)
                self._audit_seq = entry["seq"] + 1
                self._audit_head = entry["hash"]
                if entry["kind"] == "vault.reject":
                    self.rejects += 1

    def _load_index(self):
        """The finding index, rebuilt from the stored cases (reopen)."""
        cases = [self.case(case_id) for case_id in os.listdir(self.cases_dir)
                 if _CASE_ID_RE.match(case_id)]
        cases.sort(key=lambda case: case["ingested_seq"])
        case_ids = [case["case_id"] for case in cases]
        rows = [row for case_id in case_ids
                for row in _finding_rows(case_id, self.bundle(case_id))]
        rows.sort(key=_row_order)
        return case_ids, rows

    def _audit_append(self, kind, **details):
        """Append one line, linked by the flight journal's chain rule."""
        payload = {"seq": self._audit_seq, "kind": kind}
        payload.update(details)
        digest = link_digest(self._audit_head, payload)
        entry = dict(payload, prev_hash=self._audit_head, hash=digest)
        with open(self.audit_path, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
        self._audit_seq += 1
        self._audit_head = digest
        return entry

    def audit_entries(self):
        """Every audit-log entry, oldest first."""
        if not os.path.exists(self.audit_path):
            return []
        with open(self.audit_path, "r") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def verify_audit(self):
        """Re-derive the audit chain; ``{"ok", "checked", "error"}``."""
        # Snapshot the log and the head in one locked step: verifying
        # against a head an in-flight ingest is about to advance would
        # report a torn chain that never existed on disk.
        with self._lock:
            entries = self.audit_entries()
            head = self._audit_head
        return verify_event_chain(entries, head_hash=head,
                                  genesis=AUDIT_GENESIS)

    # -- ingest ------------------------------------------------------------

    def _case_dir(self, case_id):
        # Case IDs arrive off the wire (URL segments, job bodies); one
        # that does not match the content-derived format must never
        # reach os.path.join, or ``../`` walks out of the vault.
        if not isinstance(case_id, str) or not _CASE_ID_RE.match(case_id):
            raise CaseNotFoundError(case_id)
        return os.path.join(self.cases_dir, case_id)

    def ingest(self, bundle, dump=None, source="api"):
        """Validate and store one bundle; returns the case record.

        The bundle is re-verified *before* anything is written; on any
        rejection the vault's case set is untouched and the decision is
        recorded in the audit log. ``dump`` optionally attaches a
        :class:`~repro.forensics.dumps.MemoryDump` for the async
        forensics workers.
        """
        with self._lock:
            try:
                bundle = validate_bundle(bundle)
            except IngestError as err:
                self.rejects += 1
                self._audit_append(
                    "vault.reject", source=source, code=err.code,
                    detail=str(err),
                )
                raise
            case_id = case_id_for(bundle)
            case_dir = self._case_dir(case_id)
            if os.path.exists(case_dir):
                self.rejects += 1
                err = DuplicateCaseError(case_id)
                self._audit_append(
                    "vault.reject", source=source, code=err.code,
                    case_id=case_id, detail=str(err),
                )
                raise err

            rows = _finding_rows(case_id, bundle)
            # Merged before anything is written: rows that cannot join
            # the causal order fail the ingest, never leave a stored case
            # the index lacks. The stable sort keeps equal-keyed rows in
            # ingest order, as a rebuild on reopen does.
            indexed = sorted(self._rows + rows, key=_row_order)
            dump_meta = None
            staging = case_dir + ".staging"
            self._clear_staging(staging)  # stale leftover from a crash
            os.makedirs(staging)
            committed = False
            try:
                bundle_path = os.path.join(staging, "bundle.json")
                with open(bundle_path, "w") as handle:
                    json.dump(bundle, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                os.chmod(bundle_path, 0o444)
                if dump is not None:
                    dump_meta = self._write_dump(staging, dump)
                case = {
                    "schema": CASE_SCHEMA,
                    "case_id": case_id,
                    "tenant": bundle["tenant"],
                    "reason": bundle["reason"],
                    "incident_epoch": bundle["incident_epoch"],
                    "virtual_time_ms": bundle["virtual_time_ms"],
                    "ingested_seq": self._audit_seq,
                    "source": source,
                    "flight_head": bundle["flight"]["head_hash"],
                    "flight_events": len(bundle["flight"]["events"]),
                    "findings": len(rows),
                    "slo_alerts": bundle["slo"].get("alerts", 0),
                    "dump": dump_meta,
                    "reports": [],
                    "state": "open",
                }
                self._write_case_json(staging, case)
                os.rename(staging, case_dir)
                committed = True
            finally:
                # Leave no half-written case behind, whatever went
                # wrong — OSError, a non-MemoryDump attachment
                # (ServiceError), an unserializable field (TypeError).
                # A surviving staging dir would block every future
                # ingest of this case ID.
                if not committed:
                    self._clear_staging(staging)
            self._case_ids.append(case_id)
            self._rows = indexed
            self._audit_append(
                "vault.ingest", source=source, case_id=case_id,
                tenant=bundle["tenant"], reason=bundle["reason"],
                t_ms=bundle["virtual_time_ms"],
                flight_head=bundle["flight"]["head_hash"],
                dump_sha256=dump_meta["sha256"] if dump_meta else None,
            )
            return case

    def _clear_staging(self, staging):
        """Remove a staging directory, tolerating read-only contents."""
        if not os.path.isdir(staging):
            return
        for name in os.listdir(staging):
            path = os.path.join(staging, name)
            os.chmod(path, 0o644)
            os.remove(path)
        os.rmdir(staging)

    def _write_dump(self, case_dir, dump):
        """Persist a dump attachment; returns its metadata record."""
        if not isinstance(dump, MemoryDump):
            raise ServiceError(
                "dump attachment must be a MemoryDump, got %s"
                % type(dump).__name__
            )
        blob = pickle.dumps({
            "image": dump.image,
            "os_name": dump.os_name,
            "symbols": dump.symbols,
            "guest_state": dump.guest_state,
            "taken_at": dump.taken_at,
            "label": dump.label,
        })
        path = os.path.join(case_dir, "dump.pkl")
        with open(path, "wb") as handle:
            handle.write(blob)
        os.chmod(path, 0o444)
        return {
            "bytes": len(blob),
            "image_bytes": len(dump.image),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "os_name": dump.os_name,
            "label": dump.label,
            "taken_at": dump.taken_at,
        }

    def _write_case_json(self, case_dir, case):
        # Atomic replace: workers read case records without the vault
        # lock, so a concurrent reader must see the old record or the
        # new one — never a torn in-place write.
        path = os.path.join(case_dir, "case.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(case, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    # -- reading -----------------------------------------------------------

    def case_ids(self):
        """Stored case IDs, in ingest order (a copy of the index's list).

        Read from the in-memory finding index, which :meth:`ingest` fills
        and which is rebuilt from ``cases/`` when the vault opens.
        """
        with self._lock:
            return list(self._case_ids)

    def case(self, case_id):
        """The ``crimes-case/1`` record (metadata + attached reports)."""
        path = os.path.join(self._case_dir(case_id), "case.json")
        try:
            with open(path, "r") as handle:
                return json.load(handle)
        except FileNotFoundError:
            raise CaseNotFoundError(case_id) from None

    def cases(self):
        """Every case record, in ingest order."""
        return [self.case(case_id) for case_id in self.case_ids()]

    def bundle(self, case_id):
        """The stored (already-validated) incident bundle."""
        path = os.path.join(self._case_dir(case_id), "bundle.json")
        try:
            with open(path, "r") as handle:
                return json.load(handle)
        except FileNotFoundError:
            raise CaseNotFoundError(case_id) from None

    def load_dump(self, case_id):
        """Rehydrate the case's dump attachment (None if it has none).

        The stored blob is re-hashed against the sha256 recorded at
        ingest before a single plugin touches it — evidence is verified
        every time it crosses back out of storage, not just in.
        """
        case = self.case(case_id)
        meta = case.get("dump")
        if meta is None:
            return None
        path = os.path.join(self._case_dir(case_id), "dump.pkl")
        with open(path, "rb") as handle:
            blob = handle.read()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != meta["sha256"]:
            raise VaultIntegrityError(
                "dump for %s fails re-verification: stored sha256 %s, "
                "recorded %s" % (case_id, digest, meta["sha256"])
            )
        return MemoryDump(**pickle.loads(blob))

    # -- enrichment --------------------------------------------------------

    def attach_report(self, case_id, report):
        """Attach one worker report to a case (evidence stays untouched).

        Reports land in ``case.json`` sorted by ``job_id`` — the queue's
        seeded-deterministic ordering — never in ``bundle.json``, which
        remains byte-identical to what was ingested.
        """
        if "job_id" not in report:
            raise ServiceError("report needs a job_id to be attachable")
        with self._lock:
            case = self.case(case_id)
            if any(existing["job_id"] == report["job_id"]
                   for existing in case["reports"]):
                raise ServiceError(
                    "case %s already has a report for %s"
                    % (case_id, report["job_id"])
                )
            case["reports"].append(report)
            case["reports"].sort(key=lambda entry: entry["job_id"])
            case["state"] = "enriched"
            self._write_case_json(self._case_dir(case_id), case)
            self._audit_append(
                "vault.report", case_id=case_id, job_id=report["job_id"],
                report_kind=report.get("kind"),
                virtual_cost_ms=report.get("virtual_cost_ms"),
            )
            return case

    # -- cross-case query --------------------------------------------------

    def findings(self, module=None, since=None, tenant=None):
        """Query findings across every case, causally ordered.

        ``module`` matches the detector module name (underscores and
        hyphens are interchangeable: ``syscall_table`` finds the
        ``syscall-table`` module); ``since`` is a virtual-time lower
        bound in ms; ``tenant`` filters to one tenant. Rows are ordered
        by ``(t_ms, tenant, seq)`` — the same deterministic causal order
        the fleet merge uses.

        Rows come from the in-memory finding index, already in that
        order; no bundle is re-read. Each returned row is a copy, so a
        caller that edits one does not change the next answer.
        """
        wanted = _normalize_module(module) if module is not None else None
        with self._lock:
            indexed = list(self._rows)
        rows = []
        for row in indexed:
            if wanted is not None and (
                    row["module"] is None
                    or _normalize_module(row["module"]) != wanted):
                continue
            if since is not None and (row["t_ms"] is None
                                      or row["t_ms"] < since):
                continue
            if tenant is not None and row["tenant"] != tenant:
                continue
            rows.append(dict(row))
        return rows

    # -- accounting --------------------------------------------------------

    def stats(self):
        # One locked snapshot: the reject counter, audit sequence, and
        # audit head move together under ingest; reading them unlocked
        # can tear (a head that does not match the sequence).
        with self._lock:
            cases = self.cases()
            return {
                "cases": len(cases),
                "rejects": self.rejects,
                "reports": sum(len(case["reports"]) for case in cases),
                "dumps": sum(1 for case in cases if case["dump"]),
                "audit_entries": self._audit_seq,
                "audit_head": self._audit_head,
            }
