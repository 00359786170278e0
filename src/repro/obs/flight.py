"""The flight recorder: an always-on, tamper-evident epoch-event journal.

CRIMES's premise is *evidence*: when an audit fails, the operator needs
the story around the detection — not just the metric values at the end.
Following CloRoFor's argument that cloud forensics needs always-on
journals collected *before* the incident, every :class:`Observer`
carries a bounded ring of structured epoch-lifecycle events (epoch
begin/commit/abort, harvest, scan verdicts, buffer hold/release,
rollback, replay, SLO alerts), each stamped with virtual time and
causal IDs (tenant / epoch / span) and linked into a rolling SHA-256
hash chain for tamper evidence.

Two invariants keep the recorder production-safe:

* **Bounded** — the ring holds at most ``capacity`` events; older events
  are evicted (and counted), but the hash chain keeps rolling, so the
  retained suffix still verifies against the recorded head hash.
* **Deterministic** — hashes cover only virtual-time payloads (canonical
  JSON), never host wall time; identical simulated runs produce
  identical chains. Host wall time is tracked separately, purely as
  self-overhead accounting (the recorder reports its own cost, as the
  VMI container-monitoring literature demands of any always-on monitor).
"""

import hashlib
import json
import time
from collections import deque

from repro.errors import ObservabilityError

#: The hash every chain starts from (a run with zero events has this head).
GENESIS_HASH = hashlib.sha256(b"crimes-flight-genesis").hexdigest()

#: The closed event vocabulary. Downstream consumers (incident bundles,
#: replay filters, the SLO watchdog) key on these strings, so a typo'd
#: kind would silently fork the journal's vocabulary; crimeslint CRL004
#: statically checks every ``journal``/``record`` literal against this
#: registry. Tests may record ad-hoc kinds — ``record`` does not enforce
#: membership at runtime (``bind_counter`` does, for the kinds it binds).
EVENT_KINDS = frozenset({
    "analyzer.report",
    "async.cancelled",
    "async.dispatch",
    "buffer.discard",
    "buffer.hold",
    "buffer.release",
    "buffer.release_stale",
    "checkpoint.harvest",
    "checkpoint.sync_lost",
    "degraded.enter",
    "degraded.exit",
    "degraded.shed",
    "epoch.abort",
    "epoch.begin",
    "epoch.commit",
    "epoch.held",
    "epoch.rolled_back",
    "fault.escalated",
    "fault.injected",
    "fault.observed",
    "fault.recovered",
    "fleet.admit",
    "fleet.evict",
    "fleet.round",
    "incident",
    "overlap.deferred",
    "overlap.discarded",
    "overlap.release_held",
    "replay",
    "rollback",
    "scan.finding",
    "scan.verdict",
    "slo.alert",
    "slo.nudge",
    "tenant.quarantined",
    "vmi.list_truncated",
})

#: Canonical-JSON encoder, built once — ``json.dumps`` with non-default
#: arguments constructs a fresh encoder per call, which the recorder's
#: always-on hot path cannot afford.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_sha256 = hashlib.sha256


def _payload_digest(prev_hash, payload):
    """Chain step: SHA-256 over the previous hash + canonical payload."""
    return _sha256(
        (prev_hash + _canonical(payload)).encode("utf-8")
    ).hexdigest()


class FlightEvent:
    """One journal entry: what happened, when, and in whose causal scope.

    The chain fields (``prev_hash`` / ``hash``) are *sealed lazily*: the
    recorder batches digest computation and runs it the first time any
    chain state is observed (or when an unsealed event is about to fall
    off the ring). The digests are a pure function of the recorded
    payloads, so lazy sealing produces bit-identical chains to eager
    hashing — it just keeps the per-event hot path to an append.
    """

    __slots__ = ("seq", "t_ms", "kind", "tenant", "epoch", "span_id",
                 "attrs", "_recorder", "_prev_hash", "_hash")

    def __init__(self, seq, t_ms, kind, tenant, epoch, span_id, attrs,
                 recorder):
        self.seq = seq
        self.t_ms = t_ms
        self.kind = kind
        self.tenant = tenant
        self.epoch = epoch
        self.span_id = span_id
        self.attrs = attrs
        self._recorder = recorder
        self._prev_hash = None
        self._hash = None

    @property
    def prev_hash(self):
        if self._hash is None:
            self._recorder.seal()
        return self._prev_hash

    @property
    def hash(self):
        if self._hash is None:
            self._recorder.seal()
        return self._hash

    def payload(self):
        """The hashed portion (everything except the chain fields)."""
        return {
            "seq": self.seq,
            "t_ms": self.t_ms,
            "kind": self.kind,
            "tenant": self.tenant,
            "epoch": self.epoch,
            "span_id": self.span_id,
            "attrs": self.attrs,
        }

    def to_dict(self):
        out = self.payload()
        out["prev_hash"] = self.prev_hash
        out["hash"] = self.hash
        return out

    def __repr__(self):
        return "FlightEvent(#%d %s epoch=%s t=%.3fms)" % (
            self.seq, self.kind, self.epoch, self.t_ms,
        )


class FlightRecorder:
    """Bounded, hash-chained ring journal on the virtual clock."""

    def __init__(self, clock, tenant="vm", capacity=4096):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.clock = clock
        self.tenant = tenant
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self._next_seq = 0
        self.evicted = 0
        self._head = GENESIS_HASH
        #: Events recorded but not yet folded into the chain (refs into
        #: the ring, oldest first). ``seal()`` drains it in one batch.
        self._unsealed = deque()
        # Self-overhead accounting (host wall time; never hashed).
        self.overhead_wall_s = 0.0
        self.events_recorded = 0
        #: kind -> the registry counter :meth:`record` bumps per event.
        self._counters = {}

    @property
    def head_hash(self):
        """The rolling chain head (sealing any pending events first)."""
        if self._unsealed:
            self.seal()
        return self._head

    # -- recording ---------------------------------------------------------

    def bind_counter(self, kind, counter):
        """Bind ``counter`` to ``kind``; returns the counter.

        From now on every recorded ``kind`` event bumps ``counter`` by
        one, so a metric that counts one journal kind is that kind's
        count by construction. Binding the same counter again is a
        no-op; an undeclared kind, or a second counter for a bound kind,
        raises :class:`~repro.errors.ObservabilityError`.
        """
        if kind not in EVENT_KINDS:
            raise ObservabilityError(
                "cannot count undeclared journal kind %r" % kind)
        bound = self._counters.setdefault(kind, counter)
        if bound is not counter:
            raise ObservabilityError(
                "journal kind %r is already counted by %r"
                % (kind, bound.name))
        return counter

    def record(self, kind, epoch=None, span_id=None, **attrs):
        """Append one event; returns it. O(1) amortized, bounded."""
        started = time.perf_counter()
        event = FlightEvent(
            seq=self._next_seq,
            t_ms=self.clock.now,
            kind=kind,
            tenant=self.tenant,
            epoch=epoch,
            span_id=span_id,
            attrs=attrs,
            recorder=self,
        )
        self._next_seq += 1
        if len(self._ring) == self.capacity:
            # Never evict an unsealed event: its digest must be folded
            # into the rolling head before the payload is dropped.
            if self._ring[0]._hash is None:
                self.seal(_started=started)
                started = time.perf_counter()
            self.evicted += 1
        self._ring.append(event)
        self._unsealed.append(event)
        self.events_recorded += 1
        self.overhead_wall_s += time.perf_counter() - started
        counter = self._counters.get(kind)
        if counter is not None:
            counter.inc()
        return event

    def seal(self, _started=None):
        """Fold every pending event into the hash chain (one batch).

        Digests are a pure function of the payloads, so batching here
        yields the exact chain eager hashing would — while keeping the
        epoch loop's per-event cost to an append. Runs automatically the
        first time chain state is read and before an unsealed eviction.
        """
        if not self._unsealed:
            return
        started = _started if _started is not None else time.perf_counter()
        head = self._head
        tenant = self.tenant
        while self._unsealed:
            event = self._unsealed.popleft()
            digest = _payload_digest(head, {
                "seq": event.seq,
                "t_ms": event.t_ms,
                "kind": event.kind,
                "tenant": tenant,
                "epoch": event.epoch,
                "span_id": event.span_id,
                "attrs": event.attrs,
            })
            event._prev_hash = head
            event._hash = digest
            head = digest
        self._head = head
        self.overhead_wall_s += time.perf_counter() - started

    # -- reading -----------------------------------------------------------

    def events(self, kind=None, epoch=None):
        """Retained events, oldest first, optionally filtered."""
        out = []
        for event in self._ring:
            if kind is not None and event.kind != kind:
                continue
            if epoch is not None and event.epoch != epoch:
                continue
            out.append(event)
        return out

    def last(self, kind=None):
        """Most recent retained event (of ``kind``, if given), or None."""
        for event in reversed(self._ring):
            if kind is None or event.kind == kind:
                return event
        return None

    def __len__(self):
        return len(self._ring)

    # -- tamper evidence ---------------------------------------------------

    def verify_chain(self):
        """Re-derive the retained chain; report whether it is intact.

        The oldest retained event anchors the check (its ``prev_hash`` is
        trusted — its predecessors were evicted); every later link must
        recompute, and the final link must equal the rolling head hash.
        """
        return verify_event_chain(
            [event.to_dict() for event in self._ring],
            head_hash=self.head_hash,
        )

    # -- export ------------------------------------------------------------

    def snapshot(self):
        """Plain-data dump of the ring plus chain + overhead accounting."""
        return {
            "tenant": self.tenant,
            "capacity": self.capacity,
            "events": [event.to_dict() for event in self._ring],
            "evicted": self.evicted,
            "head_hash": self.head_hash,
            "genesis_hash": GENESIS_HASH,
            "verify": self.verify_chain(),
            "overhead": self.overhead(),
        }

    def summary(self):
        """Small rollup for ``Observer.summary()`` (no event bodies)."""
        return {
            "events": len(self._ring),
            "recorded_total": self.events_recorded,
            "evicted": self.evicted,
            "head_hash": self.head_hash,
            "overhead": self.overhead(),
        }

    def overhead(self):
        """The recorder's own cost (host wall seconds; not simulated)."""
        return {
            "events_recorded": self.events_recorded,
            "wall_s": self.overhead_wall_s,
        }


def verify_event_chain(event_dicts, head_hash=None):
    """Verify a serialized event chain (e.g. from an incident bundle).

    Returns ``{"ok": bool, "checked": int, "error": str|None}``. Works on
    plain dicts so a bundle consumer can validate without the recorder.
    """
    checked = 0
    prev = None
    for entry in event_dicts:
        payload = {key: entry[key] for key in
                   ("seq", "t_ms", "kind", "tenant", "epoch", "span_id",
                    "attrs")}
        expected = _payload_digest(entry["prev_hash"], payload)
        if expected != entry["hash"]:
            return {"ok": False, "checked": checked,
                    "error": "event seq=%d hash mismatch" % entry["seq"]}
        if prev is not None and entry["prev_hash"] != prev["hash"]:
            return {"ok": False, "checked": checked,
                    "error": "chain broken between seq=%d and seq=%d"
                             % (prev["seq"], entry["seq"])}
        prev = entry
        checked += 1
    if head_hash is not None:
        tail = prev["hash"] if prev is not None else GENESIS_HASH
        if tail != head_hash:
            return {"ok": False, "checked": checked,
                    "error": "head hash does not match the retained tail"}
    return {"ok": True, "checked": checked, "error": None}
