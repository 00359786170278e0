"""Content-addressed page store: cross-tenant checkpoint dedup.

Flat per-tenant backups double every tenant's memory cost (the paper's
§2 number); at fleet scale that is the host's dominant overhead, and it
is structural waste — guests booted from the same image share most of
their RAM. This module is the storage tier underneath the checkpoint
backup and its history that removes the waste:

* **Content addressing** — every 4 KiB page is keyed by the sha256 of
  its bytes. A page stored once is stored once for the whole host, no
  matter how many epochs or tenants reference it.
* **Refcounting** — checkpointer backups, history undo records and
  staged (uncommitted) epochs each hold one reference per page; a page
  is freed exactly when the last holder releases it. Per-owner logical
  counts make premature frees and leaks detectable per tenant.
* **Tiering** — resident pages are either *hot* (raw bytes) or *cold*
  (zlib-compressed); when resident bytes exceed ``budget_bytes`` the
  LRU tail demotes hot→cold and spills cold→disk, one immutable file
  per digest under ``spill_dir``.
* **Fault seam** — every spill read/write probes
  :data:`~repro.faults.planes.FaultPlane.STORE_IO`. A write that
  exhausts its retries *degrades*: the page stays resident past the
  budget (counted, never lost). A read that exhausts its retries raises
  :class:`~repro.errors.StoreIOError`, which the epoch loop handles on
  its existing synchronous-rollback path.
* **Dedup verification** — by default a dedup hit whose canonical copy
  lives on disk is read back and byte-compared before the reference is
  handed out (``verify_spilled_dedup``): the spill tier is the one
  place page bytes leave the process, so evidence-grade retention
  re-checks it on every reuse. This is also the deterministic read path
  the chaos suite drives the ``STORE_IO`` seam through.

Determinism: the store draws no wall clock and no entropy, journals
nothing on fault-free paths, and charges virtual time only for fault
backoff (drained by the checkpointer via :meth:`PageStore.take_backoff_ms`)
— so a store-backed run is bit-identical to a flat run: same virtual
clocks, same flight hash-chain heads.
"""

import os
import threading
import zlib
from collections import OrderedDict
from hashlib import sha256

from repro.errors import StoreError, StoreIOError
from repro.faults.planes import FaultPlane
from repro.guest.memory import PAGE_SIZE

#: zlib level of the cold tier (the fastest).
COMPRESS_LEVEL = 1


class _PageEntry:
    """One unique page: refcount + which tier currently holds it.

    Exactly one of three states: hot (``raw`` set), cold (``cold`` set)
    or spilled (neither set; ``disk_len`` is the file's payload size).
    """

    __slots__ = ("refs", "raw", "cold", "disk_len")

    def __init__(self, raw):
        self.refs = 0
        self.raw = raw
        self.cold = None
        self.disk_len = 0

    @property
    def spilled(self):
        return self.raw is None and self.cold is None


class PageStore:
    """A host-wide, refcounted, content-addressed page store.

    ``budget_bytes`` bounds *resident* bytes (hot raw + cold
    compressed); ``None`` keeps everything hot. ``spill_dir`` enables
    the disk tier (created if missing); without it, budget overflow
    degrades to retention, the same path a failing disk takes.
    """

    def __init__(self, budget_bytes=None, spill_dir=None, compress=True,
                 verify_spilled_dedup=True, registry=None):
        if budget_bytes is not None and budget_bytes < 0:
            raise StoreError("budget_bytes must be >= 0 (or None)")
        # The store is host-wide shared state: checkpointers mutate it
        # per-epoch while the case service's HTTP handler threads read
        # live stats. Every public method runs under this reentrant
        # lock (reentrant because ingest_frames -> put and
        # materialize -> get nest).
        self._lock = threading.RLock()
        self.budget_bytes = budget_bytes
        self.compress = compress
        self.verify_spilled_dedup = verify_spilled_dedup
        self._spill_dir = spill_dir
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)

        self._entries = {}
        # LRU order per resident tier (OrderedDict as an ordered set:
        # oldest first; a touch is move_to_end).
        self._hot = OrderedDict()
        self._cold = OrderedDict()
        self._owners = {}

        self.hot_bytes = 0
        self.cold_bytes = 0
        self.spilled_bytes = 0
        self.logical_pages = 0
        self.puts = 0
        self.gets = 0
        self.dedup_hits = 0
        self.frees = 0
        self.release_errors = 0
        self.compressions = 0
        self.decompressions = 0
        self.spill_writes = 0
        self.spill_reads = 0
        self.spill_write_failures = 0
        self.spill_read_failures = 0
        self.spill_degraded = 0
        self.verify_reads = 0
        self.verify_mismatches = 0
        self._backoff_accrued_ms = 0.0
        # One retry episode per fault activation: the first spill op
        # that meets this epoch's ActiveFault runs the bounded-retry
        # policy (journaled once, backoff charged once); every later
        # spill op in the same activation reuses the outcome — the
        # disk is up or down for the epoch, matching the one-episode-
        # per-activation accounting every other plane keeps.
        self._fault_episode = None

        self._registry = None
        if registry is not None:
            self.attach_registry(registry)

    def attach_registry(self, registry):
        """Export store counters through an ``repro.obs`` registry."""
        with self._lock:
            if self._registry is not None:
                return
            self._registry = registry
            self._dedup_counter = registry.counter(
                "store.dedup_hits", help="page puts satisfied by an existing "
                                         "content-addressed entry")
            self._spill_write_counter = registry.counter(
                "store.spill_writes", help="cold pages written to the disk tier")
            self._spill_read_counter = registry.counter(
                "store.spill_reads", help="spilled pages read back from disk")
            self._degraded_counter = registry.counter(
                "store.spill_degraded",
                help="budget evictions degraded to in-memory retention")
            self._resident_gauge = registry.gauge(
                "store.resident_bytes", help="hot raw + cold compressed bytes")
            self._unique_gauge = registry.gauge(
                "store.unique_pages", help="distinct page contents stored")
            self._dedup_ratio_gauge = registry.gauge(
                "store.dedup_ratio", help="logical pages / unique pages")

    # -- references ----------------------------------------------------------

    def put(self, page, owner, injector=None):
        """Store ``page`` under its content key; returns the key.

        The caller receives one reference (released with
        :meth:`release`). A dedup hit whose canonical copy is spilled is
        verified against the disk tier first (see module docstring) —
        the one path a fault-armed put can raise :class:`StoreIOError`.
        """
        with self._lock:
            data = bytes(page)
            if len(data) != PAGE_SIZE:
                raise StoreError(
                    "page must be exactly %d bytes, got %d"
                    % (PAGE_SIZE, len(data))
                )
            self.puts += 1
            key = sha256(data).digest()
            entry = self._entries.get(key)
            if entry is None:
                entry = _PageEntry(data)
                self._entries[key] = entry
                self._hot[key] = None
                self.hot_bytes += PAGE_SIZE
                self._enforce_budget(injector)
            else:
                self.dedup_hits += 1
                if self._registry is not None:
                    self._dedup_counter.inc()
                if entry.spilled and self.verify_spilled_dedup:
                    self._verify_spilled(key, entry, data, injector)
                elif entry.raw is not None:
                    self._hot.move_to_end(key)
                elif entry.cold is not None:
                    self._cold.move_to_end(key)
            entry.refs += 1
            self.logical_pages += 1
            self._owners[owner] = self._owners.get(owner, 0) + 1
            return key

    def retain(self, key, owner):
        """Add one reference to an already-stored page."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.refs <= 0:
                self.release_errors += 1
                raise StoreError("retain of a page key the store does not hold")
            entry.refs += 1
            self.logical_pages += 1
            self._owners[owner] = self._owners.get(owner, 0) + 1
            return key

    def release(self, key, owner):
        """Drop one reference; the page is freed when the count hits 0."""
        with self._lock:
            entry = self._entries.get(key)
            held = self._owners.get(owner, 0)
            if entry is None or entry.refs <= 0 or held <= 0:
                self.release_errors += 1
                raise StoreError(
                    "release of a page reference %r does not hold" % (owner,)
                )
            entry.refs -= 1
            self.logical_pages -= 1
            if held == 1:
                del self._owners[owner]
            else:
                self._owners[owner] = held - 1
            if entry.refs == 0:
                self._free(key, entry)

    def release_many(self, keys, owner):
        with self._lock:
            for key in keys:
                self.release(key, owner)

    def get(self, key, injector=None, promote=True):
        """The page bytes for ``key``; faults only on the spill-read path.

        ``promote=False`` reads without moving the page back into the
        hot tier — the rollback/materialize paths use it so forensic
        sweeps do not churn the working set.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise StoreError("unknown page key (already freed?)")
            self.gets += 1
            if entry.raw is not None:
                self._hot.move_to_end(key)
                return entry.raw
            if entry.cold is not None:
                data = self._decode(entry.cold)
                if promote:
                    self._promote(key, entry, data)
                    self._enforce_budget(injector)
                else:
                    self._cold.move_to_end(key)
                return data
            data = self._decode(self._spill_read(key, injector))
            if promote:
                self._promote(key, entry, data)
                self._enforce_budget(injector)
            return data

    def contains(self, key):
        with self._lock:
            return key in self._entries

    def refs(self, key):
        """Debug counter: live references to ``key`` (0 if freed)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.refs if entry is not None else 0

    # -- bulk helpers (the checkpointer's staging path) ----------------------

    def ingest_frames(self, view, pfns, owner, injector=None):
        """Hash ``pfns`` of a memory ``view`` into the store.

        Returns ``[(pfn, key), ...]`` with one reference held per frame.
        On a mid-ingest :class:`StoreIOError` (a failed dedup
        verification) the references already taken are released before
        the error propagates — a failed stage leaves no refs behind.
        """
        with self._lock:
            size = PAGE_SIZE
            keys = []
            try:
                for pfn in pfns:
                    start = pfn * size
                    key = self.put(view[start:start + size], owner,
                                   injector=injector)
                    keys.append((pfn, key))
            except StoreIOError:
                for _pfn, key in keys:
                    self.release(key, owner)
                raise
            return keys

    def materialize(self, keys, injector=None):
        """Concatenate ``keys`` into one image (no LRU promotion)."""
        with self._lock:
            return b"".join(
                self.get(key, injector=injector, promote=False) for key in keys
            )

    def take_backoff_ms(self):
        """Drain the virtual-time backoff accrued by faulted spill ops."""
        with self._lock:
            backoff, self._backoff_accrued_ms = self._backoff_accrued_ms, 0.0
            return backoff

    # -- tiering -------------------------------------------------------------

    def _decode(self, payload):
        if not self.compress:
            return bytes(payload)
        self.decompressions += 1
        return zlib.decompress(payload)

    def _encode(self, data):
        if not self.compress:
            return data
        self.compressions += 1
        return zlib.compress(data, COMPRESS_LEVEL)

    def _promote(self, key, entry, data):
        """Bring a cold/spilled page back into the hot tier."""
        if entry.cold is not None:
            del self._cold[key]
            self.cold_bytes -= len(entry.cold)
            entry.cold = None
        elif entry.spilled:
            self._remove_spill_file(key, entry)
        entry.raw = data
        self._hot[key] = None
        self.hot_bytes += PAGE_SIZE

    def _enforce_budget(self, injector):
        """Demote/spill the LRU tail until resident bytes fit the budget.

        A spill failure (fault seam or a real ``OSError``) breaks the
        loop and leaves the victim resident — degraded retention,
        counted in ``spill_degraded``; the next store operation retries.
        """
        budget = self.budget_bytes
        if budget is None:
            return
        while self.hot_bytes + self.cold_bytes > budget:
            if self.compress and self._hot:
                key, _ = self._hot.popitem(last=False)
                entry = self._entries[key]
                entry.cold = self._encode(entry.raw)
                entry.raw = None
                self._cold[key] = None
                self.hot_bytes -= PAGE_SIZE
                self.cold_bytes += len(entry.cold)
                continue
            if self._cold:
                key = next(iter(self._cold))
                entry = self._entries[key]
                payload = entry.cold
            elif self._hot:
                key = next(iter(self._hot))
                entry = self._entries[key]
                payload = entry.raw
            else:
                return
            if not self._spill_write(key, payload, injector):
                self.spill_degraded += 1
                if self._registry is not None:
                    self._degraded_counter.inc()
                return
            if entry.cold is not None:
                del self._cold[key]
                self.cold_bytes -= len(entry.cold)
                entry.cold = None
            else:
                del self._hot[key]
                self.hot_bytes -= PAGE_SIZE
                entry.raw = None
            entry.disk_len = len(payload)
            self.spilled_bytes += len(payload)

    # -- the disk tier (the STORE_IO fault seam) -----------------------------

    def _spill_path(self, key):
        return os.path.join(self._spill_dir, key.hex() + ".page")

    def _probe(self, injector, site):
        """This epoch's STORE_IO retry outcome, or None when clean."""
        if injector is None:
            return None
        fault = injector.check(FaultPlane.STORE_IO)
        if fault is None:
            return None
        cached = self._fault_episode
        if cached is not None and cached[0] is fault:
            return cached[1]
        outcome = injector.retry(fault, site=site)
        self._backoff_accrued_ms += outcome.backoff_ms
        self._fault_episode = (fault, outcome)
        return outcome

    def _spill_write(self, key, payload, injector):
        """Write one page's payload to the disk tier; False = degrade."""
        if self._spill_dir is None:
            return False
        outcome = self._probe(injector, "store-spill-write")
        if outcome is not None and not outcome.success:
            self.spill_write_failures += 1
            return False
        try:
            with open(self._spill_path(key), "wb") as handle:
                handle.write(payload)
        except OSError:
            self.spill_write_failures += 1
            return False
        self.spill_writes += 1
        if self._registry is not None:
            self._spill_write_counter.inc()
        return True

    def _spill_read(self, key, injector):
        """Read one page's payload back; exhaustion raises StoreIOError."""
        outcome = self._probe(injector, "store-spill-read")
        if outcome is not None and not outcome.success:
            self.spill_read_failures += 1
            raise StoreIOError(
                "spill read of page %s failed after %d attempt(s)"
                % (key.hex()[:12], outcome.attempts)
            )
        try:
            with open(self._spill_path(key), "rb") as handle:
                payload = handle.read()
        except OSError as err:
            self.spill_read_failures += 1
            raise StoreIOError(
                "spill read of page %s failed: %s" % (key.hex()[:12], err)
            ) from err
        self.spill_reads += 1
        if self._registry is not None:
            self._spill_read_counter.inc()
        return payload

    def _verify_spilled(self, key, entry, expected, injector):
        """Re-check a spilled canonical page before handing out a ref."""
        data = self._decode(self._spill_read(key, injector))
        self.verify_reads += 1
        if data != expected:
            self.verify_mismatches += 1
            raise StoreIOError(
                "spilled page %s failed dedup verification: disk tier "
                "returned different bytes" % key.hex()[:12]
            )
        self._promote(key, entry, data)
        self._enforce_budget(injector)

    def _remove_spill_file(self, key, entry):
        self.spilled_bytes -= entry.disk_len
        entry.disk_len = 0
        try:
            os.remove(self._spill_path(key))
        except OSError:
            pass  # content-addressed + immutable: a stale file is inert

    def _free(self, key, entry):
        self.frees += 1
        if entry.raw is not None:
            del self._hot[key]
            self.hot_bytes -= PAGE_SIZE
        elif entry.cold is not None:
            del self._cold[key]
            self.cold_bytes -= len(entry.cold)
        else:
            self._remove_spill_file(key, entry)
        del self._entries[key]

    # -- accounting ----------------------------------------------------------

    @property
    def resident_bytes(self):
        with self._lock:
            return self.hot_bytes + self.cold_bytes

    @property
    def unique_pages(self):
        with self._lock:
            return len(self._entries)

    @property
    def dedup_ratio(self):
        with self._lock:
            unique = len(self._entries)
            return (self.logical_pages / unique) if unique else 0.0

    def stats(self):
        """Plain-data counters (BENCH files, rollups, debug assertions)."""
        with self._lock:
            unique = len(self._entries)
            return {
                "page_size": PAGE_SIZE,
                "budget_bytes": self.budget_bytes,
                "unique_pages": unique,
                "logical_pages": self.logical_pages,
                "unique_bytes": unique * PAGE_SIZE,
                "logical_bytes": self.logical_pages * PAGE_SIZE,
                "dedup_ratio": self.dedup_ratio,
                "hot_pages": len(self._hot),
                "cold_pages": len(self._cold),
                "spilled_pages": unique - len(self._hot) - len(self._cold),
                "hot_bytes": self.hot_bytes,
                "cold_bytes": self.cold_bytes,
                "resident_bytes": self.resident_bytes,
                "spilled_bytes": self.spilled_bytes,
                "puts": self.puts,
                "gets": self.gets,
                "dedup_hits": self.dedup_hits,
                "frees": self.frees,
                "release_errors": self.release_errors,
                "compressions": self.compressions,
                "decompressions": self.decompressions,
                "spill_writes": self.spill_writes,
                "spill_reads": self.spill_reads,
                "spill_write_failures": self.spill_write_failures,
                "spill_read_failures": self.spill_read_failures,
                "spill_degraded": self.spill_degraded,
                "verify_reads": self.verify_reads,
                "verify_mismatches": self.verify_mismatches,
                "owners": len(self._owners),
            }

    def export_metrics(self):
        """Refresh the registry gauges from the live counters."""
        with self._lock:
            if self._registry is None:
                return
            self._resident_gauge.set(self.resident_bytes)
            self._unique_gauge.set(len(self._entries))
            self._dedup_ratio_gauge.set(self.dedup_ratio)

    def per_tenant(self):
        """owner -> logical pages/bytes + resident bytes attributed.

        Attribution splits resident bytes proportionally to each owner's
        logical references — the deduped bytes/tenant number
        ``CloudHost.memory_overhead_bytes()`` is built on.
        """
        with self._lock:
            total = self.logical_pages
            resident = self.resident_bytes
            out = {}
            for owner, pages in sorted(self._owners.items()):
                out[owner] = {
                    "logical_pages": pages,
                    "logical_bytes": pages * PAGE_SIZE,
                    "attributed_bytes": (
                        resident * pages / total if total else 0.0
                    ),
                }
            return out

    def verify_integrity(self):
        """Cross-check refcounts, tiers and byte counters; raises on drift.

        The adversarial lifecycle tests call this after every teardown
        ordering they can construct: leaks show up as surviving entries
        whose owners are gone, premature frees as release errors long
        before this point.
        """
        with self._lock:
            ref_total = 0
            hot_bytes = 0
            cold_bytes = 0
            disk_bytes = 0
            for key, entry in self._entries.items():
                if entry.refs <= 0:
                    raise StoreError(
                        "entry %s survives with %d refs" % (key.hex()[:12],
                                                            entry.refs)
                    )
                ref_total += entry.refs
                tiers = ((entry.raw is not None) + (entry.cold is not None)
                         + (1 if entry.spilled else 0))
                if tiers != 1:
                    raise StoreError(
                        "entry %s is in %d tiers" % (key.hex()[:12], tiers)
                    )
                if entry.raw is not None:
                    hot_bytes += PAGE_SIZE
                    if key not in self._hot:
                        raise StoreError("hot entry missing from hot LRU")
                elif entry.cold is not None:
                    cold_bytes += len(entry.cold)
                    if key not in self._cold:
                        raise StoreError("cold entry missing from cold LRU")
                else:
                    disk_bytes += entry.disk_len
                    if not os.path.exists(self._spill_path(key)):
                        raise StoreError(
                            "spilled entry %s has no file on disk"
                            % key.hex()[:12]
                        )
            owner_total = sum(self._owners.values())
            if ref_total != self.logical_pages or ref_total != owner_total:
                raise StoreError(
                    "refcount drift: entries hold %d refs, logical_pages=%d, "
                    "owners hold %d" % (ref_total, self.logical_pages,
                                        owner_total)
                )
            if (hot_bytes != self.hot_bytes or cold_bytes != self.cold_bytes
                    or disk_bytes != self.spilled_bytes):
                raise StoreError(
                    "byte-counter drift: hot %d/%d cold %d/%d disk %d/%d"
                    % (hot_bytes, self.hot_bytes, cold_bytes, self.cold_bytes,
                       disk_bytes, self.spilled_bytes)
                )
            return True
