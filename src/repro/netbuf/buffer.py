"""The hypervisor-side output buffer.

Installed as the guest's device sink. In ``SYNCHRONOUS`` mode outputs are
queued and only reach the downstream (real) sink on :meth:`commit`; in
``BEST_EFFORT`` mode they pass straight through (§3.1's Best Effort
Safety). Rollback calls :meth:`discard`, annihilating the speculative
epoch's outputs — an attacked epoch therefore has *no* external effect.

Buffered outputs carry a global sequence number stamped at emission, and
:meth:`commit` releases them in exactly that order: a disk write issued
between two packets reaches the world between those packets, preserving
cross-device emission order (a database's write-ahead ordering depends
on this).

Each output is also stamped with the epoch it was speculated in
(:meth:`begin_epoch`), release/discard journal entries name the epochs
they touched (the chaos suite re-derives the safety invariant from
those entries), and a :meth:`release` for an epoch that rollback
already discarded is a counted no-op — never a late leak.
"""

import enum

from repro.errors import NetbufReleaseError
from repro.faults.planes import FaultPlane
from repro.obs.observer import Observer
from repro.sim.clock import VirtualClock


class BufferMode(enum.Enum):
    SYNCHRONOUS = "synchronous"
    BEST_EFFORT = "best_effort"


_PACKET = "packet"
_DISK_WRITE = "disk_write"


class BufferedOutput:
    """One queued output: its kind, payload, and emission metadata."""

    __slots__ = ("seq", "kind", "item", "emitted_at_ms", "epoch")

    def __init__(self, seq, kind, item, emitted_at_ms, epoch=None):
        self.seq = seq
        self.kind = kind
        self.item = item
        self.emitted_at_ms = emitted_at_ms
        self.epoch = epoch

    def __repr__(self):
        return "BufferedOutput(seq=%d, %s, epoch=%s)" % (
            self.seq, self.kind, self.epoch,
        )


class OutputBuffer:
    """Packet/disk-write buffer between a guest's devices and the world."""

    def __init__(self, downstream, mode=BufferMode.SYNCHRONOUS, clock=None,
                 observer=None, injector=None):
        self.downstream = downstream
        self.mode = mode
        # Without a clock every output is stamped at 0.0 ms.
        self._clock = clock if clock is not None else VirtualClock()
        if observer is None:
            observer = Observer(self._clock)
        self._flight = observer.flight
        self._injector = injector
        # One "buffer.hold" journal event per speculation batch, not per
        # output — the flight ring must not be flooded by a chatty guest.
        self._hold_journaled = False
        self._pending = []
        self._next_seq = 0
        self._epoch = None
        self._discarded_epochs = set()
        self.committed_packets = 0
        self.committed_disk_writes = 0
        self.discarded_packets = 0
        self.discarded_disk_writes = 0
        #: Virtual-time cost of downstream-release retries in the most
        #: recent commit (the epoch loop charges it to the clock).
        self.last_release_backoff_ms = 0.0
        registry = observer.registry
        self._buffered_total = registry.counter(
            "netbuf.buffered_total",
            help="outputs queued while speculating")
        self._committed_total = registry.counter(
            "netbuf.committed_total", help="outputs released downstream")
        self._discarded_total = registry.counter(
            "netbuf.discarded_total", help="outputs destroyed by rollback")
        self._residency = registry.histogram(
            "netbuf.residency_ms",
            help="time outputs sat in the buffer before release")
        self._release_retries = registry.counter(
            "netbuf.release_retries",
            help="downstream flushes retried after a release fault")
        self._flight.bind_counter("buffer.release_stale", registry.counter(
            "netbuf.stale_releases",
            help="release() calls for epochs already discarded"))

    # -- sink interface (guest devices call these) -------------------------

    def begin_epoch(self, epoch):
        """Stamp subsequently queued outputs with their epoch."""
        self._epoch = epoch

    def _enqueue(self, kind, item):
        self._pending.append(
            BufferedOutput(self._next_seq, kind, item, self._clock.now,
                           epoch=self._epoch)
        )
        self._next_seq += 1
        self._buffered_total.inc()
        if not self._hold_journaled:
            self._flight.record("buffer.hold", epoch=self._epoch,
                                first_seq=self._pending[0].seq)
            self._hold_journaled = True

    def emit_packet(self, packet):
        if self.mode is BufferMode.BEST_EFFORT:
            self.downstream.emit_packet(packet)
        else:
            self._enqueue(_PACKET, packet)

    def emit_disk_write(self, write):
        if self.mode is BufferMode.BEST_EFFORT:
            self.downstream.emit_disk_write(write)
        else:
            self._enqueue(_DISK_WRITE, write)

    # -- epoch control -------------------------------------------------------

    def pending_packets(self):
        return sum(1 for entry in self._pending if entry.kind is _PACKET)

    def pending_disk_writes(self):
        return sum(1 for entry in self._pending if entry.kind is _DISK_WRITE)

    def held_epochs(self):
        """Distinct epochs with outputs still parked in the buffer."""
        return sorted({entry.epoch for entry in self._pending
                       if entry.epoch is not None})

    def _release_gate(self):
        """Probe the NETBUF_RELEASE fault plane before touching the sink.

        The gate is all-or-nothing: it runs *before* the first entry is
        emitted, so a faulting flush never splits a batch (determinism,
        and no half-released epoch to reason about). Exhausted retries
        raise :class:`NetbufReleaseError`; the caller holds the batch.
        """
        self.last_release_backoff_ms = 0.0
        injector = self._injector
        if injector is None:
            return
        fault = injector.check(FaultPlane.NETBUF_RELEASE)
        if fault is None:
            return
        outcome = injector.retry(fault, site="netbuf-release")
        self.last_release_backoff_ms = outcome.backoff_ms
        if outcome.failed_attempts:
            self._release_retries.inc(outcome.failed_attempts)
        if not outcome.success:
            raise NetbufReleaseError(
                "downstream sink rejected the flush after %d attempt(s)"
                % outcome.attempts
            )

    def _flush(self, pending):
        """Emit ``pending`` downstream in order; returns the counts."""
        packets = disk_writes = 0
        now = self._clock.now
        for entry in pending:
            if entry.kind is _PACKET:
                self.downstream.emit_packet(entry.item)
                packets += 1
            else:
                self.downstream.emit_disk_write(entry.item)
                disk_writes += 1
            self._residency.observe(now - entry.emitted_at_ms)
        self.committed_packets += packets
        self.committed_disk_writes += disk_writes
        if pending:
            self._committed_total.inc(len(pending))
            self._flight.record(
                "buffer.release", packets=packets, disk_writes=disk_writes,
                epochs=sorted({entry.epoch for entry in pending},
                              key=lambda e: (e is None, e)),
            )
        return packets, disk_writes

    def commit(self):
        """Release every buffered output downstream in emission order."""
        self._release_gate()
        pending, self._pending = self._pending, []
        counts = self._flush(pending)
        self._hold_journaled = False
        return counts

    def release(self, epoch):
        """Release the outputs of epochs up to and including ``epoch``.

        If that epoch's outputs were already destroyed by a rollback
        (:meth:`discard`), this is a journaled, counted no-op — a late
        release must never resurrect outputs the rollback annihilated.
        """
        if epoch in self._discarded_epochs:
            self._flight.record("buffer.release_stale", epoch=epoch)
            return 0, 0
        self._release_gate()
        releasable = [entry for entry in self._pending
                      if entry.epoch is None or entry.epoch <= epoch]
        self._pending = [entry for entry in self._pending
                         if not (entry.epoch is None or entry.epoch <= epoch)]
        counts = self._flush(releasable)
        if not self._pending:
            self._hold_journaled = False
        return counts

    def discard(self):
        """Drop the epoch's outputs (rollback path)."""
        pending, self._pending = self._pending, []
        packets = sum(1 for entry in pending if entry.kind is _PACKET)
        disk_writes = len(pending) - packets
        self.discarded_packets += packets
        self.discarded_disk_writes += disk_writes
        epochs = sorted({entry.epoch for entry in pending
                         if entry.epoch is not None})
        self._discarded_epochs.update(epochs)
        if self._epoch is not None:
            # The epoch being rolled back is discarded even if it never
            # queued an output — a later release() for it must still no-op.
            self._discarded_epochs.add(self._epoch)
        if pending:
            self._discarded_total.inc(len(pending))
            self._flight.record("buffer.discard", packets=packets,
                                disk_writes=disk_writes, epochs=epochs)
        self._hold_journaled = False
        return packets, disk_writes

    def peek_packets(self):
        """Read-only view of buffered packets (outgoing-content scanners)."""
        return tuple(entry.item for entry in self._pending
                     if entry.kind is _PACKET)

    def peek_outputs(self):
        """Read-only view of all buffered outputs, in emission order."""
        return tuple(self._pending)
