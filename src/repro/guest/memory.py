"""Simulated guest physical memory.

A flat byte-addressable RAM divided into 4 KiB frames. Every store marks
its frames in the attached log-dirty bitmap (:attr:`PhysicalMemory.dirty_log`)
— the hook the hypervisor's log-dirty mode sets, exactly as Xen
intercepts guest stores via shadow/EPT write protection.
"""

import numpy as _np

from repro.errors import PhysicalAccessError

PAGE_SIZE = 4096


def frame_rows(buffer):
    """``buffer`` as a (frames x PAGE_SIZE) matrix of uint64 words.

    Zero-copy, and writable when ``buffer`` is. uint64 rows move the
    same bytes as uint8 ones with 1/8th the elements, so gathers and
    scatters of whole frames run measurably faster.
    """
    return _np.frombuffer(buffer, dtype=_np.uint64).reshape(-1, PAGE_SIZE // 8)


def _range_error(paddr, length, size):
    return PhysicalAccessError(
        "physical access [0x%x, +%d) outside RAM of %d bytes"
        % (paddr, length, size)
    )


class PhysicalMemory:
    """Byte-addressable simulated RAM with a log-dirty hook per store."""

    def __init__(self, size_bytes):
        if size_bytes <= 0 or size_bytes % PAGE_SIZE != 0:
            raise PhysicalAccessError(
                "memory size must be a positive multiple of %d, got %r"
                % (PAGE_SIZE, size_bytes)
            )
        self.size = size_bytes
        self.frame_count = size_bytes // PAGE_SIZE
        self._ram = bytearray(size_bytes)
        #: The attached log-dirty bitmap (a
        #: :class:`~repro.hypervisor.dirty.DirtyBitmap`), or ``None``.
        #: Every tracked store marks its frames here: ``set`` for one
        #: frame, ``set_range`` for a span. ``Domain.enable_log_dirty``
        #: sets it and ``disable_log_dirty`` clears it.
        self.dirty_log = None
        self._write_observers = []
        #: Bumped on every bulk restore that bypasses dirty tracking
        #: (``load_bytes`` / ``write_frame`` with ``notify=False``, and
        #: ``load_frames`` once per frame). Consumers that maintain
        #: incremental views of RAM (e.g. the checkpointer's rollback
        #: fast path) compare generations to know when their tracking
        #: went stale.
        self.untracked_loads = 0

    # -- observation ---------------------------------------------------

    def add_write_observer(self, callback):
        """Register ``callback(paddr, data)`` for byte-precise write traps.

        This is the hook Xen-style memory-event monitoring attaches to
        during replay; it is expensive, so nothing registers it in normal
        operation (§4.2: "event monitoring with Xen is expensive").
        """
        self._write_observers.append(callback)

    def remove_write_observer(self, callback):
        self._write_observers.remove(callback)

    def _notify_write(self, paddr, data):
        for callback in self._write_observers:
            callback(paddr, data)

    # -- access --------------------------------------------------------

    def read(self, paddr, length):
        """Read ``length`` bytes at physical address ``paddr``."""
        end = paddr + length
        if paddr < 0 or length < 0 or end > self.size:
            raise _range_error(paddr, length, self.size)
        # One copy, out of a short-lived view (slicing the bytearray
        # first would copy twice).
        return memoryview(self._ram)[paddr:end].tobytes()

    def read_frames(self, frames, offset, length):
        """``length`` bytes of a range laid out one page per frame.

        The range starts ``offset`` bytes into ``frames[0]`` and runs on
        at the start of ``frames[1]``, ``frames[2]``, ...: what a load
        through a page table sees when the pages of a virtual range sit
        on frames that need not be adjacent.
        """
        first = PAGE_SIZE - offset
        parts = [self.read(int(frames[0]) * PAGE_SIZE + offset,
                           min(first, length))]
        for index, pfn in enumerate(frames[1:].tolist()):
            done = first + index * PAGE_SIZE
            parts.append(self.read(pfn * PAGE_SIZE,
                                   min(PAGE_SIZE, length - done)))
        return b"".join(parts)

    def write(self, paddr, data):
        """Write ``data`` at physical address ``paddr``, marking frames dirty."""
        length = len(data)
        end = paddr + length
        if paddr < 0 or end > self.size:
            raise _range_error(paddr, length, self.size)
        self._ram[paddr:end] = data
        if length:
            dirty_log = self.dirty_log
            if dirty_log is not None:
                first = paddr // PAGE_SIZE
                last = (end - 1) // PAGE_SIZE
                if first == last:
                    dirty_log.set(first)
                else:
                    dirty_log.set_range(first, last)
            if self._write_observers:
                self._notify_write(paddr, bytes(data))

    def touch_frame(self, pfn, value=0xA5):
        """Dirty one frame with a single byte store (bulk-workload fast path)."""
        if pfn < 0 or pfn >= self.frame_count:
            raise PhysicalAccessError("frame %d outside RAM" % pfn)
        paddr = pfn * PAGE_SIZE
        self._ram[paddr] = value & 0xFF
        if self.dirty_log is not None:
            self.dirty_log.set(pfn)
        if self._write_observers:
            self._notify_write(paddr, bytes([value & 0xFF]))

    def read_frame(self, pfn):
        """Return the 4 KiB contents of one frame."""
        if pfn < 0 or pfn >= self.frame_count:
            raise PhysicalAccessError("frame %d outside RAM" % pfn)
        start = pfn * PAGE_SIZE
        return memoryview(self._ram)[start:start + PAGE_SIZE].tobytes()

    def write_frame(self, pfn, data, notify=True):
        """Replace one frame's contents (used by checkpoint restore)."""
        if len(data) != PAGE_SIZE:
            raise PhysicalAccessError(
                "frame write must be exactly %d bytes, got %d" % (PAGE_SIZE, len(data))
            )
        if pfn < 0 or pfn >= self.frame_count:
            raise PhysicalAccessError("frame %d outside RAM" % pfn)
        start = pfn * PAGE_SIZE
        self._ram[start : start + PAGE_SIZE] = data
        if not notify:
            self.untracked_loads += 1
        elif self.dirty_log is not None:
            self.dirty_log.set(pfn)

    def load_frames(self, pfns, rows):
        """Replace many frames in one scatter, untracked (rollback restore).

        ``pfns`` is an integer array and ``rows`` the matching
        ``(len(pfns), PAGE_SIZE // 8)`` uint64 matrix (see
        :func:`frame_rows`). Equivalent to ``write_frame(pfn, row,
        notify=False)`` per frame, ``untracked_loads`` included.
        """
        if rows.dtype != _np.uint64 or rows.shape != (len(pfns), PAGE_SIZE // 8):
            raise PhysicalAccessError(
                "load_frames needs a (%d, %d) uint64 row matrix, got %s %s"
                % (len(pfns), PAGE_SIZE // 8, rows.shape, rows.dtype)
            )
        if len(pfns) and (pfns.min() < 0 or pfns.max() >= self.frame_count):
            raise PhysicalAccessError("load_frames: pfns outside RAM")
        frame_rows(self._ram)[pfns] = rows
        self.untracked_loads += len(pfns)

    # -- whole-image operations -----------------------------------------

    def snapshot_bytes(self):
        """A full copy of RAM (used for memory dumps and checkpoints)."""
        return bytes(self._ram)

    def load_bytes(self, image, notify=False):
        """Restore RAM from a full image produced by :meth:`snapshot_bytes`."""
        if len(image) != self.size:
            raise PhysicalAccessError(
                "image size %d does not match RAM size %d" % (len(image), self.size)
            )
        self._ram[:] = image
        if not notify:
            self.untracked_loads += 1
        elif self.dirty_log is not None:
            self.dirty_log.set_range(0, self.frame_count - 1)

    def view(self):
        """A read-only memoryview of RAM (zero-copy scanning)."""
        return memoryview(self._ram).toreadonly()
