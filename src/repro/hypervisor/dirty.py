"""Log-dirty bitmap and the two scan strategies of §4.1 (Optimization 3).

Remus scans the dirty bitmap bit by bit; CRIMES scans a machine word at a
time, skipping zero words — exploiting the fact that most of memory is
clean and dirty pages cluster. Both strategies are implemented for real
over a word-array bitmap, and both report visit statistics the cost model
converts into virtual time (Figure 6b).

The bitmap is backed by a flat ``bytearray`` (one bit per frame, 64-bit
words stored little-endian) so the optimized scan extracts the dirty set
in bulk through ``numpy`` instead of a per-word Python loop. The reported
:class:`ScanStats` are a function of the bitmap contents, never of the
host implementation: the *virtual* cost of a scan depends only on which
words are non-zero.
"""

import sys

import numpy as _np

from repro.errors import HypervisorError

WORD_BITS = 64
_LITTLE_ENDIAN = sys.byteorder == "little"

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - 3.9 fallback
    def _popcount(value):
        return bin(value).count("1")


class ScanStats:
    """How much work a bitmap scan performed."""

    __slots__ = ("words_visited", "bits_visited", "dirty_found")

    def __init__(self, words_visited=0, bits_visited=0, dirty_found=0):
        self.words_visited = words_visited
        self.bits_visited = bits_visited
        self.dirty_found = dirty_found

    def __repr__(self):
        return "ScanStats(words=%d, bits=%d, dirty=%d)" % (
            self.words_visited,
            self.bits_visited,
            self.dirty_found,
        )


class DirtyBitmap:
    """One bit per physical frame, stored as 64-bit words."""

    def __init__(self, frame_count):
        if frame_count <= 0:
            raise HypervisorError("frame_count must be positive")
        self.frame_count = frame_count
        self.word_count = (frame_count + WORD_BITS - 1) // WORD_BITS
        self._bits = bytearray(self.word_count * 8)
        self._dirty_count = 0

    def set(self, pfn):
        if not (0 <= pfn < self.frame_count):
            raise HypervisorError("pfn %d outside bitmap" % pfn)
        index = pfn >> 3
        mask = 1 << (pfn & 7)
        byte = self._bits[index]
        if not byte & mask:
            self._bits[index] = byte | mask
            self._dirty_count += 1

    def set_many(self, pfns):
        """Mark many frames dirty in one call (bulk-workload fast path).

        Validates the whole batch up front, so a bad pfn leaves the
        bitmap untouched.
        """
        pfns = pfns if isinstance(pfns, (list, tuple)) else list(pfns)
        if not pfns:
            return
        if min(pfns) < 0 or max(pfns) >= self.frame_count:
            raise HypervisorError(
                "set_many: pfns must lie in [0, %d)" % self.frame_count
            )
        bits = self._bits
        added = 0
        for pfn in pfns:
            index = pfn >> 3
            mask = 1 << (pfn & 7)
            byte = bits[index]
            if not byte & mask:
                bits[index] = byte | mask
                added += 1
        self._dirty_count += added

    def set_range(self, first_pfn, last_pfn):
        """Mark the inclusive frame range dirty (multi-frame store path).

        A guest store that spans frames marks them with this one call
        (a single-frame store calls :meth:`set`); interior whole bytes
        are filled with a single slice store.
        """
        if first_pfn > last_pfn:
            return
        if first_pfn < 0 or last_pfn >= self.frame_count:
            raise HypervisorError(
                "frame range [%d, %d] outside bitmap of %d frames"
                % (first_pfn, last_pfn, self.frame_count)
            )
        bits = self._bits
        first_byte, first_bit = divmod(first_pfn, 8)
        last_byte, last_bit = divmod(last_pfn, 8)
        added = 0
        if first_byte == last_byte:
            mask = ((2 << last_bit) - 1) & ~((1 << first_bit) - 1)
            old = bits[first_byte]
            new = old | mask
            if new != old:
                added += _popcount(new ^ old)
                bits[first_byte] = new
        else:
            old = bits[first_byte]
            new = old | (0xFF & ~((1 << first_bit) - 1))
            added += _popcount(new ^ old)
            bits[first_byte] = new
            old = bits[last_byte]
            new = old | ((2 << last_bit) - 1)
            added += _popcount(new ^ old)
            bits[last_byte] = new
            interior = last_byte - first_byte - 1
            if interior:
                existing = _popcount(
                    int.from_bytes(bits[first_byte + 1 : last_byte], "little")
                )
                added += interior * 8 - existing
                bits[first_byte + 1 : last_byte] = b"\xff" * interior
        self._dirty_count += added

    def test(self, pfn):
        if not (0 <= pfn < self.frame_count):
            raise HypervisorError("pfn %d outside bitmap" % pfn)
        return bool(self._bits[pfn >> 3] & (1 << (pfn & 7)))

    def count(self):
        """Number of dirty frames (O(1) bookkeeping, not a scan)."""
        return self._dirty_count

    def clear(self):
        self._bits = bytearray(self.word_count * 8)
        self._dirty_count = 0

    # -- scans ------------------------------------------------------------

    def _word_values(self):
        """The bitmap as a sequence of 64-bit word values (zero-copy on
        little-endian hosts)."""
        if _LITTLE_ENDIAN:
            return memoryview(self._bits).cast("Q")
        return [
            int.from_bytes(self._bits[index * 8 : index * 8 + 8], "little")
            for index in range(self.word_count)
        ]

    def scan_bit_by_bit(self):
        """Remus-style scan: visit every bit. Returns (dirty_pfns, stats)."""
        dirty = []
        for word_index, word in enumerate(self._word_values()):
            base = word_index * WORD_BITS
            for bit in range(WORD_BITS):
                pfn = base + bit
                if pfn >= self.frame_count:
                    break
                if word & (1 << bit):
                    dirty.append(pfn)
        stats = ScanStats(
            words_visited=self.word_count,
            bits_visited=self.frame_count,
            dirty_found=len(dirty),
        )
        return dirty, stats

    def scan_by_words(self):
        """CRIMES scan: skip zero words, expand only non-zero ones.

        The dirty set is extracted in one vectorized pass; slicing the
        unpacked bits to ``frame_count`` masks the final partial word's
        tail. Only the non-zero words count as visited bits.
        """
        raw = _np.frombuffer(self._bits, dtype=_np.uint8)
        bits = _np.unpackbits(raw, bitorder="little")
        dirty = _np.flatnonzero(bits[: self.frame_count]).tolist()
        words = _np.frombuffer(self._bits, dtype=_np.uint64)
        stats = ScanStats(
            words_visited=self.word_count,
            bits_visited=int(_np.count_nonzero(words)) * WORD_BITS,
            dirty_found=len(dirty),
        )
        return dirty, stats

    def harvest(self, optimized):
        """Scan with the selected strategy, then clear (read-and-reset).

        This models ``XEN_DOMCTL_SHADOW_OP_CLEAN``: the hypervisor hands
        the checkpointer the set of frames dirtied this epoch and resets
        tracking for the next one.
        """
        if optimized:
            dirty, stats = self.scan_by_words()
        else:
            dirty, stats = self.scan_bit_by_bit()
        self.clear()
        return dirty, stats

    def load_random(self, rng, dirty_fraction):
        """Populate with random dirty bits (Figure 6b's simulated bitmaps).

        Frames are drawn *without* replacement so the bitmap hits the
        requested count exactly — sampling with replacement undershoots
        the density through collisions, badly at Figure 6b's higher
        dirty fractions.
        """
        valid = (
            isinstance(dirty_fraction, (int, float))
            and 0.0 <= dirty_fraction <= 1.0  # NaN compares false
        )
        if not valid:
            raise HypervisorError(
                "dirty_fraction must be a number in [0, 1], got %r"
                % (dirty_fraction,)
            )
        self.clear()
        expected = min(int(self.frame_count * dirty_fraction),
                       self.frame_count)
        self.set_many(rng.sample(range(self.frame_count), expected))
