"""The canary scan's per-entry columns kept across epochs never go stale.

``CanaryScanModule`` keeps what its filter derives from each table entry
(probe frame, whether its bytes lie flat in RAM, the frames its pages
map to) from one scan to the next and derives again only what changed.
This property runs one long-lived module and a fresh module per epoch
over the same guest,
through two identically seeded ``VMIInstance``s, across epochs that mix
heap churn, tripwire damage, hostile stores to the table, heap pages
remapped to other frames, exit and respawn, and snapshot and restore.
After every scan the two must agree on everything the scan produces:
findings, checked counts, charged virtual time and the error raised.
"""

from hypothesis import example, given, settings, strategies as st

from repro.detectors.base import ScanContext
from repro.detectors.canary import CanaryScanModule
from repro.errors import CrimesError
from repro.guest.heap import (
    CANARY_ENTRY,
    CANARY_TABLE_HEADER,
    KIND_FREED,
)
from repro.guest.linux import LinuxGuest
from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import KERNEL_BASE
from repro.hypervisor.xen import Hypervisor
from repro.vmi.libvmi import VMIInstance

_HEAP_PAGES = 48

_INDEX = st.integers(0, 2 ** 16)

_STEPS = st.one_of(
    st.tuples(st.just("malloc"), st.one_of(st.integers(8, 200),
                                           st.integers(1, 6000))),
    st.tuples(st.just("free"), _INDEX),
    st.tuples(st.just("clobber"), _INDEX),
    st.tuples(st.just("scribble"), _INDEX, _INDEX),
    st.tuples(st.just("entry"), _INDEX,
              st.sampled_from(["addr", "size", "kind"]), _INDEX,
              st.sampled_from(["small", "heap", "unmapped", "kernel",
                               "huge"])),
    st.tuples(st.just("count"), st.integers(-3, 3)),
    st.tuples(st.just("remap"), _INDEX, st.booleans()),
    st.tuples(st.just("respawn"), st.booleans()),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)

_DIRTY = st.one_of(st.none(), st.tuples(st.integers(0, 2 ** 32 - 1),
                                        st.integers(0, 100)))


class _Guest:
    """One guest and the subject process the steps act on."""

    def __init__(self):
        self.vm = LinuxGuest(name="prop-cache", memory_bytes=4 * 1024 * 1024,
                             seed=13)
        self.domain = Hypervisor(clock=self.vm.clock).create_domain(self.vm)
        self.pid = self._spawn()
        self.saved = None

    def _spawn(self):
        process = self.vm.create_process("subject", heap_pages=_HEAP_PAGES,
                                         canary_capacity=256)
        for size in (24, 5000, 40, 4090, 16):
            process.malloc(size)
        return process.pid

    @property
    def process(self):
        return self.vm.processes.get(self.pid)

    def _entries(self):
        heap = self.process.heap
        return [heap._entry(slot) for slot in range(len(heap._table_index))]

    def _entry_field_va(self, slot, field):
        return (self.process.heap.table_va + CANARY_TABLE_HEADER.size
                + slot * CANARY_ENTRY.size + CANARY_ENTRY.offset_of(field))

    def step(self, step):
        """Apply one step; a step with nothing to act on is a no-op."""
        op, args = step[0], step[1:]
        process = self.process
        if op == "snapshot":
            self.saved = (self.vm.snapshot(), self.pid)
        elif op == "restore":
            if self.saved is not None:
                snapshot, self.pid = self.saved
                self.vm.restore(snapshot)
        elif op == "respawn":
            (exit_first,) = args
            if process is not None and exit_first:
                self.vm.exit_process(self.pid)
            self.pid = self._spawn()
        elif process is None:
            return
        elif op == "malloc":
            try:
                process.malloc(args[0])
            except CrimesError:
                pass  # the heap or the table is full
        elif op in ("free", "clobber"):
            live = sorted(process.heap.live_allocations().items())
            if live:
                addr, size = live[args[0] % len(live)]
                if op == "clobber":
                    process.write(addr + size, b"\xee" * 8)
                else:
                    try:
                        process.free(addr)
                    except CrimesError:
                        pass  # a clobbered canary fails the free
        elif op == "scribble":
            freed = [(addr, size) for addr, size, kind in self._entries()
                     if kind == KIND_FREED and size]
            if freed:
                addr, size = freed[args[0] % len(freed)]
                process.write(addr + args[1] % size, b"!")
        elif op == "entry":
            self._hostile_entry(*args)
        elif op == "count":
            count_va = (process.heap.table_va
                        + CANARY_TABLE_HEADER.offset_of("count"))
            count = max(0, len(process.heap._table_index) + args[0])
            process.write(count_va, count.to_bytes(4, "little"))
        elif op == "remap":
            # A heap page in use (one past the cursor holds its canary).
            index, copy = args
            base, _end = process.region_range("heap")
            used = min(process.heap.bytes_used() // PAGE_SIZE + 1,
                       _HEAP_PAGES)
            vpn = base // PAGE_SIZE + index % used
            old = process.page_table.frame_of(vpn * PAGE_SIZE)
            try:
                new = self.vm.user_frames.allocate_one()
            except CrimesError:
                return
            if copy:
                self.vm.memory.write(new * PAGE_SIZE,
                                     self.vm.memory.read_frame(old))
            process.page_table.map(vpn, new)

    def _hostile_entry(self, index, field, offset, target):
        process = self.process
        entries = self._entries()
        if not entries:
            return
        slot = index % len(entries)
        base, _end = process.region_range("heap")
        offset %= _HEAP_PAGES * PAGE_SIZE
        if field == "kind":
            value = (0, 1, 7)[offset % 3]
            process.write(self._entry_field_va(slot, "kind"),
                          value.to_bytes(4, "little"))
            return
        if target == "small":
            value = offset % 64
        elif target == "heap":
            value = base + offset if field == "addr" else offset
        elif target == "unmapped":
            value = 0x66600000 + offset
        elif target == "kernel":
            value = KERNEL_BASE + process.page_table.translate(base + offset)
        else:
            value = 2 ** 40 + offset if field == "size" else 2 ** 63
        process.write_u64(self._entry_field_va(slot, field), value)

    def dirty(self, drawn):
        """``None``, or a salted subset of the frames processes map."""
        if drawn is None:
            return None
        salt, percent = drawn
        frames = {pfn for process in self.vm.processes.values()
                  for _vpn, pfn in process.page_table.entries()}
        return {pfn for pfn in frames
                if (pfn * 2654435761 + salt) % 100 < percent}


def _outcome(module, vmi, dirty):
    before = (module.canaries_checked, module.freed_regions_checked)
    error = None
    try:
        findings = module.scan(ScanContext(vmi, dirty_pfns=dirty))
    except CrimesError as err:
        findings, error = [], (type(err).__name__, str(err))
    return (
        [(f.kind, f.severity, f.summary, f.details) for f in findings],
        module.canaries_checked - before[0],
        module.freed_regions_checked - before[1],
        vmi.take_cost_ms(),
        error,
    )


@settings(max_examples=40, deadline=None)
@given(options=st.tuples(st.booleans(), st.booleans()),
       epochs=st.lists(st.tuples(_STEPS, _DIRTY), min_size=1, max_size=25))
# A heap page moved to another frame, then moved back by a restore: the
# same page table object, a new generation each time.
@example(options=(False, True), epochs=[
    (("snapshot",), (0, 100)),
    (("remap", 1, True), (0, 100)),
    (("restore",), (0, 100)),
])
# A restore of an unchanged mapping: the page table keeps its generation,
# so the columns stay and only the entries the restore reverts change.
@example(options=(False, True), epochs=[
    (("snapshot",), (0, 100)),
    (("malloc", 100), (0, 100)),
    (("free", 0), (0, 100)),
    (("restore",), (0, 100)),
    (("clobber", 2), (0, 100)),
])
# A hostile store to the size of a live entry alone (slot 0 of five).
@example(options=(False, True), epochs=[
    (("free", 1), (0, 100)),
    (("entry", 5, "size", 3000, "heap"), (0, 100)),
])
# Exit and respawn, then a restore that resurrects the process: the same
# pid and table address under a new page table object.
@example(options=(False, True), epochs=[
    (("snapshot",), None),
    (("respawn", True), None),
    (("restore",), None),
    (("clobber", 0), None),
])
def test_long_lived_module_matches_a_fresh_one(options, epochs):
    scan_all, check_freed = options
    guest = _Guest()
    # Same guest name and seed: the two jitter streams draw alike.
    cached_vmi = VMIInstance(guest.domain, seed=5)
    fresh_vmi = VMIInstance(guest.domain, seed=5)
    cached = CanaryScanModule(scan_all_pages=scan_all,
                              check_freed=check_freed)
    for step, drawn in epochs:
        guest.step(step)
        dirty = guest.dirty(drawn)
        fresh = CanaryScanModule(scan_all_pages=scan_all,
                                 check_freed=check_freed)
        assert _outcome(cached, cached_vmi, dirty) == \
            _outcome(fresh, fresh_vmi, dirty), step
