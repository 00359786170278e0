"""Golden-equivalence properties for the vectorized epoch hot paths.

Three hot paths — struct decoding, the canary scan, and checkpoint
harvest+stage/commit/rollback — each have one vectorized implementation;
the seed revision's reference implementations live on in
``benchmarks/perf/legacy.py``. These properties pin the contract the
benchmarks rely on: over *arbitrary* inputs (empty and tiny canary
tables included, with and without an armed VMI_READ fault), the
vectorized paths produce bit-identical results — same decoded values,
same findings, same counters, the same raise point, and (the sharp edge)
the exact same sequence of charged virtual time, so the deterministic
timeline cannot fork.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.checkpoint.checkpointer import Checkpointer
from repro.detectors.base import ScanContext
from repro.detectors.canary import CanaryScanModule
from repro.errors import CheckpointError, IntrospectionError
from repro.faults import FaultPlan, FaultPlane, FaultSchedule
from repro.faults.injector import FaultInjector
from repro.guest.heap import CANARY_ENTRY, CANARY_TABLE_HEADER
from repro.guest.layout import StructDef
from repro.guest.linux import LinuxGuest
from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import KERNEL_BASE
from repro.hypervisor.xen import Hypervisor
from repro.vmi.costmodel import VmiCostModel
from repro.vmi.libvmi import VMIInstance

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "benchmarks", "perf"))
from legacy import (  # noqa: E402
    LegacyCanaryScanModule,
    LegacyCheckpointer,
    decode_scalar,
)


# ---------------------------------------------------------------------------
# StructDef: fused decode vs the per-field reference decoder
# ---------------------------------------------------------------------------

_SCALAR_KINDS = ("u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64")

_FIELD_KINDS = st.one_of(
    st.sampled_from(_SCALAR_KINDS),
    st.tuples(st.just("bytes"), st.integers(1, 24)),
)


@st.composite
def _layout_and_slab(draw):
    kinds = draw(st.lists(_FIELD_KINDS, min_size=1, max_size=8))
    layout = StructDef(
        "prop", [("f%d" % i, kind) for i, kind in enumerate(kinds)]
    )
    count = draw(st.integers(1, 6))
    slab = draw(st.binary(min_size=count * layout.size,
                          max_size=count * layout.size))
    return layout, count, slab


@settings(max_examples=60, deadline=None)
@given(example=_layout_and_slab())
def test_struct_decoders_agree(example):
    """decode / unpack / numpy view all match the per-field reference."""
    layout, count, slab = example
    records = [decode_scalar(layout, slab, i * layout.size)
               for i in range(count)]

    for i, reference in enumerate(records):
        base = i * layout.size
        assert layout.decode(slab, base) == reference
        assert layout.unpack(slab, base) == tuple(
            reference[name] for name in layout.names
        )

    array = np.frombuffer(slab[:count * layout.size],
                          dtype=layout.numpy_dtype())
    for i, reference in enumerate(records):
        for field in layout.fields:
            value = array[field.name][i]
            if field._fmt is None:
                # numpy 'S' fields strip trailing NULs; the raw bytes
                # field keeps them.
                assert bytes(value).ljust(field.size, b"\x00") == \
                    reference[field.name]
            else:
                assert int(value) == reference[field.name]


# ---------------------------------------------------------------------------
# Canary scan: slab filter + bulk charging vs the per-entry seed loop
# ---------------------------------------------------------------------------

@st.composite
def _heap_scenario(draw):
    # Mostly small objects; some span up to three pages, so their freed
    # regions reach pages past the probe page.
    sizes = draw(st.lists(
        st.one_of(st.integers(8, 160), st.integers(1, 3 * PAGE_SIZE)),
        min_size=0, max_size=80))
    n = len(sizes)
    index = st.integers(0, max(n - 1, 0))
    freed = draw(st.sets(index, max_size=n // 3))
    clobbered = draw(st.sets(index, max_size=min(n, 4))) - freed
    if freed:
        scribbled = draw(st.sets(st.sampled_from(sorted(freed)), max_size=3))
        # A hostile freed entry: its size rewritten to 0.
        zeroed = draw(st.sets(st.sampled_from(sorted(freed)), max_size=1))
    else:
        scribbled = zeroed = set()
    # Hostile table entries: an object address rewritten to a user page
    # the process never mapped, or to a kernel direct-map alias of a
    # heap byte, or an entry whose addr + size wraps past 2^64 onto a
    # heap byte.
    corrupted = draw(st.lists(
        st.tuples(index, st.sampled_from(["unmapped", "kernel", "wrap"]),
                  st.integers(0, 16 * PAGE_SIZE - 1)),
        max_size=min(n, 2), unique_by=lambda entry: entry[0]))
    dirty_salt = draw(st.integers(0, 2 ** 32 - 1))
    dirty_pct = draw(st.integers(0, 100))
    scan_all = draw(st.booleans())
    jitter = draw(st.sampled_from([0.03, 0.0]))
    # A process created and exited before the subject: the subject then
    # maps its consecutive pages to that process's frames, descending.
    respawn = draw(st.booleans())
    return {
        "sizes": sizes,
        "freed": sorted(freed),
        "clobbered": sorted(clobbered),
        "scribbled": sorted(scribbled),
        "zeroed": sorted(zeroed),
        "corrupted": corrupted,
        "dirty_salt": dirty_salt,
        "dirty_pct": dirty_pct,
        "dirty_pages": None,
        "scan_all": scan_all,
        "jitter": jitter,
        "respawn": respawn,
    }


def _scan_once(scenario, module, injector=None):
    """Build one guest from the scenario and run ``module`` over it.

    Both calls of a property example build byte-identical guests and
    identically-seeded VMI instances (same guest *name*, which seeds the
    jitter stream), so any divergence in the returned tuple is the scan
    implementation's fault. ``injector`` (fresh per call) routes the
    scan's reads through a VMI_READ fault; a raised IntrospectionError
    is returned as its message, with the findings of the aborted scan
    left out.
    """
    vm = LinuxGuest(name="prop-vec", memory_bytes=4 * 1024 * 1024, seed=9)
    domain = Hypervisor(clock=vm.clock).create_domain(vm)
    if scenario["respawn"]:
        vm.exit_process(vm.create_process("first", heap_pages=256).pid)
    process = vm.create_process("subject", heap_pages=256)

    addrs = [process.malloc(size) for size in scenario["sizes"]]
    for index in scenario["freed"]:
        process.free(addrs[index])
    for index in scenario["clobbered"]:
        # Overwrite the live object's trailing canary in place.
        process.write(addrs[index] + scenario["sizes"][index], b"\xee" * 8)
    for index in scenario["scribbled"]:
        # A dangling write into the freed region's poison fill (any byte
        # but FREED_FILL_BYTE, 0x5A).
        process.write(addrs[index], b"!")
    heap_base, _heap_end = process.region_range("heap")
    for index in scenario["zeroed"]:
        slot = process.heap._table_index[addrs[index]]
        process.write_u64(process.heap.table_va + CANARY_TABLE_HEADER.size
                          + slot * CANARY_ENTRY.size
                          + CANARY_ENTRY.offset_of("size"), 0)
    for index, target, offset in scenario["corrupted"]:
        # Entry ``index`` is table slot ``index``: malloc appends, and free
        # moves the last entry into the freed slot, then appends the freed
        # region's entry.
        entry_va = (process.heap.table_va + CANARY_TABLE_HEADER.size
                    + index * CANARY_ENTRY.size)
        if target == "unmapped":
            addr = 0x66600000 + offset
        elif target == "kernel":
            addr = KERNEL_BASE + process.page_table.translate(
                heap_base + offset)
        else:
            addr = 2 ** 63
            process.write_u64(entry_va + CANARY_ENTRY.offset_of("size"),
                              2 ** 63 + heap_base + offset)
        process.write_u64(entry_va + CANARY_ENTRY.offset_of("addr"), addr)

    vmi = VMIInstance(domain, seed=5,
                      cost_model=VmiCostModel(JITTER=scenario["jitter"]))
    if scenario["scan_all"]:
        dirty = None
    elif scenario["dirty_pages"] is not None:
        # Exactly these pages of the heap, by index.
        dirty = {vmi.translate(heap_base + page * PAGE_SIZE, pid=process.pid)
                 // PAGE_SIZE for page in scenario["dirty_pages"]}
    else:
        # A deterministic pseudo-random subset of the heap's frames;
        # translate() is uncharged, so deriving it cannot move the clock.
        base, end = process.region_range("heap")
        dirty = set()
        for va in range(base, end, PAGE_SIZE):
            pfn = vmi.translate(va, pid=process.pid) // PAGE_SIZE
            if (pfn * 2654435761 + scenario["dirty_salt"]) % 100 \
                    < scenario["dirty_pct"]:
                dirty.add(pfn)
    vmi.take_cost_ms()  # drain init/preprocess cost before the scan
    if injector is not None:
        vmi.attach_injector(injector)

    error = None
    try:
        findings = module.scan(ScanContext(vmi, dirty_pfns=dirty))
    except IntrospectionError as err:
        findings, error = [], str(err)
    return (
        [(f.kind, f.severity, f.summary, f.details) for f in findings],
        module.canaries_checked,
        module.freed_regions_checked,
        vmi.take_cost_ms(),
        error,
    )


def _scenario(sizes, **overrides):
    """A fixed heap scenario (the explicit small-table examples)."""
    scenario = {"sizes": sizes, "freed": [], "clobbered": [],
                "scribbled": [], "zeroed": [], "corrupted": [],
                "dirty_salt": 0, "dirty_pct": 100, "dirty_pages": None,
                "scan_all": False, "jitter": 0.03, "respawn": False}
    scenario.update(overrides)
    return scenario


@settings(max_examples=25, deadline=None)
@given(scenario=_heap_scenario())
@example(scenario=_scenario([]))
@example(scenario=_scenario([16], clobbered=[0]))
@example(scenario=_scenario([8, 24, 40, 64], freed=[1], scribbled=[1],
                            clobbered=[3]))
# Entry 0's addr + size wraps onto entry 1's clobbered canary (heap
# offset 32 + 32).
@example(scenario=_scenario([16, 32], clobbered=[1],
                            corrupted=[(0, "wrap", 64)]))
# Object 1 spans heap pages 0 and 1 and is written after free at its
# first byte; only page 1 is dirty, so only the span re-check selects it.
@example(scenario=_scenario([3000, 3000, 16], freed=[1], scribbled=[1],
                            dirty_pages=[1]))
# A freed entry of size 0 at the page-aligned heap base.
@example(scenario=_scenario([16, 32], freed=[0], zeroed=[0]))
# On descending frames: object 0's clobbered canary crosses from heap
# page 0 onto a non-adjacent frame, and freed object 1 (heap pages 1 and
# 2, written at its first byte) is selected by page 2's frame alone.
@example(scenario=_scenario([4090, 5000, 16], freed=[1], scribbled=[1],
                            clobbered=[0], dirty_pages=[0, 2], respawn=True))
def test_slab_canary_scan_matches_seed_loop(scenario):
    """Same findings, same counters, bit-identical charged time."""
    fast = _scan_once(scenario, CanaryScanModule())
    reference = _scan_once(scenario, LegacyCanaryScanModule())
    assert fast[0] == reference[0]          # findings, in table order
    assert fast[1] == reference[1]          # canaries_checked
    assert fast[2] == reference[2]          # freed_regions_checked
    # Not approx-equal: the bulk charge loop must replay the scalar
    # path's jitter draws in the exact order, so the floats are equal.
    assert fast[3] == reference[3]


@settings(max_examples=10, deadline=None)
@given(scenario=_heap_scenario())
def test_scan_all_pages_ignores_dirty_filter(scenario):
    """scan_all_pages=True checks everything on both implementations."""
    # An entry rewritten to an unmapped page or a wrapping addr + size
    # has nothing to check, so only the kernel-alias rewrites take part
    # here.
    scenario = dict(scenario, scan_all=True, corrupted=[
        entry for entry in scenario["corrupted"] if entry[1] == "kernel"])
    fast = _scan_once(scenario, CanaryScanModule(scan_all_pages=True))
    reference = _scan_once(
        scenario, LegacyCanaryScanModule(scan_all_pages=True))
    assert fast == reference
    # free() converts the object's canary entry into a freed entry in
    # place, so the table always holds one entry per allocation.
    assert fast[1] + fast[2] == len(scenario["sizes"])


# ---------------------------------------------------------------------------
# Canary scan under an armed VMI_READ fault: one charging loop, probed per
# read, must replay the per-entry seed loop's probes, raise and time
# ---------------------------------------------------------------------------

def _plan_injector(schedule):
    """A real injector with the VMI_READ plane armed for epoch 1."""
    injector = FaultInjector(
        FaultPlan.single(FaultPlane.VMI_READ, schedule, seed=7))
    injector.begin_epoch(1)
    assert injector.check(FaultPlane.VMI_READ) is not None
    return injector


class _DelayedReadFault:
    """A fail-mode fault that lets ``skip`` reads through, then fires for
    ``shots`` reads — lands the raise at any read of the scan."""

    mode = "fail"
    magnitude_ms = 0.0
    epoch = 1

    def __init__(self, skip, shots):
        self._skip = skip
        self._shots = shots
        self.probes = 0

    def fires(self):
        self.probes += 1
        if self._skip:
            self._skip -= 1
            return False
        if self._shots:
            self._shots -= 1
            return True
        return False


class _DelayedInjector:
    def __init__(self, skip, shots):
        self.fault = _DelayedReadFault(skip, shots)

    def check(self, plane):
        return self.fault if plane is FaultPlane.VMI_READ else None


_PLANNED_READ_FAULTS = st.one_of(
    st.sampled_from([0.0, 0.25, 3.0]).map(
        lambda ms: FaultSchedule.persistent(mode="latency", magnitude_ms=ms)),
    st.integers(1, 3).map(
        lambda shots: FaultSchedule.transient(probability=1.0,
                                              fail_attempts=shots)),
)


@settings(max_examples=30, deadline=None)
@given(scenario=_heap_scenario(), schedule=_PLANNED_READ_FAULTS)
@example(scenario=_scenario([]),
         schedule=FaultSchedule.persistent(mode="latency", magnitude_ms=0.25))
@example(scenario=_scenario([16, 32], freed=[0]),
         schedule=FaultSchedule.persistent(mode="latency", magnitude_ms=3.0))
def test_planned_read_fault_matches_seed_loop(scenario, schedule):
    """A latency fault charges every read once, in seed order; a fail
    fault with a shot budget raises (or is absorbed) at the same read.
    Findings, counters and charged time all stay float-equal."""
    fast = _scan_once(scenario, CanaryScanModule(),
                      _plan_injector(schedule))
    reference = _scan_once(scenario, LegacyCanaryScanModule(),
                           _plan_injector(schedule))
    assert fast == reference
    if schedule.mode == "latency":
        assert fast[4] is None


@settings(max_examples=40, deadline=None)
@given(scenario=_heap_scenario(), skip=st.integers(0, 120),
       shots=st.integers(1, 3))
@example(scenario=_scenario([16] * 40), skip=30, shots=1)
@example(scenario=_scenario([16, 24, 32], freed=[1]), skip=4, shots=2)
# Four reads before the entries (directory and table), then five
# canaries; the fault fires at the freed region's read after them.
@example(scenario=_scenario([16] * 6, freed=[2]), skip=9, shots=1)
def test_mid_scan_fail_fault_raises_like_seed_loop(scenario, skip, shots):
    """A fail fault landing at any read — including inside a bulk run of
    canary charges — raises at the same read, with the same canaries
    counted and the same time charged up to and including it."""
    fast_injector = _DelayedInjector(skip, shots)
    reference_injector = _DelayedInjector(skip, shots)
    fast = _scan_once(scenario, CanaryScanModule(), fast_injector)
    reference = _scan_once(scenario, LegacyCanaryScanModule(),
                           reference_injector)
    assert fast == reference
    assert fast_injector.fault.probes == reference_injector.fault.probes


# ---------------------------------------------------------------------------
# Checkpointer: fused harvest+stage / vectorized commit+rollback vs seed
# ---------------------------------------------------------------------------

_CKPT_FRAMES = 1024  # 4 MiB of simulated RAM: four rollback blocks

_EPOCH_PLAN = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, _CKPT_FRAMES - 1),
                           st.integers(0, 255)),
                 max_size=10),
        # Bulk dirtying: (first pfn, frames, byte) runs of whole frames,
        # long enough that the rollback candidates cross block borders.
        st.lists(st.tuples(st.integers(0, _CKPT_FRAMES - 1),
                           st.integers(1, 700), st.integers(0, 255)),
                 max_size=2),
        # "held": a BACKUP_SYNC fault exhausts its retries, so the
        # epoch stays staged and the next epoch merges into it.
        st.sampled_from(["commit", "held", "rollback", "restore+rollback"]),
    ),
    min_size=1, max_size=10,
)


class _SyncLoss:
    """Loses the next backup sync, retries exhausted, once armed."""

    def __init__(self):
        self.injector = FaultInjector(FaultPlan.single(
            FaultPlane.BACKUP_SYNC, FaultSchedule.persistent()))
        self.injector.begin_epoch(1)
        self.armed = False

    def check(self, plane):
        if plane is FaultPlane.BACKUP_SYNC and self.armed:
            self.armed = False
            return self.injector.check(plane)
        return None

    def retry(self, fault, site):
        return self.injector.retry(fault, site)


def _make_checkpointer(cls, history_capacity, injector=None):
    vm = LinuxGuest(name="prop-ckpt",
                    memory_bytes=_CKPT_FRAMES * PAGE_SIZE, seed=21)
    domain = Hypervisor(clock=vm.clock).create_domain(vm)
    checkpointer = cls(domain, history_capacity=history_capacity,
                       injector=injector)
    checkpointer.start()
    return checkpointer


def _assert_slots_accounted(checkpointer, largest_epoch):
    """Every touched slab slot is in exactly one place — the live index,
    one undo record, or the free stack — and the touched rows stay within
    RAM plus (capacity + 1) of the largest staged epoch."""
    backup = checkpointer._backup
    undo = [refs for _pfns, refs in (entry[1] for entry in
                                     checkpointer.history._entries
                                     if entry[1] is not None)]
    placed = np.concatenate([backup._index, *undo,
                             backup._free[:backup._free_top]])
    assert np.array_equal(np.sort(placed), np.arange(backup._high))
    capacity = checkpointer.history.capacity
    assert backup._high <= _CKPT_FRAMES + (capacity + 1) * largest_epoch
    assert checkpointer.retained_bytes() == backup._high * PAGE_SIZE


_HELD_THEN_MERGED = [([(3, 1)], [(0, 40, 7)], "held"),
                     ([(900, 2)], [(20, 40, 8)], "commit")]


@settings(max_examples=20, deadline=None)
@given(plan=_EPOCH_PLAN, history=st.sampled_from([0, 1, 2, 8]))
@example(plan=_HELD_THEN_MERGED, history=1)
@example(plan=_HELD_THEN_MERGED * 3, history=8)
@example(plan=[([(5, 1)], [(6 * step, 300, step)], "commit")
               for step in range(10)], history=2)
def test_checkpointer_matches_seed_paths(plan, history):
    """Fused stage + undo-record commit/rollback track the seed's full
    copies: RAM, the backup and every retained history image; no slab
    slot is lost or shared, and eviction returns every undo slot."""
    sync_loss = _SyncLoss()
    fast = _make_checkpointer(Checkpointer, history, injector=sync_loss)
    reference = _make_checkpointer(LegacyCheckpointer, history)

    largest_epoch = 0
    for writes, runs, action in plan:
        for checkpointer in (fast, reference):
            vm = checkpointer.domain.vm
            for pfn, byte in writes:
                vm.memory.write(pfn * PAGE_SIZE + (pfn % PAGE_SIZE),
                                bytes([byte]))
                vm.memory.touch_frame(pfn)
            for first, frames, byte in runs:
                frames = min(frames, _CKPT_FRAMES - first)
                vm.memory.write(first * PAGE_SIZE,
                                bytes([byte]) * (frames * PAGE_SIZE))
            checkpointer.run_checkpoint(interval_ms=25.0)
        largest_epoch = max(largest_epoch, len(fast.staged_pfns))
        assert fast.staged_pfns == reference.staged_pfns
        if action == "commit":
            assert fast.commit() == reference.commit()
        elif action == "held":
            sync_loss.armed = True
            with pytest.raises(CheckpointError, match="held"):
                fast.commit()
            # The seed reference has no fault seam: hold its epoch as
            # the lost sync held the live one.
            reference._pending_held = True
        else:
            for checkpointer in (fast, reference):
                checkpointer.abort()
                if action == "restore+rollback":
                    # An untracked bulk load: rollback must diff every
                    # frame instead of the tracked candidates.
                    vm = checkpointer.domain.vm
                    vm.restore(vm.snapshot())
            assert fast.rollback() == reference.rollback()

        fast_vm = fast.domain.vm
        reference_vm = reference.domain.vm
        assert bytes(fast_vm.memory.view()) == \
            bytes(reference_vm.memory.view())
        assert fast.backup_snapshot().memory_image == \
            reference.backup_snapshot().memory_image
        assert [(entry.epoch, entry.memory_image)
                for entry in fast.history.all()] == \
            [(entry.epoch, entry.memory_image)
             for entry in reference.seed_history]
        _assert_slots_accounted(fast, largest_epoch)

    fast.release_store_refs()
    _assert_slots_accounted(fast, largest_epoch)
    assert len(fast.history) == 0
    assert fast._backup._free_top == fast._backup._high - _CKPT_FRAMES
