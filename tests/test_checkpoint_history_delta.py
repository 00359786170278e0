"""Undo-encoded checkpoint history: correctness and cost regressions.

The history ring is anchored on the live backup: each commit's undo
record (the backup's pre-commit contents of the frames it overwrote)
restores the previous entry, and full images are reconstructed lazily.
These tests pin (a) byte-identity of reconstructed images against
eagerly captured full snapshots across arbitrary
epoch/commit/abort/rollback sequences, (b) that ``commit()`` no longer
allocates O(RAM) per committed epoch, and (c) that the ring holds no
image of its own, flat or store-backed.
"""

import gc
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint.checkpointer import Checkpointer
from repro.checkpoint.store import PageStore
from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.errors import CheckpointError
from repro.guest.linux import LinuxGuest
from repro.guest.memory import PAGE_SIZE
from repro.hypervisor.xen import Hypervisor


def make_domain(memory_bytes=8 * 1024 * 1024, seed=77):
    vm = LinuxGuest(name="delta-hist", memory_bytes=memory_bytes, seed=seed)
    return Hypervisor(clock=vm.clock).create_domain(vm)


# One simulated epoch: which frames to scribble on, then the verdict.
_EPOCH = st.tuples(
    st.lists(st.integers(min_value=0, max_value=60), min_size=0, max_size=6),
    st.sampled_from(["commit", "abort", "abort+rollback"]),
)


@settings(max_examples=25, deadline=None)
@given(epochs=st.lists(_EPOCH, min_size=1, max_size=10),
       capacity=st.integers(min_value=1, max_value=4))
def test_property_delta_history_matches_full_snapshots(epochs, capacity):
    """Reconstructed history images == eager full images, always."""
    domain = make_domain()
    vm = domain.vm
    checkpointer = Checkpointer(domain, history_capacity=capacity)
    checkpointer.start()

    expected = {}  # epoch -> eagerly captured full backup image
    for frames, verdict in epochs:
        for index, frame in enumerate(frames):
            vm.memory.write(frame * PAGE_SIZE + 7,
                            bytes([1 + (frame + index) % 255]) * 16)
        checkpointer.run_checkpoint(interval_ms=20.0)
        if verdict == "commit":
            checkpointer.commit()
            # The history records the committed *backup* state (an
            # aborted epoch's scribbles live in RAM but never in it).
            expected[checkpointer.epoch] = bytes(
                checkpointer.backup_snapshot().memory_image
            )
        elif verdict == "abort":
            checkpointer.abort()
        else:
            checkpointer.abort()
            checkpointer.rollback()

    retained = checkpointer.history.all()
    assert len(retained) == min(len(expected), capacity)
    for checkpoint in retained:
        assert checkpoint.memory_image == expected[checkpoint.epoch], (
            "epoch %d reconstruction diverged" % checkpoint.epoch
        )
    # Second read must hit the cache and stay identical.
    for checkpoint in retained:
        assert checkpoint.memory_image == expected[checkpoint.epoch]


def test_commit_allocation_does_not_scale_with_ram():
    """commit() peak allocation is O(dirty pages), not O(RAM)."""
    ram_bytes = 32 * 1024 * 1024
    domain = make_domain(memory_bytes=ram_bytes, seed=78)
    checkpointer = Checkpointer(domain, history_capacity=4)
    checkpointer.start()
    for epoch in range(3):
        for frame in range(8):
            domain.vm.memory.write((100 + frame) * PAGE_SIZE, b"dirty-page")
        checkpointer.run_checkpoint(interval_ms=20.0)
        tracemalloc.start()
        checkpointer.commit()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The seed implementation materialized bytes(backup) + a deepcopy
        # per commit: >= 32 MiB here. Delta commits stay under 1 MiB.
        assert peak < 1024 * 1024, (
            "commit() peak allocation %d bytes scales with RAM" % peak
        )


def test_history_survives_ring_eviction_with_folding():
    """Entries remain reconstructible after older undo records drop."""
    domain = make_domain()
    vm = domain.vm
    checkpointer = Checkpointer(domain, history_capacity=2)
    checkpointer.start()
    images = {}
    for epoch in range(5):
        vm.memory.write(0x50000, b"epoch-%d" % epoch)
        vm.memory.write((10 + epoch) * PAGE_SIZE, b"spread")
        checkpointer.run_checkpoint(interval_ms=20.0)
        checkpointer.commit()
        images[checkpointer.epoch] = bytes(vm.memory.view())
    retained = checkpointer.history.all()
    assert [checkpoint.epoch for checkpoint in retained] == [4, 5]
    for checkpoint in retained:
        assert checkpoint.memory_image == images[checkpoint.epoch]


def _commit_epoch(checkpointer, writes):
    """Write ``{pfn: byte}`` into RAM, then stage and commit one epoch."""
    vm = checkpointer.domain.vm
    for pfn, byte in writes.items():
        vm.memory.write(pfn * PAGE_SIZE, bytes([byte]) * PAGE_SIZE)
    checkpointer.run_checkpoint(interval_ms=20.0)
    checkpointer.commit()
    return checkpointer.history.latest()


def test_evicted_unmaterialized_checkpoint_raises_clearly():
    checkpointer = Checkpointer(make_domain(), history_capacity=1)
    checkpointer.start()
    first = _commit_epoch(checkpointer, {0: 1})
    _commit_epoch(checkpointer, {1: 2})
    assert checkpointer.history.all() != [first]
    with pytest.raises(CheckpointError):
        _ = first.memory_image


def test_evicted_materialized_checkpoint_keeps_its_image():
    checkpointer = Checkpointer(make_domain(), history_capacity=1)
    checkpointer.start()
    first = _commit_epoch(checkpointer, {0: 1})
    image = first.memory_image  # materialize before eviction
    assert image == checkpointer.backup_snapshot().memory_image
    _commit_epoch(checkpointer, {0: 3, 1: 2})
    assert checkpointer.history.all() != [first]
    assert first.memory_image == image
    assert image[:PAGE_SIZE] == b"\x01" * PAGE_SIZE


def test_checkpoint_outliving_its_history_raises_clearly():
    checkpointer = Checkpointer(make_domain(), history_capacity=2)
    checkpointer.start()
    first = _commit_epoch(checkpointer, {0: 1})
    _commit_epoch(checkpointer, {1: 2})
    del checkpointer
    with pytest.raises(CheckpointError, match="outlived its history"):
        _ = first.memory_image


def test_a_dropped_crimes_frees_its_history_and_journal_at_once():
    # Checkpoints and flight events reach their history and recorder
    # through one shared weak reference, so neither is a cycle: dropping
    # the framework frees the backup, a full copy of guest RAM, without
    # the collector.
    collecting = gc.isenabled()
    gc.disable()
    try:
        vm = LinuxGuest(name="dropped", memory_bytes=2 * 1024 * 1024,
                        seed=9)
        crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=9,
                                         history_capacity=4))
        crimes.start()
        crimes.run(max_epochs=3)
        checkpointer = crimes.checkpointer
        assert len(checkpointer.history) == 3
        refs = [weakref.ref(checkpointer.history),
                weakref.ref(checkpointer._backup),
                weakref.ref(crimes.observer.flight)]
        del vm, crimes, checkpointer
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if collecting:
            gc.enable()


def test_full_flat_ring_holds_ram_plus_undo_pages_only():
    """A flat ring keeps no second image: backup + undo pages < 2x RAM."""
    ram_bytes = 4 * 1024 * 1024
    checkpointer = Checkpointer(make_domain(memory_bytes=ram_bytes),
                                history_capacity=3)
    checkpointer.start()
    for epoch in range(6):
        _commit_epoch(checkpointer, {100 + epoch: epoch + 1,
                                     200 + epoch % 2: epoch + 1})
    history = checkpointer.history
    assert len(history) == history.capacity
    undo_bytes = history.delta_pages_retained() * PAGE_SIZE
    assert checkpointer.retained_bytes() == ram_bytes + undo_bytes
    assert checkpointer.retained_bytes() < 2 * ram_bytes
    assert history.retained_bytes() == undo_bytes
    # The two older entries each hold the two frames the next commit
    # overwrote; the newest entry is the live backup itself.
    assert history.delta_pages_retained() == 4


def test_store_ring_references_frames_plus_undo_pages():
    """Store mode: the owner holds one ref per frame and per undo page."""
    store = PageStore()
    domain = make_domain(memory_bytes=2 * 1024 * 1024)
    checkpointer = Checkpointer(domain, history_capacity=3, store=store,
                                owner="t0")
    checkpointer.start()
    for epoch in range(5):
        _commit_epoch(checkpointer, {10 + epoch: epoch + 1, 3: epoch + 1})
    history = checkpointer.history
    assert store.per_tenant()["t0"]["logical_pages"] == (
        domain.vm.memory.frame_count + history.delta_pages_retained())
    assert history.delta_pages_retained() == 4
    assert checkpointer.retained_bytes() == 0
    images = [entry.memory_image for entry in history.all()]
    assert [image[3 * PAGE_SIZE] for image in images] == [3, 4, 5]
    checkpointer.release_store_refs()
    assert store.unique_pages == 0
    store.verify_integrity()


def test_rollback_differing_count_matches_full_diff():
    """O(dirty) rollback prices exactly the frames that really differ."""
    domain = make_domain()
    vm = domain.vm
    checkpointer = Checkpointer(domain)
    checkpointer.start()
    checkpointer.run_checkpoint(interval_ms=20.0)
    checkpointer.commit()
    reference = bytes(vm.memory.view())

    # Three kinds of post-commit writes: a genuinely differing frame, a
    # frame rewritten with identical content (dirty but not differing),
    # and an aborted epoch's frame.
    vm.memory.write(5 * PAGE_SIZE, b"changed")
    vm.memory.write(9 * PAGE_SIZE, reference[9 * PAGE_SIZE:9 * PAGE_SIZE + 8])
    checkpointer.run_checkpoint(interval_ms=20.0)
    checkpointer.abort()
    vm.memory.write(12 * PAGE_SIZE, b"post-abort")

    expected_differing = sum(
        vm.memory.read_frame(pfn) != reference[pfn * PAGE_SIZE:(pfn + 1) * PAGE_SIZE]
        for pfn in range(vm.memory.frame_count)
    )
    cost_ms = checkpointer.rollback()
    assert bytes(vm.memory.view()) == reference
    assert cost_ms == checkpointer.costs.rollback_ms(expected_differing)


def test_rollback_falls_back_after_untracked_bulk_load():
    """vm.restore() bypasses dirty tracking; rollback must still be exact."""
    domain = make_domain()
    vm = domain.vm
    checkpointer = Checkpointer(domain)
    checkpointer.start()
    checkpointer.run_checkpoint(interval_ms=20.0)
    checkpointer.commit()
    reference = bytes(vm.memory.view())

    scribbled = vm.snapshot()
    vm.memory.write(30 * PAGE_SIZE, b"tracked-write")
    vm.restore(scribbled)  # untracked load_bytes: generation bumps
    vm.memory.write(31 * PAGE_SIZE, b"after-restore")

    checkpointer.rollback()
    assert bytes(vm.memory.view()) == reference


def test_full_image_rollback_allocation_does_not_scale_with_ram():
    """The every-frame fallback diffs in blocks: flat allocation, exact cost.

    On a 64 MiB guest the peak stays a few blocks' worth, far below one
    RAM-sized gather, and the cost prices exactly the frames that differ.
    """
    domain = make_domain(memory_bytes=64 * 1024 * 1024)
    vm = domain.vm
    checkpointer = Checkpointer(domain)
    checkpointer.start()
    checkpointer.run_checkpoint(interval_ms=20.0)
    checkpointer.commit()
    backup = checkpointer.backup_snapshot().memory_image

    for pfn in range(0, vm.memory.frame_count, 7):
        vm.memory.touch_frame(pfn, value=0x5A)
    vm.restore(vm.snapshot())  # untracked: rollback must diff every frame
    vm.memory.write(5 * PAGE_SIZE + 3, b"after-restore")
    expected_differing = sum(
        vm.memory.read_frame(pfn) != backup[pfn * PAGE_SIZE:(pfn + 1) * PAGE_SIZE]
        for pfn in range(vm.memory.frame_count)
    )
    assert expected_differing > 1000  # many blocks' worth of restores

    tracemalloc.start()
    try:
        cost_ms = checkpointer.rollback()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024, (
        "full-image rollback peak allocation %d bytes scales with RAM" % peak
    )
    assert cost_ms == checkpointer.costs.rollback_ms(expected_differing)
    assert vm.memory.snapshot_bytes() == backup
