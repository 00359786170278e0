"""Unit tests for domains, the hypervisor, and foreign mapping."""

import pytest

from repro.errors import DomainStateError, HypervisorError
from repro.guest.linux import LinuxGuest
from repro.guest.memory import PAGE_SIZE
from repro.hypervisor.foreign_map import MappingTable
from repro.hypervisor.xen import DomainState, Hypervisor


def test_create_domain_assigns_ids(linux_vm):
    hypervisor = Hypervisor(clock=linux_vm.clock)
    domain = hypervisor.create_domain(linux_vm)
    assert domain.domid == 1
    assert domain.state is DomainState.RUNNING


def test_guest_must_share_clock():
    hypervisor = Hypervisor()
    vm = LinuxGuest(memory_bytes=4 * 1024 * 1024)  # own clock
    with pytest.raises(HypervisorError):
        hypervisor.create_domain(vm)


def test_pause_resume_cycle(linux_domain):
    linux_domain.pause()
    assert linux_domain.state is DomainState.PAUSED
    linux_domain.resume()
    assert linux_domain.state is DomainState.RUNNING


def test_double_pause_rejected(linux_domain):
    linux_domain.pause()
    with pytest.raises(DomainStateError):
        linux_domain.pause()


def test_resume_running_rejected(linux_domain):
    with pytest.raises(DomainStateError):
        linux_domain.resume()


def test_suspend_is_terminal(linux_domain):
    linux_domain.suspend()
    assert linux_domain.state is DomainState.SUSPENDED
    with pytest.raises(DomainStateError):
        linux_domain.resume()


def test_log_dirty_tracks_stores(linux_domain):
    linux_domain.enable_log_dirty()
    linux_domain.vm.memory.write(5000, b"dirtying")
    assert linux_domain.dirty_bitmap.count() >= 1
    linux_domain.disable_log_dirty()
    before = linux_domain.dirty_bitmap.count()
    linux_domain.vm.memory.write(90000, b"untracked")
    assert linux_domain.dirty_bitmap.count() == before


def test_enable_log_dirty_idempotent(linux_domain):
    linux_domain.enable_log_dirty()
    linux_domain.enable_log_dirty()
    linux_domain.vm.memory.write(0x3000, b"x")
    # One observer only: exactly one frame recorded once.
    assert linux_domain.dirty_bitmap.count() == 1


def test_second_domain_cannot_take_over_log_dirty(linux_vm):
    hypervisor = Hypervisor(clock=linux_vm.clock)
    first = hypervisor.create_domain(linux_vm)
    second = hypervisor.create_domain(linux_vm)
    first.enable_log_dirty()
    with pytest.raises(HypervisorError):
        second.enable_log_dirty()
    assert first.log_dirty_enabled and not second.log_dirty_enabled
    # The loser's disable must not detach the winner's bitmap either.
    second.disable_log_dirty()
    linux_vm.memory.write(3 * PAGE_SIZE + 5, b"tracked")
    assert first.dirty_bitmap.scan_by_words()[0] == [3]
    assert second.dirty_bitmap.count() == 0
    # Once the owner lets go, the slot is free for the other domain.
    first.disable_log_dirty()
    second.enable_log_dirty()
    linux_vm.memory.write(7 * PAGE_SIZE, b"now the second")
    assert second.dirty_bitmap.scan_by_words()[0] == [7]
    assert first.dirty_bitmap.scan_by_words()[0] == [3]


def test_destroy_domain(linux_vm):
    hypervisor = Hypervisor(clock=linux_vm.clock)
    domain = hypervisor.create_domain(linux_vm)
    hypervisor.destroy_domain(domain.domid)
    assert domain.state is DomainState.DESTROYED
    with pytest.raises(HypervisorError):
        hypervisor.destroy_domain(domain.domid)


class TestMappingTable:
    def test_map_counts_new_only(self):
        table = MappingTable(100)
        assert table.map_pages([1, 2, 3]) == 3
        assert table.map_pages([2, 3, 4]) == 1
        assert table.mapped_count() == 4

    def test_unmap_returns_present_count(self):
        table = MappingTable(100)
        table.map_pages([1, 2])
        assert table.unmap_pages([2, 3]) == 1
        assert not table.is_mapped(2)
        assert table.is_mapped(1)

    def test_map_all_covers_every_frame(self):
        table = MappingTable(64)
        assert table.map_all() == 64
        assert table.mapped_count() == 64

    def test_hypercall_accounting(self):
        table = MappingTable(100)
        table.map_pages([1])
        table.map_pages([1])  # no new mapping -> no new call
        assert table.map_calls == 1
        assert table.pfn_to_mfn_lookups == 2
