"""Unit tests for the LibVMI-alike introspection layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntrospectionError, SymbolNotFound
from repro.guest.linux import SYSCALL_COUNT, KERNEL_TEXT_BASE, LinuxGuest
from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import KERNEL_BASE
from repro.guest.process import HEAP_BASE
from repro.hypervisor.xen import Hypervisor
from repro.vmi.libvmi import VMIInstance


@pytest.fixture
def vmi(linux_domain):
    return VMIInstance(linux_domain, seed=1)


@pytest.fixture
def windows_vmi(windows_domain):
    return VMIInstance(windows_domain, seed=1)


def test_init_charges_table3_costs(vmi):
    # Table 3: init ≈66-67 ms, preprocessing ≈53-55 ms.
    assert 60.0 < vmi.init_cost_ms < 73.0
    assert 48.0 < vmi.preprocess_cost_ms < 60.0
    # Both appear on the meter until drained.
    assert vmi.take_cost_ms() == pytest.approx(
        vmi.init_cost_ms + vmi.preprocess_cost_ms
    )
    assert vmi.take_cost_ms() == 0.0


def test_profile_detection(vmi, windows_vmi):
    assert vmi.profile.os_name == "linux"
    assert windows_vmi.profile.os_name == "windows"


def test_symbol_lookup(vmi):
    assert vmi.lookup_symbol("init_task") > 0
    with pytest.raises(SymbolNotFound):
        vmi.lookup_symbol("no_such_symbol")


def test_list_processes_linux(vmi, linux_domain):
    linux_domain.vm.create_process("nginx")
    linux_domain.vm.create_process("sshd")
    names = [process.name for process in vmi.list_processes()]
    assert names == ["swapper/0", "nginx", "sshd"]


def test_list_processes_windows(windows_vmi, windows_domain):
    windows_domain.vm.create_process("reg_read.exe")
    names = [process.name for process in windows_vmi.list_processes()]
    assert names[0] == "System"
    assert "reg_read.exe" in names


def test_pid_hash_view_sees_hidden_process(vmi, linux_domain):
    vm = linux_domain.vm
    process = vm.create_process("ghost")
    vm.hide_process(process.pid)
    listed = {p.pid for p in vmi.list_processes()}
    hashed = {p.pid for p in vmi.list_processes_pid_hash()}
    assert process.pid not in listed
    assert process.pid in hashed


def test_pid_hash_rejected_on_windows(windows_vmi):
    with pytest.raises(IntrospectionError):
        windows_vmi.list_processes_pid_hash()


def test_list_modules(vmi, linux_domain):
    names = {module.name for module in vmi.list_modules()}
    assert {"ext4", "e1000", "crimes_guest"} <= names
    linux_domain.vm.load_module("rootkit", 0x1000)
    names = {module.name for module in vmi.list_modules()}
    assert "rootkit" in names


def test_read_syscall_table(vmi):
    table = vmi.read_syscall_table()
    assert len(table) == SYSCALL_COUNT
    assert table[0] == KERNEL_TEXT_BASE


def test_canary_directory_and_table(vmi, linux_domain):
    from repro.guest.heap import KIND_CANARY, KIND_FREED

    process = linux_domain.vm.create_process("guarded")
    addr = process.malloc(80)
    freed = process.malloc(32)
    process.free(freed)
    directory = vmi.canary_directory()
    assert (process.pid, 0x70000000) in directory
    canary, addrs, sizes, kinds = vmi.read_canary_table_slab(
        process.pid, 0x70000000)
    assert canary == process.heap.canary_value
    entries = list(zip(addrs.tolist(), sizes.tolist(), kinds.tolist()))
    assert (addr, 80, KIND_CANARY) in entries
    assert (freed, 32, KIND_FREED) in entries


def test_read_canary_value_matches_memory(vmi, linux_domain):
    process = linux_domain.vm.create_process("guarded2")
    addr = process.malloc(16)
    value = vmi.read_canary_value(process.pid, addr, 16)
    assert value == process.heap.canary_value


def test_scan_costs_accumulate(vmi, linux_domain):
    vmi.take_cost_ms()
    vmi.list_processes()
    cost = vmi.take_cost_ms()
    assert 0.2 < cost < 2.0  # SCAN_BASE + per-process walk


def test_translate_user_address(vmi, linux_domain):
    process = linux_domain.vm.create_process("userspace")
    pa = vmi.translate(0x10000000, pid=process.pid)
    assert pa == process.page_table.translate(0x10000000)


def test_translate_unknown_pid_rejected(vmi):
    with pytest.raises(IntrospectionError):
        vmi.translate(0x10000000, pid=424242)


_HEAP_VPN = HEAP_BASE // PAGE_SIZE
_KERNEL_VPN = KERNEL_BASE // PAGE_SIZE

#: Mapped heap pages and their unmapped edges, anywhere in user space,
#: and the kernel direct map from just below its first page.
_VPN_ARRAYS = st.lists(st.one_of(
    st.integers(_HEAP_VPN - 4, _HEAP_VPN + 12),
    st.integers(0, 2 ** 36),
    st.integers(_KERNEL_VPN - 2, _KERNEL_VPN + 4096),
), max_size=48)


def _translate_each(vmi, vpns, pid):
    frames = []
    for vpn in vpns:
        try:
            frames.append(vmi.translate(vpn * PAGE_SIZE, pid=pid) // PAGE_SIZE)
        except IntrospectionError:
            frames.append(-1)
    return frames


#: A user page far from every region the process maps.
_FAR_VPN = 2 ** 35 + 7


@settings(max_examples=25, deadline=None)
@given(picks=_VPN_ARRAYS)
def test_translate_pages_matches_translate(picks):
    vm = LinuxGuest(name="bulk-translate", memory_bytes=4 * 1024 * 1024,
                    seed=4)
    vmi = VMIInstance(Hypervisor(clock=vm.clock).create_domain(vm), seed=4)
    pid = vm.create_process("subject", heap_pages=8).pid
    clean = vm.state_dict()
    # The pages the table changes below, and their neighbours, are always
    # probed. The heap run is VPNs [_HEAP_VPN, _HEAP_VPN + 8).
    changed = (_HEAP_VPN - 1, _HEAP_VPN + 1, _HEAP_VPN + 4, _HEAP_VPN + 8,
               _FAR_VPN)
    vpns = picks + [vpn + step for vpn in changed for step in (-1, 0, 1)]

    def check():
        for who in (pid, 0, 424242):
            assert vmi.translate_pages(vpns, who).tolist() == \
                _translate_each(vmi, vpns, who)

    check()
    table = vm.processes[pid].page_table
    table.map(_HEAP_VPN - 1, 900)
    check()
    table.unmap(_HEAP_VPN + 1)
    check()
    table.unmap(_HEAP_VPN + 4)  # splits the heap run in the middle
    check()
    table.map(_HEAP_VPN + 8, 901)  # extends the run past its end
    check()
    # Two VPNs onto one frame.
    table.map(_HEAP_VPN + 1, table.frame_of((_HEAP_VPN + 2) * PAGE_SIZE))
    check()
    table.map(_FAR_VPN, 902)  # a run of one page, far from the rest
    check()
    vm.load_state_dict(clean)  # a rollback
    check()
    process = vm.processes[pid]
    vm.exit_process(pid)  # release_frames
    check()
    # The released table is empty: every VPN misses.
    assert process.page_table.frames_of(
        np.asarray(vpns, dtype=np.int64)).tolist() == [-1] * len(vpns)
    vm.load_state_dict(clean)
    check()


def test_read_struct_by_name(vmi, linux_domain):
    record = vmi.read_struct("task_struct", vmi.lookup_symbol("init_task"))
    assert record["pid"] == 0


def test_event_plumbing(vmi, linux_domain):
    vmi.watch_write_pa(0x5000)
    vmi.events_begin()
    linux_domain.vm.memory.write(0x5001, b"x")
    events = vmi.events_listen()
    vmi.events_end()
    assert len(events) == 1


def test_handle_table_read(windows_vmi, windows_domain):
    vm = windows_domain.vm
    pid = vm.create_process("writer.exe")
    vm.open_file(pid, "\\Device\\X\\y.txt")
    for process in windows_vmi.list_processes():
        if process.pid == pid:
            record = windows_vmi.read_struct("eprocess", process.object_va)
            paths = windows_vmi.read_handle_table(record["handle_table"])
            assert paths == ["\\Device\\X\\y.txt"]
            break
    else:
        pytest.fail("created process not found via VMI")
