"""Robustness properties: live and offline walkers over guest memory.

An attacker controls every byte the analyzer parses. Whatever garbage a
dump contains, plugins must either return rows or raise
:class:`ForensicsError` — never hang, never chase pointers outside the
image, never surface a guest fault or an unrelated exception. The live
VMI walkers owe the same, with a library error.

Both sides drive the same walkers (``repro.vmi.walk``), so on an intact
guest a live scan and its plugin over ``MemoryDump.from_vm`` of the same
VM must also agree, node for node.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.errors import CrimesError, ForensicsError
from repro.forensics.dumps import MemoryDump
from repro.forensics.volatility import VolatilityFramework
from repro.guest import linux, windows
from repro.guest.linux import SYSCALL_COUNT, LinuxGuest
from repro.guest.pagetable import KERNEL_BASE, kernel_pa
from repro.guest.windows import WindowsGuest
from repro.hypervisor.xen import Hypervisor
from repro.vmi.libvmi import VMIInstance

LINUX_PLUGINS = ("linux_pslist", "linux_psscan", "linux_pidhashtable",
                 "linux_lsmod", "linux_netstat", "linux_lsof")
WINDOWS_PLUGINS = ("pslist", "psscan", "netscan", "handles", "printkey",
                   "pstree")

_volatility = VolatilityFramework()


def _corrupt(vm, rng_data, links=()):
    """Overwrite random kernel-region spans with attacker bytes, then
    each ``(root, pointer)`` link with a hostile pointer."""
    for offset, blob in rng_data:
        span = min(len(blob), vm.memory.size - offset)
        if span > 0:
            vm.memory.write(offset, blob[:span])
    for (symbol, offset), pointer in links:
        vm.memory.write(kernel_pa(vm.symbols.lookup(symbol)) + offset,
                        struct.pack("<Q", pointer))
    return MemoryDump.from_vm(vm, label="corrupted")


corruption = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=512 * 1024),
        st.binary(min_size=1, max_size=512),
    ),
    min_size=1,
    max_size=8,
)


#: A pointer an attacker may plant: anything, or an address each side of
#: the rule refuses (below the direct map, past 2^64, past RAM).
hostile_pointer = st.one_of(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.sampled_from([0x4141, (1 << 64) - 8, KERNEL_BASE + (64 << 20)]),
)

#: ``(symbol, offset)`` of the links every walk starts from.
LINUX_ROOTS = (
    ("init_task", linux.TASK_STRUCT.offset_of("tasks_next")),
    ("pid_hash", 0), ("modules", 0), ("tcp_sockets", 0), ("file_table", 0),
    ("kmem_cache_task", linux.KMEM_CACHE.offset_of("base")),
)
WINDOWS_ROOTS = (("PsActiveProcessHead", windows.LIST_HEAD.offset_of("next")),)


def hostile_links(roots):
    return st.lists(st.tuples(st.sampled_from(roots), hostile_pointer),
                    max_size=3)


@settings(max_examples=30, deadline=None)
@given(rng_data=corruption, links=hostile_links(LINUX_ROOTS))
def test_linux_plugins_fail_closed(rng_data, links):
    vm = LinuxGuest(name="fuzz-linux", memory_bytes=4 * 1024 * 1024,
                    seed=200)
    vm.create_process("victim", heap_pages=2)
    dump = _corrupt(vm, rng_data, links)
    for plugin_name in LINUX_PLUGINS:
        try:
            rows = _volatility.run(plugin_name, dump)
        except ForensicsError:
            continue  # fail-closed: the dump's own error is acceptable
        assert isinstance(rows, list)


@settings(max_examples=30, deadline=None)
@given(rng_data=corruption, links=hostile_links(WINDOWS_ROOTS))
def test_windows_plugins_fail_closed(rng_data, links):
    vm = WindowsGuest(name="fuzz-windows", memory_bytes=4 * 1024 * 1024,
                      seed=201)
    pid = vm.create_process("victim.exe")
    vm.open_file(pid, "\\Device\\X\\fuzz.txt")
    vm.open_socket(pid, ("10.0.0.1", 1), ("10.0.0.2", 2))
    dump = _corrupt(vm, rng_data, links)
    for plugin_name in WINDOWS_PLUGINS:
        try:
            rows = _volatility.run(plugin_name, dump)
        except ForensicsError:
            continue
        assert isinstance(rows, list)


def _live(vm, seed):
    return VMIInstance(Hypervisor(clock=vm.clock).create_domain(vm),
                       seed=seed)


def _scribble(vm, rng_data):
    for offset, blob in rng_data:
        span = min(len(blob), vm.memory.size - offset)
        if span > 0:
            vm.memory.write(offset, blob[:span])


def _fail_closed(walkers):
    for walker in walkers:
        try:
            result = walker()
        except CrimesError:
            continue
        assert result is not None


@settings(max_examples=20, deadline=None)
@given(rng_data=corruption)
def test_live_vmi_walkers_fail_closed(rng_data):
    vm = LinuxGuest(name="fuzz-vmi", memory_bytes=4 * 1024 * 1024,
                    seed=202)
    vm.create_process("victim", heap_pages=2)
    _scribble(vm, rng_data)
    vmi = _live(vm, 202)
    _fail_closed((vmi.list_processes, vmi.list_modules, vmi.list_sockets,
                  vmi.list_processes_pid_hash, vmi.list_files,
                  vmi.slab_scan_processes, vmi.read_syscall_table,
                  vmi.canary_directory))


@settings(max_examples=20, deadline=None)
@given(rng_data=corruption)
def test_live_windows_vmi_walkers_fail_closed(rng_data):
    vm = WindowsGuest(name="fuzz-vmi-windows",
                      memory_bytes=4 * 1024 * 1024, seed=203)
    pid = vm.create_process("victim.exe")
    vm.open_file(pid, "\\Device\\X\\fuzz.txt")
    vm.open_socket(pid, ("10.0.0.1", 1), ("10.0.0.2", 2))
    clean = _live(vm, 203)
    handle_tables = [
        clean.read_struct("eprocess", process.object_va)["handle_table"]
        for process in clean.list_processes()]
    _scribble(vm, rng_data)
    vmi = _live(vm, 203)
    _fail_closed([vmi.list_processes, vmi.list_sockets,
                  vmi.pool_scan_processes]
                 + [lambda va=va: vmi.read_handle_table(va)
                    for va in handle_tables])


# -- the live and offline views agree -------------------------------------

#: Guest activity: (op, argument) pairs applied in order.
_ACTIVITY = st.lists(st.tuples(
    st.sampled_from(["spawn", "hide", "exit", "module", "socket", "file",
                     "hijack"]),
    st.integers(min_value=0, max_value=SYSCALL_COUNT - 1),
), max_size=12)


def _pick(pids, index):
    return pids[index % len(pids)] if pids else None


def _linux_guest(activity):
    vm = LinuxGuest(name="agree-linux", memory_bytes=4 * 1024 * 1024,
                    seed=204)
    pids = []
    for op, arg in activity:
        pid = _pick(pids, arg)
        if op == "spawn":
            pids.append(vm.create_process("proc%d" % arg, heap_pages=1).pid)
        elif op == "module":
            vm.load_module("mod%d" % arg, 0x1000 * (arg + 1))
        elif op == "hijack":
            vm.hijack_syscall(arg, 0xFFFFFFFFA0000000 + arg * 16)
        elif pid is None:
            continue
        elif op == "hide":
            vm.hide_process(pid)
        elif op == "exit":
            vm.exit_process(pid)
            pids.remove(pid)
        elif op == "socket":
            vm.open_socket(pid, ("10.0.0.%d" % (arg % 250), 1000 + arg),
                           ("203.0.113.%d" % (arg % 250), 80))
        else:
            vm.open_file(pid, "/tmp/file%d" % arg)
    return vm


def _windows_guest(activity):
    vm = WindowsGuest(name="agree-windows", memory_bytes=4 * 1024 * 1024,
                      seed=205)
    pids = []
    for op, arg in activity:
        pid = _pick(pids, arg)
        if op == "spawn":
            pids.append(vm.create_process("proc%d.exe" % arg))
        elif pid is None or op in ("module", "hijack"):
            continue
        elif op == "hide":
            vm.hide_process(pid)
        elif op == "exit":
            vm.terminate_process(pid)
            pids.remove(pid)
        elif op == "socket":
            vm.open_socket(pid, ("10.0.0.%d" % (arg % 250), 1000 + arg),
                           ("203.0.113.%d" % (arg % 250), 80))
        else:
            vm.open_file(pid, "\\Device\\X\\file%d" % arg)
    return vm


def _endpoints(sockets):
    return sorted((s.owner_pid, "%s:%d" % s.local, "%s:%d" % s.remote,
                   s.state_name) for s in sockets)


def _rows_endpoints(rows):
    return sorted((row["owner_pid"], row["local"], row["remote"],
                   row["state"]) for row in rows)


@settings(max_examples=25, deadline=None)
@given(activity=_ACTIVITY)
def test_linux_live_and_offline_views_agree(activity):
    vm = _linux_guest(activity)
    vmi = _live(vm, 204)
    dump = MemoryDump.from_vm(vm)

    def tasks(processes):
        return [(p.pid, p.object_va) for p in processes]

    def rows(plugin, va="task_va"):
        return [(row["pid"], row[va]) for row in _volatility.run(plugin, dump)]

    assert tasks(vmi.list_processes()) == rows("linux_pslist")
    assert tasks(vmi.list_processes_pid_hash()) == \
        rows("linux_pidhashtable")
    assert tasks(vmi.slab_scan_processes()) == rows("linux_psscan")
    assert [(m.name, m.base, m.size) for m in vmi.list_modules()] == \
        [(row["name"], row["base"], row["size"])
         for row in _volatility.run("linux_lsmod", dump)]
    assert _endpoints(vmi.list_sockets()) == \
        _rows_endpoints(_volatility.run("linux_netstat", dump))
    assert [(f.owner_pid, f.path, f.object_va) for f in vmi.list_files()] \
        == [(row["pid"], row["path"], row["file_va"])
            for row in _volatility.run("linux_lsof", dump)]
    assert vmi.read_syscall_table() == \
        [row["address"] for row in
         _volatility.run("linux_check_syscall", dump)]


@settings(max_examples=25, deadline=None)
@given(activity=_ACTIVITY)
def test_windows_live_and_offline_views_agree(activity):
    vm = _windows_guest(activity)
    vmi = _live(vm, 205)
    dump = MemoryDump.from_vm(vm)

    def rows(plugin):
        return [(row["pid"], row["eprocess_va"])
                for row in _volatility.run(plugin, dump)]

    listed = vmi.list_processes()
    assert [(p.pid, p.object_va) for p in listed] == rows("pslist")
    assert [(p.pid, p.object_va) for p in vmi.pool_scan_processes()] == \
        rows("psscan")
    assert _endpoints(vmi.list_sockets()) == \
        _rows_endpoints(_volatility.run("netscan", dump))
    live_handles = sorted(
        (process.pid, path) for process in listed
        for path in vmi.read_handle_table(vmi.read_struct(
            "eprocess", process.object_va)["handle_table"]))
    assert live_handles == sorted(
        (row["pid"], row["path"])
        for row in _volatility.run("handles", dump))
