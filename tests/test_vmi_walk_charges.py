"""Golden virtual-time charges of the live VMI walkers.

Every live walk charges the scan base, then each read, then its
per-node constant after each node, and each charge draws from the
instance's jitter stream. A reordered, added or dropped charge changes
``take_cost_ms()`` here and every later draw, so these floats pin the
charge order of each walker outside the benchmark digests. They are
exact: the two seeded guests below replay the same draws every run.
"""

import pytest

from repro.detectors.syscall_table import IdtTableModule, SyscallTableModule
from repro.guest.linux import LinuxGuest
from repro.guest.windows import WindowsGuest
from repro.hypervisor.xen import Hypervisor
from repro.vmi.libvmi import VMIInstance

LINUX_GOLDEN = [
    ("init", 118.47251293937049),
    ("list_processes", 0.3831165492332396),
    ("list_processes_pid_hash", 0.3723457089916168),
    ("list_modules", 0.42421605692374376),
    ("read_syscall_table", 0.039472129540578764),
    ("list_sockets", 0.3507553160091826),
    ("canary_directory", 5.0333777446842703e-05),
    ("syscall-table", 0.03830863210359618),
    ("idt-table", 0.01982099736815221),
]

WINDOWS_GOLDEN = [
    ("init", 122.07365552201888),
    ("list_processes", 0.3943254430484756),
    ("list_sockets", 0.5474637895405533),
    ("pool_scan_processes", 0.20999267575029767),
    ("read_handle_table[4]", 1.2741414923458328e-05),
    ("read_handle_table[8]", 1.2436103627164656e-05),
    ("read_handle_table[12]", 1.2364298418763888e-05),
    ("read_handle_table[16]", 1.233911425676729e-05),
    ("read_handle_table[20]", 5.068209007980119e-05),
]


def _linux_steps():
    vm = LinuxGuest(name="golden-linux", memory_bytes=4 * 1024 * 1024,
                    seed=41)
    web = vm.create_process("nginx", heap_pages=2)
    vm.create_process("sshd", heap_pages=2)
    ghost = vm.create_process("ghost", heap_pages=2)
    gone = vm.create_process("gone", heap_pages=2)
    vm.hide_process(ghost.pid)
    vm.exit_process(gone.pid)
    vm.load_module("rootkit_mod", 0x4000)
    vm.open_socket(web.pid, ("10.0.0.5", 443), ("203.0.113.9", 4444))
    vm.open_file(web.pid, "/etc/shadow")
    vm.hijack_syscall(7, 0xFFFFFFFFA0000000)
    domain = Hypervisor(clock=vm.clock).create_domain(vm)
    vmi = VMIInstance(domain, seed=41)
    steps = [("init", vmi.take_cost_ms())]
    for name in ("list_processes", "list_processes_pid_hash",
                 "list_modules", "read_syscall_table", "list_sockets",
                 "canary_directory"):
        getattr(vmi, name)()
        steps.append((name, vmi.take_cost_ms()))
    for module in (SyscallTableModule(), IdtTableModule()):
        module.setup(vmi)
        steps.append((module.name, vmi.take_cost_ms()))
    return steps


def _windows_steps():
    vm = WindowsGuest(name="golden-windows", memory_bytes=4 * 1024 * 1024,
                      seed=42)
    agent = vm.create_process("agent.exe")
    hidden = vm.create_process("hidden.exe")
    done = vm.create_process("done.exe")
    vm.open_file(agent, "\\Device\\X\\report.doc")
    vm.open_file(hidden, "\\Device\\X\\keys.txt")
    vm.open_socket(agent, ("10.0.0.7", 5000), ("198.51.100.3", 80))
    vm.hide_process(hidden)
    vm.terminate_process(done)
    domain = Hypervisor(clock=vm.clock).create_domain(vm)
    vmi = VMIInstance(domain, seed=42)
    steps = [("init", vmi.take_cost_ms())]
    processes = vmi.list_processes()
    steps.append(("list_processes", vmi.take_cost_ms()))
    vmi.list_sockets()
    steps.append(("list_sockets", vmi.take_cost_ms()))
    vmi.pool_scan_processes()
    steps.append(("pool_scan_processes", vmi.take_cost_ms()))
    for process in processes:
        table_va = vmi.read_struct("eprocess", process.object_va)[
            "handle_table"]
        vmi.take_cost_ms()
        vmi.read_handle_table(table_va)
        steps.append(("read_handle_table[%d]" % process.pid,
                      vmi.take_cost_ms()))
    return steps


@pytest.mark.parametrize("steps, golden", [
    (_linux_steps, LINUX_GOLDEN),
    (_windows_steps, WINDOWS_GOLDEN),
], ids=["linux", "windows"])
def test_walker_charges_match_golden(steps, golden):
    assert steps() == golden
