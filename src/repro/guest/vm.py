"""Base guest virtual machine.

A :class:`GuestVM` owns simulated physical RAM, a symbol map, virtual CPU
state, devices, and the allocators that carve the physical address space:

* frame 0             — reserved (null page, never handed out)
* frames 1 .. K       — kernel region (object graph, slabs, page tables)
* frames K .. end     — user frames (process code/stack/heap pages)

Subclasses (:class:`~repro.guest.linux.LinuxGuest`,
:class:`~repro.guest.windows.WindowsGuest`) build an OS-specific kernel
object graph inside the kernel region at boot.
"""

from repro.errors import DomainStateError
from repro.guest.alloc import FrameAllocator, KernelBumpAllocator
from repro.guest.devices import OutputSink, VirtualDisk, VirtualNic
from repro.guest.disk import BlockStore
from repro.guest.memory import PAGE_SIZE, PhysicalMemory
from repro.guest.symbols import SymbolMap
from repro.sim.clock import VirtualClock
from repro.sim.rng import SeededStream

#: Default share of RAM reserved for the kernel object graph.
DEFAULT_KERNEL_FRACTION = 0.25

_CPU_REGISTERS = ("rip", "rsp", "rbp", "rax", "rbx", "rcx", "rdx", "cr3")

_CONTAINERS = frozenset((dict, list))


def copy_state(state):
    """An independent copy of a :meth:`GuestVM.state_dict` tree.

    Under the state contract only dicts and lists are mutable; every
    other node is an immutable leaf and is shared. A container with no
    container inside is copied in one ``copy()`` (a memcpy for dicts).
    """
    kind = type(state)
    if kind is dict:
        if _CONTAINERS.isdisjoint(map(type, state.values())):
            return state.copy()
        return {key: copy_state(value) for key, value in state.items()}
    if kind is list:
        if _CONTAINERS.isdisjoint(map(type, state)):
            return state.copy()
        return [copy_state(value) for value in state]
    return state


class GuestSnapshot:
    """A full copy of guest state: RAM image, CPU, Python-side bookkeeping."""

    __slots__ = ("memory_image", "state", "taken_at")

    def __init__(self, memory_image, state, taken_at):
        self.memory_image = memory_image
        self.state = state
        self.taken_at = taken_at


class GuestVM:
    """Base simulated guest (OS-agnostic plumbing)."""

    os_name = "generic"
    kernel_version = "0.0"

    def __init__(self, name, memory_bytes, clock=None, seed=0,
                 kernel_fraction=DEFAULT_KERNEL_FRACTION, vcpus=1,
                 disk_blocks=1024):
        self.name = name
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = SeededStream(seed, "guest/%s" % name)
        self.vcpus = vcpus
        self.memory = PhysicalMemory(memory_bytes)

        kernel_frames = max(4, int(self.memory.frame_count * kernel_fraction))
        self.kernel_frames = kernel_frames
        # Frame 0 stays unmapped so that a null pointer is always a fault.
        self.kalloc = KernelBumpAllocator(PAGE_SIZE, (kernel_frames - 1) * PAGE_SIZE)
        self.user_frames = FrameAllocator(
            kernel_frames, self.memory.frame_count - kernel_frames
        )

        self.symbols = SymbolMap(self.os_name, self.kernel_version)
        self.cpu = {register: 0 for register in _CPU_REGISTERS}

        self.output_sink = OutputSink(self.clock)
        self.nic = VirtualNic(self.output_sink)
        self.disk = VirtualDisk(self.output_sink, image=BlockStore(disk_blocks))

        self._next_pid = 1
        self.running = True

    # -- device plumbing -------------------------------------------------

    def set_output_sink(self, sink):
        """Redirect device outputs (the hypervisor installs its buffer here)."""
        self.output_sink = sink
        self.nic.sink = sink
        self.disk.sink = sink

    # -- lifecycle --------------------------------------------------------

    def pause(self):
        if not self.running:
            raise DomainStateError("VM %s is already paused" % self.name)
        self.running = False

    def resume(self):
        if self.running:
            raise DomainStateError("VM %s is already running" % self.name)
        self.running = True

    def allocate_pid(self):
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def now_us(self):
        """Guest wall clock in microseconds (used for kernel timestamps)."""
        return int(self.clock.now * 1000)

    # -- snapshot / restore ------------------------------------------------

    def state_dict(self):
        """Plain-data snapshot of all Python-side guest state.

        The contract the checkpointer keeps the result under, uncopied,
        as its backup: every dict and list in the returned tree is
        fresh, and everything else is an immutable leaf (ints, strs,
        bytes disk blocks, tuples of those), so later guest activity
        can never change it. :meth:`load_state_dict` in turn copies
        every container it keeps, so one state can be loaded any number
        of times. Subclasses extend both under the same contract.
        """
        return {
            "cpu": self.cpu.copy(),
            "kalloc": self.kalloc.state_dict(),
            "user_frames": self.user_frames.state_dict(),
            "nic": self.nic.state_dict(),
            "disk": self.disk.state_dict(),
            "next_pid": self._next_pid,
        }

    def load_state_dict(self, state):
        self.cpu = state["cpu"].copy()
        self.kalloc.load_state_dict(state["kalloc"])
        self.user_frames.load_state_dict(state["user_frames"])
        self.nic.load_state_dict(state["nic"])
        self.disk.load_state_dict(state["disk"])
        self._next_pid = state["next_pid"]

    def snapshot(self):
        """Full-fidelity snapshot (RAM + CPU + bookkeeping)."""
        return GuestSnapshot(
            memory_image=self.memory.snapshot_bytes(),
            state=self.state_dict(),
            taken_at=self.clock.now,
        )

    def restore(self, snapshot):
        """Restore a snapshot taken earlier from this same VM."""
        self.memory.load_bytes(snapshot.memory_image)
        self.load_state_dict(snapshot.state)

    def __repr__(self):
        return "%s(name=%r, ram=%dMiB)" % (
            type(self).__name__,
            self.name,
            self.memory.size // (1024 * 1024),
        )
