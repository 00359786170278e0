"""Simulated Linux guest.

Boots a kernel object graph into the kernel region of physical memory:

* ``init_task`` and a circular doubly-linked task list,
* a 64-bucket pid hash (second process view, for ``linux_psxview``),
* a slab cache dedicated to ``task_struct`` (third view: ghost records of
  unlinked/exited tasks remain scannable, as Volatility's ``psscan`` relies
  on),
* the system-call table (integrity-scanned by a Detector module),
* a linked list of loaded kernel modules,
* the CRIMES canary directory: ``(pid, table_va)`` records pointing at each
  protected process's in-guest canary table.

All of it is real bytes: introspection walks pointers exactly as LibVMI
walks a live Xen domain's memory.
"""

import struct

from repro.errors import GuestFault
from repro.guest.heap import CanaryHeap
from repro.guest.layout import StructDef
from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import kernel_pa, kernel_va
from repro.guest.process import (
    CANARY_TABLE_BASE,
    CODE_BASE,
    HEAP_BASE,
    STACK_TOP,
    UserProcess,
)
from repro.guest.stack import StackGuard
from repro.guest.vm import GuestVM

TASK_MAGIC = 0x5441534B        # 'TASK'
MODULE_MAGIC = 0x4C444F4D      # 'MODL'
KMEM_MAGIC = 0x4D454D4B        # 'KMEM'
DIRECTORY_MAGIC = 0x52494443   # 'CDIR'

#: task_struct.state values (subset of Linux's).
TASK_RUNNING = 0
TASK_INTERRUPTIBLE = 1
TASK_ZOMBIE = 4
TASK_DEAD = 64

#: task_struct.flags bits.
FLAG_SLAB_IN_USE = 0x1
FLAG_KERNEL_THREAD = 0x2

#: Base of the (fictional) kernel text segment; syscall entries point here.
KERNEL_TEXT_BASE = 0xFFFF_FFFF_8100_0000

SYSCALL_COUNT = 64
IDT_VECTORS = 32
#: Buckets of the pid hash; a task's bucket is ``pid % PID_HASH_BUCKETS``.
PID_HASH_BUCKETS = 64
SOCKET_MAGIC = 0x4B434F53  # 'SOCK'

TASK_STRUCT = StructDef(
    "task_struct",
    [
        ("magic", "u32"),
        ("pid", "u32"),
        ("uid", "u32"),
        ("state", "u32"),
        ("flags", "u32"),
        ("pad", "u32"),
        ("start_time", "u64"),
        ("tasks_next", "u64"),
        ("tasks_prev", "u64"),
        ("pid_chain", "u64"),
        ("mm", "u64"),
        ("comm", ("bytes", 16)),
    ],
)

MM_STRUCT = StructDef(
    "mm_struct",
    [
        ("magic", "u32"),
        ("vma_count", "u32"),
        ("vma_array", "u64"),
    ],
)

VM_AREA = StructDef(
    "vm_area",
    [
        ("start", "u64"),
        ("end", "u64"),
        ("flags", "u32"),
        ("pad", "u32"),
        ("name", ("bytes", 32)),
    ],
)

MODULE = StructDef(
    "module",
    [
        ("magic", "u32"),
        ("pad", "u32"),
        ("next", "u64"),
        ("base", "u64"),
        ("size", "u64"),
        ("name", ("bytes", 56)),
    ],
)

KMEM_CACHE = StructDef(
    "kmem_cache",
    [
        ("magic", "u32"),
        ("slot_size", "u32"),
        ("slot_count", "u32"),
        ("pad", "u32"),
        ("base", "u64"),
    ],
)

DIRECTORY_HEADER = StructDef(
    "canary_directory_header",
    [
        ("magic", "u32"),
        ("count", "u32"),
    ],
)

FILE_MAGIC = 0x454C4946  # 'FILE'

FILE_OBJECT = StructDef(
    "file_object",
    [
        ("magic", "u32"),
        ("pid", "u32"),
        ("next", "u64"),
        ("path", ("bytes", 112)),
    ],
)

SOCKET = StructDef(
    "socket",
    [
        ("magic", "u32"),
        ("pid", "u32"),
        ("local_ip", ("bytes", 4)),
        ("remote_ip", ("bytes", 4)),
        ("local_port", "u16"),
        ("remote_port", "u16"),
        ("state", "u32"),
        ("next", "u64"),
    ],
)

DIRECTORY_ENTRY = StructDef(
    "canary_directory_entry",
    [
        ("pid", "u32"),
        ("pad", "u32"),
        ("table_va", "u64"),
    ],
)

MM_MAGIC = 0x5F5F4D4D  # 'MM__'

_TASK_SLOT_SIZE = 128
_DEFAULT_TASK_SLOTS = 512
_DIRECTORY_CAPACITY = 120


class LinuxGuest(GuestVM):
    """A bootable simulated Linux VM."""

    os_name = "linux"
    kernel_version = "4.8.0-crimes"

    def __init__(self, name="linux-vm", memory_bytes=32 * 1024 * 1024, clock=None,
                 seed=0, task_slots=_DEFAULT_TASK_SLOTS, **kwargs):
        super().__init__(name, memory_bytes, clock=clock, seed=seed, **kwargs)
        self.processes = {}
        self._slab_free = list(range(task_slots))
        self._slab_slots = task_slots
        self._task_slot_of_pid = {}
        self._boot(task_slots)

    # -- boot -----------------------------------------------------------------

    def _boot(self, task_slots):
        memory = self.memory

        # Slab cache for task_struct.
        slab_bytes = task_slots * _TASK_SLOT_SIZE
        self._slab_base = self.kalloc.allocate_pages(
            (slab_bytes + PAGE_SIZE - 1) // PAGE_SIZE
        )
        cache_pa = self.kalloc.allocate(KMEM_CACHE.size)
        KMEM_CACHE.write(
            memory,
            cache_pa,
            {
                "magic": KMEM_MAGIC,
                "slot_size": _TASK_SLOT_SIZE,
                "slot_count": task_slots,
                "pad": 0,
                "base": kernel_va(self._slab_base),
            },
        )
        self.symbols.define("kmem_cache_task", kernel_va(cache_pa))

        # System-call table.
        syscall_pa = self.kalloc.allocate(SYSCALL_COUNT * 8, align=PAGE_SIZE)
        memory.write(
            syscall_pa,
            b"".join(
                struct.pack("<Q", KERNEL_TEXT_BASE + index * 0x100)
                for index in range(SYSCALL_COUNT)
            ),
        )
        self.symbols.define("sys_call_table", kernel_va(syscall_pa))

        # Interrupt descriptor table (handler pointers only).
        idt_pa = self.kalloc.allocate(IDT_VECTORS * 8, align=64)
        memory.write(
            idt_pa,
            b"".join(
                struct.pack("<Q", KERNEL_TEXT_BASE + 0x20000 + vector * 0x40)
                for vector in range(IDT_VECTORS)
            ),
        )
        self.symbols.define("idt_table", kernel_va(idt_pa))

        # TCP socket list head (u64 variable holding the first socket VA).
        sockets_pa = self.kalloc.allocate(8, align=8)
        memory.write(sockets_pa, struct.pack("<Q", 0))
        self.symbols.define("tcp_sockets", kernel_va(sockets_pa))

        # Global open-file chain (u64 head variable).
        files_pa = self.kalloc.allocate(8, align=8)
        memory.write(files_pa, struct.pack("<Q", 0))
        self.symbols.define("file_table", kernel_va(files_pa))

        # Pid hash: PID_HASH_BUCKETS buckets of task-struct VAs.
        pid_hash_pa = self.kalloc.allocate(PID_HASH_BUCKETS * 8, align=64)
        memory.write(pid_hash_pa, b"\x00" * (PID_HASH_BUCKETS * 8))
        self.symbols.define("pid_hash", kernel_va(pid_hash_pa))

        # Module list head (a u64 kernel variable holding the first module VA).
        modules_pa = self.kalloc.allocate(8, align=8)
        memory.write(modules_pa, struct.pack("<Q", 0))
        self.symbols.define("modules", kernel_va(modules_pa))

        # CRIMES canary directory.
        directory_pa = self.kalloc.allocate(
            DIRECTORY_HEADER.size + _DIRECTORY_CAPACITY * DIRECTORY_ENTRY.size,
            align=64,
        )
        DIRECTORY_HEADER.write(
            memory, directory_pa, {"magic": DIRECTORY_MAGIC, "count": 0}
        )
        self._directory_pa = directory_pa
        self.symbols.define("crimes_canary_directory", kernel_va(directory_pa))

        # init_task (pid 0, the circular list head).
        init_pa = self._slab_alloc()
        init_va = kernel_va(init_pa)
        TASK_STRUCT.write(
            memory,
            init_pa,
            {
                "magic": TASK_MAGIC,
                "pid": 0,
                "uid": 0,
                "state": TASK_RUNNING,
                "flags": FLAG_SLAB_IN_USE | FLAG_KERNEL_THREAD,
                "pad": 0,
                "start_time": 0,
                "tasks_next": init_va,
                "tasks_prev": init_va,
                "pid_chain": 0,
                "mm": 0,
                "comm": b"swapper/0",
            },
        )
        self._init_task_va = init_va
        self._task_slot_of_pid[0] = init_pa
        self.symbols.define("init_task", init_va)

        for module_name, size in (("ext4", 0x9C000), ("e1000", 0x28000),
                                  ("crimes_guest", 0x4000)):
            self.load_module(module_name, size)

    # -- slab -------------------------------------------------------------------

    def _slab_alloc(self):
        if not self._slab_free:
            raise GuestFault("task_struct slab exhausted")
        slot = self._slab_free.pop(0)
        return self._slab_base + slot * _TASK_SLOT_SIZE

    def _slab_release(self, task_pa):
        slot = (task_pa - self._slab_base) // _TASK_SLOT_SIZE
        self._slab_free.append(slot)

    def slab_range(self):
        """Physical byte range of the task slab (for psscan-style sweeps)."""
        return self._slab_base, self._slab_base + self._slab_slots * _TASK_SLOT_SIZE

    # -- task list maintenance -----------------------------------------------------

    def _task_pa(self, pid):
        pa = self._task_slot_of_pid.get(pid)
        if pa is None:
            raise GuestFault("no task with pid %d" % pid)
        return pa

    def _link_task(self, task_pa):
        """Insert at the tail of the circular task list (before init_task)."""
        memory = self.memory
        task_va = kernel_va(task_pa)
        init_pa = kernel_pa(self._init_task_va)
        tail_va = TASK_STRUCT.read_field(memory, init_pa, "tasks_prev")
        tail_pa = kernel_pa(tail_va)
        TASK_STRUCT.write_field(memory, tail_pa, "tasks_next", task_va)
        TASK_STRUCT.write_field(memory, task_pa, "tasks_prev", tail_va)
        TASK_STRUCT.write_field(memory, task_pa, "tasks_next", self._init_task_va)
        TASK_STRUCT.write_field(memory, init_pa, "tasks_prev", task_va)

    def _unlink_task(self, task_pa):
        memory = self.memory
        next_va = TASK_STRUCT.read_field(memory, task_pa, "tasks_next")
        prev_va = TASK_STRUCT.read_field(memory, task_pa, "tasks_prev")
        if next_va == 0 and prev_va == 0:
            return  # already unlinked
        TASK_STRUCT.write_field(memory, kernel_pa(prev_va), "tasks_next", next_va)
        TASK_STRUCT.write_field(memory, kernel_pa(next_va), "tasks_prev", prev_va)
        TASK_STRUCT.write_field(memory, task_pa, "tasks_next", 0)
        TASK_STRUCT.write_field(memory, task_pa, "tasks_prev", 0)

    def _pid_hash_insert(self, task_pa, pid):
        memory = self.memory
        bucket_pa = kernel_pa(self.symbols.lookup("pid_hash")) + (
            pid % PID_HASH_BUCKETS
        ) * 8
        head = struct.unpack("<Q", memory.read(bucket_pa, 8))[0]
        TASK_STRUCT.write_field(memory, task_pa, "pid_chain", head)
        memory.write(bucket_pa, struct.pack("<Q", kernel_va(task_pa)))

    def _pid_hash_remove(self, task_pa, pid):
        memory = self.memory
        target_va = kernel_va(task_pa)
        bucket_pa = kernel_pa(self.symbols.lookup("pid_hash")) + (
            pid % PID_HASH_BUCKETS
        ) * 8
        current = struct.unpack("<Q", memory.read(bucket_pa, 8))[0]
        previous_pa = None
        while current:
            current_pa = kernel_pa(current)
            following = TASK_STRUCT.read_field(memory, current_pa, "pid_chain")
            if current == target_va:
                if previous_pa is None:
                    memory.write(bucket_pa, struct.pack("<Q", following))
                else:
                    TASK_STRUCT.write_field(
                        memory, previous_pa, "pid_chain", following
                    )
                TASK_STRUCT.write_field(memory, current_pa, "pid_chain", 0)
                return
            previous_pa = current_pa
            current = following

    # -- process lifecycle ----------------------------------------------------------

    def create_process(self, name, uid=1000, heap_pages=16, code_pages=2,
                       stack_pages=4, canary_capacity=2048,
                       canaries_enabled=True, kernel_thread=False):
        """Spawn a user process: task_struct + address space + canary heap."""
        pid = self.allocate_pid()
        task_pa = self._slab_alloc()
        mm_va = 0
        process = None

        if not kernel_thread:
            process = UserProcess(self, pid, name, uid=uid)
            process.map_region("code", CODE_BASE, code_pages)
            process.map_region("heap", HEAP_BASE, heap_pages)
            process.map_region(
                "stack", STACK_TOP - stack_pages * PAGE_SIZE, stack_pages
            )
            from repro.guest.heap import CANARY_ENTRY, CANARY_TABLE_HEADER

            table_bytes = (
                CANARY_TABLE_HEADER.size + canary_capacity * CANARY_ENTRY.size
            )
            table_pages = (table_bytes + PAGE_SIZE - 1) // PAGE_SIZE
            process.map_region("canary_table", CANARY_TABLE_BASE, table_pages)
            process.heap = CanaryHeap(
                process,
                HEAP_BASE,
                heap_pages * PAGE_SIZE,
                CANARY_TABLE_BASE,
                canary_capacity,
                canary_value=struct.unpack("<Q", self.rng.randbytes(8))[0],
                canaries_enabled=canaries_enabled,
            )
            if canaries_enabled:
                process.stack_guard = StackGuard(
                    stack_base=STACK_TOP - stack_pages * PAGE_SIZE,
                    stack_top=STACK_TOP,
                    registry=process.heap,
                )
            mm_va = self._write_mm_struct(process)
            self.processes[pid] = process
            if canaries_enabled:
                self._directory_add(pid, CANARY_TABLE_BASE)

        TASK_STRUCT.write(
            self.memory,
            task_pa,
            {
                "magic": TASK_MAGIC,
                "pid": pid,
                "uid": uid,
                "state": TASK_RUNNING,
                "flags": FLAG_SLAB_IN_USE
                | (FLAG_KERNEL_THREAD if kernel_thread else 0),
                "pad": 0,
                "start_time": self.now_us(),
                "tasks_next": 0,
                "tasks_prev": 0,
                "pid_chain": 0,
                "mm": mm_va,
                "comm": name.encode("utf-8"),
            },
        )
        self._task_slot_of_pid[pid] = task_pa
        self._link_task(task_pa)
        self._pid_hash_insert(task_pa, pid)
        return process if process is not None else pid

    def _write_mm_struct(self, process):
        vma_entries = []
        for region, (base, pages) in sorted(process.regions.items(),
                                            key=lambda kv: kv[1][0]):
            vma_entries.append(
                {
                    "start": base,
                    "end": base + pages * PAGE_SIZE,
                    "flags": 0x7,
                    "pad": 0,
                    "name": ("[%s]" % region).encode("utf-8"),
                }
            )
        vma_pa = self.kalloc.allocate(len(vma_entries) * VM_AREA.size, align=64)
        for index, entry in enumerate(vma_entries):
            VM_AREA.write(self.memory, vma_pa + index * VM_AREA.size, entry)
        mm_pa = self.kalloc.allocate(MM_STRUCT.size, align=64)
        MM_STRUCT.write(
            self.memory,
            mm_pa,
            {
                "magic": MM_MAGIC,
                "vma_count": len(vma_entries),
                "vma_array": kernel_va(vma_pa),
            },
        )
        return kernel_va(mm_pa)

    def exit_process(self, pid):
        """Normal exit: unlink everywhere, release frames, leave a slab ghost."""
        task_pa = self._task_pa(pid)
        TASK_STRUCT.write_field(self.memory, task_pa, "state", TASK_DEAD)
        flags = TASK_STRUCT.read_field(self.memory, task_pa, "flags")
        TASK_STRUCT.write_field(
            self.memory, task_pa, "flags", flags & ~FLAG_SLAB_IN_USE
        )
        self._unlink_task(task_pa)
        self._pid_hash_remove(task_pa, pid)
        self._slab_release(task_pa)
        self._task_slot_of_pid.pop(pid, None)
        process = self.processes.pop(pid, None)
        if process is not None:
            if process.heap is not None and process.heap.canaries_enabled:
                self._directory_remove(pid)
            process.release_frames()

    def hide_process(self, pid):
        """Rootkit-style hiding: unlink from the task list *only*.

        The task remains in the pid hash and the slab, which is exactly the
        inconsistency ``linux_psxview`` detects.
        """
        self._unlink_task(self._task_pa(pid))

    def rename_process(self, pid, new_name):
        TASK_STRUCT.write_field(
            self.memory, self._task_pa(pid), "comm", new_name.encode("utf-8")
        )
        process = self.processes.get(pid)
        if process is not None:
            process.name = new_name

    def task_va_of_pid(self, pid):
        return kernel_va(self._task_pa(pid))

    # -- kernel attack surface (used by attack programs) ----------------------------

    def hijack_syscall(self, index, target_va):
        """Overwrite a syscall-table slot (system-call table hijacking)."""
        if not (0 <= index < SYSCALL_COUNT):
            raise GuestFault("syscall index %d out of range" % index)
        table_pa = kernel_pa(self.symbols.lookup("sys_call_table"))
        self.memory.write(table_pa + index * 8, struct.pack("<Q", target_va))

    def hijack_idt(self, vector, target_va):
        """Overwrite an interrupt-descriptor slot (IDT hooking)."""
        if not (0 <= vector < IDT_VECTORS):
            raise GuestFault("IDT vector %d out of range" % vector)
        table_pa = kernel_pa(self.symbols.lookup("idt_table"))
        self.memory.write(table_pa + vector * 8, struct.pack("<Q", target_va))

    def open_socket(self, pid, local, remote, state=None):
        """Create a kernel socket object; ``local``/``remote`` are
        ``(ip, port)``. Returns the socket's kernel VA."""
        from repro.guest.net import TCP_ESTABLISHED, ip_to_bytes

        socket_pa = self.kalloc.allocate(SOCKET.size, align=64)
        head_pa = kernel_pa(self.symbols.lookup("tcp_sockets"))
        head = struct.unpack("<Q", self.memory.read(head_pa, 8))[0]
        SOCKET.write(
            self.memory,
            socket_pa,
            {
                "magic": SOCKET_MAGIC,
                "pid": pid,
                "local_ip": ip_to_bytes(local[0]),
                "remote_ip": ip_to_bytes(remote[0]),
                "local_port": local[1],
                "remote_port": remote[1],
                "state": state if state is not None else TCP_ESTABLISHED,
                "next": head,
            },
        )
        self.memory.write(head_pa, struct.pack("<Q", kernel_va(socket_pa)))
        return kernel_va(socket_pa)

    def set_socket_state(self, socket_va, state):
        SOCKET.write_field(self.memory, kernel_pa(socket_va), "state", state)

    def open_file(self, pid, path):
        """Create a kernel file object owned by ``pid``; returns its VA."""
        file_pa = self.kalloc.allocate(FILE_OBJECT.size, align=64)
        head_pa = kernel_pa(self.symbols.lookup("file_table"))
        head = struct.unpack("<Q", self.memory.read(head_pa, 8))[0]
        FILE_OBJECT.write(
            self.memory,
            file_pa,
            {
                "magic": FILE_MAGIC,
                "pid": pid,
                "next": head,
                "path": path.encode("utf-8"),
            },
        )
        self.memory.write(head_pa, struct.pack("<Q", kernel_va(file_pa)))
        return kernel_va(file_pa)

    def close_file(self, file_va):
        """Unlink a file object from the global chain."""
        target_pa = kernel_pa(file_va)
        head_pa = kernel_pa(self.symbols.lookup("file_table"))
        current = struct.unpack("<Q", self.memory.read(head_pa, 8))[0]
        previous_pa = None
        while current:
            current_pa = kernel_pa(current)
            following = FILE_OBJECT.read_field(self.memory, current_pa, "next")
            if current == file_va:
                if previous_pa is None:
                    self.memory.write(head_pa, struct.pack("<Q", following))
                else:
                    FILE_OBJECT.write_field(
                        self.memory, previous_pa, "next", following
                    )
                return
            previous_pa = current_pa
            current = following
        raise GuestFault("file object 0x%x not in file table" % file_va)

    def load_module(self, name, size_bytes):
        """Append a kernel module to the module list."""
        module_pa = self.kalloc.allocate(MODULE.size, align=64)
        head_pa = kernel_pa(self.symbols.lookup("modules"))
        head = struct.unpack("<Q", self.memory.read(head_pa, 8))[0]
        MODULE.write(
            self.memory,
            module_pa,
            {
                "magic": MODULE_MAGIC,
                "pad": 0,
                "next": head,
                "base": KERNEL_TEXT_BASE + 0x40_0000 + module_pa,
                "size": size_bytes,
                "name": name.encode("utf-8"),
            },
        )
        self.memory.write(head_pa, struct.pack("<Q", kernel_va(module_pa)))

    # -- canary directory ---------------------------------------------------------------

    def _directory_entries(self):
        header = DIRECTORY_HEADER.read(self.memory, self._directory_pa)
        entries = []
        for index in range(header["count"]):
            entry_pa = (
                self._directory_pa
                + DIRECTORY_HEADER.size
                + index * DIRECTORY_ENTRY.size
            )
            entries.append(DIRECTORY_ENTRY.read(self.memory, entry_pa))
        return entries

    def _directory_write(self, entries):
        if len(entries) > _DIRECTORY_CAPACITY:
            raise GuestFault("canary directory full")
        DIRECTORY_HEADER.write(
            self.memory,
            self._directory_pa,
            {"magic": DIRECTORY_MAGIC, "count": len(entries)},
        )
        for index, entry in enumerate(entries):
            DIRECTORY_ENTRY.write(
                self.memory,
                self._directory_pa
                + DIRECTORY_HEADER.size
                + index * DIRECTORY_ENTRY.size,
                entry,
            )

    def _directory_add(self, pid, table_va):
        entries = self._directory_entries()
        entries.append({"pid": pid, "pad": 0, "table_va": table_va})
        self._directory_write(entries)

    def _directory_remove(self, pid):
        entries = [e for e in self._directory_entries() if e["pid"] != pid]
        self._directory_write(entries)

    # -- snapshot -----------------------------------------------------------------------

    def state_dict(self):
        state = super().state_dict()
        state["linux"] = {
            "slab_free": list(self._slab_free),
            "task_slot_of_pid": self._task_slot_of_pid.copy(),
            "processes": {
                pid: process.state_dict() for pid, process in self.processes.items()
            },
        }
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        linux = state["linux"]
        self._slab_free = list(linux["slab_free"])
        self._task_slot_of_pid = linux["task_slot_of_pid"].copy()
        surviving = {}
        for pid, process_state in linux["processes"].items():
            process = self.processes.get(pid)
            if process is None:
                process = UserProcess(self, pid, process_state["name"])
            if "heap" in process_state and process.heap is None:
                process.heap = CanaryHeap.from_state(process, process_state["heap"])
            if "stack_guard" in process_state and process.stack_guard is None:
                base, pages = process_state["regions"]["stack"]
                process.stack_guard = StackGuard(
                    base, base + pages * PAGE_SIZE, process.heap
                )
            process.load_state_dict(process_state)
            surviving[pid] = process
        self.processes = surviving
