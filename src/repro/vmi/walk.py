"""Walkers over guest kernel structures, shared by live VMI and forensics.

One generator per structure, over an *address space*
(:mod:`repro.vmi.space`): the live
:class:`~repro.vmi.libvmi.VMIInstance` or an offline
:class:`~repro.forensics.dumps.MemoryDump`. A walker reads only through
the space's ``read_va``, ``read_pa``, ``translate`` and
``lookup_symbol`` and yields ``(va, record)`` per node, ``record`` being
the node's decoded field dict.

The walkers own every hostile-memory check: a node reached twice (a
cycle), more than :data:`MAX_NODES` nodes, a NULL link in a circular
list, a bad magic or pool tag, an implausible count or slab header. They
raise through the space: ``space.abort_walk`` for a list that does not
terminate (live introspection journals ``vmi.list_truncated`` first),
``space.error`` for anything else — :class:`IntrospectionError` live,
:class:`ForensicsError` on a dump.

Walkers never charge. The live instance charges each read inside
``read_va``/``read_pa`` and its per-node constant between yielded nodes,
so one walk costs the same virtual time whichever caller drives it.
"""

import struct

from repro.guest import linux, windows
from repro.guest.pagetable import KERNEL_BASE

#: Most nodes one walk reads in untrusted guest memory.
MAX_NODES = 65536

#: Pids at or above this are garbage, not processes.
MAX_PID = 1 << 20

#: Kernel pool records are 64-byte aligned in the simulated guests.
POOL_ALIGN = 64

#: Most handles one Windows handle table may hold.
MAX_HANDLES = 4096


def _u64(space, va):
    return struct.unpack("<Q", space.read_va(va, 8))[0]


def _chain(space, what, layout, link, current, seen, end=0, magic=None):
    """``(va, record)`` along ``link`` pointers from ``current`` to ``end``.

    ``end=0`` ends a NULL-terminated list; any other ``end`` closes a
    circular one, where a NULL link is corruption. Every chain of one
    walk shares ``seen``: a node reached twice is a cycle however the
    chains cross, and the walk reads at most :data:`MAX_NODES` nodes.
    With ``magic``, each node's ``magic`` field must hold it.
    """
    while current != end:
        if current == 0:
            raise space.error("%s list broken: NULL %s" % (what, link))
        if current in seen:
            space.abort_walk(what, current, len(seen), "cycle")
        if len(seen) == MAX_NODES:
            space.abort_walk(what, current, len(seen), "bound")
        seen.add(current)
        record = layout.decode(space.read_va(current, layout.size))
        if magic is not None and record["magic"] != magic:
            raise space.error("corrupt %s object at 0x%x" % (what, current))
        yield current, record
        current = record[link]


# -- Linux ------------------------------------------------------------------


def task_list(space):
    """init_task's circular task list; init_task is its first node."""
    head = space.lookup_symbol("init_task")
    record = linux.TASK_STRUCT.decode(
        space.read_va(head, linux.TASK_STRUCT.size))
    yield head, record
    yield from _chain(space, "task", linux.TASK_STRUCT, "tasks_next",
                      record["tasks_next"], {head}, end=head)


def pid_hash(space):
    """Every pid-hash chain, bucket by bucket."""
    table = space.lookup_symbol("pid_hash")
    seen = set()
    for bucket in range(linux.PID_HASH_BUCKETS):
        yield from _chain(space, "pid-hash", linux.TASK_STRUCT, "pid_chain",
                          _u64(space, table + bucket * 8), seen)


def module_list(space):
    """The loaded-module list."""
    yield from _chain(space, "module", linux.MODULE, "next",
                      _u64(space, space.lookup_symbol("modules")), set())


def socket_list(space):
    """The kernel's TCP socket list."""
    yield from _chain(space, "socket", linux.SOCKET, "next",
                      _u64(space, space.lookup_symbol("tcp_sockets")), set(),
                      magic=linux.SOCKET_MAGIC)


def file_list(space):
    """The kernel's open-file chain."""
    yield from _chain(space, "file", linux.FILE_OBJECT, "next",
                      _u64(space, space.lookup_symbol("file_table")), set(),
                      magic=linux.FILE_MAGIC)


def task_slab(space):
    """Every task_struct slab slot holding a TASK magic and a real pid.

    Finds what the lists no longer link: hidden tasks and the ghosts of
    exited ones. The ``kmem_cache_task`` header is guest memory too: a
    slot smaller than a task_struct, or a slab that does not fit in
    guest memory, is refused before a byte of the slab is read.
    """
    task = linux.TASK_STRUCT
    cache = linux.KMEM_CACHE.decode(space.read_va(
        space.lookup_symbol("kmem_cache_task"), linux.KMEM_CACHE.size))
    slot_size = cache["slot_size"]
    if slot_size < task.size:
        raise space.error("task slab slot size %d is smaller than a "
                          "task_struct (%d)" % (slot_size, task.size))
    base = space.translate(cache["base"])
    length = slot_size * cache["slot_count"]
    if base + length > space.size:
        raise space.error("task slab [0x%x, +%d) does not fit in %d bytes "
                          "of guest memory" % (base, length, space.size))
    slab = space.read_pa(base, length)
    for offset in range(0, length, slot_size):
        if struct.unpack_from("<I", slab, offset)[0] != linux.TASK_MAGIC:
            continue
        record = task.decode(slab, offset)
        if record["pid"] < MAX_PID:
            yield KERNEL_BASE + base + offset, record


def vm_areas(space, mm_va):
    """``(va, record)`` per VM area of the mm_struct at ``mm_va``."""
    mm = linux.MM_STRUCT.decode(space.read_va(mm_va, linux.MM_STRUCT.size))
    if mm["vma_count"] > MAX_NODES:
        raise space.error("implausible VMA count %d in mm_struct at 0x%x"
                          % (mm["vma_count"], mm_va))
    for index in range(mm["vma_count"]):
        va = mm["vma_array"] + index * linux.VM_AREA.size
        yield va, linux.VM_AREA.decode(
            space.read_va(va, linux.VM_AREA.size))


def canary_directory(space):
    """``(pid, table_va)`` per entry of the CRIMES canary directory."""
    header, entry = linux.DIRECTORY_HEADER, linux.DIRECTORY_ENTRY
    directory = space.lookup_symbol("crimes_canary_directory")
    count = header.decode(space.read_va(directory, header.size))["count"]
    if count > MAX_NODES:
        raise space.error("implausible canary-directory count %d" % count)
    for index in range(count):
        record = entry.decode(space.read_va(
            directory + header.size + index * entry.size, entry.size))
        yield record["pid"], record["table_va"]


def pointer_table(space, symbol, count):
    """The ``count`` u64 slots of the kernel pointer table at ``symbol``,
    in one read."""
    raw = space.read_va(space.lookup_symbol(symbol), count * 8)
    return list(struct.unpack("<%dQ" % count, raw))


# -- Windows ----------------------------------------------------------------


def eprocess_list(space):
    """PsActiveProcessHead's circular EPROCESS list."""
    head = space.lookup_symbol("PsActiveProcessHead")
    first = windows.LIST_HEAD.decode(
        space.read_va(head, windows.LIST_HEAD.size))["next"]
    yield from _chain(space, "eprocess", windows.EPROCESS, "links_next",
                      first, set(), end=head)


def handle_table(space, table_va):
    """``(file_va, record)`` per handle of the table at ``table_va``."""
    header = windows.HANDLE_TABLE.decode(
        space.read_va(table_va, windows.HANDLE_TABLE.size))
    if header["magic"] != windows.HANDLE_TABLE_MAGIC:
        raise space.error("corrupt handle table at 0x%x" % table_va)
    if header["count"] > MAX_HANDLES:
        raise space.error("implausible handle count %d in table at 0x%x"
                          % (header["count"], table_va))
    slots = table_va + windows.HANDLE_TABLE.size
    for index in range(header["count"]):
        file_va = _u64(space, slots + index * 8)
        record = windows.FILE_OBJECT.decode(
            space.read_va(file_va, windows.FILE_OBJECT.size))
        if record["pool_tag"] != windows.POOL_TAG_FILE:
            raise space.error("handle %d of table 0x%x is not a File object"
                              % (index, table_va))
        yield file_va, record


def pool_sweep(space, tag, layout):
    """Every ``tag``-tagged, pool-aligned ``layout`` record in the space's
    pool regions (the guest's kernel pool live, the whole image in a
    dump)."""
    for start, region in space.pool_regions():
        offset = region.find(tag)
        while offset != -1:
            if (start + offset) % POOL_ALIGN == 0 \
                    and offset + layout.size <= len(region):
                yield KERNEL_BASE + start + offset, layout.decode(region,
                                                                  offset)
            offset = region.find(tag, offset + 1)
