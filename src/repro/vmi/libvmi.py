"""The VMI instance: LibVMI's API surface over a simulated domain.

An instance binds to one :class:`~repro.hypervisor.xen.Domain`, pays the
one-time initialization + preprocessing costs (Table 3), and then offers
cheap per-scan operations. All reads parse raw guest bytes through the
guest's own struct layouts; the only shortcut relative to real LibVMI is
that user-space translation consults the guest's page-table object
directly instead of walking CR3 — the mapping consulted is identical.

Every list, table, slab and pool walk is a generator in
:mod:`repro.vmi.walk`, shared with the offline forensics plugins; this
instance is the live address space those generators read through, the
one of :mod:`repro.vmi.space` that reads RAM, charges each read and
refuses with :class:`IntrospectionError`. The scan methods here turn
walked nodes into ``*Info`` objects and charge the per-node constants
between nodes.
"""

import struct

import numpy as _np

from repro.errors import IntrospectionError
from repro.faults.planes import FaultPlane
from repro.guest.layout import cstring
from repro.guest.memory import PAGE_SIZE
from repro.guest.linux import FLAG_KERNEL_THREAD, SYSCALL_COUNT
from repro.guest.windows import (
    EPROCESS,
    POOL_TAG_PROCESS,
    POOL_TAG_TCP,
    TCP_ENDPOINT,
    TCP_STATE_NAMES,
    bytes_to_ip,
)
from repro.obs.observer import Observer
from repro.sim.rng import SeededStream
from repro.vmi import walk
from repro.vmi.costmodel import VmiCostModel
from repro.vmi.osprofile import profile_for
from repro.vmi.space import GuestAddressSpace


class ProcessInfo:
    """One process as seen through introspection."""

    __slots__ = ("pid", "ppid", "uid", "name", "state", "start_time",
                 "exit_time", "object_va", "kernel_thread")

    def __init__(self, pid, name, object_va, ppid=0, uid=0, state=0,
                 start_time=0, exit_time=0, kernel_thread=False):
        self.pid = pid
        self.name = name
        self.object_va = object_va
        self.ppid = ppid
        self.uid = uid
        self.state = state
        self.start_time = start_time
        self.exit_time = exit_time
        self.kernel_thread = kernel_thread

    @classmethod
    def from_task(cls, va, record):
        """From a decoded Linux task_struct."""
        return cls(record["pid"], cstring(record["comm"]), va,
                   uid=record["uid"], state=record["state"],
                   start_time=record["start_time"],
                   kernel_thread=bool(record["flags"] & FLAG_KERNEL_THREAD))

    @classmethod
    def from_eprocess(cls, va, record):
        """From a decoded Windows EPROCESS."""
        return cls(record["pid"], cstring(record["image_name"]), va,
                   ppid=record["ppid"], start_time=record["create_time"],
                   exit_time=record["exit_time"])

    def __repr__(self):
        return "ProcessInfo(pid=%d, name=%r)" % (self.pid, self.name)


class ModuleInfo:
    """One kernel module as seen through introspection."""

    __slots__ = ("name", "base", "size", "object_va")

    def __init__(self, name, base, size, object_va):
        self.name = name
        self.base = base
        self.size = size
        self.object_va = object_va

    def __repr__(self):
        return "ModuleInfo(name=%r, base=0x%x)" % (self.name, self.base)


class SocketInfo:
    """One TCP endpoint as seen through introspection."""

    __slots__ = ("owner_pid", "local", "remote", "state", "object_va")

    def __init__(self, owner_pid, local, remote, state, object_va):
        self.owner_pid = owner_pid
        self.local = local
        self.remote = remote
        self.state = state
        self.object_va = object_va

    @classmethod
    def of(cls, va, record, owner_pid):
        """From a decoded Linux socket or Windows TCP endpoint."""
        return cls(owner_pid,
                   (bytes_to_ip(record["local_ip"]), record["local_port"]),
                   (bytes_to_ip(record["remote_ip"]), record["remote_port"]),
                   record["state"], va)

    @property
    def state_name(self):
        return TCP_STATE_NAMES.get(self.state, "UNKNOWN(%d)" % self.state)

    def __repr__(self):
        return "SocketInfo(pid=%d, %s:%d -> %s:%d, %s)" % (
            self.owner_pid, self.local[0], self.local[1],
            self.remote[0], self.remote[1], self.state_name,
        )


class FileInfo:
    """One open file on the Linux kernel's file chain."""

    __slots__ = ("owner_pid", "path", "object_va")

    def __init__(self, owner_pid, path, object_va):
        self.owner_pid = owner_pid
        self.path = path
        self.object_va = object_va

    def __repr__(self):
        return "FileInfo(pid=%d, path=%r)" % (self.owner_pid, self.path)


class VMIInstance(GuestAddressSpace):
    """LibVMI-style handle onto one domain: the live guest address space."""

    def __init__(self, domain, cost_model=None, seed=0, observer=None):
        self.domain = domain
        self.vm = domain.vm
        self.costs = cost_model if cost_model is not None else VmiCostModel()
        self._jitter_rng = SeededStream(seed, "vmi/%s" % self.vm.name)
        self._cost_ms = 0.0
        self._injector = None
        if observer is None:
            observer = Observer(self.vm.clock)
        #: Introspection anomalies (truncated walks) are journaled here.
        self._flight = observer.flight
        self.init_cost_ms = 0.0
        self.preprocess_cost_ms = 0.0
        #: Frames of guest-physical memory.
        self.frame_count = self.vm.memory.frame_count
        self._initialize()

    def attach_injector(self, injector):
        """Route reads through the VMI_READ fault plane."""
        self._injector = injector

    # -- cost accounting ---------------------------------------------------

    def _charge_ms(self, ms):
        charged = self._jitter_rng.jitter(ms, self.costs.JITTER)
        self._cost_ms += charged
        return charged

    def _probe_read_fault(self):
        """Probe the VMI_READ plane for one *logical* read.

        The charging unit is the foreign-mapping operation (one
        :meth:`read_pa` call), not the accounting charge: a batched slab
        read that parses hundreds of structs from one mapping is still
        one mapping, so a latency fault adds ``magnitude_ms`` once per
        mapping — it must not scale with how finely the accounting layer
        itemises the bytes it moved.
        """
        fault = self._armed_read_fault()
        if fault is not None:
            self._cost_ms += self._read_fault_ms(fault)

    def _armed_read_fault(self):
        """The VMI_READ plane's active fault this epoch, or None."""
        injector = self._injector
        if injector is None:
            return None
        return injector.check(FaultPlane.VMI_READ)

    @staticmethod
    def _read_fault_ms(fault):
        """Probe ``fault`` for one logical read; the latency it adds."""
        if fault.mode == "latency":
            # A slow mapping path: the read pays the fault's magnitude
            # on top of its modeled cost.
            return fault.magnitude_ms
        if fault.fires():
            # "fail"/"corrupt": the foreign mapping tears or the bytes
            # are garbage — surfaces as the same error a real LibVMI
            # read failure produces, and the audit loop's escalation
            # path owns the response.
            raise IntrospectionError(
                "VMI read fault injected (epoch %d, %s)"
                % (fault.epoch, fault.mode)
            )
        return 0.0

    def _charge_us(self, us):
        return self._charge_ms(us / 1000.0)

    def take_cost_ms(self):
        """Drain accumulated virtual time since the last call."""
        cost, self._cost_ms = self._cost_ms, 0.0
        return cost

    # -- init ---------------------------------------------------------------

    def _initialize(self):
        # OS + kernel-version detection, System.map load.
        self.profile = profile_for(self.vm.os_name)
        self.init_cost_ms = self._charge_ms(self.costs.INIT_MS)
        # Address-translation setup and struct-offset mapping.
        self._symbols = self.vm.symbols
        self.preprocess_cost_ms = self._charge_ms(self.costs.PREPROCESS_MS)

    # -- the live address space (repro.vmi.space) ------------------------------

    #: The error a refusal, or a walker's check, raises.
    error = IntrospectionError

    def lookup_symbol(self, name):
        return self._symbols.lookup(name)

    def mapping_token(self, pid):
        """An opaque token for how ``pid``'s user pages map now.

        Equal tokens mean the same page table at the same generation, so
        every user translation of ``pid`` is unchanged between them: a
        caller that keeps what it derived from :meth:`translate_ranges`
        compares tokens to know it is still current. A respawned
        process, or one a restore resurrects, has a new page table and
        so a new token. None for the kernel address space and for an
        unknown pid.
        """
        page_table = None if pid == 0 else self._page_table_of(pid)
        return None if page_table is None \
            else (page_table, page_table.generation)

    def _page_table_of(self, pid):
        """The page table of live process ``pid``, or None."""
        processes = getattr(self.vm, "processes", None)
        process = processes.get(pid) if processes is not None else None
        return None if process is None else process.page_table

    def _charge_read(self, length):
        """Charge one logical read of ``length`` bytes, then probe it."""
        # Charge proportionally to the bytes moved (min one cache line):
        # tiny typed reads (a canary, a pointer) must not be priced like
        # whole-page copies, or the 90k-canaries/ms scan rate of §5.5
        # would be unreachable.
        self._charge_us(
            self.costs.PER_PAGE_READ_US * max(length, 64) / float(PAGE_SIZE)
        )
        self._probe_read_fault()

    def read_pa(self, paddr, length):
        self._charge_read(length)
        return self.vm.memory.read(paddr, length)

    def _read_frames(self, frames, offset, length):
        return self.vm.memory.read_frames(frames, offset, length)

    # The read rule, bound here too: a ``read_*`` of this class is a
    # live read (``benchmarks/crimes_bench/layers.py`` times each one).
    read_va = GuestAddressSpace.read_va

    def read_struct(self, struct_name, vaddr, pid=0):
        layout = self.profile.struct(struct_name)
        return layout.decode(self.read_va(vaddr, layout.size, pid))

    def read_u64_va(self, vaddr, pid=0):
        return struct.unpack("<Q", self.read_va(vaddr, 8, pid))[0]

    # -- walks (repro.vmi.walk over this instance) ----------------------------

    @property
    def size(self):
        """Bytes of guest-physical memory."""
        return self.vm.memory.size

    def pool_regions(self):
        """``(start, bytes)`` per kernel pool range, one read each."""
        for start, end in self.vm.pool_ranges():
            yield start, self.read_pa(start, end - start)

    def abort_walk(self, what, node_va, nodes, reason):
        """A walk over untrusted guest memory did not terminate cleanly.

        A corrupted next pointer must never read as a *shorter clean
        list* — journal the anomaly so the evidence trail names the walk
        and the node, then raise so the audit loop escalates (the same
        path a torn foreign mapping takes).
        """
        self._flight.record(
            "vmi.list_truncated", list=what, node_va=node_va,
            nodes=nodes, reason=reason,
        )
        raise IntrospectionError(
            "%s list does not terminate (%s at 0x%x after %d nodes)"
            % (what, reason, node_va, nodes)
        )

    def _processes(self, nodes, info):
        """``info`` per walked node, charging the per-process constant."""
        processes = []
        for va, record in nodes:
            self._charge_us(self.costs.PER_PROCESS_US)
            processes.append(info(va, record))
        return processes

    # -- scans: processes ------------------------------------------------------------

    def list_processes(self):
        """Walk the OS's canonical process list (LibVMI process-list)."""
        self._charge_ms(self.costs.SCAN_BASE_MS)
        if self.profile.os_name == "linux":
            return self._processes(walk.task_list(self),
                                   ProcessInfo.from_task)
        return self._processes(walk.eprocess_list(self),
                               ProcessInfo.from_eprocess)

    def list_processes_pid_hash(self):
        """Second Linux process view: walk every pid-hash chain."""
        self._require_linux("pid hash")
        self._charge_ms(self.costs.SCAN_BASE_MS)
        return self._processes(walk.pid_hash(self), ProcessInfo.from_task)

    def pool_scan_processes(self):
        """psscan-style sweep of the Windows kernel pool for EPROCESS tags.

        Considerably more expensive than walking the active list (it reads
        the whole kernel region), but finds unlinked processes a rootkit
        hid via DKOM.
        """
        if self.profile.os_name != "windows":
            raise IntrospectionError("pool scan implemented for Windows guests")
        return [ProcessInfo.from_eprocess(va, record)
                for va, record in walk.pool_sweep(self, POOL_TAG_PROCESS,
                                                  EPROCESS)
                if record["pid"] < walk.MAX_PID]

    def slab_scan_processes(self):
        """The Linux analogue of :meth:`pool_scan_processes`: every
        task_struct in the task slab, linked or not."""
        self._require_linux("task slab")
        return [ProcessInfo.from_task(va, record)
                for va, record in walk.task_slab(self)]

    def _require_linux(self, what):
        if self.profile.os_name != "linux":
            raise IntrospectionError("%s only exists on Linux guests" % what)

    # -- scans: modules, files and kernel tables ------------------------------

    def list_modules(self):
        """Walk the loaded-module list (LibVMI module-list)."""
        self._require_linux("module list")
        self._charge_ms(self.costs.SCAN_BASE_MS)
        modules = []
        for va, record in walk.module_list(self):
            self._charge_us(self.costs.PER_MODULE_US)
            modules.append(ModuleInfo(cstring(record["name"]), record["base"],
                                      record["size"], va))
        return modules

    def list_files(self):
        """Walk the kernel's open-file chain (Linux)."""
        self._require_linux("file table")
        self._charge_ms(self.costs.SCAN_BASE_MS)
        return [FileInfo(record["pid"], cstring(record["path"]), va)
                for va, record in walk.file_list(self)]

    def read_pointer_table(self, symbol, count):
        """Read ``count`` u64 slots of the kernel table at ``symbol``."""
        entries = walk.pointer_table(self, symbol, count)
        self._charge_us(self.costs.PER_SYSCALL_US * count)
        return entries

    def read_syscall_table(self):
        """Read all syscall-table entries (integrity-scan input)."""
        return self.read_pointer_table(
            self.profile.root_symbol("syscall_table"), SYSCALL_COUNT)

    # -- scans: canaries (guest-aided module's data source) ---------------------------------

    def canary_directory(self):
        """Read the guest's (pid, canary-table VA) directory."""
        return list(walk.canary_directory(self))

    def read_canary_table_slab(self, pid, table_va):
        """Read one process's tripwire table.

        Returns ``(canary, addrs, sizes, kinds)``: the table's canary
        value and three numpy arrays viewing the entry slab directly (no
        per-entry tuples). A kind is ``KIND_CANARY`` (live object, canary
        bytes follow) or ``KIND_FREED`` (poison-filled freed region).
        Two logical reads — the header, then the whole entry slab.
        """
        from repro.guest.heap import CANARY_ENTRY, CANARY_TABLE_HEADER, \
            CANARY_TABLE_MAGIC

        header = CANARY_TABLE_HEADER.decode(
            self.read_va(table_va, CANARY_TABLE_HEADER.size, pid=pid)
        )
        if header["magic"] != CANARY_TABLE_MAGIC:
            raise IntrospectionError(
                "bad canary-table magic for pid %d: 0x%x" % (pid, header["magic"])
            )
        count = header["count"]
        cursor = table_va + CANARY_TABLE_HEADER.size
        raw = self.read_va(cursor, count * CANARY_ENTRY.size, pid=pid)
        records = _np.frombuffer(raw, dtype=CANARY_ENTRY.numpy_dtype(),
                                 count=count)
        return (header["canary"], records["addr"], records["size"],
                records["kind"])

    def read_freed_region(self, pid, addr, size):
        """Read a poisoned freed region's bytes (use-after-free check)."""
        raw = self.read_va(addr, size, pid=pid)
        self._charge_us(self.costs.PER_CANARY_US * max(size // 8, 1))
        return raw

    def read_canary_value(self, pid, object_addr, object_size):
        """Read the 8 canary bytes that should follow one heap object."""
        raw = self.read_va(object_addr + object_size, 8, pid=pid)
        self._charge_us(self.costs.PER_CANARY_US)
        return struct.unpack("<Q", raw)[0]

    def charge_canary_reads(self, sizes, freed):
        """Charge one tripwire validation per entry without moving bytes.

        Entry i is draw-for-draw the virtual time of
        :meth:`read_canary_value` or, where ``freed[i]``, of
        :meth:`read_freed_region` over ``sizes[i]`` bytes: the read
        charge with its cache-line minimum, the per-mapping fault probe,
        then the per-canary charge (once for a canary, once per 8 bytes
        and at least once for a freed region), added to the accumulator
        in that order. The canary scan pairs this with its own reads of
        the bytes, so a dirty epoch's thousands of validations stop
        paying the per-call read plumbing.

        The charge is computed in bulk. The 2n jitter draws come from one
        :meth:`SeededStream.randoms` call, each term is ``jitter``'s own
        product, and ``np.cumsum`` folds the interleaved terms onto the
        accumulator strictly left to right, so the float is the one n
        scalar charges would leave. When the VMI_READ plane is armed
        this epoch, a latency fault adds its magnitude as a third term
        per read. A fail or corrupt fault is probed per read first (its
        ``fires()`` draws from the fault's own stream), up to its first
        shot at read k; then exactly 2k + 1 jitter draws are charged —
        every read before k and read k's read charge — and the error
        raises with ``reads_done`` = k.
        """
        read_bytes = _np.where(freed, sizes, 8)
        units = _np.where(freed, _np.maximum(sizes // 8, 1), 1)
        read_ms = (self.costs.PER_PAGE_READ_US * _np.maximum(read_bytes, 64)
                   / float(PAGE_SIZE) / 1000.0)
        check_ms = self.costs.PER_CANARY_US * units / 1000.0
        count = len(read_ms)
        fault = self._armed_read_fault()
        reads, error = count, None
        if fault is not None and fault.mode != "latency":
            for k in range(count):
                try:
                    self._read_fault_ms(fault)
                except IntrospectionError as err:
                    reads, error = k, err
                    break
        # The accumulator, then each read's read and check terms; a raise
        # at read k charges read k's read term too.
        charged = reads + (error is not None)
        terms = _np.empty(1 + charged + reads)
        terms[0] = self._cost_ms
        terms[1::2] = read_ms[:charged]
        terms[2::2] = check_ms[:reads]
        fraction = self.costs.JITTER
        if fraction > 0:
            lo, hi = 1.0 - fraction, 1.0 + fraction
            terms[1:] *= lo + (hi - lo) * self._jitter_rng.randoms(
                len(terms) - 1)
        if fault is not None and fault.mode == "latency":
            terms = _np.insert(terms, _np.arange(2, len(terms), 2),
                               fault.magnitude_ms)
        self._cost_ms = float(_np.cumsum(terms)[-1])
        if error is not None:
            error.reads_done = reads
            raise error

    def list_sockets(self):
        """Open TCP endpoints, live (Linux socket list / Windows pool)."""
        self._charge_ms(self.costs.SCAN_BASE_MS)
        if self.profile.os_name == "linux":
            nodes, owner = walk.socket_list(self), "pid"
        else:
            nodes = walk.pool_sweep(self, POOL_TAG_TCP, TCP_ENDPOINT)
            owner = "owner_pid"
        return [SocketInfo.of(va, record, record[owner])
                for va, record in nodes]

    # -- events (replay-time write trapping) ------------------------------------------------

    def watch_write_pa(self, paddr):
        """Register a ``VMI_EVENT_MEMORY`` write trap on a physical address."""
        self.domain.event_monitor.watch_paddr(paddr)

    def events_begin(self):
        if not self.domain.event_monitor.attached:
            self.domain.event_monitor.attach()

    def events_end(self):
        self.domain.event_monitor.detach()

    def events_listen(self):
        """Drain pending memory events."""
        return self.domain.event_monitor.poll()

    # -- windows helpers used by forensics ------------------------------------------------------

    def read_handle_table(self, handle_table_va):
        """File paths referenced by a Windows process's handle table."""
        return [cstring(record["name"])
                for _va, record in walk.handle_table(self, handle_table_va)]
