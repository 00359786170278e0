"""Simulated Windows guest (the §5.6 malware case-study target).

Kernel objects carry 4-byte *pool tags* at the start of each record, which
is what Volatility's pool-scanning plugins (``psscan``, ``netscan``,
``filescan``) key on in a real Windows memory image:

* ``Proc`` — EPROCESS records, doubly linked off ``PsActiveProcessHead``,
* ``TcpE`` — TCP endpoints (sockets),
* ``File`` — file objects, referenced from per-process handle tables,
* ``RKEY`` — registry hive records (so malware "reading the registry"
  actually reads guest memory).

Hiding a process unlinks it from the active list but leaves the pool
record, reproducing the pslist/psscan discrepancy ``psxview`` reports.
"""

import struct

from repro.errors import GuestFault
from repro.guest.layout import StructDef
from repro.guest.memory import PAGE_SIZE
from repro.guest.pagetable import kernel_pa, kernel_va
from repro.guest.vm import GuestVM

from repro.guest.net import (  # noqa: F401  (re-exported vocabulary)
    TCP_CLOSE_WAIT,
    TCP_CLOSED,
    TCP_ESTABLISHED,
    TCP_LISTENING,
    TCP_STATE_NAMES,
    bytes_to_ip,
    ip_to_bytes,
)

POOL_TAG_PROCESS = b"Proc"
POOL_TAG_TCP = b"TcpE"
POOL_TAG_FILE = b"File"
POOL_TAG_REGISTRY = b"RKEY"

EPROCESS = StructDef(
    "eprocess",
    [
        ("pool_tag", ("bytes", 4)),
        ("pid", "u32"),
        ("ppid", "u32"),
        ("pad", "u32"),
        ("create_time", "u64"),
        ("exit_time", "u64"),
        ("links_next", "u64"),
        ("links_prev", "u64"),
        ("handle_table", "u64"),
        ("image_name", ("bytes", 16)),
    ],
)

LIST_HEAD = StructDef(
    "list_head",
    [
        ("next", "u64"),
        ("prev", "u64"),
    ],
)

TCP_ENDPOINT = StructDef(
    "tcp_endpoint",
    [
        ("pool_tag", ("bytes", 4)),
        ("owner_pid", "u32"),
        ("local_ip", ("bytes", 4)),
        ("remote_ip", ("bytes", 4)),
        ("local_port", "u16"),
        ("remote_port", "u16"),
        ("state", "u32"),
    ],
)

FILE_OBJECT = StructDef(
    "file_object",
    [
        ("pool_tag", ("bytes", 4)),
        ("owner_pid", "u32"),
        ("name", ("bytes", 120)),
    ],
)

HANDLE_TABLE = StructDef(
    "handle_table",
    [
        ("magic", "u32"),
        ("count", "u32"),
    ],
)

REGISTRY_KEY = StructDef(
    "registry_key",
    [
        ("pool_tag", ("bytes", 4)),
        ("pad", "u32"),
        ("name", ("bytes", 60)),
        ("value", ("bytes", 60)),
    ],
)

HANDLE_TABLE_MAGIC = 0x42415448  # 'HTAB'
_HANDLE_CAPACITY = 64


class WindowsGuest(GuestVM):
    """A bootable simulated Windows VM (unaided scanning target)."""

    os_name = "windows"
    kernel_version = "10.0.14393-crimes"

    def __init__(self, name="windows-vm", memory_bytes=32 * 1024 * 1024,
                 clock=None, seed=0, **kwargs):
        super().__init__(name, memory_bytes, clock=clock, seed=seed, **kwargs)
        self._eprocess_pa = {}    # pid -> paddr
        self._sockets = []        # paddrs of TcpE records
        self._registry_keys = []  # paddrs of RKEY records
        self._pool_ranges = []    # (start, end) paddr ranges to pool-scan
        self._boot()

    # -- boot ------------------------------------------------------------

    def _boot(self):
        head_pa = self.kalloc.allocate(LIST_HEAD.size, align=64)
        head_va = kernel_va(head_pa)
        LIST_HEAD.write(self.memory, head_pa, {"next": head_va, "prev": head_va})
        self._head_pa = head_pa
        self._head_va = head_va
        self.symbols.define("PsActiveProcessHead", head_va)

        # Pool region: all kernel objects below live inside the kernel
        # bump region; scanners sweep the whole kernel region.
        self._pool_ranges.append((PAGE_SIZE, self.kernel_frames * PAGE_SIZE))

        system = self.create_process("System", ppid=0)
        self.create_process("smss.exe", ppid=system)
        self.create_process("csrss.exe", ppid=system)
        self.create_process("explorer.exe", ppid=system)

        for key, value in (
            ("HKLM\\SOFTWARE\\Vendor\\License", "A1B2-C3D4-E5F6"),
            ("HKCU\\Software\\Mail\\Account", "root@victim.example"),
            ("HKLM\\SYSTEM\\Setup\\OwnerName", "J. Victim"),
            ("HKCU\\Software\\Bank\\LastLogin", "2018-05-02T22:40:11"),
        ):
            self.set_registry_key(key, value)

    # -- process management ------------------------------------------------

    def create_process(self, image_name, ppid=4, handle_capacity=_HANDLE_CAPACITY):
        """Create an EPROCESS + empty handle table; returns the pid."""
        pid = self.allocate_pid() * 4  # Windows pids are multiples of 4
        handle_pa = self.kalloc.allocate(
            HANDLE_TABLE.size + handle_capacity * 8, align=64
        )
        HANDLE_TABLE.write(
            self.memory, handle_pa, {"magic": HANDLE_TABLE_MAGIC, "count": 0}
        )
        eprocess_pa = self.kalloc.allocate(EPROCESS.size, align=64)
        EPROCESS.write(
            self.memory,
            eprocess_pa,
            {
                "pool_tag": POOL_TAG_PROCESS,
                "pid": pid,
                "ppid": ppid,
                "pad": 0,
                "create_time": self.now_us(),
                "exit_time": 0,
                "links_next": 0,
                "links_prev": 0,
                "handle_table": kernel_va(handle_pa),
                "image_name": image_name.encode("utf-8"),
            },
        )
        self._eprocess_pa[pid] = eprocess_pa
        self._link_process(eprocess_pa)
        return pid

    def _link_process(self, eprocess_pa):
        memory = self.memory
        eprocess_va = kernel_va(eprocess_pa)
        tail_va = LIST_HEAD.read_field(memory, self._head_pa, "prev")
        if tail_va == self._head_va:
            LIST_HEAD.write_field(memory, self._head_pa, "next", eprocess_va)
        else:
            EPROCESS.write_field(memory, kernel_pa(tail_va), "links_next", eprocess_va)
        EPROCESS.write_field(memory, eprocess_pa, "links_prev", tail_va)
        EPROCESS.write_field(memory, eprocess_pa, "links_next", self._head_va)
        LIST_HEAD.write_field(memory, self._head_pa, "prev", eprocess_va)

    def _unlink_process(self, eprocess_pa):
        memory = self.memory
        next_va = EPROCESS.read_field(memory, eprocess_pa, "links_next")
        prev_va = EPROCESS.read_field(memory, eprocess_pa, "links_prev")
        if next_va == 0 and prev_va == 0:
            return
        if prev_va == self._head_va:
            LIST_HEAD.write_field(memory, self._head_pa, "next", next_va)
        else:
            EPROCESS.write_field(memory, kernel_pa(prev_va), "links_next", next_va)
        if next_va == self._head_va:
            LIST_HEAD.write_field(memory, self._head_pa, "prev", prev_va)
        else:
            EPROCESS.write_field(memory, kernel_pa(next_va), "links_prev", prev_va)
        EPROCESS.write_field(memory, eprocess_pa, "links_next", 0)
        EPROCESS.write_field(memory, eprocess_pa, "links_prev", 0)

    def _eprocess(self, pid):
        pa = self._eprocess_pa.get(pid)
        if pa is None:
            raise GuestFault("no Windows process with pid %d" % pid)
        return pa

    def terminate_process(self, pid):
        """Exit: unlink from the active list, stamp exit_time, keep the pool record."""
        eprocess_pa = self._eprocess(pid)
        # Clamp to >=1: exit_time 0 means "still running" to the scanners.
        EPROCESS.write_field(
            self.memory, eprocess_pa, "exit_time", max(self.now_us(), 1)
        )
        self._unlink_process(eprocess_pa)

    def hide_process(self, pid):
        """DKOM-style hiding: unlink but leave exit_time zero (still running)."""
        self._unlink_process(self._eprocess(pid))

    # -- handles, sockets, registry ------------------------------------------

    def open_file(self, pid, path):
        """Create a File object and install it in the process's handle table."""
        eprocess_pa = self._eprocess(pid)
        file_pa = self.kalloc.allocate(FILE_OBJECT.size, align=64)
        FILE_OBJECT.write(
            self.memory,
            file_pa,
            {"pool_tag": POOL_TAG_FILE, "owner_pid": pid,
             "name": path.encode("utf-8")},
        )
        table_pa = kernel_pa(
            EPROCESS.read_field(self.memory, eprocess_pa, "handle_table")
        )
        count = HANDLE_TABLE.read_field(self.memory, table_pa, "count")
        if count >= _HANDLE_CAPACITY:
            raise GuestFault("handle table full for pid %d" % pid)
        self.memory.write(
            table_pa + HANDLE_TABLE.size + count * 8,
            struct.pack("<Q", kernel_va(file_pa)),
        )
        HANDLE_TABLE.write_field(self.memory, table_pa, "count", count + 1)
        return kernel_va(file_pa)

    def open_socket(self, pid, local, remote, state=TCP_ESTABLISHED):
        """Create a TcpE record; ``local``/``remote`` are ``(ip, port)``."""
        socket_pa = self.kalloc.allocate(TCP_ENDPOINT.size, align=64)
        TCP_ENDPOINT.write(
            self.memory,
            socket_pa,
            {
                "pool_tag": POOL_TAG_TCP,
                "owner_pid": pid,
                "local_ip": ip_to_bytes(local[0]),
                "remote_ip": ip_to_bytes(remote[0]),
                "local_port": local[1],
                "remote_port": remote[1],
                "state": state,
            },
        )
        self._sockets.append(socket_pa)
        return kernel_va(socket_pa)

    def set_socket_state(self, socket_va, state):
        TCP_ENDPOINT.write_field(self.memory, kernel_pa(socket_va), "state", state)

    def set_registry_key(self, name, value):
        key_pa = self.kalloc.allocate(REGISTRY_KEY.size, align=64)
        REGISTRY_KEY.write(
            self.memory,
            key_pa,
            {
                "pool_tag": POOL_TAG_REGISTRY,
                "pad": 0,
                "name": name.encode("utf-8"),
                "value": value.encode("utf-8"),
            },
        )
        self._registry_keys.append(key_pa)

    def read_registry(self):
        """Guest-side registry enumeration (what the malware program calls)."""
        keys = []
        for key_pa in self._registry_keys:
            record = REGISTRY_KEY.read(self.memory, key_pa)
            keys.append(
                (
                    record["name"].split(b"\x00", 1)[0].decode(),
                    record["value"].split(b"\x00", 1)[0].decode(),
                )
            )
        return keys

    def pool_ranges(self):
        """Physical ranges Volatility-style pool scanners should sweep."""
        return list(self._pool_ranges)

    # -- snapshot -----------------------------------------------------------------

    def state_dict(self):
        state = super().state_dict()
        state["windows"] = {
            "eprocess_pa": self._eprocess_pa.copy(),
            "sockets": list(self._sockets),
            "registry_keys": list(self._registry_keys),
        }
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        windows = state["windows"]
        self._eprocess_pa = windows["eprocess_pa"].copy()
        self._sockets = list(windows["sockets"])
        self._registry_keys = list(windows["registry_keys"])
