"""Linux forensics plugins (the §5.5 buffer-overflow case-study battery)."""

from repro.errors import ForensicsError
from repro.forensics.plugins import require_os, socket_row
from repro.forensics.volatility import plugin
from repro.guest.layout import cstring
from repro.guest.linux import FLAG_SLAB_IN_USE, SYSCALL_COUNT
from repro.vmi import walk


def _task_row(task_va, record):
    return {
        "pid": record["pid"],
        "uid": record["uid"],
        "name": cstring(record["comm"]),
        "state": record["state"],
        "start_time": record["start_time"],
        "task_va": task_va,
        "in_use": bool(record["flags"] & FLAG_SLAB_IN_USE),
    }


@plugin("linux_pslist")
def linux_pslist(dump):
    """Walk init_task's circular task list."""
    require_os(dump, "linux")
    return [_task_row(va, record) for va, record in walk.task_list(dump)]


@plugin("linux_psscan", pool_scan=True)
def linux_psscan(dump):
    """Sweep the task_struct slab for TASK magics (finds ghosts)."""
    require_os(dump, "linux")
    return [_task_row(va, record) for va, record in walk.task_slab(dump)]


@plugin("linux_pidhashtable")
def linux_pidhashtable(dump):
    """Walk every pid-hash chain (second live view)."""
    require_os(dump, "linux")
    return [_task_row(va, record) for va, record in walk.pid_hash(dump)]


@plugin("linux_psxview", pool_scan=True)
def linux_psxview(dump):
    """Cross-view: pslist × pid_hash × slab scan.

    A task present in kmem_cache/pid_hash but missing from pslist is the
    classic signature of rootkit process hiding (§4.2 Memory Forensics).
    """
    listed = {row["task_va"] for row in linux_pslist(dump)}
    hashed = {row["task_va"] for row in linux_pidhashtable(dump)}
    rows = []
    for row in linux_psscan(dump):
        task_va = row["task_va"]
        in_pslist = task_va in listed
        in_pid_hash = task_va in hashed
        rows.append(
            {
                **row,
                "in_pslist": in_pslist,
                "in_pid_hash": in_pid_hash,
                "in_kmem_cache": True,
                "suspicious": row["in_use"] and not in_pslist,
            }
        )
    return rows


@plugin("linux_lsmod")
def linux_lsmod(dump):
    """Walk the kernel module list."""
    require_os(dump, "linux")
    return [{"name": cstring(record["name"]), "base": record["base"],
             "size": record["size"]}
            for _va, record in walk.module_list(dump)]


@plugin("linux_check_syscall")
def linux_check_syscall(dump, reference=None):
    """Report syscall-table entries (flagging mismatches vs a reference)."""
    require_os(dump, "linux")
    rows = []
    for index, address in enumerate(
            walk.pointer_table(dump, "sys_call_table", SYSCALL_COUNT)):
        row = {"index": index, "address": address}
        if reference is not None:
            row["hijacked"] = address != reference[index]
        rows.append(row)
    return rows


@plugin("linux_proc_maps")
def linux_proc_maps(dump, pid):
    """List a process's memory regions (VMAs) from its mm_struct."""
    require_os(dump, "linux")
    # The whole list is walked first: a corrupt list fails the plugin
    # even when the pid comes before the corruption.
    for _va, record in list(walk.task_list(dump)):
        if record["pid"] != pid:
            continue
        if record["mm"] == 0:
            return []
        return [{"pid": pid, "start": vma["start"], "end": vma["end"],
                 "flags": vma["flags"], "name": cstring(vma["name"])}
                for _va, vma in walk.vm_areas(dump, record["mm"])]
    raise ForensicsError("linux_proc_maps: no process with pid %d" % pid)


@plugin("linux_lsof")
def linux_lsof(dump, pid=None):
    """Walk the kernel's open-file chain (optionally filtered by pid)."""
    require_os(dump, "linux")
    return [{"pid": record["pid"], "path": cstring(record["path"]),
             "file_va": va}
            for va, record in walk.file_list(dump)
            if pid is None or record["pid"] == pid]


@plugin("linux_netstat")
def linux_netstat(dump):
    """Walk the kernel's TCP socket list."""
    require_os(dump, "linux")
    return [socket_row(record, record["pid"])
            for _va, record in walk.socket_list(dump)]


#: Injected-payload signatures linux_malfind sweeps process memory for.
MALFIND_SIGNATURES = (
    ("meterpreter", b"METERPRETER_STAGE2"),
    ("shellcode-nop-sled", b"\x90" * 32),
    ("eicar", b"X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR"),
)


@plugin("linux_malfind", pool_scan=True)
def linux_malfind(dump, signatures=None):
    """Sweep every process's mapped regions for injected-payload patterns.

    The Volatility plugin of the same name hunts for suspicious
    executable mappings; here the per-region byte sweep plays that role
    over the simulated address spaces.
    """
    require_os(dump, "linux")
    chosen = tuple(signatures or MALFIND_SIGNATURES)
    rows = []
    for row in linux_pslist(dump):
        pid = row["pid"]
        if pid == 0:
            continue
        try:
            regions = linux_proc_maps(dump, pid)
        except ForensicsError:
            continue
        for vma in regions:
            length = vma["end"] - vma["start"]
            data = dump.read_va(vma["start"], length, pid=pid)
            for label, needle in chosen:
                offset = data.find(needle)
                if offset != -1:
                    rows.append(
                        {
                            "pid": pid,
                            "process": row["name"],
                            "region": vma["name"],
                            "vaddr": vma["start"] + offset,
                            "signature": label,
                        }
                    )
    return rows


@plugin("linux_dump_map")
def linux_dump_map(dump, pid, region=None):
    """Extract the bytes of a process's memory regions (§5.5's 5-second
    per-process dump that analysts inspect for the attack's root cause)."""
    require_os(dump, "linux")
    rows = []
    for vma in linux_proc_maps(dump, pid):
        name = vma["name"].strip("[]")
        if region is not None and name != region:
            continue
        length = vma["end"] - vma["start"]
        rows.append({"pid": pid, "region": name, "start": vma["start"],
                     "length": length,
                     "data": dump.read_va(vma["start"], length, pid=pid)})
    if region is not None and not rows:
        raise ForensicsError(
            "linux_dump_map: pid %d has no region %r" % (pid, region)
        )
    return rows
