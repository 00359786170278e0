"""Windows forensics plugins (the §5.6 malware case-study battery)."""

from repro.errors import ForensicsError
from repro.forensics.plugins import require_os, socket_row
from repro.forensics.volatility import plugin
from repro.guest.layout import cstring
from repro.guest.windows import (
    EPROCESS,
    FILE_OBJECT,
    POOL_TAG_FILE,
    POOL_TAG_PROCESS,
    POOL_TAG_REGISTRY,
    POOL_TAG_TCP,
    REGISTRY_KEY,
    TCP_ENDPOINT,
)
from repro.vmi import walk


def _eprocess_row(eprocess_va, record):
    return {
        "pid": record["pid"],
        "ppid": record["ppid"],
        "name": cstring(record["image_name"]),
        "create_time": record["create_time"],
        "exit_time": record["exit_time"],
        "eprocess_va": eprocess_va,
        "handle_table": record["handle_table"],
    }


@plugin("pslist")
def pslist(dump):
    """Walk PsActiveProcessHead — the canonical (linkable) process view."""
    require_os(dump, "windows")
    return [_eprocess_row(va, record)
            for va, record in walk.eprocess_list(dump)]


@plugin("psscan", pool_scan=True)
def psscan(dump):
    """Pool-scan for 'Proc' tags — finds unlinked and exited processes."""
    require_os(dump, "windows")
    return [_eprocess_row(va, record)
            for va, record in walk.pool_sweep(dump, POOL_TAG_PROCESS, EPROCESS)
            if record["pid"] < walk.MAX_PID and record["ppid"] < walk.MAX_PID]


@plugin("psxview", pool_scan=True)
def psxview(dump):
    """Cross-view pslist × psscan; rows missing from pslist are suspicious."""
    listed = {row["eprocess_va"]: row for row in pslist(dump)}
    rows = []
    for row in psscan(dump):
        in_pslist = row["eprocess_va"] in listed
        exited = row["exit_time"] != 0
        rows.append(
            {
                **row,
                "in_pslist": in_pslist,
                "in_psscan": True,
                "suspicious": not in_pslist and not exited,
            }
        )
    return rows


@plugin("netscan", pool_scan=True)
def netscan(dump):
    """Pool-scan for TCP endpoints ('TcpE' tags)."""
    require_os(dump, "windows")
    return [socket_row(record, record["owner_pid"])
            for _va, record in walk.pool_sweep(dump, POOL_TAG_TCP,
                                               TCP_ENDPOINT)
            if record["owner_pid"] < walk.MAX_PID]


@plugin("handles")
def handles(dump, pid=None):
    """Open file handles, per process (optionally filtered to one pid)."""
    require_os(dump, "windows")
    rows = []
    for process in pslist(dump):
        if pid is not None and process["pid"] != pid:
            continue
        for index, (_va, record) in enumerate(
                walk.handle_table(dump, process["handle_table"])):
            rows.append(
                {
                    "pid": process["pid"],
                    "process": process["name"],
                    "handle": index,
                    "path": cstring(record["name"]),
                }
            )
    return rows


@plugin("filescan", pool_scan=True)
def filescan(dump):
    """Pool-scan for File objects — finds files whose handles were
    closed or whose owning process was unlinked (complements handles)."""
    require_os(dump, "windows")
    rows = []
    for va, record in walk.pool_sweep(dump, POOL_TAG_FILE, FILE_OBJECT):
        path = cstring(record["name"])
        if record["owner_pid"] < walk.MAX_PID and path:
            rows.append({"owner_pid": record["owner_pid"], "path": path,
                         "file_va": va})
    return rows


@plugin("pstree")
def pstree(dump):
    """Render the process hierarchy from ppid links."""
    rows = pslist(dump)
    children = {}
    for row in rows:
        children.setdefault(row["ppid"], []).append(row)
    by_pid = {row["pid"]: row for row in rows}
    lines = []

    def visit(row, depth):
        lines.append(
            {"pid": row["pid"], "ppid": row["ppid"],
             "name": row["name"], "depth": depth,
             "display": "%s%s" % ("  " * depth, row["name"])}
        )
        for child in children.get(row["pid"], []):
            visit(child, depth + 1)

    for row in rows:
        if row["ppid"] not in by_pid or row["ppid"] == row["pid"]:
            visit(row, 0)
    return lines


@plugin("printkey", pool_scan=True)
def printkey(dump, prefix=None):
    """Enumerate registry keys from hive records in the kernel pool.

    With ``prefix``, only keys under that registry path are returned —
    the §5.6 analyst's view of what the malware could have harvested.
    """
    require_os(dump, "windows")
    rows = []
    for _va, record in walk.pool_sweep(dump, POOL_TAG_REGISTRY,
                                       REGISTRY_KEY):
        key = cstring(record["name"])
        if key and (prefix is None or key.startswith(prefix)):
            rows.append({"key": key, "value": cstring(record["value"])})
    return rows


@plugin("procdump")
def procdump(dump, pid):
    """Extract a process's kernel object (our stand-in for the executable).

    The simulated Windows guest has no user-space text segment, so the
    extracted artifact is the raw EPROCESS record plus its metadata — the
    control-plane equivalent of Volatility pulling the PE image for
    sandboxed analysis.
    """
    for row in psscan(dump):
        if row["pid"] == pid:
            raw = dump.read_va(row["eprocess_va"], EPROCESS.size)
            return [
                {
                    "pid": pid,
                    "name": row["name"],
                    "create_time": row["create_time"],
                    "artifact_bytes": raw,
                    "artifact_size": len(raw),
                }
            ]
    raise ForensicsError("procdump: no process with pid %d in dump" % pid)
