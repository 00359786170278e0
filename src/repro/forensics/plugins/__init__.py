"""Volatility-style plugins.

Windows: ``pslist``, ``psscan``, ``psxview``, ``netscan``, ``handles``,
``filescan``, ``pstree``, ``printkey``, ``procdump``.

Linux: ``linux_pslist``, ``linux_psscan``, ``linux_pidhashtable``,
``linux_psxview``, ``linux_lsmod``, ``linux_check_syscall``,
``linux_proc_maps``, ``linux_lsof``, ``linux_netstat``,
``linux_malfind``, ``linux_dump_map``.

Either OS: ``yarascan``, ``memdiff``.

Every walk over kernel memory is a generator of :mod:`repro.vmi.walk`;
the plugins turn walked records into rows.
"""

from repro.errors import ForensicsError
from repro.guest.net import TCP_STATE_NAMES, bytes_to_ip


def require_os(dump, os_name):
    """Refuse a dump of another OS than the plugin reads."""
    if dump.os_name != os_name:
        raise ForensicsError("plugin requires a %s memory dump"
                             % os_name.title())


def socket_row(record, owner_pid):
    """The netstat/netscan row of a Linux socket or Windows TCP endpoint."""
    return {
        "protocol": "TCPv4",
        "owner_pid": owner_pid,
        "local": "%s:%d" % (bytes_to_ip(record["local_ip"]),
                            record["local_port"]),
        "remote": "%s:%d" % (bytes_to_ip(record["remote_ip"]),
                             record["remote_port"]),
        "state": TCP_STATE_NAMES.get(record["state"],
                                     "UNKNOWN(%d)" % record["state"]),
    }
