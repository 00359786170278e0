"""OS profiles: the struct layouts and walking rules VMI needs per guest OS.

A real LibVMI reads these from a profile/Rekall JSON generated from kernel
debug symbols. Here the profile carries the same :class:`StructDef` objects
the guest serialized with, by name, for :meth:`VMIInstance.read_struct`;
the walkers of :mod:`repro.vmi.walk` use those objects directly.
"""

from repro.errors import IntrospectionError
from repro.guest import linux as linux_abi
from repro.guest import windows as windows_abi


class OSProfile:
    """Layouts + root-symbol names for one guest OS family."""

    def __init__(self, os_name, structs, roots):
        self.os_name = os_name
        self.structs = dict(structs)
        self.roots = dict(roots)

    def struct(self, name):
        try:
            return self.structs[name]
        except KeyError:
            raise IntrospectionError(
                "profile %s has no struct %r" % (self.os_name, name)
            ) from None

    def root_symbol(self, role):
        try:
            return self.roots[role]
        except KeyError:
            raise IntrospectionError(
                "profile %s has no root symbol for %r" % (self.os_name, role)
            ) from None


LINUX_PROFILE = OSProfile(
    "linux",
    structs={
        "task_struct": linux_abi.TASK_STRUCT,
        "mm_struct": linux_abi.MM_STRUCT,
        "vm_area": linux_abi.VM_AREA,
        "module": linux_abi.MODULE,
        "kmem_cache": linux_abi.KMEM_CACHE,
        "canary_directory_header": linux_abi.DIRECTORY_HEADER,
        "canary_directory_entry": linux_abi.DIRECTORY_ENTRY,
    },
    roots={
        "process_list": "init_task",
        "module_list": "modules",
        "syscall_table": "sys_call_table",
        "pid_hash": "pid_hash",
        "task_slab": "kmem_cache_task",
        "canary_directory": "crimes_canary_directory",
    },
)

WINDOWS_PROFILE = OSProfile(
    "windows",
    structs={
        "eprocess": windows_abi.EPROCESS,
        "list_head": windows_abi.LIST_HEAD,
        "tcp_endpoint": windows_abi.TCP_ENDPOINT,
        "file_object": windows_abi.FILE_OBJECT,
        "handle_table": windows_abi.HANDLE_TABLE,
        "registry_key": windows_abi.REGISTRY_KEY,
    },
    roots={
        "process_list": "PsActiveProcessHead",
    },
)

_PROFILES = {
    "linux": LINUX_PROFILE,
    "windows": WINDOWS_PROFILE,
}


def profile_for(os_name):
    """Select the profile for a guest OS (LibVMI's OS-detection step)."""
    try:
        return _PROFILES[os_name]
    except KeyError:
        raise IntrospectionError("no OS profile for %r" % os_name) from None
