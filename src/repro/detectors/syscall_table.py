"""Kernel-table integrity scans (unaided; §2's "comparing kernel
structures against known-good state").

:class:`TableIntegrityModule` is the generic mechanism: snapshot a named
kernel pointer table at install time, flag any slot that changes.
:class:`SyscallTableModule` (system-call table hijacking) and
:class:`IdtTableModule` (interrupt-descriptor hooks) are its two
instantiations — each a classic rootkit persistence point.
"""

from repro.detectors.base import Finding, ScanModule, Severity


class TableIntegrityModule(ScanModule):
    """Compare a kernel pointer table against its boot-time contents."""

    guest_aided = False
    #: Subclasses set these.
    table_symbol = None
    entry_count = 0
    finding_kind = "table-hijack"

    def __init__(self):
        self._reference = None

    def setup(self, vmi):
        self._reference = vmi.read_pointer_table(self.table_symbol,
                                                 self.entry_count)

    def scan(self, context):
        if self._reference is None:
            self.setup(context.vmi)
            return []
        current = context.vmi.read_pointer_table(self.table_symbol,
                                                 self.entry_count)
        findings = []
        for index, (expected, observed) in enumerate(
            zip(self._reference, current)
        ):
            if expected != observed:
                findings.append(
                    Finding(
                        self.name,
                        self.finding_kind,
                        Severity.CRITICAL,
                        "%s[%d] hijacked: 0x%x -> 0x%x"
                        % (self.table_symbol, index, expected, observed),
                        {
                            "table": self.table_symbol,
                            "index": index,
                            "expected": expected,
                            "observed": observed,
                        },
                    )
                )
        return findings


class SyscallTableModule(TableIntegrityModule):
    """Detect system-call-table hijacking."""

    name = "syscall-table"
    table_symbol = "sys_call_table"
    finding_kind = "syscall-hijack"

    def __init__(self):
        from repro.guest.linux import SYSCALL_COUNT

        super().__init__()
        self.entry_count = SYSCALL_COUNT


class IdtTableModule(TableIntegrityModule):
    """Detect interrupt-descriptor-table hooks."""

    name = "idt-table"
    table_symbol = "idt_table"
    finding_kind = "idt-hook"

    def __init__(self):
        from repro.guest.linux import IDT_VECTORS

        super().__init__()
        self.entry_count = IDT_VECTORS
