"""Deep scan modules for asynchronous checkpoint scanning (§5.3).

The paper observes that Volatility-class analyses (~500 ms per scan) are
"infeasible for running synchronously at every checkpoint interval, but
... CRIMES's maintenance of a prior checkpoint means that complex
security tools ... could be used asynchronously on the last checkpoint as
the VM continues to run", and leaves that as future work. This module
family implements it.

A :class:`DeepScanModule` operates on a *memory dump* (the committed
backup), not the live VM, and declares its virtual-time cost so the
asynchronous scanner (``repro.core.async_scan``) can model the scan
running concurrently with further epochs. Detection therefore lags the
evidence by (epochs since the snapshot + the scan duration) — the
weakened guarantee the paper trades for keeping the pause small.
"""

import re

from repro.detectors.base import Finding, ScanModule, Severity
from repro.errors import ForensicsError
from repro.forensics.dumps import MemoryDump
from repro.forensics.volatility import VolatilityFramework


class DeepScanModule:
    """Base class for offline (dump-based) scan modules."""

    name = "abstract-deep"

    def cost_ms(self, dump):
        """Virtual time this scan occupies on the scanning core."""
        raise NotImplementedError

    def scan(self, dump):
        """Analyze a memory dump; return a list of Findings."""
        raise NotImplementedError


class SynchronousDeepAdapter(ScanModule):
    """Run a deep module *synchronously* at every audit (the strawman).

    This is what the paper argues against for Volatility-class scans: the
    full scan cost lands inside the VM's pause, every epoch. It exists so
    the ablation benchmark can quantify exactly what asynchronous
    scanning buys.
    """

    guest_aided = False

    def __init__(self, deep_module):
        self.deep_module = deep_module
        self.name = "sync[%s]" % deep_module.name

    def scan(self, context):
        dump = MemoryDump.from_vm(context.vmi.vm, label="sync-deep")
        context.vmi._charge_ms(self.deep_module.cost_ms(dump))
        return self.deep_module.scan(dump)


class HiddenProcessDeepScan(DeepScanModule):
    """Volatility psxview / linux_psxview over the checkpoint dump.

    Catches DKOM-hidden processes without any per-epoch live scanning.
    """

    name = "deep-psxview"

    def __init__(self, volatility=None, seed=0):
        self.volatility = (
            volatility if volatility is not None else VolatilityFramework(seed)
        )
        self.volatility.take_cost_ms()  # init cost handled by the scanner

    @staticmethod
    def _plugin_for(dump):
        return "psxview" if dump.os_name == "windows" else "linux_psxview"

    def cost_ms(self, dump):
        # One pool-scanning plugin run, priced by dump size.
        from repro.forensics import volatility as vol

        return vol.PLUGIN_RUN_MS + vol.POOL_SCAN_PER_MIB_MS * (
            dump.size / float(1 << 20)
        )

    def scan(self, dump):
        try:
            rows = self.volatility.run(self._plugin_for(dump), dump)
        except ForensicsError as err:
            # The process structures are guest memory too: a list or slab
            # the sweep cannot parse is tampering, and must not read as a
            # clean checkpoint.
            return [Finding(
                self.name, "corrupt-process-structures", Severity.CRITICAL,
                "checkpoint scan: process structures unreadable (%s)" % err,
                {"error": str(err)},
            )]
        finally:
            self.volatility.take_cost_ms()  # cost already modeled via cost_ms
        return [
            Finding(self.name, "hidden-process", Severity.CRITICAL,
                    "checkpoint scan: process %r (pid %d) hidden from the "
                    "canonical process list" % (row["name"], row["pid"]),
                    {"pid": row["pid"], "name": row["name"],
                     "start_time": row.get("start_time", 0)})
            for row in rows if row.get("suspicious")
        ]


#: Byte signatures a full-memory sweep looks for (virus-scanner style).
DEFAULT_MEMORY_SIGNATURES = (
    ("eicar", re.compile(
        rb"X5O!P%@AP\[4\\PZX54\(P\^\)7CC\)7\}\$EICAR")),
    ("meterpreter", re.compile(rb"METERPRETER_STAGE2")),
    ("cryptominer", re.compile(rb"stratum\+tcp://")),
)


class SignatureSweepModule(DeepScanModule):
    """Full-RAM signature sweep over the checkpoint dump.

    The classic virus-scanner approach, made safe by running it against
    an immutable checkpoint instead of a moving target.
    """

    name = "deep-signatures"

    #: Virtual milliseconds to sweep one MiB of RAM.
    SWEEP_PER_MIB_MS = 35.0

    def __init__(self, signatures=None):
        self.signatures = tuple(signatures or DEFAULT_MEMORY_SIGNATURES)

    def cost_ms(self, dump):
        return self.SWEEP_PER_MIB_MS * (dump.size / float(1 << 20))

    def scan(self, dump):
        findings = []
        for label, pattern in self.signatures:
            match = pattern.search(dump.image)
            if match:
                findings.append(
                    Finding(
                        self.name,
                        "memory-signature",
                        Severity.CRITICAL,
                        "checkpoint sweep: signature %r found at paddr 0x%x"
                        % (label, match.start()),
                        {"signature": label, "paddr": match.start(),
                         "excerpt": match.group(0)[:32]},
                    )
                )
        return findings
