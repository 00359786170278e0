#!/usr/bin/env python
"""Kernel-rootkit detection: syscall hijacking, module loading, DKOM.

A rootkit program loads a kernel module, hijacks a syscall-table slot,
and hides a worker process by unlinking it from the task list. Three
unaided scan modules each catch a different piece of the attack. Under
the default configuration the failed audit rolls the VM back and the
Analyzer writes the forensic report: the hijacked slot, the module that
appeared, and the psxview cross-view (pslist vs pid_hash vs slab scan)
that exposes the hidden worker — the evidence-based approach of §2
applied to the OS layer.

Run:  python examples/rootkit_forensics.py
"""

from repro import Crimes, CrimesConfig, LinuxGuest
from repro.detectors import (
    KernelModuleModule,
    MalwareScanModule,
    SyscallTableModule,
)
from repro.forensics.volatility import VolatilityFramework
from repro.workloads import RootkitProgram


def main():
    vm = LinuxGuest(name="server-vm", memory_bytes=16 * 1024 * 1024,
                    seed=13)
    # Pre-existing benign daemons.
    vm.create_process("sshd")
    vm.create_process("postgres")

    crimes = Crimes(
        vm,
        CrimesConfig(epoch_interval_ms=50.0, seed=13, history_capacity=6),
    )
    crimes.install_module(SyscallTableModule())
    crimes.install_module(KernelModuleModule())
    crimes.install_module(MalwareScanModule(blacklist=set()))
    crimes.add_program(RootkitProgram(trigger_epoch=2))

    crimes.start()
    crimes.run(max_epochs=5)

    detection = crimes.records[-1].detection
    print("audit verdict after epoch %d: %d critical finding(s)\n"
          % (crimes.records[-1].epoch, len(detection.critical_findings())))
    for finding in detection.critical_findings():
        print("  [%s] %s" % (finding.module, finding.summary))

    print()
    print(crimes.last_outcome.report.render())

    # Second scenario: the same rootkit on an *unmonitored* VM runs for
    # a while before anyone notices. The checkpoint history lets the
    # investigator time-travel: when did the module first load?
    from repro.analyzer import TimeTravelInvestigator

    stealth_vm = LinuxGuest(name="unmonitored-vm",
                            memory_bytes=16 * 1024 * 1024, seed=14)
    stealthy = Crimes(
        stealth_vm,
        CrimesConfig(epoch_interval_ms=50.0, seed=14, history_capacity=8),
    )
    stealthy.add_program(RootkitProgram(trigger_epoch=4))
    stealthy.start()
    stealthy.run(max_epochs=8)  # no scan modules: nothing fires

    volatility = VolatilityFramework(seed=13)
    investigator = TimeTravelInvestigator(
        stealth_vm, stealthy.checkpointer.history
    )

    def module_present(dump):
        return any(row["name"] == "diamorphine"
                   for row in volatility.run("linux_lsmod", dump))

    window = investigator.find_first_compromised(module_present)
    print("\n--- time-travel over %d retained checkpoints "
          "(unmonitored VM) ---" % len(stealthy.checkpointer.history))
    print("  %r" % window)
    print("  (%d checkpoint dumps analyzed via bisection)"
          % window.checkpoints_examined)


if __name__ == "__main__":
    main()
