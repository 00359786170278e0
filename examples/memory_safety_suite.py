#!/usr/bin/env python
"""Memory-safety tour: heap overflow, stack smash, and use-after-free —
three memory errors, one evidence-based detection mechanism.

Each attack leaves a different kind of tripwire damage (a clobbered heap
canary, a clobbered stack canary whose epilogue check never ran, a
disturbed poison fill), and every one is caught by the same end-of-epoch
canary scan, then replayed to the exact attacking instruction. This is
the breadth the paper contrasts against single-process tools like
AddressSanitizer.

Run:  python examples/memory_safety_suite.py

Exits 1 when a scenario's finding kind, detection epoch or replay
pinpoint is not the expected one.
"""

import sys

from repro import Crimes, CrimesConfig, LinuxGuest
from repro.detectors import CanaryScanModule
from repro.workloads import (
    OverflowAttackProgram,
    StackSmashProgram,
    UseAfterFreeProgram,
)
from repro.workloads.attacks import OVERFLOW_RIP

#: Every attack fires in this epoch, and the audit at its end catches it.
ATTACK_EPOCH = 3

SCENARIOS = (
    ("heap buffer overflow", "buffer-overflow",
     lambda: OverflowAttackProgram(trigger_epoch=ATTACK_EPOCH), OVERFLOW_RIP),
    ("stack smash (no epilogue)", "buffer-overflow",
     lambda: StackSmashProgram(trigger_epoch=ATTACK_EPOCH),
     StackSmashProgram.SMASH_RIP),
    ("use after free", "use-after-free",
     lambda: UseAfterFreeProgram(trigger_epoch=ATTACK_EPOCH),
     UseAfterFreeProgram.UAF_RIP),
)


def run_scenario(title, expected_kind, make_attack, expected_rip, seed):
    """Run one attack; return what differed from the expected outcome."""
    vm = LinuxGuest(name="victim-%d" % seed,
                    memory_bytes=16 * 1024 * 1024, seed=seed)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=seed))
    crimes.install_module(CanaryScanModule())
    crimes.add_program(make_attack())
    crimes.start()
    crimes.run(max_epochs=6)

    outcome = crimes.last_outcome
    pinpoint = outcome.pinpoint
    epoch = crimes.records[-1].epoch
    print("%-28s detected as %-16s epoch %d" % (
        title, outcome.finding.kind, epoch,
    ))
    print("    evidence: %s" % outcome.finding.summary)
    print(
        "    replay pinpoint: rip=0x%x (%s)"
        % (pinpoint.rip,
           "correct instruction" if pinpoint.rip == expected_rip
           else "UNEXPECTED")
    )
    print("    outputs that escaped: %d packet(s)\n"
          % len(crimes.external_sink.packets))
    problems = []
    if outcome.finding.kind != expected_kind:
        problems.append("finding %s, expected %s"
                        % (outcome.finding.kind, expected_kind))
    if epoch != ATTACK_EPOCH:
        problems.append("detected at epoch %d, expected %d"
                        % (epoch, ATTACK_EPOCH))
    if pinpoint.rip != expected_rip:
        problems.append("pinpoint rip=0x%x, expected 0x%x"
                        % (pinpoint.rip, expected_rip))
    return ["%s: %s" % (title, problem) for problem in problems]


def main():
    print("One detector, three memory-error classes:\n")
    problems = []
    for seed, scenario in enumerate(SCENARIOS, start=201):
        problems.extend(run_scenario(*scenario, seed=seed))
    print("AddressSanitizer would need the victim recompiled and covers "
          "one process;\nthe hypervisor scan covered all three with no "
          "guest modification beyond the\nmalloc wrapper, at "
          "once-per-epoch cost.")
    for problem in problems:
        print("UNEXPECTED: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
