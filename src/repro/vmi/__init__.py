"""Virtual-machine introspection (LibVMI-alike).

Interprets a guest's raw memory from outside the VM: symbol resolution,
address translation, typed struct reads, process/module walking, and
memory-event consumption. Each operation charges virtual time to the
instance's cost meter, calibrated to the LibVMI measurements of Table 3.

The walks themselves live in :mod:`repro.vmi.walk`, one generator per
guest kernel structure, shared with the offline forensics plugins of
:mod:`repro.forensics`: same walkers, same layouts, never shared state.
Beneath them, :mod:`repro.vmi.space` is the one rule by which both sides
translate, read and refuse guest addresses.
"""

from repro.vmi.costmodel import VmiCostModel
from repro.vmi.libvmi import VMIInstance
from repro.vmi.osprofile import OSProfile, profile_for

__all__ = ["VmiCostModel", "VMIInstance", "OSProfile", "profile_for"]
