"""Volatility-style memory forensics over captured dumps (§3.3, §5.5-5.6).

Unlike ``repro.vmi`` (live introspection, cheap, used every epoch), this
package analyzes *memory dumps* — full RAM images captured from the
primary VM, the backup checkpoint, or the replay point — with a plugin
battery (pslist/psscan/psxview/netscan/handles/...). It is deliberately
priced like Volatility: ~2.5 s initialization and ~500 ms per scan, which
is why CRIMES only invokes it after an attack is detected.

A plugin does not parse kernel lists itself: it drives the walkers of
:mod:`repro.vmi.walk` over a :class:`MemoryDump` — the ones live
introspection drives over the running guest — and turns their records
into rows. Only the pricing differs: live VMI charges per read, the
framework per plugin run.
"""

from repro.forensics.dumps import MemoryDump, diff_rows
from repro.forensics.volatility import VolatilityFramework

__all__ = ["MemoryDump", "diff_rows", "VolatilityFramework"]
