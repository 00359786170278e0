"""Post-mortem forensics: the Volatility battery + report rendering.

Reproduces the two case studies' automated analyses:

* §5.5 (buffer overflow): extract the attacked process's memory maps and
  region dumps around the corrupted object, and record the replay
  pinpoint — the material "forensic analysts or developers" inspect.
* §5.6 (malware): ``procdump`` the malware, diff ``netscan`` and
  ``handles`` between the clean and detected dumps, and run
  ``psscan``/``psxview`` for hidden-process evidence, rendering the same
  report sections the paper prints.

Every other finding (kernel tables, modules, hidden Linux processes,
connections, a corrupt canary table) gets :meth:`PostMortem.integrity_report`;
:meth:`PostMortem.report` picks the report from what the finding
carries.

Every plugin run goes through :meth:`PostMortem._run`: a structure a
dump cannot read (a :class:`ForensicsError`) becomes a section saying
so, and the report is still built, since that is evidence too.
"""

from repro.errors import ForensicsError
from repro.forensics.dumps import diff_rows
from repro.forensics.volatility import VolatilityFramework


class SecurityReport:
    """A rendered-to-text forensic report with machine-readable artifacts."""

    def __init__(self, title):
        self.title = title
        self.sections = []
        self.artifacts = {}

    def add_section(self, heading, body):
        self.sections.append((heading, body))

    def add_artifact(self, name, value):
        self.artifacts[name] = value

    def render(self):
        lines = ["=" * 64, self.title, "=" * 64]
        for heading, body in self.sections:
            lines.append("")
            lines.append(heading)
            lines.append("-" * len(heading))
            lines.append(body if body else "(none)")
        return "\n".join(lines)

    def to_dict(self):
        """JSON-ready form for incident bundles: sections verbatim, plus
        the artifact names (artifact *values* can hold raw dumps and
        live objects, so only their inventory travels in a bundle)."""
        return {
            "title": self.title,
            "sections": [{"heading": heading, "body": body}
                         for heading, body in self.sections],
            "artifacts": sorted(self.artifacts),
        }


def _format_detail(value):
    """One finding detail for a report: addresses in hex."""
    if isinstance(value, int) and value >= 0x10000:
        return "0x%x" % value
    return str(value)


def _format_table(rows, columns):
    """Fixed-width text table from dict rows (report rendering helper)."""
    if not rows:
        return "(none)"
    widths = {
        column: max(len(column), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    body = [
        "  ".join(str(row.get(column, "")).ljust(widths[column])
                  for column in columns)
        for row in rows
    ]
    return "\n".join([header] + body)


class PostMortem:
    """Runs the plugin battery and assembles :class:`SecurityReport`s."""

    def __init__(self, volatility=None, seed=0):
        self.volatility = (
            volatility if volatility is not None else VolatilityFramework(seed)
        )

    def take_cost_ms(self):
        return self.volatility.take_cost_ms()

    def _run(self, report, plugin, dump, **options):
        """The rows of one ``plugin`` run over ``dump`` (charged before it
        runs), or None with a section of ``report`` naming the plugin,
        the dump and the error when the dump cannot be read."""
        try:
            return self.volatility.run(plugin, dump, **options)
        except ForensicsError as err:
            report.add_section(
                "Unreadable: %s over the %s dump" % (plugin, dump.label),
                str(err))
            report.artifacts.setdefault("unreadable", []).append(
                {"plugin": plugin, "dump": dump.label, "error": str(err)})
            return None

    def _diff(self, report, plugin, dump_clean, dump_detected, key):
        """``diff_rows`` of ``plugin`` over the clean and the detected
        dump, or None when either cannot be read."""
        before = self._run(report, plugin, dump_clean)
        after = self._run(report, plugin, dump_detected)
        if before is None or after is None:
            return None
        return diff_rows(before, after, key=key)

    def report(self, dump_clean, dump_detected, finding, pinpoint=None,
               dump_at_attack=None):
        """The report for ``finding``, chosen by what it carries: an
        overflowed object, a Windows process, or anything else."""
        details = finding.details
        if "object_addr" in details:
            return self.overflow_report(
                dump_clean, dump_detected, finding,
                pinpoint=pinpoint, dump_at_attack=dump_at_attack,
            )
        if dump_detected.os_name == "windows" \
                and "pid" in details and "name" in details:
            return self.malware_report(dump_clean, dump_detected, finding)
        return self.integrity_report(dump_clean, dump_detected, finding)

    def _new_sockets(self, report, heading, dump_clean, dump_detected):
        """Section + artifact: TCP endpoints absent from the clean dump."""
        plugin = ("netscan" if dump_detected.os_name == "windows"
                  else "linux_netstat")
        delta = self._diff(
            report, plugin, dump_clean, dump_detected,
            key=lambda row: (row["owner_pid"], row["local"], row["remote"]),
        )
        if delta is None:
            return
        new_sockets, _closed = delta
        report.add_section(heading, _format_table(
            [{"Protocol": row["protocol"], "Local Address": row["local"],
              "Foreign Address": row["remote"], "State": row["state"]}
             for row in new_sockets],
            ["Protocol", "Local Address", "Foreign Address", "State"]))
        report.add_artifact("new_sockets", new_sockets)

    def _hidden_processes(self, report, heading, dump):
        """Section + artifact: the psxview rows flagged suspicious."""
        if dump.os_name == "windows":
            plugin, views = "psxview", ["in_pslist", "in_psscan"]
        else:
            plugin, views = "linux_psxview", ["in_pslist", "in_pid_hash"]
        rows = self._run(report, plugin, dump)
        if rows is None:
            return
        hidden = [row for row in rows if row["suspicious"]]
        columns = ["name", "pid"] + views
        report.add_section(
            heading,
            _format_table([{column: row[column] for column in columns}
                           for row in hidden], columns)
            if hidden
            else "no hidden processes",
        )
        report.add_artifact("hidden_processes", hidden)

    # -- §5.5: buffer overflow ------------------------------------------------

    def overflow_report(self, dump_clean, dump_detected, finding,
                        pinpoint=None, dump_at_attack=None):
        """Forensics for a canary-clobbering overflow."""
        pid = finding.details["pid"]
        title = ("CRIMES Security Report - Use After Free"
                 if finding.kind == "use-after-free"
                 else "CRIMES Security Report - Heap Buffer Overflow")
        report = SecurityReport(title)

        evidence = "object=0x%x size=%d" % (
            finding.details["object_addr"], finding.details["object_size"],
        )
        if finding.details.get("expected") is not None:
            evidence += " expected=%016x observed=%016x" % (
                finding.details["expected"], finding.details["observed"],
            )
        if "write_offset" in finding.details:
            evidence += " dangling write at offset %d" % \
                finding.details["write_offset"]
        report.add_section(
            "Finding", "%s\nepoch evidence: %s" % (finding.summary, evidence)
        )

        maps = self._run(report, "linux_proc_maps", dump_detected, pid=pid)
        if maps is not None:
            rows = [{"start": "0x%x" % row["start"],
                     "end": "0x%x" % row["end"], "region": row["name"]}
                    for row in maps]
            report.add_section("Process memory map (pid %d)" % pid,
                               _format_table(rows, ["start", "end", "region"]))
            report.add_artifact("proc_maps", maps)

        heap_dump = self._run(report, "linux_dump_map", dump_detected,
                              pid=pid, region="heap")
        if heap_dump is not None:
            heap = heap_dump[0]
            report.add_artifact("heap_dump", heap["data"])
            offset = finding.details["object_addr"] - heap["start"]
            end = offset + finding.details["object_size"] + 24
            window = heap["data"][max(offset - 16, 0):end]
            report.add_section(
                "Heap bytes around the overflowed object",
                "object at heap+0x%x; %d-byte window:\n%s"
                % (offset, len(window), window.hex()),
            )

        if pinpoint is not None and pinpoint.matched:
            report.add_section(
                "Replay pinpoint",
                "attacking store: paddr=0x%x length=%d rip=0x%x at t=%.3f ms"
                % (pinpoint.paddr, pinpoint.length, pinpoint.rip,
                   pinpoint.time_ms),
            )
            report.add_artifact("pinpoint", pinpoint)

        self._new_sockets(report, "Connections opened during the attacked "
                          "epoch", dump_clean, dump_detected)

        files = self._diff(report, "linux_lsof", dump_clean, dump_detected,
                           key=lambda row: (row["pid"], row["path"]))
        if files is not None:
            new_files, _closed_files = files
            report.add_section(
                "Files opened during the attacked epoch",
                "\n".join("pid %d: %s" % (row["pid"], row["path"])
                          for row in new_files) or "(none)",
            )
            report.add_artifact("new_files", new_files)

        processes = self._diff(report, "linux_pslist", dump_clean,
                               dump_detected, key=lambda row: row["pid"])
        if processes is not None:
            report.add_section(
                "Process-list delta across the attacked epoch",
                "started: %s\nexited:  %s" % tuple(
                    ", ".join("%s(%d)" % (r["name"], r["pid"])
                              for r in rows) or "-"
                    for rows in processes),
            )

        dumps = [dump_clean, dump_detected]
        if dump_at_attack is not None:
            dumps.append(dump_at_attack)
        report.add_artifact("checkpoints", dumps)
        return report

    # -- §5.6: malware ------------------------------------------------------------

    def malware_report(self, dump_clean, dump_detected, finding):
        """Forensics for a blacklisted/hidden process on a Windows guest."""
        pid = finding.details["pid"]
        report = SecurityReport("CRIMES Security Report - Malware Detection")

        report.add_section("Malware detected", _format_table(
            [{"Name": finding.details["name"], "PID": pid,
              "Start": finding.details.get("start_time", 0)}],
            ["Name", "PID", "Start"]))

        extracted = self._run(report, "procdump", dump_detected, pid=pid)
        if extracted is not None:
            executable = extracted[0]
            report.add_artifact("malware_executable", executable)
            report.add_section(
                "Extracted executable",
                "%s (pid %d): %d bytes extracted for sandbox analysis"
                % (executable["name"], pid, executable["artifact_size"]))

        self._new_sockets(report, "Open Sockets (new since last clean "
                          "checkpoint)", dump_clean, dump_detected)

        handles = self._diff(report, "handles", dump_clean, dump_detected,
                             key=lambda row: (row["pid"], row["path"]))
        if handles is not None:
            new_handles, _dropped = handles
            report.add_section(
                "Open File Handles (new since last clean checkpoint)",
                "\n".join(row["path"] for row in new_handles) or "(none)",
            )
            report.add_artifact("new_handles", new_handles)

        self._hidden_processes(report, "psscan/psxview hidden-process check",
                               dump_detected)
        return report

    # -- everything else: kernel and process integrity ------------------------

    def integrity_report(self, dump_clean, dump_detected, finding):
        """Forensics for a finding with no overflowed object and no
        Windows process: a hijacked kernel table, an unknown module, a
        hidden Linux process, a forbidden connection, a corrupt canary
        table. Reports the finding, the psxview cross-view and the new
        sockets; on Linux also the module-list delta and the syscall
        slots that changed since the clean checkpoint."""
        report = SecurityReport("CRIMES Security Report - %s" % (
            finding.kind.replace("-", " ").title()))
        report.add_section("Finding", "\n".join(
            [finding.summary]
            + ["%s: %s" % (key, _format_detail(value))
               for key, value in sorted(finding.details.items())]))
        self._hidden_processes(report, "psxview hidden-process check",
                               dump_detected)
        self._new_sockets(report, "Connections opened during the attacked "
                          "epoch", dump_clean, dump_detected)
        if dump_detected.os_name != "linux":
            return report

        modules = self._diff(report, "linux_lsmod", dump_clean, dump_detected,
                             key=lambda row: (row["name"], row["base"]))
        if modules is not None:
            report.add_section(
                "Kernel-module delta across the attacked epoch",
                "loaded:   %s\nunloaded: %s" % tuple(
                    ", ".join("%s@0x%x" % (row["name"], row["base"])
                              for row in rows) or "-"
                    for rows in modules),
            )
            report.add_artifact("loaded_modules", modules[0])

        clean = self._run(report, "linux_check_syscall", dump_clean)
        if clean is None:
            return report
        reference = [row["address"] for row in clean]
        detected = self._run(report, "linux_check_syscall", dump_detected,
                             reference=reference)
        if detected is None:
            return report
        changed = [row for row in detected if row["hijacked"]]
        report.add_section(
            "System-call slots changed during the attacked epoch",
            _format_table(
                [{"slot": row["index"],
                  "clean": "0x%x" % reference[row["index"]],
                  "detected": "0x%x" % row["address"]}
                 for row in changed],
                ["slot", "clean", "detected"]))
        report.add_artifact("changed_syscalls", changed)
        return report
