"""Detector framework: scan modules, findings, and the orchestrator."""

import enum

from repro.obs.observer import Observer


class Severity(enum.Enum):
    INFO = "info"
    WARNING = "warning"
    CRITICAL = "critical"


class Finding:
    """One piece of evidence a scan module discovered."""

    __slots__ = ("module", "kind", "severity", "summary", "details")

    def __init__(self, module, kind, severity, summary, details=None):
        self.module = module
        self.kind = kind
        self.severity = severity
        self.summary = summary
        self.details = dict(details or {})

    def __repr__(self):
        return "Finding(%s/%s: %s)" % (self.module, self.kind, self.summary)


class ScanContext:
    """Everything a module may consult during one end-of-epoch audit."""

    __slots__ = ("vmi", "dirty_pfns", "output_buffer", "epoch", "now_ms")

    def __init__(self, vmi, dirty_pfns=None, output_buffer=None, epoch=0,
                 now_ms=0.0):
        self.vmi = vmi
        self.dirty_pfns = dirty_pfns  # set of pfns, or None = scan everything
        self.output_buffer = output_buffer
        self.epoch = epoch
        self.now_ms = now_ms

    def page_is_dirty(self, pfn):
        """True if the frame was modified this epoch (or tracking is off)."""
        return self.dirty_pfns is None or pfn in self.dirty_pfns


class ScanModule:
    """Base class for security scan modules.

    Subclasses set :attr:`name`, :attr:`guest_aided`, and implement
    :meth:`scan`. :meth:`setup` runs once when the module is installed and
    typically captures known-good reference state.
    """

    name = "abstract"
    guest_aided = False

    def setup(self, vmi):
        """Capture reference state; called once at install time."""

    def scan(self, context):
        """Audit the paused VM; return a list of :class:`Finding`."""
        raise NotImplementedError

    def replay_targets(self, finding):
        """Physical addresses to write-trap when replaying this finding.

        Modules that can pinpoint an attack via memory events (e.g. the
        canary module) return the addresses to watch; others return [].
        """
        return []


class DetectionResult:
    """Outcome of one end-of-epoch audit."""

    __slots__ = ("findings", "cost_ms", "modules_run", "epoch")

    def __init__(self, findings, cost_ms, modules_run, epoch):
        self.findings = findings
        self.cost_ms = cost_ms
        self.modules_run = modules_run
        self.epoch = epoch

    @property
    def attack_detected(self):
        return any(f.severity is Severity.CRITICAL for f in self.findings)

    def critical_findings(self):
        return [f for f in self.findings if f.severity is Severity.CRITICAL]

    def __repr__(self):
        return "DetectionResult(epoch=%d, findings=%d, cost=%.3fms)" % (
            self.epoch,
            len(self.findings),
            self.cost_ms,
        )


class Detector:
    """Runs the installed scan modules at the end of each epoch."""

    def __init__(self, vmi, observer=None):
        self.vmi = vmi
        self.modules = []
        if observer is None:
            observer = Observer(vmi.vm.clock)
        self._registry = registry = observer.registry
        self._scan_hist = registry.histogram(
            "detector.scan_ms", help="full audit cost per epoch")
        self._findings_total = registry.counter(
            "detector.findings_total", help="findings across all modules")
        self._critical_total = registry.counter(
            "detector.findings_critical",
            help="critical findings (attacks detected)")

    # Audits run and their summed cost: views of detector.scan_ms.
    scans_run = property(lambda self: self._scan_hist.count)
    total_cost_ms = property(lambda self: self._scan_hist.sum)

    def _module_instruments(self, module):
        hist = self._registry.histogram(
            "detector.module.%s.cost_ms" % module.name,
            help="per-epoch scan cost of module %s" % module.name)
        findings = self._registry.counter(
            "detector.module.%s.findings" % module.name,
            help="findings reported by module %s" % module.name)
        return hist, findings

    def install(self, module):
        """Install a scan module (captures its reference state now)."""
        module.setup(self.vmi)
        self.vmi.take_cost_ms()  # setup cost is not an epoch cost
        self.modules.append(module)
        return module

    def module(self, name):
        for module in self.modules:
            if module.name == name:
                return module
        raise KeyError("no scan module named %r" % name)

    def scan(self, dirty_pfns=None, output_buffer=None, epoch=0, now_ms=0.0):
        """One audit: run every module against the paused VM."""
        context = ScanContext(
            self.vmi,
            dirty_pfns=dirty_pfns,
            output_buffer=output_buffer,
            epoch=epoch,
            now_ms=now_ms,
        )
        self.vmi.take_cost_ms()  # start from a clean meter
        # Fixed audit entry cost (ring setup etc.) even with no modules —
        # this is the ~0.34 ms "vmi" line of Table 1.
        self.vmi._charge_ms(self.vmi.costs.SCAN_BASE_MS)
        cost = self.vmi.take_cost_ms()
        findings = []
        for module in self.modules:
            module_findings = module.scan(context) or []
            module_cost = self.vmi.take_cost_ms()
            cost += module_cost
            findings.extend(module_findings)
            hist, finding_counter = self._module_instruments(module)
            hist.observe(module_cost)
            if module_findings:
                finding_counter.inc(len(module_findings))
        self._scan_hist.observe(cost)
        if findings:
            self._findings_total.inc(len(findings))
        critical = sum(1 for f in findings
                       if f.severity is Severity.CRITICAL)
        if critical:
            self._critical_total.inc(critical)
        return DetectionResult(findings, cost, [m.name for m in self.modules],
                               epoch)
