"""The paper's artifacts and claims, each defined once.

``ARTIFACTS`` has one row per committed ``benchmarks/results/<name>.txt``:
the CLI command, the results-file name, the experiment call with the
parameters that file was made with, and the one renderer whose text the
file holds byte for byte.

``CLAIMS`` has one row per paper number the reproduction checks: its id,
the paper section and value, the band the measurement must fall in, the
experiment it reads and the measure taken from that experiment's result.
A check over every row of a table or series is one claim whose measure
is the min or max over those rows, or the list of them for a two-sided
band.

``repro <artifact>``, ``repro verify``, ``benchmarks/test_paper_artifacts.py``
and the tier-1 experiment tests all read these two tables.
"""

from repro.baselines.virus_scanner import PeriodicScannerBaseline
from repro.core.crimes import PHASE_ORDER
from repro.experiments.bitmap_experiments import (
    fig6b_bitmap_scan,
    functional_scan_check,
)
from repro.experiments.case_studies import (
    case1_overflow,
    case2_malware,
    fig8_attack_timeline,
)
from repro.experiments.parsec_experiments import (
    fig3_parsec_overhead,
    fig4_swaptions_breakdown,
    fig5_interval_sweep,
    fig6a_fluidanimate,
    remus_comparison,
)
from repro.experiments.safety_experiments import best_effort_window_sweep
from repro.experiments.vmi_experiments import table3_vmi_costs
from repro.experiments.web_experiments import (
    fig7_web_performance,
    table1_cost_breakdown,
)
from repro.metrics.tables import format_series, format_table
from repro.vmi.costmodel import VmiCostModel
from repro.workloads.attacks import OVERFLOW_RIP
from repro.workloads.parsec import PARSEC_PROFILES, parsec_names


class Experiment:
    """One experiment call: the function and the arguments it runs with."""

    def __init__(self, name, func, **kwargs):
        self.name = name
        self.func = func
        self.kwargs = kwargs

    def run(self):
        return self.func(**self.kwargs)


def _fig6b_with_check():
    """Figure 6b's cost series plus both real scans over a 1 GiB bitmap."""
    return {
        "rows": fig6b_bitmap_scan(),
        "check": functional_scan_check(frame_count=262144,
                                       dirty_fraction=0.02),
    }


TABLE1 = Experiment("table1", table1_cost_breakdown, epochs=50)
TABLE3 = Experiment("table3", table3_vmi_costs, iterations=100)
FIG3 = Experiment("fig3", fig3_parsec_overhead)
FIG4 = Experiment("fig4", fig4_swaptions_breakdown)
FIG5 = Experiment("fig5", fig5_interval_sweep)
FIG6A = Experiment("fig6a", fig6a_fluidanimate, native_runtime_ms=1500.0)
FIG6B = Experiment("fig6b", _fig6b_with_check)
FIG7 = Experiment("fig7", fig7_web_performance)
FIG8 = Experiment("fig8", fig8_attack_timeline)
CASE1 = Experiment("case1", case1_overflow)
CASE2 = Experiment("case2", case2_malware)
CASE2_HIDDEN = Experiment("case2-hidden", case2_malware, hide=True)
SAFETY = Experiment("safety", best_effort_window_sweep)
REMUS = Experiment("remus", remus_comparison)
VMI_COST_MODEL = Experiment("vmi-cost-model", VmiCostModel)


# -- renderers ---------------------------------------------------------------

_LEVELS = ("full", "pre-map", "memcpy", "no-opt")


def _render_table1(rows):
    return format_table(
        rows,
        ["workload", "suspend", "vmi", "bitscan", "map", "copy", "resume",
         "dirty_pages"],
        title="Table 1 - pause-phase cost (ms), no-opt, 20 ms epochs",
    )


def _render_table3(rows):
    table_rows = [
        {
            "Time Cost (usec)": phase,
            "process-list": round(rows["process-list"][key]),
            "module-list": round(rows["module-list"][key]),
        }
        for phase, key in (("Initialization", "initialization_us"),
                           ("Preprocessing", "preprocessing_us"),
                           ("Memory Analysis", "memory_analysis_us"))
    ]
    return (
        format_table(
            table_rows, ["Time Cost (usec)", "process-list", "module-list"],
            title="Table 3 - LibVMI analysis costs (microseconds)",
        )
        + "\n\nVolatility comparison (section 5.3):"
        "\n  initialization: %.0f us   process scan: %.0f us"
        % (rows["volatility"]["initialization_us"],
           rows["volatility"]["process_scan_us"])
    )


def _render_fig3(results):
    schemes = list(_LEVELS) + ["AS"]
    inventory = format_table(
        [{"benchmark": name,
          "description": PARSEC_PROFILES[name].description}
         for name in parsec_names()],
        ["benchmark", "description"],
        title="Table 2 - PARSEC 3.0 benchmarks used in the evaluation",
    )
    figure = format_table(
        [{"benchmark": benchmark,
          **{scheme: "%.3f" % results[scheme][benchmark]
             for scheme in schemes}}
         for benchmark in parsec_names() + ["geomean"]],
        ["benchmark"] + schemes,
        title="Figure 3 - normalized runtime, 200 ms interval",
    )
    return inventory + "\n\n" + figure


def _render_fig4(results):
    return format_table(
        [{"level": level,
          **{phase: "%.2f" % results[level][phase] for phase in PHASE_ORDER},
          "total": "%.2f" % results[level]["total"]}
         for level in _LEVELS],
        ["level"] + list(PHASE_ORDER) + ["total"],
        title="Figure 4 - pause breakdown for swaptions (ms), 200 ms epochs",
    )


def _render_fig5(results):
    return "\n\n".join(
        format_series(
            "%s [%s]" % (label, benchmark),
            [row["interval"] for row in series],
            [row[key] for row in series],
            x_label="interval_ms", y_label=key, fmt=fmt,
        )
        for key, label, fmt in (
            ("normalized_runtime", "Fig 5a - normalized runtime", "%.3f"),
            ("pause_ms", "Fig 5b - paused time (ms)", "%.2f"),
            ("dirty_pages", "Fig 5c - dirty pages per epoch", "%.0f"),
        )
        for benchmark, series in results.items()
    )


def _render_fig6a(results):
    return "\n\n".join(
        format_series(
            "Fig 6a - fluidanimate normalized runtime [%s]" % level,
            [row["interval"] for row in series],
            [row["normalized_runtime"] for row in series],
            x_label="interval_ms", y_label="norm_runtime",
        )
        for level, series in results.items()
    )


def _render_fig6b(result):
    rows = result["rows"]
    sizes = [row["size_gb"] for row in rows]
    return (
        format_series(
            "Fig 6b - bitmap scan cost, not optimized (bit-by-bit)",
            sizes, [row["not_optimized_ms"] for row in rows],
            x_label="vm_size_gb", y_label="ms",
        )
        + "\n\n"
        + format_series(
            "Fig 6b - bitmap scan cost, optimized (word-chunk)",
            sizes, [row["optimized_ms"] for row in rows],
            x_label="vm_size_gb", y_label="ms",
        )
        + "\n\nfunctional check (1 GiB bitmap, 2%% dirty): identical=%s, "
        "bits visited saved=%.1f%%"
        % (result["check"]["identical"],
           100 * result["check"]["bits_saved_fraction"])
    )


def _render_fig7(results):
    sections = [
        "baseline (no protection): latency %.2f ms, throughput %.0f req/s"
        % (results["baseline"]["latency_ms"],
           results["baseline"]["throughput_rps"])
    ]
    for label in ("synchronous", "best_effort"):
        series = results[label]
        for figure, key, name in (("7a", "norm_latency", "latency"),
                                  ("7b", "norm_throughput", "throughput")):
            sections.append(format_series(
                "Fig %s - normalized %s [%s]" % (figure, name, label),
                [row["interval"] for row in series],
                [row[key] for row in series],
                x_label="interval_ms", y_label="x baseline",
            ))
    return "\n\n".join(sections)


def _render_fig8(fig8):
    lines = ["Figure 8 - CRIMES attack detection timeline "
             "(offsets from the exploit)"]
    for label, offset in fig8["milestones"]:
        lines.append("  %12.3f ms  %s" % (offset, label))
    lines.append("")
    lines.append("pinpoint: %r" % fig8["pinpoint"])
    lines.append("packets that escaped during/after the attack: %d"
                 % fig8["escaped_packets"])
    return "\n".join(lines)


def _render_safety(rows):
    return format_table(
        [{"interval_ms": "%.0f" % row["interval_ms"],
          "safety": row["safety"],
          "escaped_packets": row["escaped_packets"],
          "window_ms": "%.1f" % row["window_ms"]}
         for row in rows],
        ["interval_ms", "safety", "escaped_packets", "window_ms"],
        title="Window of vulnerability: Synchronous vs Best Effort",
    )


def _render_case2(case):
    return "%s\n\nescaped packets: %d   escaped disk writes: %d" % (
        case["report"].render(), case["escaped_packets"],
        case["escaped_disk_writes"])


class Artifact:
    """One committed results file and the command that prints it."""

    def __init__(self, command, name, experiment, render):
        self.command = command
        #: ``benchmarks/results/<name>.txt``.
        self.name = name
        self.experiment = experiment
        self.render = render

    def text(self, result=None):
        """The committed file's content; runs the experiment unless given
        its ``result``."""
        if result is None:
            result = self.experiment.run()
        return self.render(result).rstrip() + "\n"


ARTIFACTS = {artifact.command: artifact for artifact in (
    Artifact("table1", "table1_cost_breakdown", TABLE1, _render_table1),
    Artifact("table3", "table3_vmi_costs", TABLE3, _render_table3),
    Artifact("fig3", "fig3_parsec_overhead", FIG3, _render_fig3),
    Artifact("fig4", "fig4_swaptions_breakdown", FIG4, _render_fig4),
    Artifact("fig5", "fig5_interval_sweep", FIG5, _render_fig5),
    Artifact("fig6a", "fig6a_fluidanimate", FIG6A, _render_fig6a),
    Artifact("fig6b", "fig6b_bitmap_scan", FIG6B, _render_fig6b),
    Artifact("fig7", "fig7_webserver", FIG7, _render_fig7),
    Artifact("fig8", "fig8_attack_timeline", FIG8, _render_fig8),
    Artifact("safety", "safety_window", SAFETY, _render_safety),
    Artifact("case1", "case1_overflow_report", CASE1,
             lambda case: case["outcome"].report.render()),
    Artifact("case2", "case2_malware_report", CASE2, _render_case2),
    Artifact("case2-hidden", "case2_malware_hidden", CASE2_HIDDEN,
             lambda case: case["report"].render()),
)}


# -- bands -------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, list):
        return "%s..%s" % (_fmt(min(value)), _fmt(max(value)))
    if isinstance(value, float):
        return "%.4g" % value if abs(value) < 1e4 else "%.0f" % value
    return str(value)


class Band:
    """Where a measurement must fall. A list measurement (one value per
    row of a table or series) must fall there in every row."""

    def __init__(self, text, test):
        self.text = text
        self._test = test

    def holds(self, value):
        if isinstance(value, list):
            return all(self._test(item) for item in value)
        return self._test(value)

    def __str__(self):
        return self.text


def between(low, high):
    return Band("%s < x < %s" % (low, high), lambda x: low < x < high)


def above(low):
    return Band("x > %s" % low, lambda x: x > low)


def below(high):
    return Band("x < %s" % high, lambda x: x < high)


def at_most(high):
    return Band("x <= %s" % high, lambda x: x <= high)


def exactly(value):
    return Band("x == %s" % value, lambda x: x == value)


# -- claims ------------------------------------------------------------------

class Claim:
    """One paper number and the band its measurement must fall in."""

    def __init__(self, claim_id, section, paper, band, experiment, measure):
        self.id = claim_id
        self.section = section
        self.paper = paper
        self.band = band
        self.experiment = experiment
        #: ``measure(result)`` reads the value from the experiment's result.
        self.measure = measure

    def check(self, result):
        """``(measured, passed)`` for one result of this claim's
        experiment, or of the same experiment at other parameters."""
        measured = self.measure(result)
        return measured, self.band.holds(measured)


def _row(rows, workload):
    return next(row for row in rows if row["workload"] == workload)


def _pause(row):
    return sum(row[phase] for phase in PHASE_ORDER)


def _min_step(values):
    """Smallest increase between neighbours: > 0 iff strictly increasing."""
    return min(b - a for a, b in zip(values, values[1:]))


def _series(results, key):
    return [[row[key] for row in series] for series in results.values()]


def _milestone(fig8, label):
    return next(offset for name, offset in fig8["milestones"]
                if name.startswith(label))


def _best_effort(rows):
    return [row for row in rows if row["safety"] == "best_effort"]


def _best_effort_window_at(rows, interval_ms):
    return next(row["window_ms"] for row in _best_effort(rows)
                if row["interval_ms"] == interval_ms)


_TABLE1_LIGHT = ((0.96, "suspend", 0.7, 1.4), (0.34, "vmi", 0.25, 0.5),
                 (1.83, "bitscan", 1.4, 3.0), (1.6, "map", 1.0, 2.2),
                 (12.58, "copy", 10.0, 15.0), (1.5, "resume", 1.1, 2.1))
_TABLE3 = (("init", "initialization_us", 60000, 73000,
            {"process-list": 67096, "module-list": 66025}),
           ("preprocess", "preprocessing_us", 48000, 60000,
            {"process-list": 53678, "module-list": 54928}),
           ("analysis", "memory_analysis_us", 500, 2500,
            {"process-list": 1444, "module-list": 1777}))

CLAIMS = {claim.id: claim for claim in (
    # §1 headline: ≈33% faster than Remus, 9.8% PARSEC overhead at 5 cps.
    Claim("remus.improvement", "§1", 0.33, between(0.25, 0.45), REMUS,
          lambda r: r["improvement"]),
    Claim("fig3.parsec_overhead", "§1, Fig. 3", 0.098, between(0.05, 0.16),
          FIG3, lambda r: r["full"]["geomean"] - 1),

    # Table 1: the unoptimized pause (Light row, plus High's copy).
    *(Claim("table1.light_%s_ms" % phase, "Table 1", paper,
            between(low, high), TABLE1,
            lambda rows, phase=phase: _row(rows, "Light")[phase])
      for paper, phase, low, high in _TABLE1_LIGHT),
    Claim("table1.high_copy_ms", "Table 1", 19.98, between(17.0, 23.0),
          TABLE1, lambda rows: _row(rows, "High")["copy"]),
    Claim("table1.copy_share", "Table 1", 0.67, above(0.55), TABLE1,
          lambda rows: min(row["copy"] / _pause(row) for row in rows)),
    Claim("table1.pause_ms", "Table 1", 18.81, above(15.0), TABLE1,
          lambda rows: min(_pause(row) for row in rows)),
    Claim("table1.copy_step_by_load_ms", "Table 1", 2.05, above(0.0),
          TABLE1, lambda rows: _min_step([row["copy"] for row in rows])),

    # Table 3 and the §5.3 Volatility comparison.
    *(Claim("table3.%s_%s_us" % (scan.replace("-", "_"), cost),
            "§5.3 Table 3", paper[scan], between(low, high), TABLE3,
            lambda rows, scan=scan, key=key: rows[scan][key])
      for cost, key, low, high, paper in _TABLE3
      for scan in ("process-list", "module-list")),
    Claim("table3.volatility_init_us", "§5.3", 2.5e6, above(2000000), TABLE3,
          lambda rows: rows["volatility"]["initialization_us"]),
    Claim("table3.volatility_init_ratio", "§5.3", 37.3, above(30), TABLE3,
          lambda rows: rows["volatility"]["initialization_us"]
          / rows["process-list"]["initialization_us"]),
    Claim("table3.volatility_scan_us", "§5.3", 5e5, above(300000), TABLE3,
          lambda rows: rows["volatility"]["process_scan_us"]),

    # Figure 3: normalized PARSEC runtime, 200 ms interval.
    Claim("fig3.no_opt_geomean", "§5.3 Fig. 3", "1.4-1.6",
          between(1.30, 1.70), FIG3, lambda r: r["no-opt"]["geomean"]),
    Claim("fig3.asan_geomean", "§5.3 Fig. 3", "1.4-1.6",
          between(1.40, 1.70), FIG3, lambda r: r["AS"]["geomean"]),
    Claim("fig3.geomean_step_by_level", "§5.3 Fig. 3",
          "full < pre-map < memcpy < no-opt", above(0.0), FIG3,
          lambda r: _min_step([r[level]["geomean"] for level in _LEVELS])),
    Claim("fig3.full_over_asan", "§5.3 Fig. 3", "below AS everywhere",
          below(1.0), FIG3,
          lambda r: max(r["full"][name] / r["AS"][name]
                        for name in r["full"] if name != "geomean")),
    Claim("fig3.no_opt_fluidanimate", "§5.3 Fig. 3", 4.7,
          between(4.0, 5.5), FIG3, lambda r: r["no-opt"]["fluidanimate"]),
    Claim("fig3.asan_fluidanimate", "§5.3 Fig. 3", 2.6, exactly(2.6), FIG3,
          lambda r: r["AS"]["fluidanimate"]),
    Claim("fig3.full_fluidanimate", "§5.3 Fig. 3", "n/a", below(1.7), FIG3,
          lambda r: r["full"]["fluidanimate"]),

    # Figure 4: swaptions pause breakdown; the 67% pause cut.
    Claim("fig4.no_opt_pause_ms", "§4.1 Fig. 4", 29.86, between(26.0, 34.0),
          FIG4, lambda r: r["no-opt"]["total"]),
    Claim("fig4.full_pause_ms", "§4.1 Fig. 4", 10.21, between(8.0, 13.0),
          FIG4, lambda r: r["full"]["total"]),
    Claim("fig4.pause_reduction", "§4.1 Fig. 4", 0.67, between(0.55, 0.75),
          FIG4, lambda r: 1 - r["full"]["total"] / r["no-opt"]["total"]),
    Claim("fig4.no_opt_copy_share", "§4.1 Fig. 4", 0.71, above(0.55), FIG4,
          lambda r: r["no-opt"]["copy"] / r["no-opt"]["total"]),
    Claim("fig4.full_copy_share", "§4.1 Fig. 4", 0.05, below(0.15), FIG4,
          lambda r: r["full"]["copy"] / r["full"]["total"]),
    Claim("fig4.no_opt_bitscan_ms", "§4.1 Fig. 4", 2.7, above(1.8), FIG4,
          lambda r: r["no-opt"]["bitscan"]),
    Claim("fig4.full_bitscan_ms", "§4.1 Fig. 4", 0.14, below(0.25), FIG4,
          lambda r: r["full"]["bitscan"]),
    Claim("fig4.no_opt_over_pre_map_bitscan", "§4.1 Fig. 4", 1.0,
          between(0.8, 1.2), FIG4,
          lambda r: r["no-opt"]["bitscan"] / r["pre-map"]["bitscan"]),
    Claim("fig4.full_over_pre_map_bitscan", "§4.1 Fig. 4", 0.052,
          below(0.1), FIG4,
          lambda r: r["full"]["bitscan"] / r["pre-map"]["bitscan"]),
    Claim("fig4.memcpy_over_no_opt_map", "§4.1 Fig. 4", 2.0, above(1.6),
          FIG4, lambda r: r["memcpy"]["map"] / r["no-opt"]["map"]),
    Claim("fig4.pre_map_over_full_map", "§4.1 Fig. 4", 1.0,
          between(0.95, 1.05), FIG4,
          lambda r: r["pre-map"]["map"] / r["full"]["map"]),
    Claim("fig4.pre_map_over_no_opt_copy", "§4.1 Fig. 4", "n/a", below(0.1),
          FIG4, lambda r: r["pre-map"]["copy"] / r["no-opt"]["copy"]),

    # Figure 5: 60 -> 200 ms intervals under Full optimization.
    Claim("fig5.runtime_drop", "§5.3 Fig. 5a", "falls", above(0.0), FIG5,
          lambda r: min(s[0] - s[-1]
                        for s in _series(r, "normalized_runtime"))),
    Claim("fig5.pause_growth_ms", "§5.3 Fig. 5b", "grows", above(0.0), FIG5,
          lambda r: min(s[-1] - s[0] for s in _series(r, "pause_ms"))),
    Claim("fig5.pause_at_200ms", "§5.3 Fig. 5b", "10-16",
          between(6.0, 18.0), FIG5,
          lambda r: [s[-1] for s in _series(r, "pause_ms")]),
    Claim("fig5.dirty_page_growth", "§5.3 Fig. 5c", "grows", above(0.0),
          FIG5, lambda r: min(s[-1] - s[0]
                              for s in _series(r, "dirty_pages"))),
    Claim("fig5.dirty_pages_at_200ms", "§5.3 Fig. 5c", "up to ~5000",
          below(8000), FIG5,
          lambda r: max(s[-1] for s in _series(r, "dirty_pages"))),

    # Figure 6a: fluidanimate per optimization level.
    Claim("fig6a.full_speedup_at_60ms", "§5.3 Fig. 6a", 3.5, above(3.0),
          FIG6A, lambda r: r["no-opt"][0]["normalized_runtime"]
          / r["full"][0]["normalized_runtime"]),
    Claim("fig6a.slowdown_60_over_200ms", "§5.3 Fig. 6a", "> 1",
          above(1.0), FIG6A,
          lambda r: min(s[0] / s[-1]
                        for s in _series(r, "normalized_runtime"))),
    Claim("fig6a.no_opt_at_200ms", "§5.3 Fig. 6a", 4.7, between(4.0, 5.5),
          FIG6A, lambda r: r["no-opt"][-1]["normalized_runtime"]),

    # Figure 6b: bitmap scan cost vs VM size.
    Claim("fig6b.bit_by_bit_16gib_ms", "§5.3 Fig. 6b", "tens of ms",
          between(30.0, 80.0), FIG6B,
          lambda r: r["rows"][-1]["not_optimized_ms"]),
    Claim("fig6b.bit_by_bit_growth", "§5.3 Fig. 6b", "linear", above(10),
          FIG6B, lambda r: r["rows"][-1]["not_optimized_ms"]
          / r["rows"][0]["not_optimized_ms"]),
    Claim("fig6b.word_over_bit_cost", "§5.3 Fig. 6b", "far below",
          below(0.2), FIG6B,
          lambda r: max(row["optimized_ms"] / row["not_optimized_ms"]
                        for row in r["rows"])),
    Claim("fig6b.scans_identical", "§5.3 Fig. 6b", True, exactly(True),
          FIG6B, lambda r: r["check"]["identical"]),

    # Figure 7: NGINX under wrk, Synchronous vs Best Effort.
    Claim("fig7.baseline_latency_ms", "§5.4 Fig. 7", 2.83,
          between(2.0, 4.0), FIG7, lambda r: r["baseline"]["latency_ms"]),
    Claim("fig7.baseline_throughput_rps", "§5.4 Fig. 7", 17094,
          between(10000, 25000), FIG7,
          lambda r: r["baseline"]["throughput_rps"]),
    Claim("fig7.sync_latency_step", "§5.4 Fig. 7a", "grows", above(0.0),
          FIG7, lambda r: _min_step([row["norm_latency"]
                                     for row in r["synchronous"]])),
    Claim("fig7.sync_throughput_drop", "§5.4 Fig. 7b", "falls", above(0.0),
          FIG7, lambda r: r["synchronous"][0]["norm_throughput"]
          - r["synchronous"][-1]["norm_throughput"]),
    Claim("fig7.sync_throughput_at_200ms", "§5.4 Fig. 7b", 0.2,
          below(0.25), FIG7,
          lambda r: r["synchronous"][-1]["norm_throughput"]),
    Claim("fig7.best_effort_latency", "§5.4 Fig. 7a", "~1", below(1.6),
          FIG7, lambda r: max(row["norm_latency"]
                              for row in r["best_effort"])),
    Claim("fig7.best_effort_throughput", "§5.4 Fig. 7b", "~1", above(0.6),
          FIG7, lambda r: min(row["norm_throughput"]
                              for row in r["best_effort"])),
    Claim("fig7.best_effort_throughput_at_200ms", "§5.4 Fig. 7b", "~1",
          above(0.9), FIG7,
          lambda r: r["best_effort"][-1]["norm_throughput"]),

    # Figure 8 / §5.5: the overflow case study, 50 ms epochs.
    Claim("fig8.detect_ms", "§5.5 Fig. 8", "24.4 + scan",
          between(15.0, 45.0), FIG8,
          lambda r: _milestone(r, "audit failed")),
    Claim("fig8.replay_after_detect_ms", "§5.5 Fig. 8", "ready at +29",
          below(15), FIG8,
          lambda r: _milestone(r, "rollback + replay prepared")
          - _milestone(r, "audit failed")),
    Claim("fig8.report_ms", "§5.5 Fig. 8", "~5 s dump + seconds",
          between(4000.0, 15000.0), FIG8,
          lambda r: _milestone(r, "forensic report complete")),
    Claim("fig8.checkpoints_on_disk_ms", "§5.5 Fig. 8", "100+ s",
          above(30000.0), FIG8,
          lambda r: _milestone(r, "system checkpoints written to disk")),
    Claim("fig8.pinpoint_matched", "§5.5", True, exactly(True), FIG8,
          lambda r: r["pinpoint"].matched),
    Claim("fig8.pinpoint_rip", "§5.5", "the attack's store",
          exactly("0x%x" % OVERFLOW_RIP), FIG8,
          lambda r: "0x%x" % r["pinpoint"].rip),
    Claim("fig8.escaped_packets", "§5.5", 0, exactly(0), FIG8,
          lambda r: r["escaped_packets"]),
    Claim("vmi.canary_rate_per_ms", "§5.5", 90000,
          between(89999.91, 90000.09), VMI_COST_MODEL,
          lambda model: 1000.0 / model.PER_CANARY_US),

    # §5.4 window of vulnerability, and §2's periodic-scanner contrast.
    Claim("safety.sync_escaped_packets", "§5.4", 0, exactly(0), SAFETY,
          lambda rows: max(row["escaped_packets"] for row in rows
                           if row["safety"] == "synchronous")),
    Claim("safety.best_effort_escaped_packets", "§5.4", "one epoch's",
          above(0), SAFETY,
          lambda rows: min(row["escaped_packets"]
                           for row in _best_effort(rows))),
    Claim("safety.best_effort_escaped_over_interval", "§5.4", 0,
          at_most(1), SAFETY,
          lambda rows: max(row["escaped_packets"] - row["interval_ms"]
                           for row in _best_effort(rows))),
    Claim("safety.best_effort_window_over_interval_ms", "§5.4", "pause",
          at_most(40.0), SAFETY,
          lambda rows: max(row["window_ms"] - row["interval_ms"]
                           for row in _best_effort(rows))),
    Claim("safety.best_effort_leak_step", "§5.4", "grows", above(0),
          SAFETY, lambda rows: _min_step([row["escaped_packets"]
                                          for row in _best_effort(rows)])),
    Claim("safety.periodic_over_best_effort_window", "§2",
          "minutes vs one epoch", above(1000), SAFETY,
          lambda rows: PeriodicScannerBaseline().expected_window_ms()
          / _best_effort_window_at(rows, 50.0)),

    # §5.6: the Windows malware case study and its DKOM-hidden variant.
    Claim("case2.malware", "§5.6", "reg_read.exe", exactly("reg_read.exe"),
          CASE2, lambda c: c["outcome"].finding.details["name"]),
    Claim("case2.foreign_address", "§5.6", "104.28.18.89:8080",
          exactly("104.28.18.89:8080"), CASE2,
          lambda c: ", ".join(row["remote"] for row in
                              c["report"].artifacts["new_sockets"])),
    Claim("case2.socket_state", "§5.6", "CLOSE_WAIT", exactly("CLOSE_WAIT"),
          CASE2, lambda c: ", ".join(row["state"] for row in
                                     c["report"].artifacts["new_sockets"])),
    Claim("case2.file_handle", "§5.6", "write_file.txt",
          exactly("write_file.txt"), CASE2,
          lambda c: ", ".join(row["path"].rsplit("\\", 1)[-1] for row in
                              c["report"].artifacts["new_handles"])),
    Claim("case2.escaped_packets", "§5.6", 0, exactly(0), CASE2,
          lambda c: c["escaped_packets"]),
    Claim("case2.escaped_disk_writes", "§5.6", 0, exactly(0), CASE2,
          lambda c: c["escaped_disk_writes"]),
    Claim("case2-hidden.hidden_process", "§5.6", "reg_read.exe",
          exactly("reg_read.exe"), CASE2_HIDDEN,
          lambda c: ", ".join(row["name"] for row in
                              c["report"].artifacts["hidden_processes"])),
    Claim("case2-hidden.escaped_packets", "§5.6", 0, exactly(0),
          CASE2_HIDDEN, lambda c: c["escaped_packets"]),
)}


def evaluate(claims=None, results=None):
    """Measure every claim (default: all of ``CLAIMS``).

    Runs each experiment the claims read once; ``results`` maps
    experiment names to results already at hand and is filled in.
    Returns ``[(claim, measured, passed)]`` in table order.
    """
    if claims is None:
        claims = CLAIMS.values()
    if results is None:
        results = {}
    evaluations = []
    for claim in claims:
        experiment = claim.experiment
        if experiment.name not in results:
            results[experiment.name] = experiment.run()
        evaluations.append((claim, *claim.check(results[experiment.name])))
    return evaluations


def render_claims(evaluations):
    """``repro verify``'s report: one line per claim, then the tally."""
    table = format_table(
        [{"claim": claim.id, "section": claim.section,
          "paper": _fmt(claim.paper), "measured": _fmt(measured),
          "band": str(claim.band), "result": "PASS" if passed else "FAIL"}
         for claim, measured, passed in evaluations],
        ["claim", "section", "paper", "measured", "band", "result"],
        title="Paper claims, re-measured",
    )
    verified = sum(1 for _claim, _measured, passed in evaluations if passed)
    return "%s\n\n%d/%d claims verified\n" % (table, verified,
                                              len(evaluations))
