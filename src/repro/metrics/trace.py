"""ASCII execution traces (a textual Figure 2).

Renders a sequence of :class:`~repro.core.crimes.EpochRecord` as the
paper's timeline: speculative execution segments, pause segments with
their audit verdicts, and what each commit released. Useful in examples
and operator tooling.
"""

_SPECULATE_CHAR = "="
_PAUSE_CHAR = "#"


def render_epoch_trace(records, width=64):
    """One line per epoch: proportional speculate/pause bars + verdict.

    The verdict follows the record's outcome: ``pass`` (with what the
    commit released), ``held``, ``rolled back``, or ``FAIL: <kinds>``
    for an attack. ``width`` columns represent the longest epoch's
    (interval + pause).
    """
    if not records:
        return "(no epochs)"
    scale = max(record.interval_ms + record.pause_ms for record in records)
    lines = [
        "epoch  timeline (%s speculate, %s pause)%s verdict"
        % (_SPECULATE_CHAR, _PAUSE_CHAR, " " * max(width - 36, 1)),
    ]
    for record in records:
        speculate_cols = max(int(record.interval_ms / scale * width), 1)
        pause_cols = max(int(record.pause_ms / scale * width), 1)
        bar = (_SPECULATE_CHAR * speculate_cols
               + _PAUSE_CHAR * pause_cols).ljust(width + 2)
        if record.outcome == "committed":
            verdict = "pass"
            if record.released_packets or record.released_disk_writes:
                verdict += " (released %dp/%dw)" % (
                    record.released_packets, record.released_disk_writes,
                )
        elif record.outcome == "held":
            verdict = "held"
        elif record.outcome == "rolled-back":
            verdict = "rolled back"
        else:
            verdict = "FAIL: %s" % ", ".join(
                sorted({finding.kind for finding in
                        record.detection.critical_findings()})
            )
        lines.append("%5d  %s %s" % (record.epoch, bar, verdict))
    return "\n".join(lines)


def render_phase_bars(phase_ms, width=40):
    """Horizontal bars for one epoch's pause-phase breakdown (Figure 4)."""
    total = sum(phase_ms.values())
    if total <= 0:
        return "(no pause)"
    lines = []
    for phase, value in phase_ms.items():
        columns = int(round(value / total * width))
        lines.append(
            "%-8s %-*s %6.2f ms (%4.1f%%)"
            % (phase, width, "#" * columns, value, 100 * value / total)
        )
    return "\n".join(lines)
