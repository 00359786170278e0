"""Compare a parent and a change from alternating benchmark runs.

Usage::

    python3 benchmarks/crimes_bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file is a ``run.py --log`` file (one result per line). Runs are
paired by position within each workload, so run the two commits in
alternating order with the same seeds and settings. Untraced runs only.

For every workload and end-to-end metric it prints one row: the two
medians with their quartiles, the change in percent, the pairs the
change won, and a verdict:

``gain``        the change won at least 9 of every 10 pairs (ties count
                for neither) and the medians differ by more than the
                parent's own quartile spread; needs at least 10 pairs
                (with fewer the row reads ``too few pairs``)
``regression``  the change's median is worse than the parent's by more
                than the metric's bound
``unresolved``  the run-to-run spread exceeds the bound, so "no change"
                cannot be told apart from noise (unless every change run
                beats every parent run)
``no change``   within the bound

A gain does not count when the change failed more operations. The exit
status is 1 when any row is a regression or any run was incorrect.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from catalog import END_TO_END  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """``{workload: [result, ...]}`` of the untraced runs in ``path``."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            result = json.loads(line)
            if result.get("trace"):
                continue
            runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values):
    """``(q1, median, q3)`` exactly as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median)


def count_wins(metric, parent, change):
    """``(wins, losses)`` of the change over position-paired runs."""
    wins = losses = 0
    for old, new in zip(parent, change):
        if metric.improved(new, old):
            wins += 1
        elif metric.improved(old, new):
            losses += 1
    return wins, losses


def verdict(metric, parent, change, failed_parent=0, failed_change=0):
    """Classify one workload/metric comparison (see module docstring)."""
    pairs = min(len(parent), len(change))
    wins, _losses = count_wins(metric, parent, change)
    p_q1, p_med, p_q3 = quartiles(parent)
    _c_q1, c_med, _c_q3 = quartiles(change)
    if (wins >= WIN_SHARE * pairs and metric.improved(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        if pairs < MIN_PAIRS:
            return "too few pairs"
        if failed_change > failed_parent:
            return "gain void: more failures"
        return "gain"
    if metric.worse_by(c_med, p_med) > metric.bound:
        return "regression"
    all_better = all(metric.improved(new, old)
                     for new in change for old in parent)
    if max(spread(parent), spread(change)) > metric.bound \
            and not all_better:
        return "unresolved"
    return "no change"


def compare(parent_runs, change_runs):
    """Rows ``(workload, metric, parent, change, delta, wins, verdict)``."""
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        old_runs = parent_runs[workload]
        new_runs = change_runs[workload]
        pairs = min(len(old_runs), len(new_runs))
        failed_old = sum(run["failed"] for run in old_runs[:pairs])
        failed_new = sum(run["failed"] for run in new_runs[:pairs])
        for metric in END_TO_END:
            old = [run["metrics"][metric.name]["value"]
                   for run in old_runs[:pairs]]
            new = [run["metrics"][metric.name]["value"]
                   for run in new_runs[:pairs]]
            wins, _losses = count_wins(metric, old, new)
            old_q = quartiles(old)
            new_q = quartiles(new)
            delta = 100.0 * (new_q[1] - old_q[1]) / old_q[1]
            rows.append((workload, metric, old_q, new_q, delta,
                         "%d/%d" % (wins, pairs),
                         verdict(metric, old, new, failed_old, failed_new)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark logs.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent_runs = load(args.parent)
    change_runs = load(args.change)
    rows = compare(parent_runs, change_runs)
    print("%-15s %-17s %-26s %-26s %8s %6s  %s"
          % ("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "delta", "wins", "verdict"))
    for workload, metric, old_q, new_q, delta, wins, outcome in rows:
        print("%-15s %-17s %-26s %-26s %+7.1f%% %6s  %s"
              % (workload, metric.name,
                 "%.4g [%.4g, %.4g]" % (old_q[1], old_q[0], old_q[2]),
                 "%.4g [%.4g, %.4g]" % (new_q[1], new_q[0], new_q[2]),
                 delta, wins, outcome))
    incorrect = [run for runs in (parent_runs, change_runs)
                 for results in runs.values() for run in results
                 if not run["correct"]]
    if incorrect:
        print("%d run(s) failed their correctness checks" % len(incorrect))
    bad = incorrect or any(row[-1] == "regression" for row in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
