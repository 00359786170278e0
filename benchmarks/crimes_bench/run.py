"""End-to-end CRIMES benchmark: epoch loop, fleet round, case service.

Usage (from the repository root)::

    python3 benchmarks/crimes_bench/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out SPANS.jsonl] [--log RUNS.jsonl]

Without ``--workload`` every workload runs, each in a fresh Python
process. Each run prints its metrics by name with their unit, its
correctness checks and the host it ran on; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
runs the workload twice for half the time each, untraced and then with
spans around every layer's public functions, and reports the per-layer
metrics plus the tracing overhead; ``--out`` receives the spans as JSON
lines. ``--log`` appends the full result to a JSON-lines file that
``compare.py`` reads. The exit status is non-zero when a check fails.
"""

import argparse
import json
import logging
import os
import platform
import statistics
import subprocess
import sys

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "expected_seed0.json")


def host_probe():
    """Host speed now: the median of 15 runs of the scaling kernel, in ms."""
    return statistics.median(hostspeed.kernel() for _ in range(15)) * 1000.0


def git_rev():
    """The checkout's commit, read from ``.git`` (``unknown`` outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info():
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": "numpy" in sys.modules,
        "git_rev": git_rev(),
    }


def measure(workload, seed=0, seconds=None, trace=False, out=None,
            overrides=None, check_at=None, setup_repeats=None):
    """Run one workload; returns the result dict ``main`` prints.

    ``overrides`` resizes the workload (tests use tiny guests); golden
    digests are checked only for seed 0 at the default size.
    """
    import catalog
    import workloads
    from layers import LayerTracer, epoch_targets

    seconds = catalog.RUN_SECONDS if seconds is None else seconds
    overrides = overrides or {}
    setup_repeats = (workloads.SETUP_REPEATS if setup_repeats is None
                     else setup_repeats)
    run = workloads.WORKLOADS[workload]
    probe_before = host_probe()
    if trace:
        plain = run(workloads.RunContext(seed, seconds / 2.0,
                                         setup_repeats=1,
                                         check_at=check_at), **overrides)
        tracer = LayerTracer(
            out=out,
            virtual_at=check_at or workloads.CHECK_AT[workload])
        # The case service traces itself, inside its launcher process.
        in_process = workload != "case_service"
        with tracer.installed(epoch_targets() if in_process else [],
                              fleet=workload == "fleet_store"):
            traced = run(workloads.RunContext(seed, seconds / 2.0,
                                              tracer=tracer, setup_repeats=1,
                                              check_at=check_at),
                         **overrides)
        outcomes = [plain, traced]
    else:
        outcomes = [run(workloads.RunContext(seed, seconds,
                                             setup_repeats=setup_repeats,
                                             check_at=check_at),
                        **overrides)]
    probe_after = host_probe()

    problems = [problem for outcome in outcomes
                for problem in outcome.problems]
    digests = [json.loads(json.dumps(outcome.digest))
               for outcome in outcomes]
    if trace and digests[0] != digests[1]:
        problems.append("traced digest differs from the untraced one")
    if seed == 0 and not overrides and check_at is None:
        with open(GOLDEN) as handle:
            expected = json.load(handle).get(workload)
        if any(digest != expected for digest in digests):
            problems.append("digest differs from expected_seed0.json")

    last = outcomes[-1]
    if trace:
        # A layer the workload does not exercise reads 0.
        metrics = {m.name: 0.0 for m in catalog.PER_LAYER}
        metrics.update(last.layers)
        plain_rate = plain.metrics["throughput_per_s"]
        traced_rate = traced.metrics["throughput_per_s"]
        metrics["trace.overhead_ops_per_s"] = plain_rate - traced_rate
        metrics["trace.overhead_p50_pct"] = 100.0 * (
            traced.metrics["latency_p50_ms"]
            / plain.metrics["latency_p50_ms"] - 1.0)
        metrics["host.probe_ms"] = (probe_before + probe_after) / 2.0
        table = catalog.PER_LAYER
    else:
        metrics = dict(last.metrics)
        table = catalog.END_TO_END
    names = {m.name for m in table}
    missing = sorted(names - set(metrics))
    unknown = sorted(set(metrics) - names)
    if missing or unknown:
        problems.append("metrics not measured: %s; not in the catalog: %s"
                        % (missing, unknown))
    failed = sum(o.failed for o in outcomes)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems and failed == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in table if m.name in metrics},
        "end_to_end": {outcome_name: outcome.metrics
                       for outcome_name, outcome
                       in zip(("untraced", "traced"), outcomes)},
        "problems": problems,
        "digests": digests,
        "info": dict(last.info, host_probe_ms=[probe_before, probe_after],
                     host=host_info()),
    }


def contract_line(result):
    """The final stdout line: exactly the four contract keys."""
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")},
                      sort_keys=True)


def print_report(result):
    from workloads import WARMUP

    info = result["info"]
    host = info["host"]
    print("crimes_bench %s seed=%d seconds=%g trace=%d"
          % (result["workload"], result["seed"], result["seconds"],
             result["trace"]))
    print("host: cpu_count=%s affinity=%s python=%s numpy=%s rev=%s"
          % (host["cpu_count"], host["affinity"], host["python"],
             "yes" if host["numpy"] else "no", host["git_rev"][:12]))
    print("host_probe_ms: before=%.2f after=%.2f"
          % tuple(info["host_probe_ms"]))
    print("ops: %s measured after %d warm-up%s"
          % (info.get("ops"), WARMUP,
             " (stopped early: slow host)" if info.get("capped") else ""))
    for key in ("setup_runs", "host_speed", "raw", "tail_note", "rollbacks",
                "cases", "posts", "over_limit_rate"):
        if key in info:
            print("%s: %s" % (key, info[key]))
    if result["trace"]:
        for label, values in result["end_to_end"].items():
            print("%s: %s" % (label, ", ".join(
                "%s=%.4g" % item for item in sorted(values.items()))))
    for name, entry in result["metrics"].items():
        print("%-36s %14.4f %s" % (name, entry["value"], entry["unit"]))
    print("digest: %s" % json.dumps(result["digests"][-1], sort_keys=True))
    print("attempted=%d failed=%d" % (result["attempted"], result["failed"]))
    if result["problems"]:
        for problem in result["problems"]:
            print("CHECK FAILED: %s" % problem)
    else:
        print("checks: ok")


def run_all(args):
    """Each workload in a fresh interpreter; one combined final line."""
    import catalog

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in catalog.ORDER:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.out:
            command += ["--out", "%s.%s" % (args.out, workload)]
        if args.log:
            command += ["--log", args.log]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=900)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode != 0:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            print("%s: no result (exit %d)" % (workload, child.returncode))
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = entry
        print()
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end CRIMES benchmark (see module docstring).")
    parser.add_argument("--workload", default=None,
                        help="one workload; default: all, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1,
                        help="1 (or the bare flag): per-layer traced run")
    parser.add_argument("--out", default=None,
                        help="JSON-lines span file (with --trace 1)")
    parser.add_argument("--log", default=None,
                        help="append the full result to this JSON-lines "
                             "file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("crimes_bench: no CRIMES source tree at %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    logging.getLogger("repro").setLevel(logging.ERROR)
    import catalog

    if args.seconds is None:
        args.seconds = catalog.RUN_SECONDS
    if args.workload is None:
        return run_all(args)
    if args.workload not in catalog.WORKLOADS:
        parser.error("unknown workload %r (known: %s)"
                     % (args.workload, ", ".join(catalog.ORDER)))

    out = open(args.out, "w") if args.out and args.trace else None
    try:
        result = measure(args.workload, seed=args.seed,
                         seconds=args.seconds, trace=bool(args.trace),
                         out=out)
    finally:
        if out is not None:
            out.close()
    print_report(result)
    if args.log:
        with open(args.log, "a") as handle:
            handle.write(json.dumps(result, sort_keys=True) + "\n")
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
