"""The repo's benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload serve_cold --seed 11 --seconds 16 --trace 0
    python3 bench/run.py --workload serve_cold --trace 1     # per-layer run
    python3 bench/run.py --repeat 5 --out bench/out/a.json   # all workloads

With ``--workload`` it runs that workload in this interpreter, prints
each metric, and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``) -- the contract ``BENCHMARK.json`` is checked
against.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` is the separate traced run that yields the per-layer
metrics and writes the span file to ``bench/out/``.  Without
``--workload`` it runs every workload, each in a fresh interpreter,
``--repeat`` times, and writes one enveloped result file that
``bench/compare.py`` reads.

The exit code is non-zero when any operation failed or any answer
differed from ``evaluate_centralized``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

#: Set-ups per run: this interpreter's own plus fresh child
#: interpreters; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def adopt_orphans() -> None:
    """Make this process the one its orphaned descendants fall to.

    ``MultiprocessEvaluator`` writes to shared memory, which starts
    Python's ``resource_tracker``: a process that outlives the
    interpreter that started it.  As a subreaper (Linux ``prctl`` 36)
    this run can wait for that one and any like it, whichever
    interpreter of the run started it.
    """
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    except (ImportError, OSError, AttributeError):
        pass  # not Linux: own children are still waited for


def child_pids() -> list:
    """Processes whose parent is this one, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stream:
                    # "pid (comm) state ppid ..."; comm may hold ")".
                    fields = stream.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue  # ended while we looked
            if int(fields[1]) == me:
                found.append(int(entry))
    return found


def stop_processes(grace_s: float = 10.0) -> None:
    """Stop every process this run started; return when each has ended.

    The resource tracker ends by itself once its pipe is closed; what
    is still there after *grace_s* is killed.  Either way every child,
    adopted ones too, is waited for.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # private API: the loop below covers its absence
        pass
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid == 0:
            if time.monotonic() > deadline:
                for child in child_pids():
                    try:
                        os.kill(child, 9)
                    except OSError:
                        pass
            time.sleep(0.01)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as stream:
        return json.load(stream)


def envelope(args) -> dict:
    """Where and on what these numbers were taken."""
    import numpy

    from repro.kernels import kernels_backend

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_rev": revision,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "kernels_backend": kernels_backend(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repetitions": args.repeat,
    }


# -- one workload, this interpreter ------------------------------------------


def child_command(args, *extra: str) -> list:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]
    if args.smoke:
        command.append("--smoke")
    return command


def setup_samples(args, first: float) -> list:
    """This run's set-up time plus fresh interpreters' (import included)."""
    samples = [first]
    # The smoke run checks the harness, not the numbers: one sample.
    for _ in range(0 if args.smoke else SETUP_SAMPLES - 1):
        done = subprocess.run(
            child_command(args, "--workload", args.workload, "--setup-only"),
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end_run(args, workload, import_s: float, _names: list) -> tuple:
    drive = workload.drive(args.seconds)
    metrics = {
        "latency_p50_ms": drive.latency_p50_ms,
        "throughput_qps": drive.throughput_qps,
        "slo_ok_share": drive.slo_ok_share(workload.slo_ms),
        "peak_rss_mb": drive.peak_rss_mb,
        "setup_s": statistics.median(
            setup_samples(args, import_s + drive.setup_s)
        ),
    }
    return drive, metrics, {}


def ledger_metrics(pairs: list, names: list) -> dict:
    """The declared ``serving.ledger.<phase>.ms`` metrics.

    *pairs* holds, per traced operation, the latency the load generator
    saw and the phases the program's ledger attributed.  The phases are
    means over the middle fifth of operations by latency, so that they
    sum to the median operation; ``untiled_share`` is what of that
    latency they leave unexplained.
    """
    ordered = sorted(pairs, key=lambda pair: pair[0])
    band = ordered[int(0.4 * len(ordered)): int(0.6 * len(ordered)) + 1]
    metrics = {
        name: sum(
            phases.get(name.split(".")[2], 0.0) for _seen, phases in band
        ) / max(1, len(band))
        for name in names
        if name.startswith("serving.ledger.") and name.endswith(".ms")
    }
    seen = sum(latency for latency, _phases in band)
    metrics["serving.ledger.untiled_share"] = (
        1.0 - sum(metrics.values()) * len(band) / seen if band else 0.0
    )
    return metrics


def traced_run(args, workload, import_s: float, names: list) -> tuple:
    """Untraced and traced drives of a quarter run each, then the
    layer replay and probes in the remaining half."""
    from layers import LayerRun, Spans
    from workloads import percentile

    spans = Spans()
    share = args.seconds / 4
    plain = workload.drive(share)
    drive = workload.drive(share, traced=True)
    for name, start, end, query in drive.op_spans:
        spans.add(name, start, end, query=query)
    layer = LayerRun(workload, spans, budget_s=args.seconds / 2)
    layer.run()
    metrics, missing = layer.metrics, layer.missing

    if workload.tracing_missing:
        missing["obs.tracing_overhead_share"] = workload.tracing_missing
    else:
        metrics["obs.tracing_overhead_share"] = (
            1.0 - drive.throughput_qps / plain.throughput_qps
        )
    metrics["obs.tracing_overhead_samples"] = (
        len(plain.latencies_ms) + len(drive.latencies_ms)
    )

    observed = drive.observed
    latencies = sorted(drive.latencies_ms)
    ledgers = observed.get("ledgers", {})
    metrics.update(ledger_metrics(
        [
            ((end - start) * 1000.0, ledgers[query])
            for _name, start, end, query in drive.op_spans
            if query in ledgers
        ],
        names,
    ))
    lookups = observed.get("cache_hits", 0) + observed.get("cache_misses", 0)
    metrics["serving.cache.hit_ratio"] = (
        observed.get("cache_hits", 0) / lookups if lookups else 0.0
    )
    metrics["serving.cache.evictions"] = observed.get("cache_evictions", 0)
    groups = observed.get("groups_dispatched", 0)
    metrics["serving.admission.queries_per_group"] = (
        observed.get("grouped_queries", 0) / groups if groups else 0.0
    )
    metrics["serving.fallbacks"] = observed.get("fallbacks", 0)
    applies = observed.get("apply_ms", [])
    metrics["serving.append.quiesce_ms"] = (
        statistics.median(drive.append_ms) - statistics.median(applies)
        if applies else 0.0
    )
    for action in ("patched", "regional", "stale"):
        if action in observed:  # the workload's own appends, not the probe
            metrics[f"serving.incremental.{action}"] = observed[action]
            missing.pop(f"serving.incremental.{action}", None)

    lateness = sorted(drive.lateness_ms)
    metrics["loadgen.lateness_p95_ms"] = (
        percentile(lateness, 0.95) if lateness else 0.0
    )
    metrics["loadgen.sent"] = drive.attempted
    metrics["loadgen.ok"] = drive.attempted - drive.failed
    metrics["loadgen.failed"] = drive.failed
    for name, fraction in (("p90", 0.90), ("p95", 0.95), ("p99", 0.99)):
        metrics[f"loadgen.latency_{name}_ms"] = percentile(
            latencies, fraction
        )
    metrics["loadgen.append_p50_ms"] = (
        statistics.median(drive.append_ms) if drive.append_ms else 0.0
    )
    metrics["loadgen.cpu_ms_per_op"] = drive.cpu_s * 1e3 / drive.attempted
    metrics["loadgen.steal_share"] = drive.steal_share
    metrics["loadgen.setup_s"] = import_s + drive.setup_s
    metrics["bench.spans"] = len(spans.rows) + spans.dropped

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    with open(span_file, "w") as stream:
        json.dump(
            {"workload": workload.name, "seed": args.seed,
             "dropped": spans.dropped, "self_time_s": spans.self_times(),
             "spans": spans.rows},
            stream,
        )
    drive.failed += plain.failed
    drive.attempted += plain.attempted
    drive.failures += plain.failures
    return drive, metrics, missing


def run_one(args) -> int:
    spec = load_spec()
    import workloads

    import_s = workloads.import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, args.smoke
    )
    if args.setup_only:
        print(import_s + workload.setup_only())
        return 0

    declared = spec["per_layer" if args.trace else "end_to_end"]
    runner = traced_run if args.trace else end_to_end_run
    drive, measured, missing = runner(
        args, workload, import_s, [entry["name"] for entry in declared]
    )

    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in measured and name not in missing:
            missing[name] = "not measured by this run"
        metrics[name] = {
            "value": measured.get(name, 0.0), "unit": entry["unit"],
        }
        print(f"{name:46s} {metrics[name]['value']:>16.6g} {entry['unit']}")
    for name, reason in sorted(missing.items()):
        print(f"missing: {name}: {reason}", file=sys.stderr)
    for why in drive.failures:
        print(f"failed: {why}", file=sys.stderr)
    print(
        f"host steal during the load loop: {drive.steal_share:.1%} "
        "(timings are net of it)", file=sys.stderr,
    )
    undeclared = sorted(set(measured) - set(metrics))
    if undeclared:
        print(f"undeclared metrics dropped: {undeclared}", file=sys.stderr)

    result = {
        "correct": drive.failed == 0,
        "attempted": drive.attempted,
        "failed": drive.failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w") as stream:
            json.dump(
                {**result, "workload": args.workload, "trace": args.trace,
                 "sizes": workload.sizes, "missing": missing,
                 "inputs_digest": workload.inputs_digest(),
                 "envelope": envelope(args)},
                stream, indent=1,
            )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, fresh interpreters ---------------------------------------


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return None, None
    first, _median, third = statistics.quantiles(values, n=4)
    return first, third


def run_all(args) -> int:
    spec = load_spec()
    directions = {
        entry["name"]: entry
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    combined = {"envelope": None, "workloads": {}}
    status = 0
    OUT.mkdir(exist_ok=True)
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = []
        for _ in range(args.repeat):
            with tempfile.TemporaryDirectory(dir=OUT) as scratch:
                out = Path(scratch) / "run.json"
                done = subprocess.run(
                    child_command(
                        args, "--workload", name, "--trace", str(args.trace),
                        "--out", str(out),
                    ),
                    stdout=subprocess.DEVNULL, timeout=600,
                )
                status = status or done.returncode
                if out.exists():
                    with open(out) as stream:
                        runs.append(json.load(stream))
        if not runs:
            print(f"{name}: no result", file=sys.stderr)
            continue
        combined["envelope"] = {
            **runs[0]["envelope"], "repetitions": len(runs),
        }
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            first, third = quartiles(values)
            summary[metric] = {
                "unit": directions[metric]["unit"],
                "better": directions[metric]["better"],
                "bound": directions[metric].get("bound"),
                "median": statistics.median(values),
                "q1": first, "q3": third, "n": len(values),
                "values": values,
            }
            print(
                f"{name:16s} {metric:46s} "
                f"{summary[metric]['median']:>16.6g} "
                f"{summary[metric]['unit']}"
            )
        combined["workloads"][name] = {
            "sizes": runs[0]["sizes"],
            "inputs_digest": runs[0]["inputs_digest"],
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "missing": runs[0]["missing"],
            "metrics": summary,
        }
    out = Path(args.out) if args.out else (
        OUT / f"run-{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as stream:
        json.dump(combined, stream, indent=1)
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload here "
                        "(default: all, each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run with per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the harness's own test")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload when running all")
    parser.add_argument("--out", help="write the enveloped result here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(
            load_spec()["run_seconds"]
        )
    adopt_orphans()
    try:
        return run_all(args) if args.workload is None else run_one(args)
    finally:
        stop_processes()


if __name__ == "__main__":
    sys.exit(main())
