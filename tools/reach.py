"""Reach report: which code in ``src/repro`` the product's users enter.

Runs every user of the product, each in its own interpreter:

* the twelve CLI subcommands on the ``examples/queries`` inputs, every
  flag at least once;
* ``examples/*.py``;
* ``bench/run.py --smoke`` for every workload, untraced and traced;
* ``tools/serve_smoke.py`` in its three modes and both CI legs of
  ``tools/chaos_smoke.py``;
* ``pytest benchmarks``, the Figure 4 job.

A profile hook (``sys.setprofile`` and ``threading.setprofile``)
records every ``src/repro`` code object a process enters.  It goes in
through a generated ``sitecustomize`` on ``PYTHONPATH``, so the child
interpreters a user starts are recorded as well, and forked pool
workers inherit it.  Each process appends a code object to its own file
the first time it enters it, so a worker that leaves through
``os._exit``, a ``SIGTERM`` from its pool or a chaos kill still counts.

The report, ``docs/reach.md`` by default, lists the users with their
exit status, the function lines reached per module, the modules no user
imported, and every definition no user entered.  A function line
belongs to its innermost ``def`` and is reached when that ``def`` was
entered.  A failing user is recorded and does not stop the run.  Stdlib
only; run from anywhere::

    python tools/reach.py [--out docs/reach.md]
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
QUERIES = "examples/queries"
WEBLOG = f"{QUERIES}/weblog.cq"
CTR = f"{QUERIES}/weblog_ctr.cq"
TREND = f"{QUERIES}/hourly_trend.cq"
SHARE = f"{QUERIES}/rollup_share.cq"
PAPER = ("--schema", "paper", "--days", "20")

SITECUSTOMIZE = """\
import importlib.util
import sys
_spec = importlib.util.spec_from_file_location("_reach_hook", {tool!r})
_module = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = _module
_spec.loader.exec_module(_module)
_module.install({out!r}, {package!r})
"""


# -- the hook, installed in every interpreter a user starts ------------------


def install(out_dir: str, package: str) -> None:
    """Record each code object under *package* this process enters."""
    prefix = package + os.sep
    entered = {}  # id -> code; holding the code keeps its id unique
    files = {}  # pid -> fd, so a forked child writes its own file

    def record(code) -> None:
        filename = os.path.abspath(code.co_filename)
        if not filename.startswith(prefix):
            return
        pid = os.getpid()
        if pid not in files:
            files[pid] = os.open(
                os.path.join(out_dir, f"{pid}.tsv"),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
            )
        line = f"{filename[len(prefix):]}\t{code.co_firstlineno}\t" \
               f"{code.co_name}\n"
        os.write(files[pid], line.encode())

    def hook(frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            if id(code) not in entered:
                entered[id(code)] = code
                record(code)

    sys.setprofile(hook)
    threading.setprofile(hook)


# -- the users ---------------------------------------------------------------


@dataclass(frozen=True)
class User:
    """One process to run: *argv* after the interpreter, from the repo
    root; ``{work}`` is the run's scratch directory, and a callable item
    is called with it just before the run."""

    group: str
    name: str
    argv: tuple
    expect: int = 0


def first_trace_id(path: str) -> str:
    with open(path) as stream:
        return json.loads(stream.readline())["trace_id"]


def cli(name: str, *argv, expect: int = 0) -> User:
    return User("cli", name, ("-m", "repro", *argv), expect)


CLI_USERS = (
    cli("plan", "plan", WEBLOG, "--explain", "--tree",
        "--dot", "{work}/weblog.dot", "-v"),
    cli("plan-paper", "plan", TREND, *PAPER, "--skew", "--records", "2000",
        "--machines", "8", "--seed", "3", "-q"),
    cli("explain-json", "explain", WEBLOG, "--days", "1", "--records",
        "2000", "--sampling", "--format", "json",
        "--out", "{work}/explain.json"),
    cli("explain-dot", "explain", SHARE, *PAPER, "--records", "2000",
        "--format", "dot"),
    cli("run", "run", WEBLOG, "--records", "4000", "--machines", "6",
        "--days", "1", "--csv", "{work}/out.csv", "--gantt",
        "--telemetry", "{work}/run.jsonl", "--prom", "{work}/run.prom",
        "--profile", "{work}/run.folded"),
    cli("run-skew", "run", TREND, *PAPER, "--skew", "--sampling",
        "--records", "4000", "--seed", "3"),
    cli("run-naive", "run", WEBLOG, "--naive", "--records", "2000",
        "--days", "1", "--machines", "6"),
    cli("run-chaos", "run", CTR, "--early-aggregation", "--records",
        "3000", "--days", "1", "--machines", "10", "--chaos", "7"),
    cli("run-dead", "run", WEBLOG, "--records", "2000", "--days", "1",
        "--machines", "4", "--fail-machines", "3,0,1", expect=1),
    cli("batch-cold", "batch", WEBLOG, CTR, "--records", "4000",
        "--machines", "6", "--days", "1", "--cache-dir", "{work}/bcache",
        "--manifest", "{work}/batch.json", "--csv-dir", "{work}/csv",
        "--telemetry", "{work}/batch.jsonl",
        "--prom", "{work}/batch.prom"),
    cli("batch-warm", "batch", WEBLOG, CTR, "--records", "4000",
        "--machines", "6", "--days", "1", "--cache-dir", "{work}/bcache"),
    cli("batch-chaos", "batch", WEBLOG, CTR, "--records", "3000",
        "--days", "1", "--machines", "10", "--chaos", "3",
        "--fail-machines", "1", "--group-retries", "2"),
    cli("explain-batch", "explain", "--batch", WEBLOG, CTR, "--days", "1",
        "--records", "4000", "--machines", "6",
        "--cache-dir", "{work}/bcache"),
    cli("append", "append", "--records", "4000", "--partitions", "3",
        "--seed", "3", "--verify", "--manifest", "{work}/append.json",
        "--telemetry", "{work}/append.jsonl",
        "--prom", "{work}/append.prom"),
    cli("append-weblog", "append", WEBLOG, "--schema", "weblog",
        "--records", "3000", "--partitions", "3", "--machines", "6",
        "--recompute-full", "--cache-dir", "{work}/acache", "--verify"),
    cli("append-cold", "append", TREND, *PAPER, "--skew",
        "--records", "3000", "--no-warm"),
    cli("loadgen", "loadgen", WEBLOG, CTR, "--days", "1", "--rate", "30",
        "--duration", "1", "--seed", "3", "--tenants", "2",
        "--deadline-ms", "5000", "--deadline-jitter", "0.1",
        "--out", "{work}/arrivals.jsonl"),
    cli("serve", "serve", WEBLOG, CTR, "--trace", "{work}/arrivals.jsonl",
        "--records", "3000", "--days", "1", "--machines", "6",
        "--speed", "0", "--window-ms", "20", "--merge-patience", "2",
        "--max-group-size", "4", "--queue-depth", "8", "--max-inflight",
        "1", "--max-pending", "32", "--quota-capacity", "20",
        "--quota-rate", "10", "--cache-spill", "{work}/spill",
        "--max-cache-bytes", "50000000", "--cache-ttl", "600",
        "--manifest", "{work}/serve.json",
        "--trace-spans", "{work}/serve-spans.jsonl",
        "--flight-dir", "{work}/flight", "--slo-ms", "500",
        "--slo", "tenant-0=200", "--telemetry", "{work}/serve.jsonl",
        "--prom", "{work}/serve.prom"),
    cli("serve-storm", "serve", WEBLOG, "--records", "2000", "--days", "1",
        "--rate", "30", "--duration", "0.5", "--tenants", "2",
        "--deadline-ms", "5000", "--arrival-chaos", "3",
        "--storm-intensity", "0.3", "--cache-dir", "{work}/scache"),
    cli("trace", "trace", WEBLOG, "--records", "3000", "--days", "1",
        "--machines", "6", "--out", "{work}/t.json",
        "--manifest", "{work}/t.manifest.json",
        "--events", "{work}/t.jsonl", "--telemetry", "{work}/trace.jsonl",
        "--prom", "{work}/trace.prom", "--profile", "{work}/trace.folded",
        "-v"),
    cli("trace-chaos", "trace", CTR, "--records", "3000", "--days", "1",
        "--machines", "10", "--out", "{work}/t2.json",
        "--manifest", "{work}/t2.manifest.json", "--early-aggregation",
        "--sampling", "--chaos", "5", "--fail-machines", "2"),
    cli("trace-spans", "trace", "--spans", "{work}/t.jsonl",
        "--tail", "1000"),
    cli("trace-query", "trace", "--spans", "{work}/serve-spans.jsonl",
        "--query", lambda work: first_trace_id(f"{work}/serve-spans.jsonl"),
        "--chrome", "{work}/q.json"),
    cli("stats", "stats", "{work}/t.manifest.json"),
    cli("stats-serve", "stats", "{work}/serve.json"),
    cli("stats-watch", "stats", "{work}/run.jsonl", "--watch"),
    cli("top-replay", "top", "--replay", "{work}/batch.jsonl"),
    cli("top-last", "top", "--replay", "{work}/run.jsonl", "--last"),
    cli("top-follow", "top", "--follow", "{work}/trace.jsonl",
        "--interval", "0.1"),
    cli("diff", "diff", "{work}/t.manifest.json",
        "{work}/t2.manifest.json", expect=1),
    cli("diff-json", "diff", "{work}/t.manifest.json",
        "{work}/t.manifest.json", "--threshold", "0", "--json"),
    cli("demo", "demo"),
)


def users() -> list:
    found = list(CLI_USERS)
    for script in sorted((ROOT / "examples").glob("*.py")):
        found.append(User("examples", script.stem,
                          (f"examples/{script.name}",)))
    for trace in ("0", "1"):
        found.append(User(
            "bench", f"smoke-trace-{trace}",
            ("bench/run.py", "--smoke", "--trace", trace,
             "--out", f"{{work}}/bench-{trace}.json"),
        ))
    for mode in ((), ("--check-traces",), ("--append",)):
        found.append(User(
            "smoke", "serve" + "".join(mode),
            ("tools/serve_smoke.py", *mode),
        ))
    found.append(User(
        "smoke", "chaos-serve",
        ("tools/chaos_smoke.py", "--seeds", "2", "--records", "1200",
         "--serve"),
    ))
    found.append(User(
        "smoke", "chaos-process",
        ("tools/chaos_smoke.py", "--seeds", "2", "--records", "600",
         "--multiprocess", "--shm"),
    ))
    found.append(User(
        "figure4", "pytest-benchmarks",
        ("-m", "pytest", "benchmarks", "-q", "-s", "--benchmark-disable",
         "-p", "no:cacheprovider"),
    ))
    return found


def run_user(user: User, work: Path) -> tuple:
    """Run *user* under the hook; ``(exit status, seconds, entered)``."""
    trace_dir = Path(tempfile.mkdtemp(dir=work, prefix="reach-"))
    (trace_dir / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        tool=str(Path(__file__).resolve()), out=str(trace_dir),
        package=str(PACKAGE),
    ))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(trace_dir), str(SRC)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [
        item(str(work)) if callable(item) else item.format(work=work)
        for item in user.argv
    ]
    log = work / f"{user.group}-{user.name}.log"
    started = time.perf_counter()
    with open(log, "w") as stream:
        try:
            status = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=env,
                stdout=stream, stderr=subprocess.STDOUT, timeout=900,
            ).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
    seconds = time.perf_counter() - started
    if status != user.expect:
        tail = log.read_text().splitlines()[-15:]
        print(f"  {user.group}/{user.name}: exit {status}, expected "
              f"{user.expect}:", *tail, sep="\n    ", file=sys.stderr)
    entered = set()
    for path in trace_dir.glob("*.tsv"):
        for line in path.read_text().splitlines():
            module, first, name = line.split("\t")
            entered.add((module, int(first), name))
    return status, seconds, entered


# -- the package, walked with ast --------------------------------------------


@dataclass(frozen=True)
class Definition:
    """A ``def`` in a module: its ``__qualname__`` and line span, from
    the first decorator (a code object's ``co_firstlineno``) to the end."""

    qualname: str
    name: str
    first: int
    last: int


def definitions(source: str) -> list:
    """Every function and method in *source*, outer ones first."""
    found = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno]
                    + [decorator.lineno for decorator in child.decorator_list]
                )
                qualname = prefix + child.name
                found.append(
                    Definition(qualname, child.name, first, child.end_lineno)
                )
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def modules() -> dict:
    """``repro/...py`` path -> its definitions, for every module."""
    return {
        path.relative_to(SRC).as_posix(): definitions(path.read_text())
        for path in sorted(PACKAGE.rglob("*.py"))
    }


# -- the report --------------------------------------------------------------


def report(runs: list, entered: set, seconds: float) -> str:
    package = modules()
    rows, unreached, never = [], [], []
    total = reached_total = 0
    for module, defs in package.items():
        key = module[len("repro/"):]
        owner = {}
        for definition in defs:  # inner definitions overwrite outer ones
            for line in range(definition.first, definition.last + 1):
                owner[line] = definition
        hit = {
            definition for definition in defs
            if (key, definition.first, definition.name) in entered
        }
        reached = sum(1 for definition in owner.values() if definition in hit)
        imported = (key, 1, "<module>") in entered
        if not imported:
            never.append(module)
        total += len(owner)
        reached_total += reached
        rows.append(
            f"| `{module}` | {'yes' if imported else '**no**'} | "
            f"{reached} | {len(owner)} |"
        )
        unreached += [(module, d) for d in defs if d not in hit]

    unreached_lines = total - reached_total
    lines = [
        "# Reach report",
        "",
        "Which code in `src/repro` the product's users enter, written by",
        "`python tools/reach.py` (stdlib only). Each user below ran in its",
        "own interpreter under a profile hook that records every",
        "`src/repro` code object entered, in child interpreters and forked",
        "pool workers too. A function line belongs to its innermost `def`",
        "and is reached when that `def` was entered. Tests are not users:",
        "what only `tests/` reaches is listed as unreached.",
        "",
        f"**{unreached_lines:,} of {total:,} function lines "
        f"({unreached_lines / max(total, 1):.1%}), in {len(unreached)} "
        f"definitions, were entered by no user.** "
        f"Modules no user imported: "
        + (", ".join(f"`{module}`" for module in never) or "none")
        + f". The {len(runs)} users took {seconds:.0f} s.",
        "",
        "## Users",
        "",
        "| group | user | command | exit | expected | seconds |",
        "|---|---|---|---|---|---|",
    ]
    for user, status, took in runs:
        command = " ".join(
            "<trace id>" if callable(item) else item for item in user.argv
        )
        flag = "" if status == user.expect else " **unexpected**"
        lines.append(
            f"| {user.group} | {user.name} | `python {command}` | "
            f"{status}{flag} | {user.expect} | {took:.1f} |"
        )
    lines += [
        "",
        "## Modules",
        "",
        "| module | imported | function lines reached | function lines |",
        "|---|---|---|---|",
        *rows,
        "",
        "## Definitions no user entered",
        "",
    ]
    for module, definition in unreached:
        span = definition.last - definition.first + 1
        lines.append(
            f"- `{module}:{definition.qualname}` "
            f"(lines {definition.first}-{definition.last}, {span})"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "docs" / "reach.md"),
                        help="report to write (default: docs/reach.md)")
    args = parser.parse_args(argv)
    runs, entered = [], set()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        work = Path(scratch)
        for user in users():
            print(f"{user.group}/{user.name} ...", file=sys.stderr, flush=True)
            status, took, reached = run_user(user, work)
            runs.append((user, status, took))
            entered |= reached
    seconds = time.perf_counter() - started
    Path(args.out).write_text(report(runs, entered, seconds))
    failed = sum(status != user.expect for user, status, _ in runs)
    print(f"wrote {args.out}: {len(runs)} users in {seconds:.0f} s, "
          f"{failed} with an unexpected exit status", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
