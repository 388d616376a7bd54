"""Smoke test of the benchmark harness itself (not in tier-1):

    python3 -m pytest bench/tests

Runs every workload at ``--smoke`` sizes, both the end-to-end and the
traced run, and checks the output contract of ``BENCHMARK.json``; then
checks that a seed fixes the generated inputs and the exact counts.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Per-layer metrics that are counts of what a seed generates: they
#: must repeat exactly.
EXACT = [
    "optimizer.candidates_per_plan",
    "distribution.replication_ratio",
    "distribution.blocks_per_query",
    "parallel.mp.shm_bytes",
    "parallel.mp.tasks",
    "parallel.shm.leaked_segments",
    "serving.incremental.patched",
    "serving.incremental.regional",
    "serving.incremental.stale",
    "serving.cache.evictions",
    "loadgen.sent",
]


def pythons() -> set:
    """Pids of the interpreters now on this machine, zombies included."""
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                comm = (entry / "comm").read_text()
            except OSError:
                continue  # ended while we looked
            if comm.startswith("python"):
                found.add(entry.name)
    return found


def run(workload, trace, seed=3, out=None):
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    if out is not None:
        command += ["--out", str(out)]
    before = pythons()
    started = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    # The shared-memory resource tracker used to outlive the run.
    assert pythons() <= before
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [
        entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (SPEC["run_seconds"] + 10) <= 3420


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_meets_the_output_contract(workload, trace):
    result, elapsed = run(workload, trace)
    assert elapsed <= 3.0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, entry["name"]


def test_a_seed_fixes_the_inputs_and_the_counts(tmp_path):
    files = []
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        files.append(tmp_path / f"{label}.json")
        run("serve_cold", 1, seed=seed, out=files[-1])
    first, again, other = (json.loads(path.read_text()) for path in files)
    assert first["inputs_digest"] == again["inputs_digest"]
    assert first["inputs_digest"] != other["inputs_digest"]
    assert not first["missing"]
    for name in EXACT:
        assert (
            first["metrics"][name]["value"] == again["metrics"][name]["value"]
        ), name
    envelope = first["envelope"]
    for key in ("git_rev", "cpu", "nproc", "python", "numpy", "numba",
                "kernels_backend", "seed", "seconds", "repetitions"):
        assert key in envelope
