"""Execute the README "Five-minute tour" commands verbatim.

The tour promises specific commands and representative output; this
test parses the ``bash`` blocks out of the README section and runs each
``python -m repro ...`` line through :func:`repro.cli.main` in a scratch
directory, so the README cannot drift from the CLI.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
README = REPO_ROOT / "README.md"


def tour_commands() -> list[list[str]]:
    """Return the argv (after ``python -m repro``) of every tour command."""
    text = README.read_text()
    start = text.index("## Five-minute tour")
    end = text.index("## Quickstart", start)
    section = text[start:end]
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", section, flags=re.DOTALL):
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("python -m repro "):
                commands.append(shlex.split(line)[3:])
    return commands


def test_tour_covers_every_subcommand():
    commands = tour_commands()
    assert commands, "README has no Five-minute tour commands to check"
    assert {argv[0] for argv in commands} >= {
        "run", "explain", "trace", "stats", "diff", "batch",
        "loadgen", "serve", "append",
    }


@pytest.fixture
def tour_cwd(tmp_path, monkeypatch):
    shutil.copytree(
        REPO_ROOT / "examples" / "queries",
        tmp_path / "examples" / "queries",
    )
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_tour_commands_run_verbatim(tour_cwd, capsys):
    outputs = []
    for argv in tour_commands():
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, (
            f"`repro {' '.join(argv)}` exited {code}:\n{out}"
        )
        outputs.append((argv, out))

    def output(predicate):
        return [out for argv, out in outputs if predicate(argv)]

    run_out = output(lambda a: a[0] == "run")[0]
    assert "plan: key <keyword:word, time:hour(-1,0)>" in run_out
    assert "rows: 47871 across 4 measures" in run_out

    explain_out = output(
        lambda a: a[0] == "explain" and "--batch" not in a
    )[0]
    assert "chosen: <keyword:word, time:hour(-1,0)>" in explain_out

    trace_out = output(lambda a: a[0] == "trace")[0]
    assert "wrote run manifest to trace.manifest.json" in trace_out

    stats_out = output(lambda a: a[0] == "stats")[0]
    assert "schema v9" in stats_out

    cold, warm = output(lambda a: a[0] == "batch")
    assert "2 queries answered by 1 shared jobs" in cold
    assert "weblog: 47871 result rows" in cold
    assert "weblog_ctr: 47103 result rows" in cold
    assert "2 queries answered by 0 shared jobs" in warm
    assert "'hits': 7" in warm

    batch_explain = output(
        lambda a: a[0] == "explain" and "--batch" in a
    )[0]
    assert "batch plan: 2 queries" in batch_explain

    loadgen_out = output(lambda a: a[0] == "loadgen")[0]
    assert "wrote" in loadgen_out
    assert "arrivals" in loadgen_out

    serve_out = output(lambda a: a[0] == "serve")[0]
    assert "serve:" in serve_out
    assert "ok=" in serve_out
    assert "wrote run manifest to serve.manifest.json" in serve_out

    append_out = output(lambda a: a[0] == "append")[0]
    assert "warmed cache on partition 0 (2000 records, 4 stores)" in (
        append_out
    )
    assert "patched=2 regional=1 derived=1 recomputed=0" in append_out
    assert (
        "verify: 4 maintained tables bit-identical to a cold recompute "
        "over 6000 records"
    ) in append_out
