"""The checked-in reach report names only code that still exists.

``docs/reach.md`` is written by ``python tools/reach.py``.  A change that
deletes or renames a module or a definition the report lists fails here
until the report is regenerated.  Static: nothing is run.
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import reach

REPORT = reach.ROOT / "docs" / "reach.md"
#: `repro/path.py` or `repro/path.py:Qual.name`, as the report writes them.
ENTRY = re.compile(r"`(repro/[\w/]+\.py)(?::([\w.<>]+))?`")


def listed() -> list:
    return ENTRY.findall(REPORT.read_text())


def test_report_lists_modules_and_definitions():
    entries = listed()
    assert any(not qualname for _module, qualname in entries)
    assert any(qualname for _module, qualname in entries)


def test_every_listed_module_exists():
    missing = sorted(
        {module for module, _ in listed()
         if not (reach.SRC / module).is_file()}
    )
    assert not missing, (
        f"docs/reach.md lists deleted modules {missing}; "
        "run python tools/reach.py"
    )


def test_every_listed_definition_exists():
    wanted = {}
    for module, qualname in listed():
        if qualname:
            wanted.setdefault(module, set()).add(qualname)
    missing = []
    for module, qualnames in sorted(wanted.items()):
        path = reach.SRC / module
        present = (
            {d.qualname for d in reach.definitions(path.read_text())}
            if path.is_file() else set()
        )
        missing += [f"{module}:{name}" for name in sorted(qualnames - present)]
    assert not missing, (
        f"docs/reach.md lists definitions that are gone: {missing[:10]}; "
        "run python tools/reach.py"
    )
