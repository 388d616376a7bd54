"""Tests for the API documentation generator."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import gen_api_docs


class TestGenerator:
    def test_generates_every_subpackage(self):
        text = gen_api_docs.generate()
        for module_name in gen_api_docs.SUBPACKAGES:
            assert f"## {module_name}" in text

    def test_key_exports_present(self):
        text = gen_api_docs.generate()
        for name in ("ParallelEvaluator", "minimal_feasible_key",
                     "BlockScheme", "optimal_clustering_factor",
                     "parse_workflow", "SimulatedCluster"):
            assert name in text

    def test_committed_docs_cover_current_exports(self):
        """docs/api.md must mention every current public export."""
        committed = (
            Path(__file__).parent.parent / "docs" / "api.md"
        ).read_text()
        import importlib

        for module_name in gen_api_docs.SUBPACKAGES:
            module = importlib.import_module(module_name)
            for export in getattr(module, "__all__", []):
                assert export in committed, (
                    f"{module_name}.{export} missing from docs/api.md; "
                    "run python tools/gen_api_docs.py"
                )


class TestDocumentationQuality:
    def test_every_public_export_has_a_docstring(self):
        """Deliverable (e): doc comments on every public item."""
        import importlib
        import inspect

        undocumented = []
        for module_name in gen_api_docs.SUBPACKAGES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_every_module_has_a_docstring(self):
        import importlib
        import pkgutil

        import repro

        missing = []
        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(info.name)
            if not module.__doc__:
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"


class TestCommandLine:
    def test_help_prints_usage_and_writes_nothing(self, tmp_path):
        import subprocess

        script = Path(__file__).parent.parent / "tools" / "gen_api_docs.py"
        done = subprocess.run(
            [sys.executable, str(script), "--help"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "--check" in done.stdout
        assert list(tmp_path.iterdir()) == []
