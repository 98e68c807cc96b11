"""The package root: a small, documented set of names."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ornatag

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "ornatag").glob("*.py"))


def test_every_exported_name_resolves():
    for name in ornatag.__all__:
        assert hasattr(ornatag, name), name


def test_readme_library_names_are_exported():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    used = set(re.findall(r"\bornatag\.(\w+)", library.split("```")[1]))
    assert used
    assert used <= set(ornatag.__all__)


def test_every_public_definition_has_a_user():
    """Each public module-level def or class in src/ is named somewhere
    besides its own definition: src/, benchmarks/, the acceptance
    tests, the README or pyproject.toml.  Unit tests do not count."""
    places = SOURCES + sorted((ROOT / "benchmarks").rglob("*.py")) + [
        ROOT / "tests" / "test_acceptance.py", README, ROOT / "pyproject.toml"]
    text = "\n".join(path.read_text(encoding="utf-8") for path in places)
    unused = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and len(re.findall(rf"\b{node.name}\b", text)) < 2):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_cli_import_loads_no_test_dependency():
    """``import ornatag.cli`` in a fresh process pulls in neither scipy
    nor hypothesis: both are test dependencies, and the import is the
    start-up cost of every command."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, ornatag.cli; "
         "print(sorted(m for m in ('scipy', 'hypothesis') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert loaded.stdout.strip() == "[]"


def test_readme_config_keys_are_the_settings_table():
    from ornatag.cli import _SETTINGS
    readme = README.read_text(encoding="utf-8")
    keys = re.search(r"`--config FILE`.*?\(keys: (.*?)\)", readme, re.S)
    assert re.findall(r"`(\w+)`", keys.group(1)) == list(_SETTINGS)


def test_console_script_targets_are_callable():
    """Each ``[project.scripts]`` entry names a callable that exists."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    assert project["scripts"]
    for target in project["scripts"].values():
        module, _, attribute = target.partition(":")
        value = importlib.import_module(module)
        for name in attribute.split("."):
            value = getattr(value, name)
        assert callable(value), target
