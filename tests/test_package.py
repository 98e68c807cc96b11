"""The package root: a small, documented set of names."""

import re
from pathlib import Path

import ornatag

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in ornatag.__all__:
        assert hasattr(ornatag, name), name


def test_readme_library_names_are_exported():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    used = set(re.findall(r"\bornatag\.(\w+)", library.split("```")[1]))
    assert used
    assert used <= set(ornatag.__all__)
