"""The package data that ``pyproject.toml`` ships covers every bundled file.

CI installs the package in editable mode, where every file of the source
tree is importable, so a bundled file that no ``package-data`` glob matches
passes CI and is still missing from a wheel. Reads ``pyproject.toml`` with
the standard library alone (3.10 has no ``tomllib``)."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "askplan"


def _package_data_globs() -> list[str]:
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    section = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    assert section, "pyproject.toml has no [tool.setuptools.package-data] section"
    entry = re.search(r"^askplan\s*=\s*\[(.*?)\]", section[1], re.MULTILINE | re.DOTALL)
    assert entry, "package-data lists nothing for askplan"
    return re.findall(r'"([^"]+)"', entry[1])


def test_every_bundled_file_matches_a_package_data_glob():
    shipped = {path for pattern in _package_data_globs() for path in PACKAGE.glob(pattern)}
    bundled = {path for folder in ("prompts", "tasks", "scripts")
               for path in (PACKAGE / folder).rglob("*") if path.is_file()}
    assert bundled, "no bundled files found"
    assert sorted(path.relative_to(PACKAGE).as_posix() for path in bundled - shipped) == []
