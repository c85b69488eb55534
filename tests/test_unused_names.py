"""No code that only tests reach: every top-level function, class and constant
of ``src/askplan`` is used by some module of the package, beyond its own
definition, unless ``ALLOWED`` names it with its reason.

The check reads the source files and imports nothing. A use is a name read
anywhere in a module; the package's modules reach each other only through
``from .module import name``, so a name read is how one module uses
another's definitions. Dunder names (``__version__``) are left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "askplan"

# module.name: why the name stays although no module of the package uses it
ALLOWED = {
    "__init__.asset_path": "documented API: the README shows it locating bundled files",
    "cli.run_bench": "perfbench/workloads.py calls it and perfbench/tracing.py traces it, "
                     "so removing it changes the benchmark",
    "planeval.enumerate_valid_plans": "the brute-force oracle the matcher's tests and the "
                                      "score-swaps benchmark check against",
    "plans.render_subgoal": "perfbench/workloads.py imports it, so removing it changes "
                            "the benchmark",
}


def _top_level_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unused_names(package: Path) -> set[str]:
    """The ``module.name`` of every top-level definition that no module of the
    package reads outside the body of that definition."""
    defined: set[tuple[str, str]] = set()
    # per name, the (module, top-level def or class, or None) places that read it
    readers: dict[str, set[tuple[str, str | None]]] = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text("utf-8"), str(path)).body:
            defined.update((module, name) for name in _top_level_names(stmt)
                           if not name.startswith("__"))
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add((module, owner))
    return {f"{module}.{name}" for module, name in defined
            if readers.get(name, set()) <= {(module, name)}}


def test_every_top_level_name_of_the_package_is_used_by_the_package():
    unused = unused_names(PACKAGE)
    assert unused - ALLOWED.keys() == set(), \
        "used by no module of src/askplan; delete it, or add it to ALLOWED with its reason"
    # an entry whose name is gone or now used is stale
    assert ALLOWED.keys() - unused == set()


def test_the_scan_finds_a_name_read_only_inside_its_own_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n\n"
        "def walk(n):\n    return walk(n - 1) if n else LIMIT\n\n"
        "class Kept:\n    pass\n", "utf-8")
    (tmp_path / "b.py").write_text("from .a import Kept\n\nVALUE = Kept()\n", "utf-8")
    assert unused_names(tmp_path) == {"a.walk", "b.VALUE"}
