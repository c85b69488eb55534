"""No code that only tests reach: every top-level function, class and constant
of ``src/askplan``, and every field, method, property and constant of its
classes, is used by some module of the package, beyond its own definition,
unless ``ALLOWED`` names it with its reason.

The check reads the source files and imports nothing. A top-level name is
used when some module reads the name; the package's modules reach each
other only through ``from .module import name``, so a name read is how one
module uses another's definitions. A member (``module.Class.member``: a
field as a dataclass or NamedTuple declares it, a method, a property, or a
constant such as an Enum member) is used when some module loads an
attribute of that name. Building an object does not count, nor does a read
through reflection (``vars``, ``getattr``), which is why such members are
allowed with the name of their reader. Dunder names (``__version__``,
``__post_init__``) are left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "askplan"

# module.name or module.Class.member: why it stays although no module of the
# package uses it
ALLOWED = {
    "__init__.asset_path": "documented API: the README shows it locating bundled files",
    "cli.run_bench": "perfbench/workloads.py calls it and perfbench/tracing.py traces it, "
                     "so removing it changes the benchmark",
    "planeval.enumerate_valid_plans": "the brute-force oracle the matcher's tests and the "
                                      "score-swaps benchmark check against",
    "plans.render_subgoal": "perfbench/workloads.py imports it, so removing it changes "
                            "the benchmark",
    **{f"cli.TaskSet.{name}": "perfbench/workloads.py builds a TaskSet positionally and "
                              "reads its version, so removing it changes the benchmark"
       for name in ("name", "version")},
    **{f"engine.EpisodeTrace.{name}": "EpisodeTrace.to_record writes it through vars(self)"
       for name in ("task_id", "initial_plan", "outcome", "abort_reason", "sr", "gc",
                    "goal_conditions")},
    **{f"world.ObjectEntity.{name}": "read through getattr over world.FLAG_IMPLICATIONS"
       for name in ("sliceable", "heatable", "coolable", "cleanable")},
    **{f"world.ObjectEntity.{name}": "read through getattr over world.FLAG_IMPLICATIONS "
                                     "and in world._scene_line"
       for name in ("is_sliced", "is_heated", "is_chilled", "is_clean")},
}


def _top_level_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _reads(node: ast.AST, place: tuple, names: dict, attrs: dict) -> None:
    """Add each name and attribute ``node`` loads, with ``place``, the
    definition it is read in."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.setdefault(sub.id, set()).add(place[:2])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs.setdefault(sub.attr, set()).add(place)


def unused_names(package: Path) -> set[str]:
    """The ``module.name`` of every top-level definition, and the
    ``module.Class.member`` of every class member, that no module of the
    package reads outside the body of that definition."""
    defined: set[tuple[str, str]] = set()
    members: set[tuple[str, str, str]] = set()
    # per name read, and per attribute loaded, the (module, top-level def or
    # class, member def) places that read it; None where there is none
    names: dict[str, set[tuple]] = {}
    attrs: dict[str, set[tuple]] = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text("utf-8"), str(path)).body:
            defined.update((module, name) for name in _top_level_names(stmt)
                           if not name.startswith("__"))
            if not isinstance(stmt, ast.ClassDef):
                _reads(stmt, (module, getattr(stmt, "name", None), None), names, attrs)
                continue
            members.update((module, stmt.name, name) for sub in stmt.body
                           for name in _top_level_names(sub) if not name.startswith("__"))
            for node in stmt.decorator_list + stmt.bases + stmt.keywords:
                _reads(node, (module, stmt.name, None), names, attrs)
            for sub in stmt.body:
                _reads(sub, (module, stmt.name, getattr(sub, "name", None)), names, attrs)
    return {f"{module}.{name}" for module, name in defined
            if names.get(name, set()) <= {(module, name)}} \
        | {f"{module}.{cls}.{name}" for module, cls, name in members
           if attrs.get(name, set()) <= {(module, cls, name)}}


def test_every_name_of_the_package_is_used_by_the_package():
    unused = unused_names(PACKAGE)
    assert unused - ALLOWED.keys() == set(), \
        "used by no module of src/askplan; delete it, or add it to ALLOWED with its reason"
    # an entry whose name is gone or now used is stale
    assert ALLOWED.keys() - unused == set()


def test_the_scan_finds_a_name_read_only_inside_its_own_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n\n"
        "def walk(n):\n    return walk(n - 1) if n else LIMIT\n\n"
        "class Kept:\n    pass\n\n"
        "class Box(NamedTuple):\n"
        "    size: int\n"
        "    label: str\n\n"
        "    def spin(self, n):\n        return self.spin(n - 1) if n else self.label\n\n"
        "    @property\n    def area(self):\n        return 0\n", "utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import Box, Kept\n\nVALUE = Kept()\n\n"
        "def show():\n    return Box(3, label='x').area\n\nshow()\n", "utf-8")
    assert unused_names(tmp_path) == {"a.walk", "b.VALUE", "a.Box.size", "a.Box.spin"}
