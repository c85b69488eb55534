"""Every askplan name that README.md quotes exists.

A backticked ``Name.member`` or ``module.name`` in the README, alone or as
the head of a call, whose first part is the package, one of its modules or
a class one of its modules defines, must resolve to a module, attribute or
field of the code, so that renaming or deleting one fails here until the
README follows."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import askplan

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name: importlib.import_module(f"askplan.{info.name}")
           for info in pkgutil.iter_modules(askplan.__path__)}
CLASSES = {name: value for module in MODULES.values() for name, value in vars(module).items()
           if inspect.isclass(value) and value.__module__ == module.__name__}


def _quoted_names() -> list[str]:
    """The dotted names at the head of the README's backticked spans, fenced
    code blocks left out, whose first part is askplan's."""
    heads = (re.match(r"[A-Za-z_]\w*(?:\.\w+)+(?=\(|$)", span)
             for span in re.findall(r"`([^`]+)`", re.sub(r"(?ms)^```.*?^```", "",
                                                          README.read_text("utf-8"))))
    return [head[0] for head in heads
            if head and head[0].split(".")[0] in {"askplan", *MODULES, *CLASSES}]


def _resolves(name: str) -> bool:
    first, *rest = name.split(".")
    value = askplan if first == "askplan" else MODULES.get(first) or CLASSES[first]
    for depth, part in enumerate(rest, 1):
        if inspect.ismodule(value) and not hasattr(value, part):
            try:
                value = importlib.import_module(f"{value.__name__}.{part}")
            except ImportError:
                return False
        elif hasattr(value, part):
            value = getattr(value, part)
        else:
            # a dataclass field without a class-level default
            return (depth == len(rest) and inspect.isclass(value)
                    and part in getattr(value, "__annotations__", {}))
    return True


def test_every_askplan_name_the_readme_quotes_resolves():
    assert not any(map(_resolves, ("Scenario.to_dict", "askplan.nowhere", "cli.nothing",
                                   "EpisodeConfig.seeds", "askplan.world.Nothing")))
    names = _quoted_names()
    assert len(set(names)) > 20
    assert [name for name in dict.fromkeys(names) if not _resolves(name)] == []
