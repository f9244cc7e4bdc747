"""Every public name of the package is reached by the library or a demo.

A name that only tests load is dead weight: it either goes with its tests,
or a command, a demo or a ``verify`` row calls it.
"""

import ast
import inspect
from pathlib import Path

import resonances

ROOT = Path(__file__).resolve().parents[1]


def referenced_names() -> set[str]:
    """Names of every ``Name`` and ``Attribute`` node in the modules and demos."""
    files = [p for p in (ROOT / "src" / "resonances").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_reached():
    public = {name for name in resonances.__all__
              if not inspect.ismodule(getattr(resonances, name))}
    assert sorted(public - referenced_names()) == []
