"""Every public name of the package, and every member of its classes, is reached.

A name that only tests load is dead weight: it either goes with its tests,
or a command, a demo or a ``verify`` row calls it.
"""

import ast
import functools
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


_MEMBER_TYPES = (staticmethod, classmethod, property, functools.cached_property)


def test_every_public_member_is_reached():
    """Each method and property of a public non-exception class is named somewhere.

    Dunder methods are called by the language, not by name, and stay out.
    So do dataclass fields: the certificate's fields reach the artifacts
    through ``asdict``, which a walk of the syntax tree cannot see.
    """
    members = set()
    for name in resonances.__all__:
        cls = getattr(resonances, name)
        if not inspect.isclass(cls) or issubclass(cls, BaseException):
            continue
        for attr, value in vars(cls).items():
            if not attr.startswith("__") and (inspect.isfunction(value)
                                              or isinstance(value, _MEMBER_TYPES)):
                members.add(f"{name}.{attr}")
    names = referenced_names()
    assert sorted(m for m in members if m.split(".")[1] not in names) == []
