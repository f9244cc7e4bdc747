"""Every public name of the package, and every member of its classes, is reached.

A name that only tests load is dead weight: it either goes with its tests,
or a command, a demo or a ``verify`` row calls it.
"""

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import resonances

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for p in (ROOT / "src" / "resonances").glob("*.py") if p.name != "__init__.py"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def nodes(files):
    """Every syntax-tree node of the given files."""
    for path in files:
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def referenced_names() -> set[str]:
    """Names of every ``Name`` and ``Attribute`` node in the modules and demos."""
    names = set()
    for node in nodes(SOURCES + DEMOS):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def public_classes():
    """The public non-exception classes of the package, by name."""
    for name in resonances.__all__:
        cls = getattr(resonances, name)
        if inspect.isclass(cls) and not issubclass(cls, BaseException):
            yield name, cls


def test_every_public_name_is_reached():
    public = {name for name in resonances.__all__
              if not inspect.ismodule(getattr(resonances, name))}
    assert sorted(public - referenced_names()) == []


_MEMBER_TYPES = (staticmethod, classmethod, property, functools.cached_property)


def test_every_public_member_is_reached():
    """Each method and property of a public non-exception class is named somewhere.

    Dunder methods are called by the language, not by name, and stay out.
    """
    members = set()
    for name, cls in public_classes():
        for attr, value in vars(cls).items():
            if not attr.startswith("__") and (inspect.isfunction(value)
                                              or isinstance(value, _MEMBER_TYPES)):
                members.add(f"{name}.{attr}")
    names = referenced_names()
    assert sorted(m for m in members if m.split(".")[1] not in names) == []


def rendered_classes(fields) -> set[str]:
    """Classes whose instances the modules render whole through ``asdict``.

    The argument of an ``asdict(x.attr)`` call holds the type annotated on
    the public field ``attr``.
    """
    rendered = set()
    for node in nodes(SOURCES):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and "asdict" in (getattr(func, "id", None),
                                                        getattr(func, "attr", None))
                and isinstance(node.args[0], ast.Attribute)):
            rendered.add(node.args[0].attr)
    return {field.type for _, field in fields if field.name in rendered}


def test_every_public_field_is_read():
    """Each dataclass field of a public class is read as an attribute, or rendered.

    A field is rendered when its class's instances go through ``asdict``,
    which writes every field into an artifact.
    """
    fields = [(name, field) for name, cls in public_classes() if dataclasses.is_dataclass(cls)
              for field in dataclasses.fields(cls)]
    read = {node.attr for node in nodes(SOURCES + DEMOS) if isinstance(node, ast.Attribute)}
    rendered = rendered_classes(fields)
    assert sorted(f"{name}.{field.name}" for name, field in fields
                  if field.name not in read and name not in rendered) == []
