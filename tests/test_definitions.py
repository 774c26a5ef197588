"""Every module-level function and class of the library has a caller in
library code or is exported: code with no caller goes."""

import ast
from pathlib import Path

import spinorlab

SOURCE = Path(spinorlab.__file__).parent


def _definitions_and_references():
    """The (module, name) of every module-level def and class, and the names
    that library code outside ``__init__`` reads: names, attributes and
    imported names, each outside the definition it would name.  Docstrings
    are constants, so a mention there does not count."""
    definitions, referenced = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own:
                definitions.append((path.stem, own))
            if path.name == "__init__.py":
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return definitions, referenced


def test_every_definition_has_a_library_caller_or_is_exported():
    definitions, referenced = _definitions_and_references()
    assert {module for module, _ in definitions} == {path.stem for path in SOURCE.glob("*.py")} - {"__init__"}
    exported = set(spinorlab.__all__)
    dead = [f"{module}.{name}" for module, name in definitions if name not in referenced | exported]
    assert dead == []
