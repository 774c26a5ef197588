"""Every module-level function and class of the library has a caller in
library code or is exported: code with no caller goes."""

import ast
from pathlib import Path

import spinorlab

SOURCE = Path(spinorlab.__file__).parent


def _definitions_and_references():
    """The (module, name) of every module-level def and class, and the names
    that library code outside ``__init__`` reads: names, imported names and
    attributes read off a library module name (``linalg.rank``), each
    outside the definition it would name.  A method of the same name is not
    a reference.  Docstrings are constants, so a mention there does not
    count."""
    definitions, referenced = [], set()
    modules = {path.stem for path in SOURCE.glob("*.py")}
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
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
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


def test_every_import_is_read_in_its_module():
    """Every name a library module imports is read in that module, except
    the re-exports of ``__init__`` and an alias on a line marked
    ``# noqa: F401``, kept for a by-name binding outside the library."""
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unread.append(f"{path.stem}.{name}")
    assert unread == []
