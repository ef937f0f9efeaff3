"""The package depends on numpy alone: every module of src/ddrobust imports
only numpy, the standard library and the package itself. Only the CLI touches
files: no other module imports json or opens a file. Every public function or
class is reached: the package or the acceptance test names it."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddrobust"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
ALLOWED = {"numpy", "ddrobust"} | set(sys.stdlib_module_names)


def imported_modules(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


# Calls that open a file, as a builtin or as a pathlib method.
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_io(path: Path) -> set[str]:
    """The json import and the file-opening calls in one source file."""
    found = {"json"} & set(imported_modules(path))
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            found |= {name} & FILE_CALLS
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert not set(imported_modules(path)) - ALLOWED


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "cli.py"}),
                         ids=lambda p: p.name)
def test_only_the_cli_touches_files(path):
    assert not file_io(path)


def test_file_io_is_caught(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import json\ndef f(p):\n    with open(p) as fh:\n        pass\n"
                      "    return p.read_text()\n", encoding="utf-8")
    assert file_io(source) == {"json", "open", "read_text"}


def test_a_third_party_import_is_caught(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import numpy as np\nfrom scipy import linalg\nfrom . import lti\n"
                      "def f():\n    import pandas.api\n", encoding="utf-8")
    assert set(imported_modules(source)) - ALLOWED == {"scipy", "pandas"}


def names_read(path: Path) -> set[str]:
    """The plain names and attribute names that one source file reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreached(modules: list[Path], readers: list[Path]) -> list[str]:
    """The public top-level functions and classes of ``modules`` that no file
    of ``modules`` or ``readers`` names, as "file:name". A static stand-in for
    "some run reaches it": methods are not checked."""
    named = set().union(*map(names_read, modules + readers))
    return [f"{path.name}:{node.name}" for path in modules
            for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in named]


def test_every_public_function_or_class_is_named_by_the_package_or_the_acceptance_test():
    # __init__.py re-exports names; an export alone reaches nothing.
    modules = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
    assert unreached(modules, [ACCEPTANCE]) == []


def test_an_unnamed_public_function_is_caught(tmp_path):
    module, reader = tmp_path / "m.py", tmp_path / "reader.py"
    module.write_text("class Used:\n    pass\ndef helper():\n    return Used()\n"
                      "def orphan():\n    pass\ndef _private():\n    pass\n", encoding="utf-8")
    reader.write_text("import m\nm.helper()\n", encoding="utf-8")
    assert unreached([module], [reader]) == ["m.py:orphan"]
