"""``docs/API.md`` names only what the package provides.

Every backticked ``repro.…`` dotted path must import (a module, or an
attribute of the longest importable module prefix). Every
``| `names` | `module` |`` table row must list names that its module
defines and its package exports, so a row left behind for a deleted
name fails here.
"""

import importlib
import re
from pathlib import Path

import pytest

API = Path(__file__).resolve().parent.parent / "docs" / "API.md"
TEXT = API.read_text(encoding="utf-8")

DOTTED = sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", TEXT)))
PACKAGE_HEADING = re.compile(r"^## (repro(?:\.\w+)*)\b")
MODULE_ROW = re.compile(r"^\| (`[^|]*`) \| `(\w+)` \|")


def module_rows():
    """``(line, package, names, module)`` for each names/module table row."""
    rows, package = [], None
    for number, line in enumerate(TEXT.splitlines(), start=1):
        heading = PACKAGE_HEADING.match(line)
        if heading:
            package = heading.group(1)
        row = MODULE_ROW.match(line)
        if row:
            names = re.findall(r"`(\w+)", row.group(1))
            rows.append((number, package, names, row.group(2)))
    return rows


ROWS = module_rows()


def resolve(path):
    """The object a dotted ``repro.…`` path names; raises if none."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


def test_the_doc_has_references_and_rows():
    assert len(DOTTED) >= 50
    assert len(ROWS) >= 10


@pytest.mark.parametrize("path", DOTTED)
def test_dotted_path_resolves(path):
    resolve(path)


@pytest.mark.parametrize(
    "line, package, names, module", ROWS, ids=[f"{row[1]}.{row[3]}" for row in ROWS]
)
def test_row_names_are_defined_and_exported(line, package, names, module):
    assert package is not None, f"API.md:{line}: row outside a package section"
    pkg = importlib.import_module(package)
    mod = importlib.import_module(f"{package}.{module}")
    for name in names:
        assert hasattr(mod, name), f"API.md:{line}: {package}.{module} has no {name}"
        assert name in pkg.__all__, f"API.md:{line}: {package} does not export {name}"
