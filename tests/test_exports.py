"""Every public name has a reader, and public means a user reads it.

A public module-level name of any module of the package (one defined there
without a leading underscore, which covers every name in ``vosmem.__all__``)
must be read somewhere other than its own definition: loaded (as a name or an
attribute) by a module of the package other than ``__init__.py``, or
mentioned as a whole word by a script, the benchmark or the README. Tests do
not count, so a name that only tests read is made private or deleted.

A public name outside ``vosmem.__all__`` must also be named as a whole word
where a user reads it: a script, the benchmark, the README or
``pyproject.toml`` (which names the console script's ``main``). A name that
only the package itself reads is private.

Each library module states its public names once, in its own ``__all__``,
and ``vosmem.__all__`` republishes those lists in module order; ``io`` and
``cli`` are not republished, and their leading underscores alone say what
is public.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import vosmem

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vosmem"


class _Loads(ast.NodeVisitor):
    """Names loaded in a module, leaving out the loads of a function or class
    inside its own body (a method that builds its own class, a recursion)."""

    def __init__(self):
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _load(self, name: str):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._load(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._load(node.attr)
        self.generic_visit(node)


def _package_loads() -> set[str]:
    loads = _Loads()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            loads.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return loads.names


def _user_text(*extra: Path) -> str:
    """The scripts, the benchmark and the README, then ``extra``."""
    paths = [*sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md", *extra]
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


def _public_names() -> list[tuple[str, str]]:
    """(module, name) for each public name a module of the package defines
    at top level."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(path.stem, name) for name in names if not name.startswith("_")]
    return found


def _named(name: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def test_every_public_name_has_a_reader():
    loads, text, public = _package_loads(), _user_text(), _public_names()
    assert set(vosmem.__all__) - {"__version__"} <= {name for _, name in public}
    unread = [f"vosmem.{module}.{name}" for module, name in public
              if name not in loads and not _named(name, text)]
    assert not unread, f"public but read nowhere outside tests: {unread}"


LIBRARY = ("core", "harness", "memory", "metrics", "sampling")  # the modules vosmem republishes


@pytest.mark.parametrize("module", LIBRARY)
def test_each_library_module_lists_its_public_names(module):
    listed = importlib.import_module(f"vosmem.{module}").__all__
    assert sorted(listed) == sorted(name for m, name in _public_names() if m == module)


def test_the_package_republishes_the_library_lists():
    listed = [name for module in LIBRARY
              for name in importlib.import_module(f"vosmem.{module}").__all__]
    assert vosmem.__all__ == [*listed, "__version__"]


def test_public_names_outside_all_are_named_for_users():
    text = _user_text(ROOT / "pyproject.toml")
    internal = [f"vosmem.{module}.{name}" for module, name in _public_names()
                if name not in vosmem.__all__ and not _named(name, text)]
    assert not internal, f"public but read only by the package: {internal}"


# Names once public that only the package reads: each is private now (the
# parser builder as ``cli._parser``, the rest under their old name with a
# leading underscore), and no public alias is left behind.
MADE_PRIVATE = [
    ("memory", "argmax_frame"), ("io", "mask_bytes"), ("io", "json_text"),
    ("io", "jsonl_text"), ("io", "prune_record"), ("cli", "build_parser"),
    ("io", "SCHEMA_VERSION"), ("io", "TENSOR_MAGIC"), ("io", "TENSOR_VERSION"),
]


@pytest.mark.parametrize("module, name", MADE_PRIVATE, ids=[f"{m}.{n}" for m, n in MADE_PRIVATE])
def test_names_only_the_package_reads_are_private(module, name):
    namespace = vars(importlib.import_module(f"vosmem.{module}"))
    assert name not in namespace and name not in vosmem.__all__
    assert ("_parser" if name == "build_parser" else f"_{name}") in namespace
