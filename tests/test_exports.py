"""Every exported name has a reader.

A name in ``vosmem.__all__`` must be read somewhere other than its own
definition: loaded (as a name or an attribute) by a module of the package
other than ``__init__.py``, or mentioned as a whole word by a script, the
benchmark or the README. Tests do not count, so a name that only tests read
is dropped from the exports or deleted.
"""

import ast
import re
from pathlib import Path

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


def _other_text() -> str:
    paths = [*sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


def test_every_export_has_a_reader():
    loads, text = _package_loads(), _other_text()
    unread = [name for name in vosmem.__all__ if name != "__version__"
              and name not in loads and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unread, f"exported but read nowhere outside tests: {unread}"

