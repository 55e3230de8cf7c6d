"""Every module under src/cubictrace/, scripts/ and tests/ uses each name it
imports, and every module-level function, class and constant under
src/cubictrace/ and scripts/, and every method of such a class but the
dunders, is used somewhere."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "cubictrace").glob("*.py") if p.name != "__init__.py")
MODULES = LIBRARY + sorted((ROOT / "scripts").glob("*.py"))
# perfbench/ is left out: its worker imports modules only to warm them
IMPORTERS = MODULES + sorted((ROOT / "tests").glob("*.py"))
# every place a library name may be used from
READERS = sorted(p for d in ("src", "scripts", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _annotation_names(node) -> set[str]:
    """Names inside a quoted annotation such as -> "LaurentPolynomial"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Sequence\n\ndef f(x: 'Sequence') -> int:\n    return 1\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _name_uses(tree) -> Counter:
    """How often each name is read: as a name, an attribute, an imported name
    or a string constant (a patch target given by name)."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            uses[node.value] += 1
    return uses


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, source: str):
    """(qualified name, name, node) of each module-level def, class and
    constant and of each method of a module-level class, dunders left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    yield f"{module}.{target.id}", target.id, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, functions) and not _is_dunder(method.name):
                    yield f"{module}.{node.name}.{method.name}", method.name, method


def orphan_definitions(library: dict[str, str], readers: list[str]) -> list[str]:
    """The definitions of `library` (module name -> source; see `_definitions`)
    whose name nothing in `readers` (sources, the library's included) uses
    outside the definition itself."""
    uses: Counter = Counter()
    for source in readers:
        uses += _name_uses(ast.parse(source))
    return [qualified for module, source in library.items()
            for qualified, name, node in _definitions(module, source)
            if uses[name] == _name_uses(node)[name]]


def test_the_scan_finds_an_orphan_definition():
    library = {"m": "def used():\n    return 1\n\n\ndef orphan(n):\n    return orphan(n - 1)\n"}
    reader = "from m import used\n\nused()\n"
    assert orphan_definitions(library, [*library.values(), reader]) == ["m.orphan"]


def test_the_scan_finds_an_orphan_constant():
    library = {"m": "__all__ = ['used']\nUSED: int = 1\nORPHAN = 2\n\n\n"
                    "def used():\n    return USED\n"}
    reader = "from m import used\n\nused()\n"
    assert orphan_definitions(library, [*library.values(), reader]) == ["m.ORPHAN"]


def test_the_scan_finds_an_orphan_method():
    library = {"m": "class K:\n    def __init__(self):\n        self.used()\n\n"
                    "    def used(self):\n        return 1\n\n"
                    "    def orphan(self):\n        return self.orphan()\n"}
    reader = "from m import K\n\nK()\n"
    assert orphan_definitions(library, [*library.values(), reader]) == ["m.K.orphan"]


def test_no_orphan_definitions():
    library = {p.stem: p.read_text() for p in MODULES}
    assert orphan_definitions(library, [p.read_text() for p in READERS]) == []
