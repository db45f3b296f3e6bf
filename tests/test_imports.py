"""Source hygiene: every module-level import is named somewhere in its
module, no library module imports another's private name, and every
function of ``tests/helpers.py`` has a caller.  Package ``__init__``
modules are exempt from the first rule: their imports are the package's
re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that the module
    never names again, ``__future__`` features aside."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    # a quoted annotation such as "TableMap" names what it quotes
    named = {
        n.id if isinstance(n, ast.Name) else n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) or isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    return [name for name in bound if name not in named]


def private_imports(source: str) -> list[str]:
    """The leading-underscore names imported from other modules, at any
    level of the module."""
    return [
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name.startswith("_")
    ]


def test_unused_imports_are_caught():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(w, a)\ndef f() -> 'os': ...\n"
    assert unused_imports(source) == ["z"]


def test_no_module_imports_a_name_it_never_uses():
    modules = [
        path
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(modules) > 10
    found = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if (names := unused_imports(path.read_text()))
    }
    assert not found, found


def test_private_imports_are_caught():
    source = "from .a import _b, c\nfrom d import e as _e\ndef f():\n    from .g import _h\n"
    assert private_imports(source) == ["_b", "_h"]


def test_no_library_module_imports_a_private_name():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert len(modules) > 5
    found = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if (names := private_imports(path.read_text()))
    }
    assert not found, found


def names_in(tree: ast.AST) -> set[str]:
    """The names a syntax tree refers to: bare names, attributes and the
    names its ``from`` imports bring in."""
    named = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            named.add(n.id)
        elif isinstance(n, ast.Attribute):
            named.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            named.update(a.name for a in n.names)
    return named


def uncalled_helpers(helpers: str, tests: list[str]) -> list[str]:
    """The top-level functions of a helpers module that no test module
    names and no other top-level statement of the helpers module names."""
    named = set().union(*(names_in(ast.parse(source)) for source in tests))
    functions = []
    for node in ast.parse(helpers).body:
        own = node.name if isinstance(node, ast.FunctionDef) else None
        named |= names_in(node) - {own}
        if own:
            functions.append(own)
    return [name for name in functions if name not in named]


def test_uncalled_helpers_are_caught():
    helpers = "def a(): return b()\ndef b(): return 1\ndef c(): return c()\ndef d(): ...\n"
    tests = ["from helpers import d\n"]
    assert uncalled_helpers(helpers, tests) == ["a", "c"]


def test_every_helper_has_a_caller():
    tests = [path.read_text() for path in sorted((ROOT / "tests").glob("test_*.py"))]
    assert len(tests) > 5
    assert uncalled_helpers((ROOT / "tests" / "helpers.py").read_text(), tests) == []
