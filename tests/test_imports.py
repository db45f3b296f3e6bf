"""Source hygiene: every module-level import is named somewhere in its
module.  Package ``__init__`` modules are exempt: their imports are the
package's re-exports."""

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
