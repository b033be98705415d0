"""Every module of the package reads each name it imports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bosonorder"


def _unread_imports(path: Path) -> list:
    """The names that the module's imports bind and no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a
            bound += [(a.asname or a.name).partition(".")[0]
                      for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_modules_import_only_what_they_use():
    modules = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    assert modules
    unread = {path.name: _unread_imports(path) for path in modules}
    assert {name: names for name, names in unread.items() if names} == {}
