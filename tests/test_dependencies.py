"""numpy is the package's only runtime dependency outside the standard
library, the package exports what ``__all__`` names, and only ``spaces.py``
reads the private members of its window and space classes."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "actrep"
ALLOWED = {"numpy", "actrep"}


def foreign_imports(path: Path) -> list[str]:
    """The absolute imports in ``path`` of modules outside the standard
    library, numpy and the package itself."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ALLOWED:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    assert [bad for path in files for bad in foreign_imports(path)] == []


def test_every_export_resolves_once():
    import actrep

    assert len(actrep.__all__) == len(set(actrep.__all__))
    assert [name for name in actrep.__all__ if not hasattr(actrep, name)] == []


def private_members(path: Path, classes: set[str]) -> set[str]:
    """The underscore names, dunders aside, that the given classes in
    ``path`` define: their methods and the attributes they assign on ``self``."""
    names = set()
    for cls in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(cls, ast.ClassDef) and cls.name in classes:
            for node in ast.walk(cls):
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if isinstance(node.value, ast.Name) and node.value.id == "self":
                        names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_only_spaces_reads_window_and_space_internals():
    private = private_members(PACKAGE / "spaces.py", {"CayleyWindow", "CayleySpace"})
    assert {"_sym", "_act", "_pair_step", "_inverted", "_ball_window", "_moves"} <= private
    found = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in (PACKAGE / name for name in ("dynamics.py", "operators.py", "cli.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in private
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert found == []
