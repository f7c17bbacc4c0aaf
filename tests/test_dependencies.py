"""numpy is the package's only runtime dependency outside the standard
library, and the package exports what ``__all__`` names."""

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
