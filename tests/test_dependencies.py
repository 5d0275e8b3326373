"""The core package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "caresim"


def third_party_imports(path: Path) -> list[str]:
    """Top-level names of absolute imports in ``path`` that are not stdlib."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        tops = [name.split(".")[0] for name in names]
        found += [top for top in tops if top not in sys.stdlib_module_names]
    return found


def test_core_imports_only_stdlib():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    offenders = {p.name: third_party_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}
