"""The package runs on the Python standard library alone: every module that
a source file under ``src/trapcorr`` imports, at any depth of its code, is a
standard-library module or ``trapcorr`` itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trapcorr"


def _imported(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_standard_library_or_trapcorr():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 9
    outside = {f"{path.name}: {name}" for path in sources for name in _imported(path)
               if name != "trapcorr" and name not in sys.stdlib_module_names}
    assert outside == set()
