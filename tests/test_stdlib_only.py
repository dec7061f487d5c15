"""The runtime imports nothing outside the standard library and csd4."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "csd4"


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one inside csd4
            for name in names:
                top = name.partition(".")[0]
                if top != "csd4" and top not in sys.stdlib_module_names:
                    outside.append((path.name, name))
    assert not outside
