"""The runtime imports nothing outside the standard library and csd4, and
csd4's modules import one another without a cycle."""

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


def _relative_imports(path):
    """The csd4 modules a module imports at its top level."""
    out = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.partition(".")[0])
            else:  # from . import a, b
                out.update(alias.name for alias in node.names)
    return out


def test_package_import_graph_is_acyclic():
    graph = {path.stem: _relative_imports(path) for path in SRC.glob("*.py")}
    assert graph["checks"] and graph["solver"]
    cycles = []
    done = set()

    def visit(node, path):
        if node in path:
            cycles.append(" -> ".join(path[path.index(node):] + [node]))
            return
        if node in done:
            return
        for target in sorted(graph.get(node, ())):
            visit(target, path + [node])
        done.add(node)

    for node in sorted(graph):
        visit(node, [])
    assert not cycles
