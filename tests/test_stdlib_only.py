"""The runtime imports nothing outside the standard library and csd4,
csd4's modules import one another without a cycle, every name a module
imports is used, no module reaches into another's private names, and no
top-level function or class is left that nothing reads."""

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


def test_every_top_level_import_is_used():
    # A lint in place of pyflakes: each name a module binds by a top-level
    # import is read in that module or listed in its __all__.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = [], set()
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [(path.name, name) for name in imported if name not in read | exported]
    assert not unused


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    # A lint: no csd4 module reads <csd4 module>._name or imports a _name
    # from another csd4 module; what two modules share is public.
    modules = {path.stem for path in SRC.glob("*.py")}
    reach = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()  # the names this module binds to csd4 modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").partition(".")[0] == "csd4"):
                package = node.module in (None, "csd4")
                for a in node.names:
                    if package and a.name in modules:
                        aliases.add(a.asname or a.name)
                    elif _private(a.name):
                        reach.append((path.name, f"import {a.name}"))
        reach += [(path.name, f"{n.value.id}.{n.attr}") for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in aliases and _private(n.attr)]
    assert not reach


def test_every_private_top_level_name_is_read():
    # A lint: each _name a module binds at its top level (def, class,
    # assignment or for target) is loaded in that module.  No other module
    # may read it (above), so one its own module never reads is dead code.
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.For)):
                targets = getattr(node, "targets", None) or [node.target]
                bound += [n.id for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        dead += [(path.name, name) for name in bound if _private(name) and name not in read]
    assert not dead


def _names_read(tree):
    """The names a module loads, imports or reads as an attribute."""
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name.rpartition(".")[2])
    return read


def test_every_public_top_level_function_and_class_is_read():
    # A lint: each public def or class at the top level of a csd4 module is
    # read somewhere, by its own module (a table, a call), another module, a
    # test or a perfbench file; one that nothing reads is dead code.
    # Constants are out of scope.
    root = SRC.parent.parent
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")]
    read = set().union(*(_names_read(ast.parse(p.read_text(encoding="utf-8"))) for p in files))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in read):
                dead.append((path.name, node.name))
    assert not dead
