"""What an install of the package would use: the console script and the
bundled data.  The suite imports csd4 from src/ and never installs it, so
these are read from pyproject.toml and checked against the source tree."""

import ast
import importlib
from pathlib import Path

import pytest

from csd4 import fixtures

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

ROOT = Path(__file__).resolve().parent.parent


def _project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_console_script_names_a_callable():
    target = _project()["project"]["scripts"]["csd4"]
    assert target == "csd4.cli:main"
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_package_data_is_exactly_the_corpus_load_golden_opens(monkeypatch):
    monkeypatch.delenv(fixtures.ENV_VAR, raising=False)
    opened = []

    def recording(path, *args, **kwargs):
        opened.append(Path(path).resolve())
        return open(path, *args, **kwargs)

    monkeypatch.setattr(fixtures, "open", recording, raising=False)
    fixtures.load_golden()
    assert len(opened) == 3
    where = _project()["tool"]["setuptools"]["packages"]["find"]["where"]
    package = ROOT.joinpath(*where, "csd4")
    globs = _project()["tool"]["setuptools"]["package-data"]["csd4"]
    shipped = {p.resolve() for pattern in globs for p in package.glob(pattern)}
    assert shipped == set(opened)


def test_sources_parse_at_the_declared_minimum_python():
    # Only one interpreter runs the suite; the parser's feature_version
    # still refuses syntax newer than the minimum that pyproject.toml states.
    floor = _project()["project"]["requires-python"]
    assert floor.startswith(">=")
    version = tuple(int(part) for part in floor[2:].split("."))
    paths = [p for d in ("src/csd4", "tests", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
