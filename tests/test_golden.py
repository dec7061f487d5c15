"""The bundled reference corpus must be reproduced with exact equality."""

import json
import re

import pytest

from csd4 import fixtures, solver
from csd4.zpoly import ZPolynomial


def test_symbolic_polynomials():
    for entry in fixtures.load("polynomials"):
        want = solver.CSPolynomial.from_fixture_obj(entry)
        got = solver.solve(want.m)
        assert got.eigenvalue == want.eigenvalue, want.m
        assert got.coefficients == want.coefficients, want.m
        assert got.polynomial == want.polynomial, want.m


def test_characters():
    for entry in fixtures.load("characters"):
        m = tuple(entry["m"])
        want = ZPolynomial.from_json_obj(entry["terms"])
        assert solver.specialize(solver.solve(m), 1) == want, m


def test_monomial_functions():
    for entry in fixtures.load("monomials"):
        m = tuple(entry["m"])
        want = ZPolynomial.from_json_obj(entry["terms"])
        assert solver.specialize(solver.solve(m), 0) == want, m


def test_corpus_shape():
    corpus = fixtures.load_golden()
    assert len(corpus["polynomials"]) == 12
    assert len(corpus["characters"]) == 12
    assert len(corpus["monomials"]) == 12
    keys = {tuple(e["m"]) for e in corpus["polynomials"]}
    assert {tuple(e["m"]) for e in corpus["characters"]} == keys
    assert {tuple(e["m"]) for e in corpus["monomials"]} == keys


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    data = [{"m": [9, 9, 9, 9], "terms": []}]
    with open(tmp_path / "characters.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    assert fixtures.fixtures_dir() == tmp_path
    assert fixtures.load("characters") == data


def _row(key, vector):
    return {key: vector, "num": "1", "den": "1"}


def _fixture(m=(1, 0, 0, 0), mu=(0, 0, 0, 0)):
    return {"m": list(m), "epsilon": {"num": "0", "den": "1"}, "coeffs": [_row("mu", list(mu))]}


def _epsilon(row):
    # a fixture with the given epsilon row, or none when row is None
    fixture = _fixture()
    del fixture["epsilon"]
    return fixture if row is None else {**fixture, "epsilon": row}


def _bad_epsilon(row):
    return re.escape(f"bad 'num' or 'den' in 'epsilon' coefficient row {row}")


def _rows(*rows):
    return {"m": [1, 0, 0, 0], "terms": list(rows)}


def _terms(*vectors):
    return _rows(*(_row("exponents", v) for v in vectors))


@pytest.mark.parametrize("name, entry, message", [
    pytest.param("characters", _terms([1, 2, 3]), "bad 'exponents'", id="short-exponents"),
    pytest.param("characters", _terms([1, -2, 0, 0]), "bad 'exponents'", id="negative-exponent"),
    pytest.param("characters", _terms([True, 0, 0, 0]), "bad 'exponents'", id="bool-exponent"),
    pytest.param("characters", _terms(1), "bad 'exponents'", id="scalar-exponents"),
    pytest.param("monomials", _terms([1, 0, 0, 0], [1, 0, 0, 0]), "repeated 'exponents'",
                 id="repeated-exponents"),
    pytest.param("polynomials", _fixture(m=(1, 0, 0)), "bad weight", id="short-m"),
    pytest.param("polynomials", _fixture(mu=(0, 0, 0)), "bad 'mu'", id="short-mu"),
    pytest.param("polynomials", {**_fixture(), "coeffs": [_row("mu", [0, 0, 0, 0])] * 2},
                 "repeated 'mu'", id="repeated-mu"),
    pytest.param("characters", _rows({"num": "1", "den": "1"}), "bad 'exponents'",
                 id="missing-exponents"),
    pytest.param("characters", _rows({"exponents": [1, 0, 0, 0], "den": "1"}),
                 "bad 'num' or 'den'", id="missing-num"),
    pytest.param("monomials", _rows({**_row("exponents", [1, 0, 0, 0]), "num": 1}),
                 "bad 'num' or 'den'", id="int-num"),
    pytest.param("characters", {"m": [1, 0, 0, 0], "terms": {}},
                 "'exponents' rows are a dict, not a list", id="rows-not-a-list"),
    pytest.param("polynomials",
                 {**_fixture(), "coeffs": [{**_row("mu", [0, 0, 0, 0]), "den": "0"}]},
                 "bad 'num' or 'den'", id="zero-den"),
    pytest.param("polynomials", {**_fixture(), "coeffs": [[0, 0, 0, 0, "1", "1"]]},
                 "bad 'mu'", id="list-row"),
    pytest.param("polynomials", _fixture(mu=(1, 0, 0, 0)),
                 re.escape("'mu' [1, 0, 0, 0] is outside the cone of m=[1, 0, 0, 0]"),
                 id="mu-outside-cone"),
    pytest.param("polynomials", _epsilon({"num": "0", "den": "0"}),
                 _bad_epsilon({"num": "0", "den": "0"}), id="epsilon-zero-den"),
    pytest.param("polynomials", _epsilon({"num": 0, "den": "1"}),
                 _bad_epsilon({"num": 0, "den": "1"}), id="epsilon-int-num"),
    pytest.param("polynomials", _epsilon({"num": "0"}), _bad_epsilon({"num": "0"}),
                 id="epsilon-missing-den"),
    pytest.param("polynomials", _epsilon(None), _bad_epsilon(None), id="missing-epsilon"),
])
def test_malformed_fixture_rows_are_rejected_at_load(tmp_path, monkeypatch, name, entry, message):
    # A bad row fails where it is read, with ValueError naming its key and
    # the row: not at the first product (IndexError), by overwriting an
    # earlier row, or as the KeyError, AttributeError, ZeroDivisionError or
    # TypeError that reading its fields would raise.  An eigenpolynomial's
    # epsilon is read by the same row rule, and a mu outside the cone of m
    # is refused, not stored as a term with a negative exponent.
    with open(tmp_path / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump([entry], fh)
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    (entry,) = fixtures.load(name)
    with pytest.raises(ValueError, match=message):
        if name == "polynomials":
            solver.CSPolynomial.from_fixture_obj(entry)
        else:
            ZPolynomial.from_json_obj(entry["terms"])
