"""Ring tests for the sparse character-variable polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csd4 import qspace, solver
from csd4.errors import PoleAtKappa
from csd4.kappa import KappaRational
from csd4.zpoly import Z1, Z2, Z3, Z4, ZPolynomial


def test_basic_products():
    assert (Z1 * Z1 - Z2) * Z2 == Z1 * Z1 * Z2 - Z2 * Z2
    p = Z1 * Z3 + Z2 * 5 - 7
    assert p + p * (-1) == ZPolynomial.zero()
    assert (Z1 + Z3) * (Z1 - Z3) == Z1**2 - Z3**2


def test_derivative():
    p = Z1**2 * Z3
    assert p.derivative(1) == Z1 * Z3 * 2
    assert ZPolynomial.constant(9).derivative(2).is_zero()
    assert (Z2**3).derivative(2) == Z2**2 * 3
    assert (Z1**2 * Z3).derivative(4).is_zero()


def test_scalar_coercion():
    assert Z1 * Fraction(1, 2) + Z1 * Fraction(1, 2) == Z1
    assert (Z1 + 1) - 1 == Z1
    k = KappaRational((0, 1))
    assert (Z1 * k).coefficient((1, 0, 0, 0)) == k


def test_substitute_kappa():
    k = KappaRational((0, 1), (1, 1))  # k/(1+k)
    p = Z1 * k + Z2
    q = p.substitute_kappa(1)
    assert q == Z1 * Fraction(1, 2) + Z2
    with pytest.raises(PoleAtKappa):
        p.substitute_kappa(-1)


def test_eval_exact_and_complex():
    p = Z1**2 - Z2 * 2
    assert p.eval_exact((3, 4, 0, 0)) == 1
    assert abs(p.eval_complex((3 + 0j, 4 + 0j, 0j, 0j)) - 1) < 1e-12


def test_eval_complex_reads_each_coefficient_as_its_fraction():
    # Bit for bit the sum of complex(Fraction) terms, in term order.
    p = solver.solve_at((2, 5, 1, 0), Fraction(7, 10))
    z1, z2, z3, z4 = z = qspace.characters_from_q((0.31, 0.83, 1.37, 1.91))
    want = 0j
    for e, c in p.terms.items():
        want += complex(c.as_fraction()) * z1 ** e[0] * z2 ** e[1] * z3 ** e[2] * z4 ** e[3]
    assert len(p) == 130 and p.eval_complex(z) == want
    with pytest.raises(ValueError):
        solver.solve((1, 1, 0, 0)).polynomial.eval_complex(z)


def test_permute_variables():
    sigma = {1: 3, 2: 2, 3: 1, 4: 4}
    assert Z1.permute_variables(sigma) == Z3
    p = Z1**2 * Z4 + Z3
    assert p.permute_variables(sigma) == Z3**2 * Z4 + Z1
    with pytest.raises(ValueError, match="fix index 2"):  # triality maps only
        p.permute_variables({1: 2, 2: 1, 3: 3, 4: 4})


def test_monomial_validation():
    with pytest.raises(ValueError):
        ZPolynomial.monomial((1, 2, 3))
    with pytest.raises(ValueError):
        ZPolynomial.monomial((1, -1, 0, 0))
    # four ints, as every weight and exponent: no float, no bool
    for bad in ((1.5, 0, 0, 0), (True, 0, 0, 0)):
        with pytest.raises(ValueError):
            ZPolynomial.monomial(bad)
        with pytest.raises(ValueError):
            ZPolynomial({bad: 1})


@pytest.mark.parametrize("j", [0, -1, 5, True, 1.0])
def test_variable_index_outside_1_to_4_is_refused(j):
    # Python's negative and zero indices would otherwise alias z4 and z3.
    with pytest.raises(ValueError, match="variable index"):
        ZPolynomial.variable(j)
    with pytest.raises(ValueError, match="variable index"):
        (Z1 * Z2 * Z3 * Z4).derivative(j)


@pytest.mark.parametrize("bad", ["x", 2.5, None])
def test_bad_scalar_raises_type_error(bad):
    # Every entry point takes the scalars KappaRational takes, and no other.
    for build in (
        lambda: ZPolynomial.monomial((1, 0, 0, 0), bad),
        lambda: ZPolynomial.constant(bad),
        lambda: ZPolynomial({(1, 0, 0, 0): bad}),
        lambda: Z1 * bad,
    ):
        with pytest.raises(TypeError):
            build()
    assert ZPolynomial.constant(Fraction(1, 2)) == ZPolynomial.constant(KappaRational(1, 2))


def test_json_roundtrip():
    p = Z1**2 * Z3 * KappaRational((1, 2), (3, 0, 1)) - Z4 * 7 + 2
    obj = p.to_json_obj()
    assert obj == sorted(obj, key=lambda t: t["exponents"])
    assert ZPolynomial.from_json_obj(obj) == p
    # every row carries its den, even when it is 1
    with pytest.raises(ValueError, match="bad 'num' or 'den'"):
        ZPolynomial.from_json_obj([{"exponents": [1, 0, 0, 0], "num": "2"}])


small_ints = st.integers(min_value=-6, max_value=6)
coeffs = st.builds(
    KappaRational,
    st.lists(small_ints, min_size=0, max_size=2).map(tuple),
    st.lists(small_ints, min_size=1, max_size=2).map(tuple).filter(lambda p: any(p)),
)
exponents = st.tuples(*([st.integers(min_value=0, max_value=3)] * 4))
zpolys = st.dictionaries(exponents, coeffs, max_size=4).map(ZPolynomial)


@settings(max_examples=120, deadline=None)
@given(zpolys, zpolys, zpolys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a * ZPolynomial.constant(1) == a


@settings(max_examples=60, deadline=None)
@given(zpolys, st.integers(min_value=1, max_value=4))
def test_derivative_leibniz(a, j):
    b = Z1 + Z3 * Z4
    lhs = (a * b).derivative(j)
    rhs = a.derivative(j) * b + a * b.derivative(j)
    assert lhs == rhs


def test_str_parts_are_the_text_one_term_each():
    p = (Z1 * Z1 * KappaRational((1, 2), (3, 1)) - Z2 * 4 + 7)
    parts = list(p.str_parts())
    assert len(parts) == len(p)
    assert "".join(parts) == str(p)
    assert list(ZPolynomial.zero().str_parts()) == ["0"] == [str(ZPolynomial.zero())]
