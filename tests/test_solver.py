"""Support cones, the coefficient recursion, specialization, verification."""

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from csd4 import fixtures
from csd4 import hamiltonian as ham
from csd4 import kappa
from csd4 import rootsystem as rs
from csd4 import solver
from csd4.errors import InternalInconsistency, PoleAtKappa
from csd4.kappa import KappaRational
from csd4.zpoly import Z1, Z2, Z3, Z4, ZPolynomial


def mus(cone):
    return [el.mu for el in cone]


def test_support_cone_small():
    assert mus(solver.support_cone((0, 0, 0, 0))) == [(0, 0, 0, 0)]
    assert mus(solver.support_cone((1, 0, 0, 0))) == [(0, 0, 0, 0)]
    cone = solver.support_cone((2, 0, 0, 0))
    assert mus(cone) == [(0, 0, 0, 0), (1, 0, 0, 0), (2, 2, 1, 1)]
    assert [el.height for el in cone] == [0, 1, 6]


def test_support_cone_rejects_non_dominant():
    with pytest.raises(ValueError):
        solver.support_cone((0, -1, 0, 0))
    with pytest.raises(ValueError):
        solver.solve((-1, 0, 0, 0))


def test_solve_rejects_a_bool_weight():
    # True == 1 and hash(True) == hash(1): accepted, it would be cached under
    # the key of (1,0,0,0) and written back as JSON true.
    solver.clear_cache()
    try:
        with pytest.raises(ValueError):
            solver.solve((True, 0, 0, 0))
        m = solver.solve((1, 0, 0, 0)).to_fixture_obj()["m"]
        assert json.dumps(m) == "[1, 0, 0, 0]"
    finally:
        solver.clear_cache()


def test_support_cone_complete_against_brute_force():
    # oracle: scan the whole box allowed by the Weyl-vector pairing bound
    for m in [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (1, 0, 1, 1), (3, 0, 0, 0)]:
        bound = 3 * m[0] + 5 * m[1] + 3 * m[2] + 3 * m[3]
        brute = set()
        for n1 in range(bound + 1):
            for n2 in range(bound + 1):
                for n3 in range(bound + 1):
                    for n4 in range(bound + 1):
                        if n1 + n2 + n3 + n4 > bound:
                            continue
                        w = rs.root_to_weight((n1, n2, n3, n4))
                        if all(m[i] - w[i] >= 0 for i in range(4)):
                            brute.add((n1, n2, n3, n4))
        assert {el.mu for el in solver.support_cone(m)} == brute, m


def test_support_cone_elements_valid():
    for m in [(2, 1, 0, 0), (0, 2, 0, 0), (1, 1, 1, 1)]:
        cone = solver.support_cone(m)
        assert cone[0].mu == (0, 0, 0, 0)
        for el in cone:
            assert all(c >= 0 for c in el.exponent)
            w = rs.root_to_weight(el.mu)
            assert el.exponent == tuple(m[i] - w[i] for i in range(4))
            assert el.height == sum(el.mu)
        heights = [el.height for el in cone]
        assert heights == sorted(heights)


def test_solve_known_entries():
    p = solver.solve((2, 0, 0, 0))
    expect = (
        Z1**2
        - Z2 * KappaRational((2,), (1, 1))
        - ZPolynomial.constant(KappaRational((0, 8), (1, 4, 3)))
    )
    assert p.polynomial == expect
    p = solver.solve((0, 1, 0, 0))
    assert p.polynomial == Z2 + ZPolynomial.constant(KappaRational((-4, 4), (1, 5)))
    p = solver.solve((1, 0, 1, 0))
    assert p.polynomial == Z1 * Z3 - Z4 * KappaRational((4,), (1, 3))
    assert solver.solve((0, 0, 0, 0)).polynomial == ZPolynomial.constant(1)


def test_normalization_and_leading_term():
    for m in [(1, 1, 0, 0), (0, 2, 0, 0), (1, 0, 1, 1)]:
        p = solver.solve(m)
        assert p.coefficients[(0, 0, 0, 0)] == KappaRational(1)
        assert p.polynomial.coefficient(m) == KappaRational(1)


def test_specialize_examples():
    assert solver.specialize(solver.solve((1, 1, 0, 0)), 1) == Z1 * Z2 - Z3 * Z4
    assert solver.specialize(solver.solve((2, 0, 0, 0)), 0) == Z1**2 - Z2 * 2
    got = solver.specialize(solver.solve((1, 0, 1, 1)), 0)
    expect = (
        Z1 * Z3 * Z4 - (Z1**2 + Z3**2 + Z4**2) * 4 + Z2 * 12
        + ZPolynomial.constant(16)
    )
    assert got == expect


def test_specialize_pole_reports_mu():
    # the constant coefficient of the (2,0,0,0) polynomial has a pole at -1/3
    with pytest.raises(PoleAtKappa) as err:
        solver.specialize(solver.solve((2, 0, 0, 0)), Fraction(-1, 3))
    assert err.value.mu == (2, 2, 1, 1)
    assert err.value.kappa == Fraction(-1, 3)
    # In general the reported mu is the first shift, in (height, mu) order,
    # whose coefficient's denominator vanishes at the coupling.
    poles = 0
    for k0 in (Fraction(-1, 3), Fraction(-1, 2), Fraction(-2, 3), Fraction(-1),
               Fraction(-3, 2)):
        for m in itertools.product(range(4), repeat=4):
            if sum(m) > 3:
                continue
            p = solver.solve(m)
            first = next(
                (mu for mu in sorted(p.coefficients, key=lambda r: (sum(r), r))
                 if sum(c * k0**i for i, c in enumerate(p.coefficients[mu].den)) == 0),
                None,
            )
            if first is None:
                solver.specialize(p, k0)
                continue
            poles += 1
            with pytest.raises(PoleAtKappa) as err:
                solver.specialize(p, k0)
            assert (err.value.mu, err.value.kappa) == (first, k0), (m, k0)
    assert poles > 0


def test_pole_messages_name_an_exponent_or_a_shift():
    # A polynomial's substitute_kappa knows the exponent of the coefficient;
    # specialize, and solve_at through its fallback, name the shift mu.
    k0 = Fraction(-1, 3)
    p = solver.solve((2, 0, 0, 0))
    with pytest.raises(PoleAtKappa) as err:
        p.polynomial.substitute_kappa(k0)
    assert (err.value.exponent, err.value.mu, err.value.kappa) == ((0, 0, 0, 0), None, k0)
    assert str(err.value) == "pole at kappa=-1/3 at exponent (0, 0, 0, 0)"
    with pytest.raises(PoleAtKappa) as err:
        solver.specialize(p, k0)
    assert str(err.value) == "pole at kappa=-1/3 at coefficient mu=(2, 2, 1, 1)"
    solver.clear_cache()
    with pytest.raises(PoleAtKappa) as fallback:
        solver.solve_at((2, 0, 0, 0), k0)
    assert str(fallback.value) == str(err.value)
    assert fallback.value.mu == (2, 2, 1, 1)


def test_verify_eigen():
    assert solver.verify_eigen(solver.solve((1, 1, 0, 0)))
    assert solver.verify_eigen(solver.solve((0, 0, 0, 0)))
    p = solver.solve((2, 0, 0, 0))
    tampered = solver.CSPolynomial(
        p.m, p.eigenvalue, p.coefficients, p.polynomial + Z2
    )
    assert not solver.verify_eigen(tampered)


@pytest.mark.parametrize("case", ["eps+1", "eps/(k+1)", "doubled", "dropped"])
def test_verify_eigen_rejects(case):
    # (2,1,0,1) with a wrong eigenvalue or one wrong non-leading term.
    p = solver.solve((2, 1, 0, 1))
    eps, terms = p.eigenvalue, dict(p.polynomial.terms)
    e = next(e for e in terms if e != p.m)
    if case == "eps+1":
        eps = eps + 1
    elif case == "eps/(k+1)":
        eps = eps / KappaRational((1, 1))
    elif case == "doubled":
        terms[e] = terms[e] * 2
    else:
        del terms[e]
    tampered = solver.CSPolynomial(p.m, eps, p.coefficients, ZPolynomial(terms))
    assert not solver.verify_eigen(tampered)


def test_verify_eigen_reads_every_orbit_member():
    # (2,2,2,2) is fixed by all six triality maps.  Doubling the coefficient
    # of one exponent that is not the first of its orbit in cone order, or
    # of every member of that orbit (a sigma-invariant corruption), is seen.
    p = solver.solve((2, 2, 2, 2))
    assert all(rs.apply_triality(p.m, sigma) == p.m for sigma in rs.TRIALITY_MAPS)
    terms = p.polynomial.terms
    order = [el.exponent for el in solver.support_cone(p.m) if el.exponent in terms]
    orbit = next(o for o in ({rs.apply_triality(e, s) for s in rs.TRIALITY_MAPS}
                             for e in order) if len(o) > 1)
    for doubled in ([max(orbit, key=order.index)], orbit):
        changed = dict(terms)
        for e in doubled:
            changed[e] = changed[e] * 2
        tampered = solver.CSPolynomial(p.m, p.eigenvalue, p.coefficients, ZPolynomial(changed))
        assert not solver.verify_eigen(tampered), doubled


def test_verify_eigen_sums_without_pairwise_add(monkeypatch):
    # L P - eps P is zero-tested in one kappa_all_zero, never summed term by
    # term with KappaRational + nor one kappa_sum per monomial; the integers
    # the 14 derivatives of P bring down ride in the integer weights, so no
    # KappaRational product is formed either.
    p = solver.solve((2, 2, 2, 2))
    calls = {"__add__": 0, "__mul__": 0, "kappa_sum": 0, "kappa_all_zero": 0}
    for name in ("__add__", "__mul__"):
        def counted(self, other, _op=getattr(KappaRational, name), _name=name):
            calls[_name] += 1
            return _op(self, other)
        monkeypatch.setattr(KappaRational, name, counted)
    for name in ("kappa_sum", "kappa_all_zero"):
        def counted_batch(arg, _op=getattr(ham, name), _name=name):
            calls[_name] += 1
            return _op(arg)
        monkeypatch.setattr(ham, name, counted_batch)
    assert solver.verify_eigen(p)
    assert calls["__add__"] == calls["kappa_sum"] == 0
    assert calls["kappa_all_zero"] == 1
    assert calls["__mul__"] == 0


def test_solve_triality_covariance():
    for m in [(2, 1, 0, 0), (1, 0, 2, 1)]:
        base = solver.solve(m)
        for sigma in rs.TRIALITY_MAPS:
            image = solver.solve(rs.apply_triality(m, sigma))
            assert base.polynomial.permute_variables(sigma) == image.polynomial


def test_eigenvalue_matches_stored():
    for m in [(1, 0, 0, 0), (2, 1, 0, 0), (0, 0, 2, 1)]:
        assert solver.solve(m).eigenvalue == ham.eigenvalue(m)


def test_fixture_roundtrip():
    p = solver.solve((2, 1, 0, 0))
    obj = p.to_fixture_obj()
    back = solver.CSPolynomial.from_fixture_obj(obj)
    assert back.m == p.m
    assert back.eigenvalue == p.eigenvalue
    assert back.coefficients == p.coefficients
    assert back.polynomial == p.polynomial


def test_cached_coefficients_are_read_only():
    p = solver.solve((1, 1, 0, 0))
    before = dict(p.coefficients)
    with pytest.raises(TypeError):
        p.coefficients[(0, 0, 0, 0)] = KappaRational(2)
    with pytest.raises(TypeError):
        p.polynomial.terms[(1, 1, 0, 0)] = KappaRational(99)
    again = solver.solve((1, 1, 0, 0))
    assert again.coefficients == before
    assert solver.verify_eigen(again)


# The two scalars of the one walk: the symbolic solve, and the walk on
# integers at a coupling (here the generic 7/10).
WALKS = {
    "symbolic": lambda m: solver.solve(m).polynomial,
    "field": lambda m: solver.solve_at(m, Fraction(7, 10)),
}


@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS.keys())
def test_walk_makes_no_rational_function_arithmetic(monkeypatch, walk):
    # The walk reads L as integer pairs and forms each coefficient in one
    # kappa_sum over its eigenvalue difference (or one integer sum at a value).
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "inverse"):
        def counted(*args, _op=getattr(KappaRational, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(KappaRational, name, counted)
    solver.clear_cache()
    try:
        assert walk((2, 2, 2, 2))
    finally:
        solver.clear_cache()
    assert calls == []


def test_field_walk_makes_no_fraction_arithmetic(monkeypatch):
    # solve_at lifts each pair to an integer and sums each coefficient as
    # one integer dot product, made one Fraction with its difference.
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        def counted(*args, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(Fraction, name, counted)
    solver.clear_cache()
    try:
        p = solver.solve_at((2, 2, 2, 2), Fraction(7, 10))
    finally:
        solver.clear_cache()
    assert calls == [] and len(p) == 89


@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS.keys())
def test_solve_runs_no_polynomial_gcd(monkeypatch, walk):
    # Every denominator of the recursion is a product of linear eigenvalue
    # differences, which the coupling arithmetic cancels without a gcd.
    def refuse(a, b):
        raise AssertionError("solve reached the general polynomial gcd")

    monkeypatch.setattr(kappa, "poly_gcd", refuse)
    solver.clear_cache()
    try:
        p = walk((2, 2, 2, 2))
    finally:
        solver.clear_cache()
    assert len(p) == 89


def outcome(compute):
    """The terms in insertion order, or the (mu, kappa) of the pole."""
    try:
        return list(compute().terms.items())
    except PoleAtKappa as exc:
        return ("pole", exc.mu, exc.kappa)


def test_solve_at_equals_specialize():
    # Term for term and in the same order (eval_complex sums in that order),
    # or the same pole.  At k = -1/2 the walk meets 0/0 on (0,0,1,2) and
    # (0,0,2,2): a pair sum and an eigenvalue difference both vanish, and
    # only the fallback gives the right value or pole.  -7/3 and 22/7 have
    # |p| > 1 and q > 1, so a lift c0*q + c1*p with p and q mixed up fails.
    couplings = [Fraction(k) for k in ("0", "1", "7/10", "-1/2", "-3/2", "-7/3", "22/7")]
    resonant = walked = 0
    for m in itertools.product(range(5), repeat=4):
        if sum(m) > 4:
            continue
        solver.clear_cache()
        p = solver.solve(m)
        for k0 in couplings:
            want = outcome(lambda: solver.specialize(p, k0))
            solver.clear_cache()
            got = outcome(lambda: solver.solve_at(m, k0))
            assert got == want, (m, k0)
            if want[0] == "pole":
                resonant += 1
            else:
                walked += 1
    assert resonant > 0 and walked > 0


def test_solve_at_specializes_a_cached_solve(monkeypatch):
    p = solver.solve((2, 1, 0, 0))
    monkeypatch.setattr(solver, "_walk", None)  # no walk may run
    assert solver.solve_at((2, 1, 0, 0), 1) == solver.specialize(p, 1)


def test_even_special_coupling_family_exact():
    # P_{2j rho}((1-2j)/2) = P_{2 rho}(-1/2)^j: both sides are delta^(2j),
    # delta the Weyl denominator.  For j = 4 the power is compared at exact
    # rational points, not built as a polynomial.
    solver.clear_cache()
    base = solver.solve_at((2, 2, 2, 2), Fraction(-1, 2))
    for j, size in ((2, 793), (3, 3275)):
        got = solver.solve_at((2 * j,) * 4, Fraction(1 - 2 * j, 2))
        assert got == base**j, j
        assert len(got) == size
    got = solver.solve_at((8, 8, 8, 8), Fraction(-7, 2))
    assert len(got) == 9327
    for z in ((Fraction(1, 3), Fraction(-2, 5), 2, Fraction(7, 4)),
              (-3, Fraction(5, 6), Fraction(-1, 7), 1)):
        assert got.eval_exact(z) == base.eval_exact(z) ** 4, z


def _dominant(total):
    return [m for m in itertools.product(range(total + 1), repeat=4) if sum(m) <= total]


def _strip(den, f):
    """den with every power of f that divides it divided out."""
    while True:
        try:
            den = kappa.poly_div_exact(den, f)
        except ArithmeticError:
            return den


def test_every_pole_is_root_type():
    # Every denominator of P_m is an integer times primitive linear factors
    # <m, a> - j + ht(a) k, for a positive root a (its own coroot in D4, so
    # <m, a> is m dotted with a in root coordinates) and 1 <= j <= <m, a> - 1.
    # Each distinct denominator is divided by these candidates until an
    # integer is left.
    weights = _dominant(6)
    assert len(weights) == 210
    try:
        for m in weights:
            candidates = set()
            for a in rs.positive_roots():
                n = sum(x * y for x, y in zip(m, a))
                candidates.update(kappa.poly_primitive((n - j, rs.height(a)))
                                  for j in range(1, n))
            for den in {c.den for c in solver.solve(m).coefficients.values()}:
                for f in candidates:
                    den = _strip(den, f)
                assert len(den) == 1, (m, den)
    finally:
        solver.clear_cache()


def _rising(x: KappaRational, n: int) -> KappaRational:
    out = KappaRational(1)
    for j in range(n):
        out = out * (x + j)
    return out


def _pairing(m, a) -> int:
    """<m, a> for a dominant weight m and a positive root a."""
    n = rs.inner(m, rs.root_to_weight(a))
    assert n.denominator == 1
    return int(n)


def _evaluation(m) -> KappaRational:
    """E(m) = prod_{a > 0} ((ht a + 1) k)_<m,a> / ((ht a) k)_<m,a>, (x)_n the
    rising factorial: Macdonald's evaluation formula, proved by Opdam
    (Invent. Math. 98, 1989)."""
    k = kappa.kappa_linear(0, 1)
    out = KappaRational(1)
    for a in rs.positive_roots():
        n, h = _pairing(m, a), rs.height(a)
        out = out * _rising((h + 1) * k, n) / _rising(h * k, n)
    return out


def test_evaluation_at_the_identity():
    # At the identity of the torus the characters are the dimensions, and
    # there P_m(8, 28, 8, 8) = E(m).
    weights = _dominant(4)
    assert len(weights) == 70
    for m in weights:
        terms = solver.solve(m).polynomial.terms.items()
        got = kappa.kappa_sum([(c, (8 ** e1 * 28 ** e2 * 8 ** e3 * 8 ** e4,))
                               for (e1, e2, e3, e4), c in terms])
        assert got == _evaluation(m), m


def _at_infinity(c: KappaRational) -> Fraction:
    """lim c(k) as k -> oo, asserting that it is finite: the numerator's
    degree is at most the denominator's."""
    num, den = c.num, c.den
    assert len(num) <= len(den), c
    return Fraction(num[-1], den[-1]) if len(num) == len(den) else Fraction(0)


def test_limit_at_infinite_coupling():
    # L = L0 + k*L1, and L1 = 12(z1 d1 + z3 d3 + z4 d4) + (20 z2 + 16) d2 is a
    # derivation with eigenvalue gaps 4*ht(mu) > 0.  So every coefficient of
    # P_m stays bounded as k -> oo, and P_m tends to the one monic triangular
    # eigenfunction of L1, prod (z_i + c_i)^m_i.  At the identity z_i is
    # dim w_i, so c_i = E_oo(w_i) - dim w_i.
    omegas = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    c = [_at_infinity(_evaluation(w)) - rs.weyl_dimension(w) for w in omegas]
    powers = [[(z + ci) ** n for n in range(7)] for z, ci in zip((Z1, Z2, Z3, Z4), c)]
    weights = _dominant(6)
    assert len(weights) == 210
    for m in weights:
        terms = solver.solve(m).polynomial.terms.items()
        got = ZPolynomial({e: _at_infinity(coeff) for e, coeff in terms})
        want = ZPolynomial.constant(1)
        for factor, n in zip(powers, m):
            want = want * factor[n]
        assert got == want, m


def test_evaluation_through_solve_at(monkeypatch):
    # The same formula through the walk on integers, at a coupling where
    # (6,6,6,6) has no pole, with no symbolic solve to fall back on.
    solver.clear_cache()
    monkeypatch.setattr(solver, "solve", None)
    m, k0 = (6, 6, 6, 6), Fraction(7, 10)
    got = solver.solve_at(m, k0).eval_exact((8, 28, 8, 8))
    assert got == _evaluation(m).substitute(k0)


def test_solve_at_at_every_candidate_pole():
    # Item I's candidates k0 = (j - <m,a>)/ht a, a > 0, 1 <= j < <m,a>: where
    # a pole of P_m can sit, and where the walk's differences vanish.  Cold,
    # solve_at agrees with specializing the symbolic solve: the same terms in
    # the same order, or the same pole at the same mu.
    couplings = poles = 0
    for m in _dominant(3):
        candidates = {Fraction(j - n, rs.height(a))
                      for a in rs.positive_roots() for n in [_pairing(m, a)]
                      for j in range(1, n)}
        solver.clear_cache()
        p = solver.solve(m)
        for k0 in sorted(candidates):
            want = outcome(lambda: solver.specialize(p, k0))
            solver.clear_cache()
            assert outcome(lambda: solver.solve_at(m, k0)) == want, (m, k0)
            couplings += 1
            poles += want[0] == "pole"
    assert (couplings, poles) == (200, 77)


def test_half_integer_duality(monkeypatch):
    # k(k - 1)/sin^2 is the same at k and 1 - k, and delta = P_(2,2,2,2)(-1/2)
    # is the Weyl denominator squared, so delta^n P_m(n + 1/2) is the
    # eigenpolynomial with leading exponent m + 2n rho at 1/2 - n, where no
    # walk falls back to a symbolic solve (none may run here).
    solver.clear_cache()
    monkeypatch.setattr(solver, "solve", None)
    delta = solver.solve_at((2, 2, 2, 2), Fraction(-1, 2))
    checked = 0
    for n, total in ((1, 3), (2, 2)):
        power = delta**n
        for m in _dominant(total):
            left = solver.solve_at(tuple(x + 2 * n for x in m), Fraction(1, 2) - n)
            assert left == power * solver.solve_at(m, n + Fraction(1, 2)), (n, m)
            checked += 1
    assert checked == 50
    # the wrong coupling on the right breaks it, for a P_m that depends on k
    left = solver.solve_at((2, 3, 2, 2), Fraction(-1, 2))
    assert left != delta * solver.solve_at((0, 1, 0, 0), Fraction(5, 2))


def test_equal_denominators_share_one_expansion():
    solver.clear_cache()
    try:
        p = solver.solve((4, 4, 4, 4))
    finally:
        solver.clear_cache()
    first: dict = {}
    for c in p.coefficients.values():
        twin = first.setdefault(c.den, c)
        assert c.den is twin.den and c._factors is twin._factors
    assert len(first) == 86


@pytest.mark.parametrize("m", [(4, 4, 4, 4), (1, 2, 1, 3)])
def test_grown_denominators_equal_their_expansion(m):
    # den writes each distinct denominator out by one packed product; each
    # must equal content * prod f^e expanded factor by factor.
    solver.clear_cache()
    try:
        p = solver.solve(m)
    finally:
        solver.clear_cache()
    for c in p.coefficients.values():
        want = (c._content,)
        for f, e in c._factors.items():
            for _ in range(e):
                want = kappa.poly_mul(want, f)
        assert c.den == want


def test_solve_packs_each_numerator_once_per_width(monkeypatch):
    # kappa_sum's memo packs a coefficient again only at a new width, not
    # once for every sum the coefficient feeds.
    packs = []  # (polynomial, width); holding each keeps its id unique
    real = kappa._pack

    def counted(p, bits):
        packs.append((p, bits))
        return real(p, bits)

    monkeypatch.setattr(kappa, "_pack", counted)
    solver.clear_cache()
    try:
        p = solver.solve((4, 4, 4, 4))
    finally:
        solver.clear_cache()
    nums = {id(c.num) for c in p.coefficients.values()}
    counts = Counter((id(q), bits) for q, bits in packs if id(q) in nums)
    assert len({q for q, _ in counts}) > 200
    assert max(counts.values()) == 1


LADDER_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "ladder_digests.json"
SOLVE_DIGESTS = Path(__file__).resolve().parent / "solve_digests.json"


def cold_solve_digest(m, digests):
    """(sha256 of the canonical fixture JSON of a cold solve, the recorded one).

    The golden corpus is checked first, in milliseconds: under a wrong
    operator table a large cold solve can run for minutes before its digest
    is compared.
    """
    with open(digests) as fh:
        want = json.load(fh)[json.dumps(list(m))]
    solver.clear_cache()
    for entry in fixtures.load("polynomials"):
        golden = solver.CSPolynomial.from_fixture_obj(entry)
        assert solver.solve(golden.m) == golden, f"golden corpus differs at {golden.m}"
    solver.clear_cache()
    try:
        obj = solver.solve(m).to_fixture_obj()
    finally:
        solver.clear_cache()
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), want


@pytest.mark.parametrize("m", [
    (8, 0, 0, 0), (12, 0, 0, 0), (0, 6, 0, 0), (2, 2, 2, 2), (3, 3, 3, 3),
    (4, 4, 4, 4),
])
def test_solve_matches_ladder_digest(m):
    # The benchmark's recorded digests pin the exact output past the golden
    # corpus.
    got, want = cold_solve_digest(m, LADDER_DIGESTS)
    assert got == want


@pytest.mark.parametrize("m", [
    (5, 5, 5, 5), (6, 6, 6, 6), (8, 8, 8, 8), (1, 2, 1, 3), (3, 1, 0, 2),
])
def test_solve_matches_recorded_digest(m):
    # Past the ladder, where the packed sums are widest, and at a stabilizer
    # {1, swap 1<->3} and a trivial one.  Recorded before the orbit walk.
    got, want = cold_solve_digest(m, SOLVE_DIGESTS)
    assert got == want


def test_orbit_images_share_the_coefficient_object():
    # Every triality permutation fixes (4,4,4,4): the solve, and the walk at
    # a coupling, compute one coefficient per orbit and hand the same object
    # to the other members.
    m = (4, 4, 4, 4)
    solver.clear_cache()
    try:
        field = solver.solve_at(m, Fraction(7, 10)).terms
        coeffs = solver.solve(m).coefficients
    finally:
        solver.clear_cache()
    assert len(rs.TRIALITY_MAPS) == 6
    for sigma in rs.TRIALITY_MAPS:
        assert rs.apply_triality(m, sigma) == m
        for mu, c in coeffs.items():
            assert coeffs[rs.apply_triality(mu, sigma)] is c, (sigma, mu)
        for e, c in field.items():
            assert field[rs.apply_triality(e, sigma)] is c, (sigma, e)


def test_shared_coefficients_render_once(monkeypatch):
    # The JSON rows render each distinct coefficient object once, and the
    # rows of its orbit images share the strings.
    m = (4, 4, 4, 4)
    solver.clear_cache()
    try:
        p = solver.solve(m)
    finally:
        solver.clear_cache()
    calls = []
    as_strings = KappaRational.as_strings

    def counted(self):
        calls.append(self)
        return as_strings(self)

    monkeypatch.setattr(KappaRational, "as_strings", counted)
    rows = {tuple(row["mu"]): row for row in p.to_fixture_obj()["coeffs"]}
    distinct = {id(c) for c in p.coefficients.values()}
    assert len(distinct) == 239
    assert len(calls) == len(distinct) + 1  # and the eigenvalue
    for sigma in rs.TRIALITY_MAPS:
        for mu, row in rows.items():
            image = rows[rs.apply_triality(mu, sigma)]
            assert image["num"] is row["num"] and image["den"] is row["den"]


@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS.keys())
@pytest.mark.parametrize("extra", [(2, 0, 0, 0), (0, 0, 0, 5)],
                         ids=["back-at-leading", "outside-cone"])
def test_solve_rejects_a_term_out_of_order(monkeypatch, extra, walk):
    # A term that L sends back to an exponent already solved, or outside the
    # cone, is left over after the pass and must not be silently dropped.
    real = ham.monomial_image

    def tampered(e):
        eps, image = real(e)
        return eps, [*image, (extra, (1, 0))]

    monkeypatch.setattr(ham, "monomial_image", tampered)
    solver.clear_cache()
    try:
        with pytest.raises(InternalInconsistency):
            walk((2, 0, 0, 0))
    finally:
        solver.clear_cache()
