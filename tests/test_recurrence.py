"""Character-product expansions, printed closed forms, ladder construction."""

import cmath
import itertools

import pytest

from csd4 import recurrence as rec
from csd4 import qspace
from csd4 import rootsystem as rs
from csd4 import solver
from csd4.errors import ResidualNonzero
from csd4.kappa import KappaRational
from csd4.zpoly import ZPolynomial


def kr(num, den=(1,)):
    return KappaRational(num, den)


def test_shift_table_shapes():
    for v in (1, 3, 4):
        assert len(rec.SHIFTS[v]) == 8
        assert len(set(rec.SHIFTS[v])) == 8
    assert len(rec.SHIFTS[2]) == 25
    assert len(set(rec.SHIFTS[2])) == 25
    assert (0, 0, 0, 0) in rec.SHIFTS[2]
    # nonzero z2 shifts are exactly the +-(positive roots) in weight coords
    roots_w = {rs.root_to_weight(r) for r in rs.positive_roots()}
    nonzero = {s for s in rec.SHIFTS[2] if s != (0, 0, 0, 0)}
    assert nonzero == roots_w | {tuple(-c for c in w) for w in roots_w}
    # the leading shift is the highest weight, the v-th fundamental weight
    for v in (1, 2, 3, 4):
        assert rec.SHIFTS[v][0] == tuple(int(i == v) for i in (1, 2, 3, 4))
    # Independently of the Cartan matrix: the weights with multiplicity sum
    # to the trigonometric characters, sum_w mult(w) exp(2i <w, q>).
    omega = ((1, 0, 0, 0), (1, 1, 0, 0), (0.5, 0.5, 0.5, -0.5), (0.5, 0.5, 0.5, 0.5))
    for q in qspace.generic_points(0, 3):
        characters = qspace.characters_from_q(q)
        for v in (1, 2, 3, 4):
            total = 0j
            for w in rec.SHIFTS[v]:
                mult = 4 if v == 2 and w == (0, 0, 0, 0) else 1
                x = [sum(w[j] * omega[j][i] for j in range(4)) for i in range(4)]
                total += mult * cmath.exp(2j * sum(x[i] * q[i] for i in range(4)))
            want = characters[v - 1]
            assert abs(total - want) / abs(want) < 1e-12


def test_three_term_relation_m1():
    e = rec.expand_product(1, (1, 0, 0, 0))
    assert set(e.terms) == {(2, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)}
    assert e.coefficient((2, 0, 0, 0)) == kr((1,))
    assert e.coefficient((0, 0, 0, 0)) == kr((8, 16), (1, 8, 15))
    assert e.coefficient((0, 1, 0, 0)) == kr((2,), (1, 1))
    assert e.coefficient((9, 9, 9, 9)) == kr(0)


def test_trivial_expansions():
    e = rec.expand_product(1, (0, 0, 0, 0))
    assert e.terms == {(1, 0, 0, 0): kr((1,))}
    e = rec.expand_product(2, (0, 0, 0, 0))
    assert set(e.terms) == {(0, 1, 0, 0), (0, 0, 0, 0)}
    assert e.coefficient((0, 0, 0, 0)) == kr((4, -4), (1, 5))


def test_expand_product_names_a_bad_variable():
    for v in (0, 5):
        with pytest.raises(ValueError, match=f"variable index {v} "):
            rec.expand_product(v, (1, 0, 0, 0))


def test_expand_product_checks_the_weight_first():
    sigma = rs.TRIALITY_MAPS[1]
    for m in [(1, 0, 0), (1, 0, 0, 0, 0), (True, 0, 0, 0), "abcd", (0, -1, 0, 0)]:
        with pytest.raises(ValueError, match="weight"):
            rec.expand_product(1, m)
        with pytest.raises(ValueError, match="weight"):
            rec.triality_consistent(1, m, sigma)


def test_reconstruction_identity():
    for v, m in [(1, (1, 1, 0, 0)), (2, (1, 0, 1, 0)), (3, (0, 1, 0, 1)),
                 (4, (2, 0, 0, 0)), (2, (1, 1, 1, 1))]:
        e = rec.expand_product(v, m)
        total = ZPolynomial.zero()
        for mp, c in e.terms.items():
            total = total + solver.solve(mp).polynomial * c
        assert total == ZPolynomial.variable(v) * solver.solve(m).polynomial
        assert e.coefficient(tuple(
            m[i] + rec.SHIFTS[v][0][i] for i in range(4)
        )) == kr((1,))


def test_slots_stay_admissible():
    for v in (1, 2, 3, 4):
        for m in [(1, 1, 0, 0), (0, 1, 1, 0), (2, 0, 0, 1)]:
            e = rec.expand_product(v, m)
            allowed = {
                tuple(m[i] + s[i] for i in range(4))
                for s in rec.SHIFTS[v]
            }
            assert set(e.terms) <= allowed


def test_closed_form_values():
    one = kr((1,))
    for m in range(1, 7):
        assert KappaRational.from_fraction(
            rec.closed_form("a", m).substitute(1)
        ) == one
    assert rec.closed_form("c", 1) == kr((2,), (1, 1))
    for m in range(2, 7):
        assert rec.closed_form("b", m).substitute(0) == 1
        assert rec.closed_form("h", m).substitute(0) == 4
    with pytest.raises(ValueError):
        rec.closed_form("a", 0)
    with pytest.raises(KeyError):
        rec.closed_form("zz", 1)


def test_quintic_unit_coupling_factorization():
    # the degree-5 numerator at k=1 equals -2m(m+2)(m+3)(m+5)
    for m in range(1, 8):
        value = rec.quintic_s_numerator(m).substitute(1)
        assert value == -2 * m * (m + 2) * (m + 3) * (m + 5)


def test_verify_closed_forms_small():
    report = rec.verify_closed_forms(2)
    assert report.ok, [(r.name, r.detail) for r in report.failures]
    assert len(report.records) > 50


def test_verify_closed_forms_reports_a_wrong_form(monkeypatch):
    # "p" is stated as the closed form "c"; put "b" in its place and only
    # the one slot "p" predicts fails, naming both values.
    monkeypatch.setitem(rec._CLOSED_FORMS, "p", rec._cf_b)
    report = rec.verify_closed_forms(1)
    assert [r.name for r in report.failures] == ["z2*P[0m00] m=1 slot=[1, 0, 1, 1]"]
    detail = report.failures[0].detail
    assert detail == {"expected": str(rec._cf_b(1)), "actual": str(rec._cf_c(1))}


def test_triality_identities():
    for sigma in rs.TRIALITY_MAPS[1:]:
        for v, m in ((1, (2, 1, 1, 0)), (2, (1, 1, 0, 2)), (3, (0, 1, 2, 1))):
            report = rec.triality_consistent(v, m, sigma)
            assert report.ok


def pairwise_peel(v, m):
    """z_v * P_m expanded by peeling its leading monomial term by term with
    ZPolynomial - and *, the reference for expand_product."""
    residual = ZPolynomial.variable(v) * solver.solve(m).polynomial
    candidates = {tuple(x + s for x, s in zip(m, shift)) for shift in rec.SHIFTS[v]}
    terms = {}
    while residual.terms:
        lead = max(residual.terms, key=rec._monomial_key)
        if lead not in candidates:
            raise ResidualNonzero(
                f"z{v} * P_{m}: leading remainder {lead} is not an admissible shift"
            )
        coeff = residual.terms[lead]
        residual = residual - solver.solve(lead).polynomial * coeff
        terms[lead] = coeff
        candidates.discard(lead)
    return terms


SMALL_M = [m for m in itertools.product(range(4), repeat=4) if sum(m) <= 3]


def test_expand_product_matches_pairwise_peel():
    # All 140 products over |m| <= 3, and every relation family up to m = 4:
    # the same terms, inserted in the same (peeling) order.
    cases = [(v, m) for v in (1, 2, 3, 4) for m in SMALL_M]
    assert len(cases) == 140
    cases += [(v, base) for m in range(1, 5) for _, v, base, _ in rec._relation_families(m)]
    for v, m in cases:
        got = rec.expand_product(v, m).terms
        assert list(got.items()) == list(pairwise_peel(v, m).items()), (v, m)


def test_residual_nonzero_on_corrupt_table(monkeypatch):
    # With only the first ``keep`` slots admissible, the one batch zero test
    # fails and names the leading remainder the pairwise peel stops at.
    shifts = rec.SHIFTS
    for v, m, keep, lead in [
        (1, (1, 0, 0, 0), 1, (0, 1, 0, 0)),
        (2, (1, 1, 0, 0), 3, (3, 0, 0, 0)),
        (1, (2, 1, 1, 0), 2, (2, 0, 2, 1)),
    ]:
        crippled = dict(shifts)
        crippled[v] = crippled[v][:keep]
        monkeypatch.setattr(rec, "SHIFTS", crippled)
        message = f"z{v} * P_{m}: leading remainder {lead} is not an admissible shift"
        for expand in (rec.expand_product, pairwise_peel):
            with pytest.raises(ResidualNonzero) as err:
                expand(v, m)
            assert str(err.value) == message


def test_residual_test_makes_no_pairwise_add(monkeypatch):
    # The identity z_v P_m = sum c_j P_j is kept as rows of pairs, each c_j a
    # weight as it stands: one kappa_sum per admissible slot reads and settles
    # its row, one kappa_all_zero tests the rows of z_v P_m and of each
    # nonzero slot's P_s that no slot settles, and no KappaRational + or * runs.
    cases = ((2, (0, 1, 1, 1)), (1, (2, 1, 1, 0)))
    want = []
    for v, m in cases:
        e = rec.expand_product(v, m)  # every solve it needs is cached
        exps = {tuple(a + (j == v - 1) for j, a in enumerate(x))
                for x in solver.solve(m).polynomial.terms}
        for s in e.terms:
            exps |= set(solver.solve(s).polynomial.terms)
        slots = {tuple(a + b for a, b in zip(m, s)) for s in rec.SHIFTS[v]}
        want.append(len(exps - slots))
    sizes = []
    calls = {"add": 0, "batches": 0, "kappa_sum": 0, "mul": 0}

    def counted_add(self, other, _add=KappaRational.__add__):
        calls["add"] += 1
        return _add(self, other)

    def counted_mul(self, other, _mul=KappaRational.__mul__):
        calls["mul"] += 1
        return _mul(self, other)

    def batch(sums, _all_zero=rec.kappa_all_zero):
        calls["batches"] += 1
        sums = list(sums)
        sizes.append(len(sums))
        return _all_zero(sums)

    def counted_sum(pairs, _sum=rec.kappa_sum):
        calls["kappa_sum"] += 1
        return _sum(pairs)

    monkeypatch.setattr(KappaRational, "__add__", counted_add)
    monkeypatch.setattr(KappaRational, "__mul__", counted_mul)
    monkeypatch.setattr(rec, "kappa_all_zero", batch)
    monkeypatch.setattr(rec, "kappa_sum", counted_sum)
    for v, m in cases:
        rec.expand_product(v, m)
    slots = 0
    for v, m in cases:
        shifted = {tuple(a + b for a, b in zip(m, s)) for s in rec.SHIFTS[v]}
        slots += sum(min(e) >= 0 for e in shifted)
    assert calls["batches"] == 2
    assert sizes == want
    assert calls["add"] == 0
    assert calls["kappa_sum"] == slots
    assert calls["mul"] == 0


def test_ladder_matches_solver():
    for m in (1, 2):
        got = rec.ladder_next(m)
        want = solver.solve((m + 1, 0, 0, 0))
        assert got.polynomial == want.polynomial
        assert got.m == (m + 1, 0, 0, 0)
        assert got.coefficients[(0, 0, 0, 0)] == kr((1,))


def test_ladder_mixed_matches_solver():
    got = rec.ladder_mixed(1)
    assert got.polynomial == solver.solve((1, 1, 0, 0)).polynomial


def test_expansion_json():
    e = rec.expand_product(1, (1, 0, 0, 0))
    obj = e.to_json_obj()
    assert obj["v"] == 1 and obj["m"] == [1, 0, 0, 0]
    assert [t["mp"] for t in obj["terms"]] == sorted(t["mp"] for t in obj["terms"])
