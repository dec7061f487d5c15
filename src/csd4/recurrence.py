"""Products of a fundamental character with an eigenpolynomial.

Multiplying an eigenpolynomial by z_v expands again in the eigenbasis, with
quantum numbers shifted by the weights of the v-th fundamental
representation; at unit coupling the expansion degenerates to the ordinary
Clebsch-Gordan series.  The basis is unitriangular in the height order, so
each admissible slot's coefficient follows from the slot's own exponent and
the slots above it.  The whole identity z_v P_m = sum c_j P_j is then
zero-tested in one exact batch (:func:`~csd4.kappa.kappa_all_zero`), which
also verifies that only the admissible shift slots appear.  Each c_j enters
that batch as a rational weight on the coefficients of P_j, as it stands:
no product c_j P_j is formed, and nothing is cleared to a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Check, Report, ResidualNonzero
from .kappa import KappaRational, kappa_all_zero, kappa_linear, kappa_sum
from .rootsystem import (
    TRIALITY_MAPS, WEYL_VECTOR_ROOT, apply_triality, weight_orbit, weight_to_root,
)
from .solver import CSPolynomial, solve
from .zpoly import ZPolynomial, to_rows
from . import hamiltonian

# Quantum-number displacements: the weights of the multiplied representation,
# highest first.  z2 multiplies by the adjoint, whose four zero weights are
# folded into the single diagonal slot.
SHIFTS = {
    v: tuple(weight_orbit(tuple(int(i == v) for i in range(1, 5))))
    for v in (1, 2, 3, 4)
}
SHIFTS[2] += ((0, 0, 0, 0),)
_RHO1, _RHO2, _RHO3, _RHO4 = WEYL_VECTOR_ROOT
_ZERO = KappaRational(0)
_PLUS, _MINUS = (1,), (-1,)  # kappa_sum weights


def _monomial_key(e):
    # Height order on shifts == descending Weyl-vector pairing on exponents.
    return (_RHO1 * e[0] + _RHO2 * e[1] + _RHO3 * e[2] + _RHO4 * e[3], e)


@dataclass(frozen=True)
class RecurrenceExpansion:
    variable: int
    m: tuple
    terms: dict  # shifted quantum numbers -> nonzero KappaRational

    def coefficient(self, mp) -> KappaRational:
        return self.terms.get(tuple(mp), KappaRational(0))

    def to_json_obj(self) -> dict:
        return {"v": self.variable, "m": list(self.m),
                "terms": to_rows("mp", sorted(self.terms.items()))}


def expand_product(v: int, m) -> RecurrenceExpansion:
    """Expand z_v times the eigenpolynomial of m in the eigenbasis.

    The admissible slots, highest first, are solved for one at a time at
    their own exponent e, where z_v P_m has the coefficient P_m[e - delta_v]
    and every higher P_j is known.  Then the whole identity
    z_v P_m - sum c_j P_j = 0 is tested for zero in one
    :func:`~csd4.kappa.kappa_all_zero`, its rows the pairs (P_m[e - delta_v], 1)
    and (P_j[e], -c_j), each -c_j a rational weight.  A nonzero row names the
    leading remainder in the error.
    """
    m = tuple(m)
    base = solve(m).polynomial.terms
    slots = {tuple(m[i] + s[i] for i in range(4)) for s in SHIFTS[v]}
    polys = {e: solve(e).polynomial.terms
             for e in sorted(slots, key=_monomial_key, reverse=True) if min(e) >= 0}
    i = v - 1
    terms = {}
    for e in polys:
        c = base.get((*e[:i], e[i] - 1, *e[i + 1:]), _ZERO)
        higher = [(b * polys[s][e], _MINUS) for s, b in terms.items() if e in polys[s]]
        c = kappa_sum([(c, _PLUS), *higher])
        if c:
            terms[e] = c
    rows = {}  # exponent -> the pairs of z_v P_m - sum c_j P_j there
    for e, c in base.items():
        rows.setdefault((*e[:i], e[i] + 1, *e[i + 1:]), []).append((c, _PLUS))
    for s, c in terms.items():
        w = -c
        for e, p in polys[s].items():
            rows.setdefault(e, []).append((p, w))
    if not kappa_all_zero(rows.values()):
        lead = max((e for e, pairs in rows.items() if not kappa_all_zero([pairs])),
                   key=_monomial_key)
        raise ResidualNonzero(
            f"z{v} * P_{m}: leading remainder {lead} is not an admissible shift"
        )
    return RecurrenceExpansion(v, m, terms)


# ----------------------------------------------------------------------
# Closed forms for the one-nonzero-quantum-number families.


def _ratio(num_factors, den_factors) -> KappaRational:
    # Dividing by one linear factor at a time keeps the denominator factored.
    out = KappaRational(1)
    for f in num_factors:
        out = out * f
    for f in den_factors:
        out = out / f
    return out


def closed_form(name: str, m: int) -> KappaRational:
    """The closed-form coefficient of the named family at integer m >= 1."""
    if m < 1:
        raise ValueError("closed forms are stated for m >= 1")
    builder = _CLOSED_FORMS.get(name)
    if builder is None:
        raise KeyError(f"unknown coefficient family {name!r}")
    return builder(m)


def _cf_a(m):
    return _ratio(
        [kappa_linear(m, 0), kappa_linear(m, 2),
         kappa_linear(m - 1, 4), kappa_linear(m - 1, 6)],
        [kappa_linear(m - 1, 1), kappa_linear(m - 1, 3),
         kappa_linear(m, 3), kappa_linear(m, 5)],
    )


def _cf_c(m):
    return _ratio([kappa_linear(m, 0), kappa_linear(m - 1, 2)],
                  [kappa_linear(m, 1), kappa_linear(m - 1, 1)])


def _cf_b(m):
    return _ratio([kappa_linear(m, 0), kappa_linear(m - 1, 4)],
                  [kappa_linear(m - 1, 1), kappa_linear(m, 3)])


def _cf_d(m):
    return _ratio(
        [
            kappa_linear(2 * m, 0),
            kappa_linear(m, 1),
            kappa_linear(m - 1, 3),
            kappa_linear(m - 1, 4),
            kappa_linear(2 * m - 1, 6),
        ],
        [
            kappa_linear(m - 1, 1),
            kappa_linear(m - 1, 2),
            kappa_linear(m, 3),
            kappa_linear(2 * m - 1, 5),
            kappa_linear(2 * m, 5),
        ],
    )


def _cf_e(m):
    return _ratio([kappa_linear(m, 0), kappa_linear(m - 1, 3)],
                  [kappa_linear(m - 1, 1), kappa_linear(m, 2)])


def _cf_f(m):
    return _ratio(
        [
            kappa_linear(m * (m - 1), 0),
            kappa_linear(m - 2, 2),
            kappa_linear(m, 2),
            kappa_linear(m - 1, 4),
            kappa_linear(m - 1, 5),
        ],
        [
            kappa_linear(m - 2, 1),
            kappa_linear(m - 1, 1),
            kappa_linear(m - 1, 1),
            kappa_linear(m - 1, 3),
            kappa_linear(m, 3),
            kappa_linear(m, 4),
        ],
    )


def _cf_h(m):
    return _ratio(
        [KappaRational((4 * (m * m - 1), 4 * (6 * m - 1), 20, -12))],
        [kappa_linear(m - 1, 1), kappa_linear(1, 3), kappa_linear(m + 1, 5)],
    )


def _cf_k(m):
    return _ratio(
        [
            kappa_linear(4 * m, 0),
            kappa_linear(m, 1),
            kappa_linear(m, 1),
            kappa_linear(m, 2),
            kappa_linear(m - 1, 3),
            kappa_linear(m - 1, 4),
            kappa_linear(m - 1, 4),
            kappa_linear(2 * m - 1, 4),
            kappa_linear(m - 1, 5),
            kappa_linear(2 * m - 1, 6),
        ],
        [
            kappa_linear(m - 1, 1),
            kappa_linear(m - 1, 2),
            kappa_linear(m - 1, 2),
            kappa_linear(m, 3),
            kappa_linear(m, 3),
            kappa_linear(m, 4),
            kappa_linear(2 * m - 2, 5),
            kappa_linear(2 * m - 1, 5),
            kappa_linear(2 * m - 1, 5),
            kappa_linear(2 * m, 5),
        ],
    )


def _cf_q(m):
    return _ratio(
        [
            kappa_linear(2 * m * (m - 1), 0),
            kappa_linear(m, 1),
            kappa_linear(m, 1),
            kappa_linear(m - 2, 2),
            kappa_linear(m - 1, 3),
            kappa_linear(m - 1, 3),
            kappa_linear(m - 1, 3),
            kappa_linear(2 * m - 1, 6),
        ],
        [
            kappa_linear(m - 2, 1),
            kappa_linear(m - 1, 1),
            kappa_linear(m - 1, 1),
            kappa_linear(m - 1, 2),
            kappa_linear(m - 1, 2),
            kappa_linear(m, 2),
            kappa_linear(m, 2),
            kappa_linear(2 * m - 1, 5),
            kappa_linear(2 * m, 5),
        ],
    )


def _cf_r(m):
    return _ratio(
        [kappa_linear(m, 0), kappa_linear(m, 1),
         kappa_linear(m - 1, 3), kappa_linear(m - 1, 4)],
        [kappa_linear(m - 1, 1), kappa_linear(m - 1, 2),
         kappa_linear(m, 2), kappa_linear(m, 3)],
    )


def quintic_s_numerator(m: int) -> KappaRational:
    """The degree-5 coupling polynomial entering the diagonal coefficient."""
    return KappaRational(
        (
            -1 + 5 * m * m - 4 * m**4,
            2 + 25 * m - 7 * m * m - 40 * m**3 + 2 * m**4,
            20 - 35 * m - 123 * m * m + 20 * m**3,
            -22 - 115 * m + 63 * m * m,
            -19 + 65 * m,
            20,
        )
    )


def _cf_s(m):
    return _ratio(
        [KappaRational(-4), quintic_s_numerator(m)],
        [
            kappa_linear(1, 1),
            kappa_linear(m - 1, 1),
            kappa_linear(m + 1, 4),
            kappa_linear(2 * m - 1, 5),
            kappa_linear(2 * m + 1, 5),
        ],
    )


# The families p and g are the closed forms c and e.
_CLOSED_FORMS = {
    "a": _cf_a,
    "b": _cf_b,
    "c": _cf_c,
    "d": _cf_d,
    "e": _cf_e,
    "f": _cf_f,
    "g": _cf_e,
    "h": _cf_h,
    "k": _cf_k,
    "p": _cf_c,
    "q": _cf_q,
    "r": _cf_r,
    "s": _cf_s,
}

CLOSED_FORM_NAMES = tuple(sorted(_CLOSED_FORMS))


# Relation families: label, variable, base quantum numbers, and the expected
# coefficient name per shifted slot (None marks the unit leading slot).  Each
# representative (variable v, index u of the nonzero quantum number, slots)
# stands for its triality images, one per distinct (sigma(v), sigma(u)).
def _relation_families(m: int):
    representatives = (
        (1, 1, {
            (m + 1, 0, 0, 0): None,
            (m - 1, 0, 0, 0): "a",
            (m - 1, 1, 0, 0): "c",
        }),
        (1, 3, {
            (1, 0, m, 0): None,
            (0, 0, m - 1, 1): "b",
        }),
        (1, 2, {
            (1, m, 0, 0): None,
            (1, m - 1, 0, 0): "d",
            (0, m - 1, 1, 1): "e",
        }),
        (2, 1, {
            (m, 1, 0, 0): None,
            (m - 2, 1, 0, 0): "f",
            (m - 1, 0, 1, 1): "g",
            (m, 0, 0, 0): "h",
        }),
        (2, 2, {
            (0, m + 1, 0, 0): None,
            (0, m - 1, 0, 0): "k",
            (1, m - 1, 1, 1): "p",
            (1, m - 2, 1, 1): "q",
            (2, m - 1, 0, 0): "r",
            (0, m - 1, 2, 0): "r",
            (0, m - 1, 0, 2): "r",
            (0, m, 0, 0): "s",
        }),
    )
    families = []
    for v, u, slots in representatives:
        images = {}
        for sigma in TRIALITY_MAPS:
            images.setdefault((sigma[v], sigma[u]), sigma)
        for (image_v, image_u), sigma in sorted(images.items()):
            row = "".join("m" if i == image_u else "0" for i in range(1, 5))
            base = tuple(m if i == image_u else 0 for i in range(1, 5))
            families.append((f"z{image_v}*P[{row}]", image_v, base, {
                apply_triality(slot, sigma): name for slot, name in slots.items()
            }))
    return families


def _compare(name: str, expected: KappaRational, actual: KappaRational) -> Check:
    if expected == actual:
        return Check(name, True)
    return Check(name, False, {"expected": str(expected), "actual": str(actual)})


def verify_closed_forms(max_m: int) -> Report:
    """Check the closed-form coefficients against extracted ones for m <= max_m.

    Also asserts that every closed form collapses to 1 at unit coupling
    (the undeformed Clebsch-Gordan limit).
    """
    if max_m < 1:
        raise ValueError("max_m must be at least 1")
    report = Report()
    zero, one = KappaRational(0), KappaRational(1)
    for m in range(1, max_m + 1):
        forms = {name: closed_form(name, m) for name in CLOSED_FORM_NAMES}
        for label, v, base, slots in _relation_families(m):
            expansion = expand_product(v, base)
            expected_slots = {}
            for slot, name in slots.items():
                if any(c < 0 for c in slot):
                    continue
                value = one if name is None else forms[name]
                if value:
                    expected_slots[slot] = value
            # every predicted slot, then every extracted slot none predicts
            for slot in {**expected_slots, **expansion.terms}:
                report.records.append(_compare(
                    f"{label} m={m} slot={list(slot)}",
                    expected_slots.get(slot, zero), expansion.coefficient(slot),
                ))
        for name, cf in forms.items():
            if not cf:
                continue  # identically-zero coefficient: its slot is absent
            report.records.append(_compare(
                f"{name}(k=1) m={m} slot=[]", one,
                KappaRational.from_fraction(cf.substitute(1)),
            ))
    return report


def triality_consistent(v: int, m, sigma) -> Report:
    """Coefficients of z_v * P_m map onto those of z_sigma(v) * P_sigma(m)."""
    report = Report()
    image_v = sigma[v]
    base = expand_product(v, tuple(m))
    image = expand_product(image_v, apply_triality(tuple(m), sigma))
    family = f"triality z{v}->z{image_v}"
    for mp, coeff in base.terms.items():
        slot = apply_triality(mp, sigma)
        report.records.append(_compare(
            f"{family} slot={list(slot)}", coeff, image.coefficient(slot)
        ))
    report.records.append(_compare(
        f"{family} term count",
        KappaRational(len(base.terms)), KappaRational(len(image.terms)),
    ))
    return report


# ----------------------------------------------------------------------
# Ladder construction along the first quantum number.


def _wrap(m, poly: ZPolynomial) -> CSPolynomial:
    coeffs = {}
    for exps, c in poly.terms.items():
        mu = weight_to_root(tuple(m[i] - exps[i] for i in range(4)))
        coeffs[mu] = c
    return CSPolynomial(tuple(m), hamiltonian.eigenvalue(m), coeffs, poly)


def ladder_next(m: int) -> CSPolynomial:
    """Climb from the polynomials at (m,0,0,0) and (m-1,0,0,0) to m+1.

    Multiplying the three-term relation by the operator shifted by the
    eigenvalue of the unwanted slot cancels that slot and leaves an
    explicit commutator formula for the next rung.
    """
    if m < 1:
        raise ValueError("the ladder starts at m = 1")
    p_m = solve((m, 0, 0, 0)).polynomial
    p_prev = solve((m - 1, 0, 0, 0)).polynomial
    comm = hamiltonian.commutator(1, p_m)
    c1 = KappaRational(1) / (KappaRational(4) * kappa_linear(m, 1))
    c2 = kappa_linear(1, 4) / (KappaRational(2) * kappa_linear(m, 1))
    c3 = _cf_a(m) * kappa_linear(m, 5) / kappa_linear(m, 1)
    poly = (
        comm * c1
        - (ZPolynomial.variable(1) * p_m) * c2
        + p_prev * c3
    )
    return _wrap((m + 1, 0, 0, 0), poly)


def ladder_mixed(m: int) -> CSPolynomial:
    """Recover the (m,1,0,0) polynomial from the three-term relation."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    z1 = ZPolynomial.variable(1)
    poly = (
        z1 * solve((m + 1, 0, 0, 0)).polynomial
        - solve((m + 2, 0, 0, 0)).polynomial
        - solve((m, 0, 0, 0)).polynomial * _cf_a(m + 1)
    ) * _cf_c(m + 1).inverse()
    return _wrap((m, 1, 0, 0), poly)
