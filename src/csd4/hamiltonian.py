"""The gauged Calogero-Sutherland operator in character variables.

After factoring out the ground-state wavefunction and changing variables to
the four fundamental characters z1..z4, the Hamiltonian becomes a second
order differential operator L with polynomial coefficients, typed once in
the table ``_SECOND``/``_FIRST``.  It is normalized so that L P = eps(m) P on
the eigenpolynomial with quantum numbers m, eps the excitation energy.

Two algorithms run over that table: generic differentiation (:func:`apply`),
and the action on one monomial (:func:`apply_to_monomial`), which evaluates
the table's terms grouped at import by the shift they apply; the s = 0 group
is the eigenvalue.  The second is the solver's one evaluator of L; tests
check it against the first, which stays the independent reference.
:func:`apply` collects the products of the table's coefficients with the
derivatives of p under their output monomial and sums each monomial once,
with :func:`~csd4.kappa.kappa_sum`; :func:`csd4.solver.verify_eigen` adds
-eps P to the same pairs and tests that every sum, so (L - eps) P, is zero,
in one :func:`~csd4.kappa.kappa_all_zero`.
The table itself is checked independently, by the finite-difference operator
on the torus (:mod:`csd4.qspace`) and against the energy's quadratic form.
"""

from __future__ import annotations

from .kappa import KappaRational, kappa_linear, kappa_sum
from .rootsystem import check_dominant, weight_to_root
from .zpoly import ZPolynomial


# Coefficients of L, with second-order cross terms listed once for j < k.
_SECOND = {
    (1, 1): ZPolynomial({(2, 0, 0, 0): 2, (0, 1, 0, 0): -4, (0, 0, 0, 0): -16}),
    (2, 2): ZPolynomial({(0, 2, 0, 0): 4, (2, 0, 0, 0): -8, (0, 0, 2, 0): -8,
                         (0, 0, 0, 2): -8, (1, 0, 1, 1): -4, (0, 1, 0, 0): 16}),
    (3, 3): ZPolynomial({(0, 0, 2, 0): 2, (0, 1, 0, 0): -4, (0, 0, 0, 0): -16}),
    (4, 4): ZPolynomial({(0, 0, 0, 2): 2, (0, 1, 0, 0): -4, (0, 0, 0, 0): -16}),
    (1, 2): ZPolynomial({(1, 1, 0, 0): 4, (0, 0, 1, 1): -12, (1, 0, 0, 0): -16}),
    (1, 3): ZPolynomial({(1, 0, 1, 0): 2, (0, 0, 0, 1): -16}),
    (1, 4): ZPolynomial({(1, 0, 0, 1): 2, (0, 0, 1, 0): -16}),
    (2, 3): ZPolynomial({(0, 1, 1, 0): 4, (1, 0, 0, 1): -12, (0, 0, 1, 0): -16}),
    (2, 4): ZPolynomial({(0, 1, 0, 1): 4, (1, 0, 1, 0): -12, (0, 0, 0, 1): -16}),
    (3, 4): ZPolynomial({(0, 0, 1, 1): 2, (1, 0, 0, 0): -16}),
}

_FIRST = {
    1: ZPolynomial.monomial((1, 0, 0, 0), kappa_linear(2, 12)),
    2: ZPolynomial({
        (0, 1, 0, 0): kappa_linear(4, 20),
        (0, 0, 0, 0): kappa_linear(-16, 16),
    }),
    3: ZPolynomial.monomial((0, 0, 1, 0), kappa_linear(2, 12)),
    4: ZPolynomial.monomial((0, 0, 0, 1), kappa_linear(2, 12)),
}


def _apply_pairs(p: ZPolynomial) -> dict:
    """Each output exponent of :func:`apply` with its :func:`~csd4.kappa.kappa_sum`
    pairs (c, a): c a coefficient of a derivative of p, a the integer c0 + c1*k
    of a term of the table (:func:`_derive` rejects any other entry)."""
    firsts = {j: p.derivative(j) for j in range(1, 5)}
    products = [(coeff, firsts[j].derivative(k)) for (j, k), coeff in _SECOND.items()]
    products += [(coeff, firsts[j]) for j, coeff in _FIRST.items()]
    pairs: dict = {}
    for coeff, d in products:
        for a, ca in coeff.terms.items():
            num = ca.num
            for e, c in d.terms.items():
                f = (e[0] + a[0], e[1] + a[1], e[2] + a[2], e[3] + a[3])
                pairs.setdefault(f, []).append((c, num))
    return pairs


def apply(p: ZPolynomial) -> ZPolynomial:
    """L applied by generic differentiation, exactly: each output
    coefficient is one :func:`~csd4.kappa.kappa_sum` of its pairs."""
    out = {}
    for f, pairs in _apply_pairs(p).items():
        c = kappa_sum(pairs)
        if c:
            out[f] = c
    return ZPolynomial(out, _raw=True)


def _group_value(terms, e) -> KappaRational:
    """Sum of (c0 + c1*k) * prod(e_i - o for (i, o) in factors) at exponent e."""
    const = slope = 0
    for c0, c1, factors in terms:
        x = 1
        for i, o in factors:
            x *= e[i] - o
        const += c0 * x
        slope += c1 * x
    return kappa_linear(const, slope)


def _derive() -> tuple:
    """The table's terms, grouped by the shift they apply to a monomial.

    A term c*z^a of the coefficient of the derivative with orders n (n_i the
    count of i in the key) sends z^e to c*(e)_n z^(e-s), s = n - a, where
    (e)_n = prod_i e_i (e_i - 1)...(e_i - n_i + 1) is the product of e_i - o
    over the pairs (i, o) in ``factors``.  The s = 0 group is eps(e); each
    other group, with its shift s in weight coordinates, is the coefficient
    of z^(e-s) in L z^e.  A coefficient that is not an integer c0 + c1*k, or
    a shift off the root lattice (weight_to_root), raises ValueError.
    """
    groups: dict = {}
    for key, coeff in [*_SECOND.items(), *(((i,), c) for i, c in _FIRST.items())]:
        n = [key.count(i) for i in range(1, 5)]
        factors = tuple((i, o) for i in range(4) for o in range(n[i]))
        for a, c in coeff.terms.items():
            if c.den != (1,) or len(c.num) > 2:
                raise ValueError(f"coefficient {c} of L is not an integer c0 + c1*k")
            s = tuple(x - y for x, y in zip(n, a))
            groups.setdefault(s, []).append((*(c.num + (0, 0))[:2], factors))
    for s in groups:
        weight_to_root(s)
    return groups.pop((0, 0, 0, 0)), tuple(groups.items())


_DIAGONAL, _SHIFTED = _derive()


def eigenvalue(m) -> KappaRational:
    """Excitation energy eps(m), an exact degree-1 polynomial in the coupling."""
    return _group_value(_DIAGONAL, check_dominant(m))


def apply_to_monomial(e) -> ZPolynomial:
    """L z^e from the grouped table, as :func:`csd4.solver.solve` pushes
    each term through it; tests check it against :func:`apply`."""
    e = tuple(e)
    out = {}
    eps = eigenvalue(e)
    if eps:
        out[e] = eps
    # The shifts are distinct and nonzero, so each term has its own exponent.
    for s, terms in _SHIFTED:
        coeff = _group_value(terms, e)
        if not coeff:
            continue
        shifted = (e[0] - s[0], e[1] - s[1], e[2] - s[2], e[3] - s[3])
        if any(x < 0 for x in shifted):
            msg = f"nonzero shift coefficient at invalid exponent {shifted}"
            raise ArithmeticError(msg)
        out[shifted] = coeff
    return ZPolynomial(out, _raw=True)


def commutator(v: int, p: ZPolynomial) -> ZPolynomial:
    """[L, z_v] p, always derived from :func:`apply` itself."""
    zv = ZPolynomial.variable(v)
    return apply(zv * p) - zv * apply(p)
