"""The gauged Calogero-Sutherland operator in character variables.

After factoring out the ground-state wavefunction and changing variables to
the four fundamental characters z1..z4, the Hamiltonian becomes a second
order differential operator L with polynomial coefficients, ``_TABLE``,
typed once per triality orbit.  It is normalized so that L P = eps(m) P on
the eigenpolynomial with quantum numbers m, eps the excitation energy.

Two algorithms run over that table: generic differentiation (:func:`apply`),
and the action on one monomial, which evaluates the table's terms grouped
at import by the shift they apply, from the 14 falling-factorial products
of the derivatives computed once per exponent; the s = 0 group is the
eigenvalue.
:func:`monomial_image` is that second algorithm on integers, each
coefficient an integer pair (c0, c1) meaning c0 + c1*k, and the solver's
one evaluator of L.  The image depends on the exponent alone, so the
process keeps one bounded memo of images, shared by every solve; the
grouped table is evaluated on a miss only.  Like the table, the memo
belongs to the operator, and :func:`csd4.solver.clear_cache` leaves it.
:func:`apply_to_monomial` and :func:`eigenvalue` read its pairs as
polynomials, and tests check them against the first, which stays the
independent reference.  :func:`apply` collects the pairs
(c, n*a) of a coefficient c of p, the integer n its derivative brings
down and a coefficient a of the table under their output monomial, and
sums each monomial once, with :func:`~csd4.kappa.kappa_sum`, so it forms
no product of rational functions; :func:`annihilates` adds -eps p to the
same pairs and zero-tests every sum, so (L - eps) p, in one
:func:`~csd4.kappa.kappa_all_zero`.  The table itself is checked
independently, by the finite-difference operator on the torus
(:mod:`csd4.qspace`) and against the energy's quadratic form.
"""

from __future__ import annotations

from functools import lru_cache

from .kappa import KappaRational, kappa_all_zero, kappa_linear, kappa_sum, poly_neg, poly_scale
from .rootsystem import TRIALITY_MAPS, check_dominant, weight_to_root
from .zpoly import ZPolynomial


def _by_triality(typed: dict) -> dict:
    """Triality commutes with L, so the table holds each typed entry's images
    under TRIALITY_MAPS; the first image of each key is kept."""
    table: dict = {}
    for key, coeff in typed.items():
        for sigma in TRIALITY_MAPS:
            image = tuple(sorted(sigma[j] for j in key))
            table.setdefault(image, coeff.permute_variables(sigma))
    return table


# Coefficients of L, keyed by the variables differentiated: (j, k), j <= k, or (j,).
_TABLE = _by_triality({
    (1, 1): ZPolynomial({(2, 0, 0, 0): 2, (0, 1, 0, 0): -4, (0, 0, 0, 0): -16}),
    (2, 2): ZPolynomial({(0, 2, 0, 0): 4, (2, 0, 0, 0): -8, (0, 0, 2, 0): -8,
                         (0, 0, 0, 2): -8, (1, 0, 1, 1): -4, (0, 1, 0, 0): 16}),
    (1, 2): ZPolynomial({(1, 1, 0, 0): 4, (0, 0, 1, 1): -12, (1, 0, 0, 0): -16}),
    (1, 3): ZPolynomial({(1, 0, 1, 0): 2, (0, 0, 0, 1): -16}),
    (1,): ZPolynomial.monomial((1, 0, 0, 0), kappa_linear(2, 12)),
    (2,): ZPolynomial({(0, 1, 0, 0): kappa_linear(4, 20),
                       (0, 0, 0, 0): kappa_linear(-16, 16)}),
})


def _apply_pairs(p: ZPolynomial) -> dict:
    """Each output exponent of :func:`apply` with its :func:`~csd4.kappa.kappa_sum`
    pairs (c, n*a): c a coefficient of p at z^e, n the integer the derivative
    of z^e brings down (e_j, or e_j (e_k - delta_jk)), a the integer c0 + c1*k
    of a term of the table (:func:`_derive` rejects any other entry)."""
    scaled: dict = {}  # (n, a) -> n*a, one tuple per distinct weight, packed once by id
    pairs: dict = {}
    for key, coeff in _TABLE.items():
        for e, c in p.terms.items():
            d = list(e)
            n = 1
            for j in key:
                n *= d[j - 1]
                d[j - 1] -= 1
            if not n:
                continue
            for a, ca in coeff.terms.items():
                w = scaled.get((n, ca.num))
                if w is None:
                    w = scaled[n, ca.num] = poly_scale(ca.num, n)
                f = (d[0] + a[0], d[1] + a[1], d[2] + a[2], d[3] + a[3])
                pairs.setdefault(f, []).append((c, w))
    return pairs


def apply(p: ZPolynomial) -> ZPolynomial:
    """L applied by generic differentiation, exactly: each output
    coefficient is one :func:`~csd4.kappa.kappa_sum` of its pairs, all
    sharing one memo, so each coefficient of p is packed once per width."""
    out = {}
    memo: dict = {}
    for f, pairs in _apply_pairs(p).items():
        c = kappa_sum(pairs, memo=memo)
        if c:
            out[f] = c
    return ZPolynomial(out, _raw=True)


def annihilates(p: ZPolynomial, eps: KappaRational) -> bool:
    """Exact check that (L - eps) p is zero: -eps p joins the pairs of :func:`apply`,
    and one :func:`~csd4.kappa.kappa_all_zero`, which reduces none, tests every sum."""
    if eps.den != (1,):
        # The eigenvalues of the triangular L are the polynomials eps(e).
        return not p
    pairs = _apply_pairs(p)
    minus_eps = poly_neg(eps.num)
    for e, c in p.terms.items():
        pairs.setdefault(e, []).append((c, minus_eps))
    return kappa_all_zero(pairs.values())


def _derive() -> tuple:
    """The table's terms, grouped by the shift they apply to a monomial.

    A term c*z^a of the coefficient of the derivative with orders n (n_i the
    count of i in the key) sends z^e to c*(e)_n z^(e-s), s = n - a, where
    (e)_n = prod_i e_i (e_i - 1)...(e_i - n_i + 1) is the product of e_i - o
    over the pairs (i, o) of the key's entry in ``falling``, and the term is
    stored as (c0, c1, the index of that entry).  The s = 0 group is eps(e);
    each other group, with its shift s in weight coordinates, is the
    coefficient of z^(e-s) in L z^e.  A coefficient that is not an integer
    c0 + c1*k, or a shift off the root lattice (weight_to_root), raises
    ValueError.
    """
    falling = []
    groups: dict = {}
    for key, coeff in _TABLE.items():
        n = [key.count(i) for i in range(1, 5)]
        falling.append(tuple((i, o) for i in range(4) for o in range(n[i])))
        for a, c in coeff.terms.items():
            if c.den != (1,) or len(c.num) > 2:
                raise ValueError(f"coefficient {c} of L is not an integer c0 + c1*k")
            s = tuple(x - y for x, y in zip(n, a))
            groups.setdefault(s, []).append((*(c.num + (0, 0))[:2], len(falling) - 1))
    for s in groups:
        weight_to_root(s)
    return tuple(falling), groups.pop((0, 0, 0, 0)), tuple(groups.items())


_FALLING, _DIAGONAL, _SHIFTED = _derive()

# The images monomial_image keeps.  The cones of all dominant |m| <= 8 (every
# request of the coupling_mix population) share 748 exponents, so a bound of
# 1024 holds them all; a larger cone evicts the least recently used.
_IMAGE_MEMO_SIZE = 1024


@lru_cache(maxsize=_IMAGE_MEMO_SIZE)
def monomial_image(e) -> tuple:
    """L z^e on integers, from the grouped table: eps(e) as a pair (c0, c1),
    meaning c0 + c1*k, and the off-diagonal terms as a tuple of pairs
    (f, (c0, c1)) for the nonzero coefficients of z^f, f = e - s.

    The image depends on e alone, so the process keeps the last
    ``_IMAGE_MEMO_SIZE`` images, shared by every solve; a hit costs one
    lookup.  A miss checks e (:func:`~csd4.rootsystem.check_dominant`), so
    no entry is stored under an exponent that is not four non-negative ints,
    then computes each falling-factorial product (e)_n of ``_FALLING`` once,
    and each group sums c0 and c1 times its terms' products.  A bool or
    float entry that hashes equal to an int finds that int's image, so
    :func:`apply_to_monomial` and :func:`eigenvalue` check their exponent
    before the lookup.  The shifts are distinct and nonzero, so each term
    has its own exponent.
    """
    e = check_dominant(e)
    x = []
    for factors in _FALLING:
        v = 1
        for i, o in factors:
            v *= e[i] - o
        x.append(v)
    out = []
    diagonal = None
    for s, terms in ((None, _DIAGONAL), *_SHIFTED):
        c0 = c1 = 0
        for a0, a1, j in terms:
            c0 += a0 * x[j]
            c1 += a1 * x[j]
        if s is None:
            diagonal = c0, c1
        elif c0 or c1:
            shifted = (e[0] - s[0], e[1] - s[1], e[2] - s[2], e[3] - s[3])
            if shifted[0] < 0 or shifted[1] < 0 or shifted[2] < 0 or shifted[3] < 0:
                msg = f"nonzero shift coefficient at invalid exponent {shifted}"
                raise ArithmeticError(msg)
            out.append((shifted, (c0, c1)))
    return diagonal, tuple(out)


def eigenvalue(m) -> KappaRational:
    """Excitation energy eps(m), an exact degree-1 polynomial in the coupling."""
    return kappa_linear(*monomial_image(check_dominant(m))[0])


def apply_to_monomial(e) -> ZPolynomial:
    """L z^e as a polynomial, the pairs of :func:`monomial_image` read by
    :func:`~csd4.kappa.kappa_linear`; tests check it against :func:`apply`.
    An exponent that is not four non-negative ints raises ValueError."""
    e = check_dominant(e)
    eps, image = monomial_image(e)
    out = {e: kappa_linear(*eps)} if eps != (0, 0) else {}
    for f, coeff in image:
        out[f] = kappa_linear(*coeff)
    return ZPolynomial(out, _raw=True)


def commutator(v: int, p: ZPolynomial) -> ZPolynomial:
    """[L, z_v] p, always derived from :func:`apply` itself."""
    zv = ZPolynomial.variable(v)
    return apply(zv * p) - zv * apply(p)
