"""Height-ordered construction of the eigenpolynomials.

Every eigenpolynomial is z^m plus corrections on monomials z^(m - mu),
where mu runs over the lattice cone of nonnegative simple-root
combinations that keep the exponent componentwise nonnegative.  L acts
triangularly, L z^e = eps(e) z^e plus terms lower in the cone (Heckman &
Opdam), so one pass over the cone in increasing height of mu solves it:
each known term is pushed through :func:`csd4.hamiltonian.monomial_image`,
which reads L z^e as integer pairs (c0, c1) meaning c0 + c1*k, and its
off-diagonal image summed into the terms still to come.  A later
coefficient is that sum over an eigenvalue difference, a nonzero
polynomial in the coupling (so the symbolic solve never divides by zero).

The pass is written once over a pluggable scalar, with two plugs: ``lift``
makes an integer pair (c0, c1), the eigenvalue difference's too, a scalar,
and ``quotient`` sums a coefficient's pairs over its lifted difference.
:func:`solve` runs it on rational functions of the coupling, each
coefficient one :func:`csd4.kappa.kappa_sum` that divides as it sums;
:func:`solve_at` runs it on integers at a coupling p/q, a pair lifted to
q*(c0 + c1*p/q) and each coefficient one integer dot product made one
Fraction.  Neither walk does other arithmetic on its scalar.  A
coefficient's own work is done once per solve, not once per sum it feeds:
its bound and packing (the memo of :func:`~csd4.kappa.kappa_sum`) and the
expansion of its denominator (:func:`~csd4.kappa.share_den`, from a twin
one factor smaller).

Triality permutes z1, z3, z4 and commutes with L, so a permutation sigma
that fixes m fixes the monic eigenpolynomial too: c(sigma mu) = c(mu).  The
pass therefore solves only the first exponent of each orbit of the
stabilizer of m (its orbit minimum in cone order), pushes the image of
every orbit member from that one evaluation of L, and hands the other
members the minimum's coefficient.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from . import hamiltonian
from .errors import InternalInconsistency, PoleAtKappa
from .kappa import KappaRational, kappa_sum, poly_linear, share_den
from .rootsystem import (
    TRIALITY_MAPS,
    apply_triality,
    check_dominant,
    height,
    root_to_weight,
    weight_to_root,
)
from .zpoly import ZPolynomial, from_rows, to_rows


class ConeElement(NamedTuple):
    mu: tuple  # simple-root coordinates
    exponent: tuple  # m minus the weight of mu, componentwise >= 0
    height: int


def support_cone(m) -> tuple:
    """All admissible shifts for quantum numbers m, as ConeElements sorted
    by (height, mu).

    Bounds: each exponent constraint caps n1, n3, n4 by (m_i + n2)/2, and
    feeding those caps into the e2 constraint caps n2 itself, so the
    enumeration box is finite.  (Equivalently: the pairing of the exponent
    with the Weyl vector drops by 4 per unit height, so heights cannot
    exceed a quarter of the pairing with m.)
    """
    m = check_dominant(m)
    m1, m2, m3, m4 = m
    elems = []
    for n2 in range(0, 2 * m2 + m1 + m3 + m4 + 1):
        for n1 in range(0, (m1 + n2) // 2 + 1):
            for n3 in range(0, (m3 + n2) // 2 + 1):
                e2 = m2 + n1 - 2 * n2 + n3
                for n4 in range(0, (m4 + n2) // 2 + 1):
                    if e2 + n4 < 0:
                        continue
                    # the weight of mu, as rootsystem.root_to_weight has it
                    w = (2 * n1 - n2, 2 * n2 - n1 - n3 - n4, 2 * n3 - n2, 2 * n4 - n2)
                    exp = (m1 - w[0], m2 - w[1], m3 - w[2], m4 - w[3])
                    elems.append(ConeElement((n1, n2, n3, n4), exp, n1 + n2 + n3 + n4))
    elems.sort(key=lambda el: (el.height, el.mu))
    if not elems or elems[0].mu != (0, 0, 0, 0):
        raise InternalInconsistency(f"support cone of {m} misses the origin")
    return tuple(elems)


@dataclass(frozen=True)
class CSPolynomial:
    """A solved eigenpolynomial: quantum numbers, energy, coefficient table."""

    m: tuple
    eigenvalue: KappaRational
    coefficients: Mapping  # mu (root coords) -> nonzero KappaRational
    polynomial: ZPolynomial

    def to_fixture_obj(self) -> dict:
        num, den = self.eigenvalue.as_strings()
        order = sorted(self.coefficients.items(), key=lambda t: (height(t[0]), t[0]))
        return {"m": list(self.m), "epsilon": {"num": num, "den": den},
                "coeffs": to_rows("mu", order)}

    @classmethod
    def from_fixture_obj(cls, obj) -> "CSPolynomial":
        m = check_dominant(obj["m"])
        eps = KappaRational.parse(obj["epsilon"]["num"], obj["epsilon"]["den"])
        coefficients = {}
        terms = {}
        for mu, c in from_rows("mu", obj["coeffs"]):
            if not c:
                continue
            coefficients[mu] = c
            w = root_to_weight(mu)
            terms[tuple(m[i] - w[i] for i in range(4))] = c
        return cls(m, eps, coefficients, ZPolynomial(terms, _raw=True))


_CACHE: dict = {}
_ONE = KappaRational(1)


def _walk(m, lift, quotient) -> tuple:
    """The one pass over the cone of m, over a pluggable scalar.

    The cone is visited in its (height, mu) order.  A first pass maps each
    exponent to the first member of its orbit under the triality
    permutations that fix m; that member is the orbit minimum, and with a
    trivial stabilizer every exponent is its own.  At an orbit minimum z^e,
    L z^e is read as integer pairs (c0, c1), meaning c0 + c1*k
    (:func:`csd4.hamiltonian.monomial_image`), and ``lift`` makes a pair a
    scalar.  Past height 0 (where the coefficient is 1), ``quotient`` takes
    the pairs (c, a) collected for z^e and the lifted eigenvalue difference
    d of eps(m) - eps(e), and returns the sum of the c*a over d; a vanishing
    d raises ZeroDivisionError, even with no pairs (0/0 is no value).  Every
    minimum reaches ``quotient``, whether or not pairs were pushed to it.  A
    zero quotient is a zero coefficient.  Then, for every distinct member
    g = sigma e of the orbit, each off-diagonal term a*z^f of L z^e gives the
    term a*z^(sigma f) of L z^g, and the pair (c, lift(a)) is appended to
    ``pending`` when sigma f is an orbit minimum.  Any other member of an
    orbit takes the minimum's coefficient object itself, at its own place in
    cone order, with no evaluation of L.  Every term must land on an
    exponent visited later: anything left in ``pending`` was reached out of
    order or outside the cone, and raises :class:`InternalInconsistency`.
    Returns the tables mu -> c and exponent -> c of the nonzero
    coefficients, both in cone order.
    """
    cone = support_cone(m)
    eps0, eps1 = hamiltonian.monomial_image(m)[0]
    # sigma e as a tuple lookup, one per permutation fixing m (identity first)
    moves = [itemgetter(*apply_triality((0, 1, 2, 3), sigma))
             for sigma in TRIALITY_MAPS if apply_triality(m, sigma) == m]
    minimum: dict = {}  # exponent -> its orbit minimum, for the others only
    for el in cone:
        if el.exponent not in minimum:
            for move in moves[1:]:
                g = move(el.exponent)
                if g != el.exponent:
                    minimum[g] = el.exponent

    pending: dict = {}  # orbit minimum -> the terms pushed onto it, summed at pop
    coeffs: dict = {}
    terms: dict = {}
    for el in cone:
        e = el.exponent
        if e in minimum:
            c = terms.get(minimum[e])
            if c is not None:
                coeffs[el.mu] = terms[e] = c
            continue
        (d0, d1), image = hamiltonian.monomial_image(e)
        c = _ONE
        if el.height:
            d = lift(eps0 - d0, eps1 - d1)
            if not d:
                raise ZeroDivisionError(f"eigenvalue difference vanishes at mu={el.mu}")
            c = quotient(pending.pop(e, ()), d)
            if not c:
                continue  # the coefficient vanishes
        coeffs[el.mu] = terms[e] = c
        # L z^(sigma e) = sigma(L z^e) for each distinct member sigma e.  A
        # term landing off an orbit minimum is dropped: its mirror image on
        # the minimum comes from another member.
        pushes = [(f, lift(*a)) for f, a in image]
        for move in {move(e): move for move in moves}.values():
            for f, a in pushes:
                f = move(f)
                if f not in minimum:
                    pending.setdefault(f, []).append((c, a))
    if pending:
        raise InternalInconsistency(
            f"L reaches z^{min(pending)} out of the height order of the cone of {m}"
        )
    return coeffs, terms


def solve(m) -> CSPolynomial:
    """Compute the eigenpolynomial for dominant quantum numbers m.

    One :func:`_walk` with coefficients rational functions of the coupling:
    each coefficient is one :func:`csd4.kappa.kappa_sum` of its pairs over
    its eigenvalue difference, with one packing memo for the whole solve,
    and coefficients with equal denominators share one expanded ``den``
    (:func:`csd4.kappa.share_den`).  The walk makes no other arithmetic on
    rational functions.  The result is cached, and its tables are read-only.
    """
    m = check_dominant(m)
    if m in _CACHE:
        return _CACHE[m]
    dens: dict = {}  # the distinct denominators met so far, for share_den
    packed: dict = {}  # each coefficient's bound and packing, for kappa_sum

    def quotient(pairs, d):
        return share_den(kappa_sum(pairs, d, packed), dens)

    coeffs, terms = _walk(m, poly_linear, quotient)
    # Every caller shares the cached result, so its tables are read-only.
    poly = ZPolynomial(MappingProxyType(terms), _raw=True)
    result = CSPolynomial(m, hamiltonian.eigenvalue(m), MappingProxyType(coeffs), poly)
    _CACHE[m] = result
    return result


def solve_at(m, kappa0) -> ZPolynomial:
    """The eigenpolynomial for m at a rational coupling, as
    ``specialize(solve(m), kappa0)`` returns it: the same constant
    coefficients, in the same term order.

    One :func:`_walk` on integers at ``kappa0 = p/q``: each pair (c0, c1),
    the eigenvalue difference's too, is lifted to the integer ``c0*q + c1*p``,
    q times its value, and a coefficient is the integer sum of its pairs'
    numerators times their lifts, over the lcm of their denominators, made
    one Fraction with the lifted difference, whose factor q cancels that of
    the lifts.  So each coefficient costs one gcd and no Fraction arithmetic,
    and like :func:`solve` the orbit members of a coefficient share its
    object.  Where no difference on the cone vanishes at ``kappa0``, each
    step evaluates the symbolic step's rational function there, so the
    values agree; every denominator of the symbolic result is a product of
    those differences, so a pole at ``kappa0`` always shows up as one
    vanishing.  Then, and when m is already solved, the result is the one
    fallback ``specialize(solve(m), kappa0)``, which places any
    :class:`PoleAtKappa` and its mu exactly.
    """
    m = check_dominant(m)
    kappa0 = Fraction(kappa0)
    p, q = kappa0.numerator, kappa0.denominator

    def lift(c0, c1):
        return c0 * q + c1 * p  # q times c0 + c1*kappa0

    def quotient(pairs, d):
        # the factor q of every lift a cancels against the one of d
        den = lcm(*[c.den[0] for c, _ in pairs])
        n = sum(c.num[0] * (den // c.den[0]) * a for c, a in pairs)
        return KappaRational.from_fraction(Fraction(n, den * d))

    if m not in _CACHE:
        try:
            return ZPolynomial(_walk(m, lift, quotient)[1], _raw=True)
        except ZeroDivisionError:
            pass  # a difference vanishes at kappa0
    return specialize(solve(m), kappa0)


def clear_cache() -> None:
    _CACHE.clear()


def specialize(p: CSPolynomial, kappa0) -> ZPolynomial:
    """Substitute a rational coupling value into every coefficient.

    Raises :class:`PoleAtKappa` carrying the offending shift mu when the
    value hits a resonance of some coefficient.
    """
    try:
        return p.polynomial.substitute_kappa(kappa0)
    except PoleAtKappa as exc:
        shift = tuple(p.m[i] - exc.exponent[i] for i in range(4))
        raise PoleAtKappa(exc.kappa, mu=weight_to_root(shift)) from exc


def verify_eigen(p: CSPolynomial) -> bool:
    """Exact check that (L - eps) P is zero (:func:`csd4.hamiltonian.annihilates`)."""
    return hamiltonian.annihilates(p.polynomial, p.eigenvalue)
