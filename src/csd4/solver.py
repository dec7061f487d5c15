"""Height-ordered construction of the eigenpolynomials.

Every eigenpolynomial is z^m plus corrections on monomials z^(m - mu),
where mu runs over the lattice cone of nonnegative simple-root
combinations that keep the exponent componentwise nonnegative.  The
coefficients follow from a triangular recursion in increasing height of
mu: each one equals the accumulated action of the monomial shift families
on already-known coefficients, divided by an eigenvalue difference that is
a nonzero polynomial in the coupling (so the symbolic solve never divides
by zero; numeric resonances only appear on specialization).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from . import hamiltonian
from .errors import InternalInconsistency, PoleAtKappa
from .kappa import KappaRational
from .rootsystem import check_dominant, height, root_to_weight, weight_to_root
from .zpoly import ZPolynomial


@dataclass(frozen=True)
class ConeElement:
    mu: tuple  # simple-root coordinates
    weight: tuple  # the same shift in weight coordinates
    exponent: tuple  # m - weight, componentwise >= 0
    height: int


@dataclass(frozen=True)
class SupportCone:
    m: tuple
    elements: tuple  # ConeElement, sorted by (height, mu)

    def __len__(self):
        return len(self.elements)


def support_cone(m) -> SupportCone:
    """Enumerate all admissible shifts for quantum numbers m.

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
                    mu = (n1, n2, n3, n4)
                    w = root_to_weight(mu)
                    exp = (m1 - w[0], m2 - w[1], m3 - w[2], m4 - w[3])
                    elems.append(ConeElement(mu, w, exp, n1 + n2 + n3 + n4))
    elems.sort(key=lambda el: (el.height, el.mu))
    if not elems or elems[0].mu != (0, 0, 0, 0):
        raise InternalInconsistency(f"support cone of {m} misses the origin")
    return SupportCone(m, tuple(elems))


@dataclass(frozen=True)
class CSPolynomial:
    """A solved eigenpolynomial: quantum numbers, energy, coefficient table."""

    m: tuple
    eigenvalue: KappaRational
    coefficients: Mapping  # mu (root coords) -> nonzero KappaRational
    polynomial: ZPolynomial

    def to_fixture_obj(self) -> dict:
        num, den = self.eigenvalue.as_strings()
        coeffs = []
        for mu in sorted(self.coefficients, key=lambda r: (height(r), r)):
            cn, cd = self.coefficients[mu].as_strings()
            coeffs.append({"mu": list(mu), "num": cn, "den": cd})
        return {"m": list(self.m), "epsilon": {"num": num, "den": den}, "coeffs": coeffs}

    @classmethod
    def from_fixture_obj(cls, obj) -> "CSPolynomial":
        m = tuple(obj["m"])
        eps = KappaRational.parse(obj["epsilon"]["num"], obj["epsilon"]["den"])
        coefficients = {}
        terms = {}
        for item in obj["coeffs"]:
            mu = tuple(item["mu"])
            c = KappaRational.parse(item["num"], item["den"])
            if not c:
                continue
            coefficients[mu] = c
            w = root_to_weight(mu)
            terms[tuple(m[i] - w[i] for i in range(4))] = c
        return cls(m, eps, coefficients, ZPolynomial(terms, _raw=True))


_CACHE: dict = {}


def solve(m) -> CSPolynomial:
    """Compute the eigenpolynomial for dominant quantum numbers m.

    Coefficients are filled in increasing height of the shift; every term
    feeding a coefficient lives at strictly lower height (enforced below),
    so coefficients within one height level are mutually independent and
    could be computed in any order.
    """
    m = check_dominant(m)
    hit = _CACHE.get(m)
    if hit is not None:
        return hit
    cone = support_cone(m)
    eps_m = hamiltonian.eigenvalue(m)

    by_mu = {el.mu: el for el in cone.elements}
    coeffs: dict = {}
    terms: dict = {}
    for el in cone.elements:
        if el.height == 0:
            coeffs[el.mu] = KappaRational(1)
            terms[el.exponent] = coeffs[el.mu]
            continue
        acc = KappaRational(0)
        for shift, fn in hamiltonian.MONOMIAL_SHIFT_FAMILIES:
            nu = (
                el.mu[0] - shift[0],
                el.mu[1] - shift[1],
                el.mu[2] - shift[2],
                el.mu[3] - shift[3],
            )
            if nu[0] < 0 or nu[1] < 0 or nu[2] < 0 or nu[3] < 0:
                continue
            src = by_mu.get(nu)
            if src is None:
                continue
            if src.height >= el.height:
                raise InternalInconsistency(
                    f"shift from {nu} to {el.mu} does not lower the height"
                )
            c_nu = coeffs.get(nu)
            if c_nu is None:
                continue  # the source coefficient vanished identically
            factor = fn(src.exponent)
            if factor:
                acc = acc + factor * c_nu
        if not acc:
            continue
        denom = hamiltonian.eigenvalue(el.exponent) - eps_m
        if not denom:
            raise InternalInconsistency(
                f"vanishing symbolic eigenvalue difference at mu={el.mu}"
            )
        c = acc / denom
        c.den  # expand the factored denominator here, not at a caller's first use
        coeffs[el.mu] = c
        terms[el.exponent] = c
    # Every caller shares the cached result, so its tables are read-only.
    poly = ZPolynomial(MappingProxyType(terms), _raw=True)
    result = CSPolynomial(m, eps_m, MappingProxyType(coeffs), poly)
    _CACHE[m] = result
    return result


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
        shift = tuple(p.m[i] - exc.mu[i] for i in range(4))
        raise PoleAtKappa(exc.kappa, mu=weight_to_root(shift)) from exc


def verify_eigen(p: CSPolynomial) -> bool:
    """Exact check that the operator reproduces the stored eigenvalue."""
    lhs = hamiltonian.apply(p.polynomial)
    rhs = p.polynomial * p.eigenvalue
    return lhs == rhs
