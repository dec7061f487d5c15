"""Sparse polynomials in the four fundamental-character variables.

A ``ZPolynomial`` maps exponent 4-tuples (powers of z1..z4, checked by
:func:`~csd4.rootsystem.check_dominant`) to nonzero ``KappaRational``
coefficients.  No monomial ordering is stored; consumers impose their own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import PoleAtKappa
from .kappa import KappaRational
from .rootsystem import apply_triality, check_dominant

Exponents = tuple  # tuple[int, int, int, int]

_E0: Exponents = (0, 0, 0, 0)


def to_rows(key: str, items) -> list:
    """The JSON rows ``{key: [4 ints], "num", "den"}`` of (vector, coefficient)
    pairs, in their order: every coefficient table is written this way.

    A coefficient object shared by several rows (the triality images of a
    solve) is rendered once; ``seen`` holds each object, so its id stays
    unique for the call."""
    seen: dict = {}
    rows = []
    for vector, coeff in items:
        if id(coeff) not in seen:
            seen[id(coeff)] = coeff, coeff.as_strings()
        num, den = seen[id(coeff)][1]
        rows.append({key: list(vector), "num": num, "den": den})
    return rows


def from_rows(key: str, rows):
    """Yield (vector, KappaRational) per row.  A row maps ``key`` to a new
    vector of four non-negative ints, and ``num`` and ``den`` to the strings
    of a rational function; any other row raises ValueError naming the key
    and the row."""
    seen = set()
    for row in rows:
        try:
            vector = check_dominant(row[key])
        except (LookupError, TypeError, ValueError):
            raise ValueError(f"bad {key!r} in coefficient row {row}") from None
        if vector in seen:
            raise ValueError(f"repeated {key!r} in coefficient row {row}")
        seen.add(vector)
        try:
            if not (isinstance(row["num"], str) and isinstance(row["den"], str)):
                raise TypeError
            coeff = KappaRational.parse(row["num"], row["den"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise ValueError(f"bad 'num' or 'den' in {key!r} coefficient row {row}") from None
        yield vector, coeff


def variable_slot(j: int) -> int:
    """The 0-based slot of z_j; an index outside 1..4 raises ValueError."""
    if type(j) is not int or not 1 <= j <= 4:
        raise ValueError(f"variable index {j!r} is not one of 1..4")
    return j - 1


def _add_term(out: dict, exps, coeff) -> None:
    """Add a nonzero coeff into out[exps], deleting a sum that cancels."""
    acc = out.get(exps)
    if acc is None:
        out[exps] = coeff
    elif acc := acc + coeff:
        out[exps] = acc
    else:
        del out[exps]


class ZPolynomial:
    __slots__ = ("terms",)

    def __init__(self, terms=None, *, _raw=False):
        if _raw:
            self.terms = terms
            return
        clean = {}
        for exps, coeff in (terms or {}).items():
            c = KappaRational.coerce(coeff)
            if c is NotImplemented:
                raise TypeError(f"bad coefficient {coeff!r} for {exps}")
            if c:
                clean[check_dominant(exps)] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "ZPolynomial":
        return cls({}, _raw=True)

    @classmethod
    def constant(cls, c) -> "ZPolynomial":
        return cls.monomial(_E0, c)

    @classmethod
    def monomial(cls, exps, coeff=1) -> "ZPolynomial":
        return cls({tuple(exps): coeff})

    @classmethod
    def variable(cls, j: int) -> "ZPolynomial":
        """The generator z_j, 1-based index."""
        exps = [0, 0, 0, 0]
        exps[variable_slot(j)] = 1
        return cls.monomial(exps)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = self.terms.copy()  # a fast dict copy for a read-only cached table too
        for exps, coeff in other.terms.items():
            _add_term(out, exps, coeff)
        return ZPolynomial(out, _raw=True)

    __radd__ = __add__

    def __neg__(self):
        return ZPolynomial({e: -c for e, c in self.terms.items()}, _raw=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        scalar = KappaRational.coerce(other)
        if scalar is not NotImplemented:
            if not scalar:
                return ZPolynomial.zero()
            return ZPolynomial(
                {e: c * scalar for e, c in self.terms.items()}, _raw=True
            )
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                _add_term(out, e, c1 * c2)  # a product of nonzero coefficients
        return ZPolynomial(out, _raw=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ZPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def _coerce(self, other):
        if isinstance(other, ZPolynomial):
            return other
        scalar = KappaRational.coerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return ZPolynomial.constant(scalar)

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, j: int) -> "ZPolynomial":
        """Formal partial derivative with respect to z_j (1-based)."""
        i = variable_slot(j)
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            out[(*exps[:i], e - 1, *exps[i + 1:])] = coeff * e
        return ZPolynomial(out, _raw=True)

    def substitute_kappa(self, kappa0) -> "ZPolynomial":
        """Exact coupling substitution; coefficients become constants.  A pole
        raises :class:`PoleAtKappa` with the coefficient's ``exponent``."""
        kappa0 = Fraction(kappa0)
        out = {}
        for exps, coeff in self.terms.items():
            try:
                value = coeff.substitute(kappa0)
            except PoleAtKappa as exc:
                raise PoleAtKappa(kappa0, exponent=exps) from exc
            if value:
                out[exps] = KappaRational.from_fraction(value)
        return ZPolynomial(out, _raw=True)

    def eval_complex(self, z) -> complex:
        """Numeric value at a point; requires constant coefficients.

        A coefficient is read as the int/int quotient of its numerator and
        denominator, the value ``complex(coeff.as_fraction())`` rounds to,
        without building a Fraction per term."""
        z1, z2, z3, z4 = z
        total = 0j
        for exps, coeff in self.terms.items():
            num, den = coeff.num, coeff.den
            if len(num) > 1 or len(den) > 1:
                raise ValueError(f"{coeff} is not constant in the coupling")
            c = num[0] / den[0]
            total += c * z1 ** exps[0] * z2 ** exps[1] * z3 ** exps[2] * z4 ** exps[3]
        return total

    def eval_exact(self, z) -> Fraction:
        """Exact rational value at a rational point (constant coefficients)."""
        powers = [cache(Fraction(v).__pow__) for v in z]  # each v**e once
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff.as_fraction()
            for power, e in zip(powers, exps):
                term *= power(e)
            total += term
        return total

    def permute_variables(self, sigma) -> "ZPolynomial":
        """Relabel variables by a triality map (z_i -> z_sigma(i)), as
        :func:`~csd4.rootsystem.apply_triality` moves each exponent."""
        return ZPolynomial(
            {apply_triality(e, sigma): c for e, c in self.terms.items()}, _raw=True
        )

    # -- structure ----------------------------------------------------------

    def coefficient(self, exps) -> KappaRational:
        return self.terms.get(tuple(exps), KappaRational(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __str__(self):
        return "".join(self.str_parts())

    def str_parts(self):
        """The text of ``str(self)`` one term at a time, so that a large
        polynomial is written without being held whole."""
        if not self.terms:
            yield "0"
        sep = ""
        for exps in sorted(self.terms, reverse=True):
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"z{i + 1}")
                elif e > 1:
                    factors.append(f"z{i + 1}^{e}")
            mono = "*".join(factors) if factors else "1"
            yield f"{sep}({self.terms[exps]})*{mono}"
            sep = " + "

    def __repr__(self):
        return f"ZPolynomial({self.terms!r})"

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> list:
        return to_rows("exponents", sorted(self.terms.items()))

    @classmethod
    def from_json_obj(cls, obj) -> "ZPolynomial":
        return cls({e: c for e, c in from_rows("exponents", obj) if c}, _raw=True)


Z1 = ZPolynomial.variable(1)
Z2 = ZPolynomial.variable(2)
Z3 = ZPolynomial.variable(3)
Z4 = ZPolynomial.variable(4)
