"""Exact rational functions of the coupling constant.

The coupling enters every coefficient of the eigenpolynomials as a ratio of
integer-coefficient univariate polynomials.  ``KappaRational`` keeps such
ratios in a canonical form (coprime over Z[k], denominator with positive
leading coefficient) so that equality is plain structural comparison.

Every denominator the solver meets is a product of eigenvalue differences
``eps(e) - eps(m)``, which are linear in the coupling.  So a denominator is
stored factored: a positive integer content times primitive factors
``a + b*k`` (``b > 0``), each with a multiplicity.  A sum takes the lcm of
the factor multisets and multiplies each numerator up to it.  Binary ``+``
sums two terms, one pass per linear factor.  :func:`kappa_sum` is the
solver's dot product sum(c * a) of n coefficients c with integer
polynomials a, with one lcm and one reduction; it multiplies by packing
each polynomial into one integer (Kronecker substitution).  A sum or a
product is brought to lowest terms by testing each factor against the
numerator with one exact synthetic division, and the content with one
integer gcd.  The general gcd :func:`poly_gcd` runs only on a denominator
of degree >= 2 that arrives with no known factorization: from a string,
from the constructor, or from the inverse of a non-linear numerator.  Such
a polynomial is kept as one more factor and cancelled by the same code.

Polynomials are stored as tuples of integer coefficients, lowest degree
first, with no trailing zeros; the empty tuple is the zero polynomial.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import PoleAtKappa

IntPoly = tuple  # tuple[int, ...]

_ZERO: IntPoly = ()
_ONE: IntPoly = (1,)


def poly_trim(coeffs) -> IntPoly:
    """Drop trailing zero coefficients."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_neg(a: IntPoly) -> IntPoly:
    return tuple(-c for c in a)


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return _ZERO
    if len(a) > len(b):
        a, b = b, a  # the shorter factor drives the outer loop
    if len(a) == 2 and a[1] and b[-1]:
        # A linear factor x + y*k, the common case, in one pass.
        x, y = a
        return (x * b[0], *[x * c + y * p for p, c in zip(b, b[1:])], y * b[-1])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_scale(a: IntPoly, s: int) -> IntPoly:
    if s == 0:
        return _ZERO
    return tuple(c * s for c in a)


def _homogeneous(a: IntPoly, p: int, q: int) -> int:
    """sum a_i p^i q^(d-i), d = deg a: q^d a(p/q), by Horner on integers."""
    acc, s = 0, 1
    for c in reversed(a):
        acc = acc * p + c * s
        s *= q
    return acc


def poly_eval(a: IntPoly, x) -> Fraction:
    """Exact value at a rational x, as :meth:`KappaRational.substitute`."""
    return _make(a, 1, _NO_FACTORS).substitute(x)


def poly_content(a: IntPoly) -> int:
    """gcd of the coefficients (0 for the zero polynomial)."""
    return math.gcd(*a)


def poly_primitive(a: IntPoly) -> IntPoly:
    """Primitive part with positive leading coefficient."""
    if not a:
        return _ZERO
    c = poly_content(a)
    if a[-1] < 0:
        c = -c
    return tuple(x // c for x in a)


def poly_div_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient a/b in Z[k]; raises if the division is not exact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return _ZERO
    rem = list(a)
    lb = b[-1]
    dq = len(a) - len(b)
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    q = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        head = rem[i + len(b) - 1]
        if head % lb:
            raise ArithmeticError("inexact polynomial division")
        q[i] = head // lb
        if q[i]:
            for j, cb in enumerate(b):
                rem[i + j] -= q[i] * cb
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return poly_trim(q)


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder of a by b (b nonzero, deg a >= deg b)."""
    rem = list(a)
    lb = b[-1]
    while len(rem) >= len(b):
        rem = poly_trim(rem)
        if len(rem) < len(b):
            break
        lead = rem[-1]
        shift = len(rem) - len(b)
        rem = [c * lb for c in rem]
        for j, cb in enumerate(b):
            rem[shift + j] -= lead * cb
        rem = list(poly_trim(rem))
    return poly_trim(rem)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd in Z[k] (content included), positive leading coefficient."""
    if not a or not b:
        a = a or b
        return poly_neg(a) if a and a[-1] < 0 else a
    c = math.gcd(poly_content(a), poly_content(b))
    if len(a) == 1 or len(b) == 1:
        return (c,)
    pa, pb = poly_primitive(a), poly_primitive(b)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        if pb == _ONE:
            pa = _ONE
            break
        r = _pseudo_rem(pa, pb)
        pa, pb = pb, poly_primitive(r)
    return poly_scale(pa, c)


def poly_to_str(a: IntPoly) -> str:
    """Canonical rendering, highest degree first, e.g. ``12*k^2 - k + 3``."""
    if not a:
        return "0"
    parts = []
    for d in range(len(a) - 1, -1, -1):
        c = a[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            var = "k" if d == 1 else f"k^{d}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


_TERM_RE = re.compile(r"(?P<coeff>[0-9]+)?(?:\*?(?P<var>k)(?:\^(?P<pow>[0-9]+))?)?")


def poly_from_str(text: str) -> IntPoly:
    """Parse the canonical rendering produced by :func:`poly_to_str`.

    Terms are joined by ``+`` or ``-``, spaces allowed around each sign, and
    the first may carry a leading sign.  A term is nonempty and holds no
    space, so ``"-"``, ``"--1"``, ``"1 2"``, ``"1 -"`` or ``"2 k"`` raise
    ValueError.
    """
    parts = re.split(r"\s*([+-])\s*", text.strip())
    parts = parts[1:] if len(parts) > 1 and not parts[0] else ["+", *parts]
    coeffs: dict[int, int] = {}
    for sign, chunk in zip(parts[0::2], parts[1::2]):
        m = _TERM_RE.fullmatch(chunk)
        if not chunk or not m:
            raise ValueError(f"malformed polynomial term {chunk!r} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("var"):
            power = int(m.group("pow")) if m.group("pow") else 1
        else:
            power = 0
        coeffs[power] = coeffs.get(power, 0) + (-coeff if sign == "-" else coeff)
    out = [0] * (max(coeffs) + 1)
    for power, coeff in coeffs.items():
        out[power] = coeff
    return poly_trim(out)


class KappaRational:
    """A canonical ratio of integer polynomials in the coupling.

    ``num`` and ``den`` are coprime over Z[k]; ``den`` is expanded from its
    factored form on first use.  Instances are immutable and hashable; two
    instances compare equal iff they are the same rational function.
    """

    __slots__ = ("num", "_content", "_factors", "_den")

    def __init__(self, num=0, den=1):
        num = self._coerce_poly(num)
        den = self._coerce_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        sign, content, factors = _factor(den)
        if sign < 0:
            num = poly_neg(num)
        r = _reduce(num, content, factors)
        self.num, self._content, self._factors = r.num, r._content, r._factors
        self._den = r._den

    @staticmethod
    def _coerce_poly(p) -> IntPoly:
        if isinstance(p, (tuple, list)):
            return poly_trim(p)
        if isinstance(p, int):
            return (p,) if p else _ZERO
        raise TypeError(f"cannot build a coupling polynomial from {p!r}")

    @classmethod
    def from_fraction(cls, q: Fraction) -> "KappaRational":
        q = Fraction(q)
        return _make((q.numerator,) if q else _ZERO, q.denominator, _NO_FACTORS)

    @classmethod
    def parse(cls, num_str: str, den_str: str = "1") -> "KappaRational":
        return cls(poly_from_str(num_str), poly_from_str(den_str))

    @property
    def den(self) -> IntPoly:
        den = self._den
        if den is None:
            den = (self._content,)
            for f, e in self._factors.items():
                den = _mul_factor(den, f, e)
            self._den = den
        return den

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and not self._factors

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant in the coupling")
        return Fraction(self.num[0] if self.num else 0, self._content)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, KappaRational):
            return other
        if isinstance(other, int):
            return _make((other,) if other else _ZERO, 1, _NO_FACTORS)
        if isinstance(other, Fraction):
            return KappaRational.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        # Knuth's scheme with the lcm of the factored denominators: bring
        # both numerators to it, add, and cancel what the sum shares.
        c1, c2 = self._content, other._content
        g = math.gcd(c1, c2)
        n1 = poly_scale(self.num, c2 // g)
        n2 = poly_scale(other.num, c1 // g)
        f1, f2 = self._factors, other._factors
        factors = dict(f1)
        for f, e in f2.items():
            e1 = f1.get(f, 0)
            if e > e1:
                factors[f] = e
                n1 = _mul_factor(n1, f, e - e1)
            elif e < e1:
                n2 = _mul_factor(n2, f, e1 - e)
        for f, e in f1.items():
            if f not in f2:
                n2 = _mul_factor(n2, f, e)
        # When every factor is linear, hence irreducible and coprime to the
        # others, only one that both denominators carry to the same power
        # can divide the sum.
        test = None
        if all(len(f) == 2 for f in factors):
            test = [f for f, e in f2.items() if f1.get(f) == e]
        return _reduce(poly_add(n1, n2), c1 // g * c2, factors, test)

    __radd__ = __add__

    def __neg__(self):
        return _make(poly_neg(self.num), self._content, self._factors, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return _KR_ZERO
        # Each numerator is coprime to its own denominator, so cancelling it
        # against the other operand's denominator leaves lowest terms.
        a = _reduce(self.num, other._content, other._factors)
        b = _reduce(other.num, self._content, self._factors)
        factors = dict(a._factors)
        for f, e in b._factors.items():
            factors[f] = factors.get(f, 0) + e
        return _make(
            poly_mul(a.num, b.num), a._content * b._content, factors or _NO_FACTORS
        )

    __rmul__ = __mul__

    def inverse(self) -> "KappaRational":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        sign, content, factors = _factor(self.num)
        num = self.den
        return _make(poly_neg(num) if sign < 0 else num, content, factors)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- evaluation ----------------------------------------------------

    def substitute(self, kappa0) -> Fraction:
        """Exact value at a rational coupling; raises :class:`PoleAtKappa`."""
        kappa0 = Fraction(kappa0)
        p, q = kappa0.numerator, kappa0.denominator
        # num(p/q) / den(p/q) = q^(dd-dn) num~ / den~, num~ = q^dn num(p/q)
        d = _homogeneous(self.den, p, q)
        if d == 0:
            raise PoleAtKappa(kappa0)
        n, shift = _homogeneous(self.num, p, q), len(self.den) - len(self.num)
        return Fraction(n * q**shift, d) if shift >= 0 else Fraction(n, d * q**-shift)

    # -- comparisons / hashing / display -------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(self.as_fraction() if self.is_constant() else (self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def as_strings(self) -> tuple:
        return poly_to_str(self.num), poly_to_str(self.den)

    def __str__(self):
        ns, ds = self.as_strings()
        if ds == "1":
            return ns
        return f"({ns})/({ds})"

    def __repr__(self):
        return f"KappaRational({self.num!r}, {self.den!r})"


_NO_FACTORS: dict = {}


def _make(num, content, factors, den=None) -> KappaRational:
    """An instance from parts already in lowest terms."""
    r = object.__new__(KappaRational)
    r.num = num
    r._content = content
    r._factors = factors
    r._den = den if den is not None or factors else (content,)
    return r


def _factor(p: IntPoly) -> tuple:
    """Split a nonzero p as ``sign * content * factor``.

    A linear or non-linear p becomes one primitive factor with positive
    leading coefficient; a constant has no factor.
    """
    sign = 1 if p[-1] > 0 else -1
    content = poly_content(p)
    if len(p) == 1:
        return sign, content, _NO_FACTORS
    s = sign * content
    return sign, content, {tuple(c // s for c in p): 1}


def _mul_factor(p: IntPoly, f: IntPoly, e: int) -> IntPoly:
    for _ in range(e):
        p = poly_mul(p, f)
    return p


def _div_linear(p: IntPoly, a: int, b: int):
    """p / (a + b*k) in Z[k] by synthetic division, or None if inexact.

    For primitive a + b*k, exactness over Z is exactness over Q (Gauss).
    """
    if len(p) < 2:
        return None
    q = [0] * (len(p) - 1)
    r = p[-1]
    for i in range(len(p) - 2, -1, -1):
        t, rest = divmod(r, b)
        if rest:
            return None
        q[i] = t
        r = p[i] - a * t
    return tuple(q) if r == 0 else None


def _reduce(num: IntPoly, content: int, factors: dict, test=None) -> KappaRational:
    """num / (content * prod f^e) in lowest terms.

    The factors in ``test`` (default: all) are tried against num.  A linear
    factor is cancelled by synthetic division; a non-linear one, which
    arrives only with no known factorization, through :func:`poly_gcd`.
    """
    if not num:
        return _KR_ZERO
    if len(num) > 1 and factors:
        kept = dict(factors)
        for f in factors if test is None else test:
            e = kept.pop(f)
            if len(f) == 2:
                while e:
                    q = _div_linear(num, f[0], f[1])
                    if q is None:
                        break
                    num = q
                    e -= 1
                if e:
                    kept[f] = kept.get(f, 0) + e
                continue
            rest = _mul_factor(_ONE, f, e)
            g = poly_gcd(num, rest)
            if g == _ONE:
                kept[f] = kept.get(f, 0) + e
                continue
            # What is left of f^e is primitive with positive leading
            # coefficient, so it is a factor as it stands.
            num = poly_div_exact(num, g)
            rest = poly_div_exact(rest, g)
            if len(rest) > 1:
                kept[rest] = kept.get(rest, 0) + 1
        factors = kept or _NO_FACTORS
    if content > 1:
        g = math.gcd(content, *num)
        if g > 1:
            num = tuple(c // g for c in num)
            content //= g
    return _make(num, content, factors)


_KR_ZERO = _make(_ZERO, 1, _NO_FACTORS)


def _pack(p: IntPoly, bits: int) -> int:
    """p(2**bits), by Horner: the coefficients as digits of one integer."""
    x = 0
    for c in reversed(p):
        x = (x << bits) + c
    return x


def _unpack(x: int, bits: int) -> IntPoly:
    """The polynomial p with p(2**bits) == x and |coefficients| < 2**(bits-1)."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    while x:
        d = ((x + half) & mask) - half  # the balanced remainder
        out.append(d)
        x = (x - d) >> bits
    return tuple(out)


def kappa_sum(terms) -> KappaRational:
    """The dot product sum(c * a) over pairs of a ``KappaRational`` c and an
    integer polynomial a, with one reduction.

    The n-term form of the scheme of ``KappaRational.__add__``: one lcm of
    the contents and factor multisets, and each c.num * a multiplied up to
    it once.  Those products run as integer products (Kronecker
    substitution): every polynomial is packed as its value at 2**bits, with
    bits above the bit length of the largest coefficient the sum can have,
    so the packed sum unpacks to the sum's numerator.  When every factor and
    every a is at most linear, only a factor that two or more terms carry at
    its top multiplicity, or the primitive part of some a, can divide the
    sum: it divides every other term, and a lone top term's c.num is coprime
    to it.  Otherwise every factor is tested.
    """
    terms = [(c, a) for c, a in terms if c.num and a]
    if not terms:
        return _KR_ZERO
    content = math.lcm(*(c._content for c, _ in terms))
    top: dict = {}  # factor -> [top multiplicity, terms carrying it there]
    for c, _ in terms:
        for f, e in c._factors.items():
            seen = top.get(f)
            if seen is None or e > seen[0]:
                top[f] = [e, 1]
            elif e == seen[0]:
                seen[1] += 1
    fbits = {f: sum(map(abs, f)).bit_length() for f in top}  # of |f|_1
    # The terms grouped by the factor dict of c (solve shares one dict per
    # distinct denominator), each group with what its c lacks of the lcm.
    groups: dict = {}  # id(c._factors) -> [missing, its bits, [(num, s, a)]]
    width = 0
    for c, a in terms:
        fs = c._factors
        group = groups.get(id(fs))
        if group is None:
            miss = tuple((f, e - fs.get(f, 0)) for f, (e, _) in top.items()
                         if e > fs.get(f, 0))
            group = groups[id(fs)] = [miss, sum(fbits[f] * d for f, d in miss), []]
        s = content // c._content
        # |c.num * a * s * prod f^d|_inf <= |c.num|_inf |a|_1 s prod |f|_1^d
        num = c.num
        w = (max(max(num), -min(num)).bit_length() + sum(map(abs, a)).bit_length()
             + s.bit_length() + group[1])
        if w > width:
            width = w
        group[2].append((num, s, a))
    bits = width + len(terms).bit_length() + 1  # room for the sum and its sign
    pf = {f: _pack(f, bits) for f in top}
    total = 0
    for miss, _, rows in groups.values():
        x = sum(_pack(num, bits) * _pack(a, bits) * s for num, s, a in rows)
        for f, d in miss:
            x *= pf[f] ** d
        total += x
    factors = {f: e for f, (e, _) in top.items()} or _NO_FACTORS
    test = None
    if all(len(f) == 2 for f in top) and all(len(a) <= 2 for _, a in terms):
        weights = {poly_primitive(a) for _, a in terms if len(a) == 2}
        test = [f for f, (_, n) in top.items() if n > 1 or f in weights]
    return _reduce(_unpack(total, bits), content, factors, test)


def share_den(x: KappaRational, seen: dict) -> KappaRational:
    """x with the factor dict and expanded ``den`` of the first value in
    ``seen``, the caller's table, that has the same denominator.

    So each distinct denominator is expanded once and stored once.
    """
    twin = seen.setdefault((x._content, frozenset(x._factors.items())), x)
    return _make(x.num, x._content, twin._factors, twin.den)


def kappa_linear(const: int, slope: int) -> KappaRational:
    """The polynomial ``const + slope*k`` (integers) as a rational function."""
    num = (const, slope) if slope else (const,) if const else _ZERO
    return _make(num, 1, _NO_FACTORS) if num else _KR_ZERO
