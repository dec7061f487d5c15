"""Exact rational functions of the coupling constant.

The coupling enters every coefficient of the eigenpolynomials as a ratio of
integer-coefficient univariate polynomials.  ``KappaRational`` keeps such
ratios in a canonical form (coprime over Z[k], denominator with positive
leading coefficient) so that equality is plain structural comparison.

Every denominator the solver meets is a product of eigenvalue differences
``eps(e) - eps(m)``, linear in the coupling, so a denominator is stored
factored: a positive integer content times primitive factors ``a + b*k``
(``b > 0``) with multiplicities.  A sum brings each numerator up to the lcm
of the denominators.  Both sum kernels read pairs (c, a), a an integer
polynomial or a ``KappaRational``: :func:`kappa_sum`, the dot product, on
integers packed by Kronecker substitution, and :func:`kappa_all_zero`, a zero
test of many sums that reduces none.
One reduction gives lowest terms: a synthetic division per linear factor
that passes a screen at one integer point, an integer gcd for the content, and
:func:`poly_gcd` for a non-linear factor (from a string, the constructor, or an inverse).

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
# Primitive f | p in Z[k] gives f(x) | p(x) at each integer x (Gauss): _reduce's screen point
_SCREEN_BITS = 16


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
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_scale(a: IntPoly, s: int) -> IntPoly:
    return tuple(c * s for c in a) if s else _ZERO


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


def poly_primitive(a: IntPoly) -> IntPoly:
    """Primitive part with positive leading coefficient."""
    if not a:
        return _ZERO
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return tuple(x // c for x in a)


def poly_div_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient a/b in Z[k]; raises if the division is not exact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return _ZERO
    rem, lb, dq = list(a), b[-1], len(a) - len(b)
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
    rem, lb = poly_trim(a), b[-1]
    while len(rem) >= len(b):
        lead, shift = rem[-1], len(rem) - len(b)
        rem = [c * lb for c in rem]
        for j, cb in enumerate(b):
            rem[shift + j] -= lead * cb
        rem = poly_trim(rem)
    return rem


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd in Z[k] (content included), positive leading coefficient."""
    if not a or not b:
        a = a or b
        return poly_neg(a) if a and a[-1] < 0 else a
    c = math.gcd(*a, *b)
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
    out = ""
    for d in range(len(a) - 1, -1, -1):
        c = a[d]
        if c == 0:
            continue
        mag = abs(c)
        var = "k" if d == 1 else f"k^{d}"
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += str(mag) if d == 0 else var if mag == 1 else f"{mag}*{var}"
    return out or "0"


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
        coeff = int(m.group("coeff") or 1)
        power = int(m.group("pow") or 1) if m.group("var") else 0
        coeffs[power] = coeffs.get(power, 0) + (-coeff if sign == "-" else coeff)
    return poly_trim([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


class KappaRational:
    """A canonical ratio of integer polynomials in the coupling.

    ``num`` and ``den`` are coprime over Z[k]; ``den`` is expanded from its
    factored form on first use.  Instances are immutable and hashable; two
    instances compare equal iff they are the same rational function.
    """

    __slots__ = ("num", "_content", "_factors", "_den")

    def __init__(self, num=0, den=1):
        num, den = self._coerce_poly(num), self._coerce_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        sign, content, factors = _factor(den)
        if sign < 0:
            num = poly_neg(num)
        r = _reduce(num, content, factors)
        self.num, self._content, self._factors, self._den = r.num, r._content, r._factors, r._den

    @staticmethod
    def _coerce_poly(p) -> IntPoly:
        coeffs = p if isinstance(p, (tuple, list)) else (p,)
        for c in coeffs:
            if type(c) is not int:  # type, not isinstance: a bool is refused too
                raise TypeError(f"coupling polynomial entry {c!r} of {p!r} is not an int")
        return poly_trim(coeffs)

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
    def coerce(other):
        """other as a KappaRational if it is one, an int or a Fraction; else NotImplemented."""
        if isinstance(other, KappaRational):
            return other
        if isinstance(other, int):
            return _make((other,) if other else _ZERO, 1, _NO_FACTORS)
        if isinstance(other, Fraction):
            return KappaRational.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        # Knuth's scheme with the lcm of the factored denominators: bring
        # both numerators up to it and add.
        content, top, _ = _lcm((self, other))
        return _reduce(poly_add(_up(self, content, top), _up(other, content, top)),
                       content, top)

    __radd__ = __add__

    def __neg__(self):
        return _make(poly_neg(self.num), self._content, self._factors, self._den)

    def __sub__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return _KR_ZERO
        # Each numerator is coprime to its own denominator, so cancelling it
        # against the other operand's denominator leaves lowest terms.
        a = _reduce(self.num, other._content, other._factors)
        b = _reduce(other.num, self._content, self._factors)
        return _make(poly_mul(a.num, b.num), a._content * b._content,
                     _joined(a._factors, b._factors))

    __rmul__ = __mul__

    def inverse(self) -> "KappaRational":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        sign, content, factors = _factor(self.num)
        return _make(poly_neg(self.den) if sign < 0 else self.den, content, factors)

    def __truediv__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

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
        other = self.coerce(other)
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
        return ns if ds == "1" else f"({ns})/({ds})"

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


def _joined(fa: dict, fb: dict) -> dict:
    """The factors of a product; one side is shared when the other has none."""
    if not (fa and fb):
        return fa or fb
    out = dict(fa)
    for f, e in fb.items():
        out[f] = out.get(f, 0) + e
    return out


def _factor(p: IntPoly) -> tuple:
    """Split a nonzero p as ``sign * content * factor``: one primitive factor
    with positive leading coefficient, or none for a constant p."""
    sign = 1 if p[-1] > 0 else -1
    content = math.gcd(*p)
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


def _reduce(num: IntPoly, content: int, factors: dict) -> KappaRational:
    """num / (content * prod f^e) in lowest terms.

    A linear factor is tried by synthetic division while its value at
    2**_SCREEN_BITS is 0 or divides num's there; a non-linear one, which
    arrives only with no known factorization, through :func:`poly_gcd`.
    """
    if not num:
        return _KR_ZERO
    if len(num) > 1 and factors:
        kept, x = dict(factors), _pack(num, _SCREEN_BITS)
        for f in factors:
            e = kept.pop(f)
            if len(f) == 2:
                y = f[0] + (f[1] << _SCREEN_BITS)
                while e and (not y or not x % y):
                    q = _div_linear(num, f[0], f[1])
                    if q is None:
                        break
                    num, e, x = q, e - 1, x // (y or 1)  # a multiple of num's value there
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


def kappa_sum(terms, over: IntPoly = _ONE, memo=None) -> KappaRational:
    """sum(c * a) over the pairs of :func:`_pairs`, divided by ``over`` (nonzero,
    of degree at most 1), reduced once over one lcm (:func:`_lcm`) and ``over``.

    Each product is multiplied up to the lcm as an integer (Kronecker
    substitution): packed as its value at 2**bits, bits a multiple of 64 above
    the largest coefficient the sum can have; the packed sum unpacks to the
    numerator, which :func:`_reduce` brings to lowest terms.  ``memo`` (by
    default, one per call) keeps the carriers and, by id(c), c, its packings
    and its bound less its own factors' bits: a sum adds the lcm's bits once.
    """
    memo = {} if memo is None else memo
    terms = _pairs(terms, memo)
    content, top, dicts = _lcm([c for c, _ in terms])
    sign, oc, of = _factor(over)
    # |c.num a s prod f^d|_inf <= |c.num|_inf |a|_1 s prod |f|_1^d, f^d what c lacks
    lcm_bits = sum(e * sum(map(abs, f)).bit_length() for f, e in top.items())
    groups, width = {k: [] for k in dicts}, 0
    for c, a in terms:
        row = memo.get(id(c))
        if row is None:
            own = sum(e * sum(map(abs, f)).bit_length() for f, e in c._factors.items())
            row = memo[id(c)] = (c, max(max(c.num), -min(c.num)).bit_length() - own, {})
        groups[id(c._factors)].append((row, a, s := content // c._content))
        width = max(width, lcm_bits + row[1] + (sum(map(abs, a)) * s).bit_length())
    bits = -(-(width + len(terms).bit_length() + 1) // 64) * 64  # room for sum and sign
    pf = {f: _pack(f, bits) for f in top}
    total = 0
    for k, group in groups.items():  # each dict's dot product times what it lacks
        x, cof, fs = 0, 1, dicts[k]
        for (c, _, packed), a, s in group:
            if (y := packed.get(bits)) is None:
                y = packed[bits] = _pack(c.num, bits)
            x += y * (_pack(a, bits) * s)
        for f, e in top.items():
            if d := e - fs.get(f, 0):
                cof *= pf[f] ** d
        total += x * cof
    num = _unpack(total, bits)
    return _reduce(poly_neg(num) if sign < 0 else num, content * oc, _joined(top, of))


def _lcm(cs) -> tuple:
    """The lcm of the denominators of ``cs``, (content, {f: top e}), and their dicts by id."""
    dicts = {id(c._factors): c._factors for c in cs}
    top: dict = {}
    for fs in dicts.values():
        for f, e in fs.items():
            if e > top.get(f, 0):
                top[f] = e
    return math.lcm(*{c._content for c in cs}), top, dicts


def _carrier(c: KappaRational, w: KappaRational, memo: dict) -> tuple:
    """(x, w.num), x = c.num over the denominators of c and w joined, unreduced;
    ``memo`` keeps x (with c and w, so their ids stay their own) by id(c),
    id(w._factors) and w._content, and each joined dict by both dicts' ids."""
    key = id(c), id(w._factors), w._content
    hit = memo.get(key)
    if hit is None:
        fc, fw = c._factors, w._factors
        fs = memo.get((id(fc), id(fw)))
        if fs is None:
            fs = memo[id(fc), id(fw)] = _joined(fc, fw)
        hit = memo[key] = _make(c.num, c._content * w._content, fs), c, w
    return hit[0], w.num


def _pairs(terms, memo: dict) -> list:
    """The nonzero pairs (c, a) of a sum, a rational a by its :func:`_carrier`."""
    return [_carrier(c, a, memo) if a.__class__ is KappaRational else (c, a)
            for c, a in terms if c.num and a]


def kappa_all_zero(sums) -> bool:
    """``not any(kappa_sum(ps) for ps in sums)``, over one lcm and one packing
    width (the bound of :func:`kappa_sum`): one cofactor per factor dict,
    each c and a packed once (by id), each sum one integer dot product."""
    memo: dict = {}
    sums = [_pairs(ps, memo) for ps in sums]
    cs = {id(c): c for ps in sums for c, _ in ps}
    ws = {id(a): a for ps in sums for _, a in ps}
    content, top, dicts = _lcm(cs.values())
    fbits = {f: sum(map(abs, f)).bit_length() for f in top}
    own = {k: sum(fbits[f] * e for f, e in fs.items()) for k, fs in dicts.items()}
    bits = (max((max(map(abs, c.num)).bit_length() + (content // c._content).bit_length()
                 - own[id(c._factors)] for c in cs.values()), default=0)
            + sum(fbits[f] * e for f, e in top.items())
            + max((sum(map(abs, a)).bit_length() for a in ws.values()), default=0)
            + max(map(len, sums), default=0).bit_length() + 1)
    pf = {f: _pack(f, bits) for f in top}
    whole = math.prod(pf[f] ** e for f, e in top.items())
    cof = {k: whole // math.prod(pf[f] ** e for f, e in fs.items()) for k, fs in dicts.items()}
    xc = {k: _pack(c.num, bits) * (content // c._content) * cof[id(c._factors)]
          for k, c in cs.items()}
    xa = {k: _pack(a, bits) for k, a in ws.items()}
    return not any(sum(xc[id(c)] * xa[id(a)] for c, a in ps) for ps in sums)


def _up(c: KappaRational, content: int, top: dict) -> IntPoly:
    """c.num times what c's denominator lacks of the lcm (content, top) of _lcm."""
    num, fs, s = c.num, c._factors, content // c._content
    for f, e in top.items():
        num = _mul_factor(num, f, e - fs.get(f, 0))
    return poly_scale(num, s) if s != 1 else num


def share_den(x: KappaRational, seen: dict) -> KappaRational:
    """x with the factor dict and expanded ``den`` of the first value in
    ``seen``, the caller's table, that has the same denominator.

    So each distinct denominator is expanded once and stored once.  A new
    one is grown from the first value over a factor multiset one factor f
    smaller (``seen`` maps each multiset to it): that den over its content,
    times f, times x's content; with no such twin, factor by factor.
    """
    fs = frozenset(x._factors.items())
    twin = seen.get((x._content, fs))
    if twin is not None:
        return _make(x.num, x._content, twin._factors, twin.den)
    for f, e in x._factors.items():
        near = seen.get(fs - {(f, e)} | ({(f, e - 1)} if e > 1 else set()))
        if near is not None:
            prim = poly_mul(tuple(c // near._content for c in near.den), f)
            x._den = poly_scale(prim, x._content)
            break
    seen[x._content, fs] = x
    seen.setdefault(fs, x)
    x.den  # expanded here, not at a caller's first use
    return x


def poly_linear(const: int, slope: int) -> IntPoly:
    """The integer polynomial ``const + slope*k``."""
    return (const, slope) if slope else (const,) if const else _ZERO


def kappa_linear(const: int, slope: int) -> KappaRational:
    """The polynomial ``const + slope*k`` (integers) as a rational function."""
    num = poly_linear(const, slope)
    return _make(num, 1, _NO_FACTORS) if num else _KR_ZERO
