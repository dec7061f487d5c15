"""Truncated power series in an auxiliary variable with polynomial coefficients."""

from __future__ import annotations

from .zpoly import ZPolynomial


class TauSeries:
    """A series sum_{k<=order} coeff[k] * t^k, truncated exactly at ``order``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order):
        coeffs = list(coeffs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = coeffs[: order + 1]
        coeffs += [ZPolynomial.zero()] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    def _common_order(self, other) -> int:
        return min(self.order, other.order)

    def __mul__(self, other):
        if isinstance(other, TauSeries):
            n = self._common_order(other)
            out = [ZPolynomial.zero() for _ in range(n + 1)]
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a.is_zero():
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
            return TauSeries(out, n)
        return TauSeries([c * other for c in self.coeffs], self.order)

    __rmul__ = __mul__

    def __truediv__(self, other: "TauSeries") -> "TauSeries":
        """Series division; the divisor needs an invertible constant term."""
        lead = other.coeffs[0]
        if not lead.is_constant() or lead.is_zero():
            raise ZeroDivisionError(
                "series division needs a nonzero constant leading coefficient"
            )
        inv0 = lead.coefficient((0, 0, 0, 0)).inverse()
        n = self._common_order(other)
        out = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                d = other.coeffs[j]
                if not d.is_zero():
                    acc = acc - d * out[k - j]
            out.append(acc * inv0)
        return TauSeries(out, n)

    def __eq__(self, other):
        if not isinstance(other, TauSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)
