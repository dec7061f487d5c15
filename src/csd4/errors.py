"""Exceptions and check records shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field


class PoleAtKappa(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator.

    Raised when a coefficient is specialized at a coupling value where an
    eigenvalue-difference denominator vanishes (a resonance).  ``kappa`` is
    the offending value; ``mu`` identifies the coefficient, when known.
    """

    def __init__(self, kappa, mu=None):
        self.kappa = kappa
        self.mu = mu
        where = f" at coefficient mu={mu}" if mu is not None else ""
        super().__init__(f"pole at kappa={kappa}{where}")


class NearSingularity(ValueError):
    """A torus point too close to a node of the interaction potential."""


class ResidualNonzero(RuntimeError):
    """A character product left a remainder outside the admissible shift slots."""


class InternalInconsistency(RuntimeError):
    """An ordering invariant of the coefficient recursion was violated."""


@dataclass(frozen=True)
class Check:
    """One verdict: a name, whether it held, and numbers worth reporting."""

    name: str
    ok: bool
    detail: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"name": self.name, "ok": self.ok, **self.detail}


@dataclass
class Report:
    records: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> list:
        return [r for r in self.records if not r.ok]
