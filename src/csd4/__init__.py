"""Exact eigenpolynomials of the trigonometric Calogero-Sutherland model
for the Lie algebra D4, in fundamental-character variables."""

from .errors import (
    InternalInconsistency,
    NearSingularity,
    PoleAtKappa,
    ResidualNonzero,
)
from .kappa import KappaRational
from .series import TauSeries
from .solver import CSPolynomial, solve, solve_at, specialize, support_cone, verify_eigen
from .zpoly import ZPolynomial

__all__ = [
    "CSPolynomial",
    "InternalInconsistency",
    "KappaRational",
    "NearSingularity",
    "PoleAtKappa",
    "ResidualNonzero",
    "TauSeries",
    "ZPolynomial",
    "solve",
    "solve_at",
    "specialize",
    "support_cone",
    "verify_eigen",
]

__version__ = "0.1.0"
