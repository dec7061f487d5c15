"""Root and weight lattice data for D4.

Vectors are plain integer 4-tuples: ``Root`` coordinates are with respect to
the simple roots a1..a4, ``Weight`` coordinates with respect to the
fundamental weights.  All inner products go through the inverse Cartan
matrix with exact rationals; nothing here is floating point.
"""

from __future__ import annotations

from fractions import Fraction

Weight = tuple  # tuple[int, int, int, int]
Root = tuple  # tuple[int, int, int, int]

CARTAN = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)

# (lambda_j, lambda_k); exact inverse of CARTAN.
INVERSE_CARTAN = (
    (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1), Fraction(2), Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1)),
)

WEYL_VECTOR: Weight = (1, 1, 1, 1)
WEYL_VECTOR_ROOT: Root = (3, 5, 3, 3)


def positive_roots() -> list:
    """The 12 positive roots, sorted by (height, lexicographic)."""
    return sorted(_POSITIVE_ROOTS, key=lambda r: (height(r), r))


def height(r: Root) -> int:
    return sum(r)


def root_to_weight(r: Root) -> Weight:
    """Simple-root coordinates -> fundamental-weight coordinates (A acting)."""
    return tuple(
        sum(CARTAN[j][i] * r[i] for i in range(4)) for j in range(4)
    )


def weight_to_root(w: Weight) -> Root:
    """Inverse of :func:`root_to_weight`; rejects weights off the root lattice."""
    out = []
    for j in range(4):
        x = sum(INVERSE_CARTAN[j][i] * w[i] for i in range(4))
        if x.denominator != 1:
            raise ValueError(f"{w} is not in the root lattice")
        out.append(int(x))
    return tuple(out)


def weight_orbit(w: Weight) -> list:
    """The Weyl orbit of ``w`` in weight coordinates, ``w`` first.

    Built by closing under the simple reflections: the reflection in a_j
    subtracts a weight's j-th coordinate times row j of the Cartan matrix.
    """
    orbit = [tuple(w)]
    for x in orbit:  # grows while it is walked
        for j in range(4):
            y = tuple(x[i] - x[j] * CARTAN[j][i] for i in range(4))
            if y not in orbit:
                orbit.append(y)
    return orbit


# The 12 positive roots in simple-root coordinates: the roots form the orbit
# of the adjoint weight, which is the highest root.
_POSITIVE_ROOTS = tuple(
    r for r in map(weight_to_root, weight_orbit((0, 1, 0, 0)))
    if min(r) >= 0
)


def inner(u: Weight, v: Weight) -> Fraction:
    """Exact inner product of two vectors in weight coordinates."""
    total = Fraction(0)
    for j in range(4):
        uj = u[j]
        if uj:
            row = INVERSE_CARTAN[j]
            total += uj * sum(row[i] * v[i] for i in range(4))
    return total


def check_dominant(m: Weight) -> Weight:
    m = tuple(m)
    # type, not isinstance: a bool weight would hash equal to its int in caches
    if len(m) != 4 or not all(type(c) is int for c in m):
        raise ValueError(f"bad weight {m}")
    if not all(c >= 0 for c in m):
        raise ValueError(f"weight {m} is not dominant")
    return m


def weyl_dimension(m: Weight) -> int:
    """dim of the irreducible representation with highest weight m.

    Computed as the product over positive roots of
    (m + rho, a) / (rho, a); exact by construction.
    """
    m = check_dominant(m)
    shifted = tuple(c + 1 for c in m)  # m + rho in weight coordinates
    result = Fraction(1)
    for r in _POSITIVE_ROOTS:
        rw = root_to_weight(r)
        result *= inner(shifted, rw) / inner(WEYL_VECTOR, rw)
    if result.denominator != 1:
        raise ArithmeticError(f"non-integral dimension for {m}")
    return int(result)


# Triality: the diagram symmetries permuting nodes 1, 3, 4 and fixing 2.
# A permutation is a dict index -> image over {1, 2, 3, 4}.
TRIALITY_MAPS = (
    {1: 1, 2: 2, 3: 3, 4: 4},
    {1: 3, 2: 2, 3: 1, 4: 4},
    {1: 4, 2: 2, 3: 3, 4: 1},
    {1: 1, 2: 2, 3: 4, 4: 3},
    {1: 3, 2: 2, 3: 4, 4: 1},
    {1: 4, 2: 2, 3: 1, 4: 3},
)


def apply_triality(m: Weight, sigma) -> Weight:
    """Permute coordinates by sigma ( entry i moves to slot sigma[i] )."""
    if sigma[2] != 2:
        raise ValueError("triality permutations must fix index 2")
    out = [0, 0, 0, 0]
    for i in range(1, 5):
        out[sigma[i] - 1] = m[i - 1]
    return tuple(out)
