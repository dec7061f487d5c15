"""The seeded request stream of the ``coupling_mix`` workload.

Each request is what one ``csd4 compute --m M --kappa K0`` process does (a
cold solve, then specialization), or, about one time in four, a torus
residual at a seeded point.  csd4 receives only the generated ``(m, k0, q)``
inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from csd4.qspace import min_sine

MAX_M = 8
GENERIC = ("7/10", "13/10", "1/2", "2", "1", "0")
RESONANT = ("-1/2", "-1", "-1/3", "-2/3", "-3/2")  # where poles are common
COUPLINGS = tuple(Fraction(k) for k in GENERIC + RESONANT)
REQUESTS = 100
RESIDUAL_EVERY = 4
NODE_MARGIN = 0.2  # min |sin| over the potential's factors at a torus point


@dataclass(frozen=True)
class Request:
    kind: str  # "specialize" or "residual"
    m: tuple
    k0: Fraction
    q: tuple | None = None


def shell_weight(s: int) -> int:
    """Share of requests with |m| = s, before normalizing: falls with s."""
    return 12 - s


def population() -> list:
    """Every dominant m with 1 <= |m| <= MAX_M, in ascending expected cost.

    Solve time grows with the shell |m| and, inside a shell, with m2 (the
    adjoint node); triality permutes m1, m3, m4 without changing the cost.
    """
    pop = [m for m in itertools.product(range(MAX_M + 1), repeat=4)
           if 1 <= sum(m) <= MAX_M]
    pop.sort(key=lambda m: (sum(m), m[1], sorted((m[0], m[2], m[3])), m))
    return pop


def generate(seed: int, count: int = REQUESTS) -> list:
    """The request list for one seed; the same seed gives the same list.

    Every seed gets the same multiset of request costs, so that seeds can be
    compared: m is picked by systematic sampling at fixed points along the
    cost-ordered population.  The seed then moves each pick to a random
    triality image (permuting m1, m3, m4 relabels the cone and leaves the
    solve's work unchanged), draws the torus points and shuffles the
    order; the couplings are dealt out evenly along the cost order.
    """
    rng = random.Random(seed)
    pop = population()
    shell_size: dict = {}
    for m in pop:
        shell_size[sum(m)] = shell_size.get(sum(m), 0) + 1
    weights = [shell_weight(sum(m)) / shell_size[sum(m)] for m in pop]
    total = sum(weights)
    cum = list(itertools.accumulate(w / total for w in weights))
    picks, j = [], 0
    for i in range(count):
        while j < len(pop) - 1 and cum[j] < (i + 0.5) / count:
            j += 1
        outer = [pop[j][0], pop[j][2], pop[j][3]]
        rng.shuffle(outer)
        picks.append((outer[0], pop[j][1], outer[1], outer[2]))
    # couplings cycle along the cost order, so every seed pairs the same
    # costs with the same couplings (whether a pole is hit is triality-invariant)
    couplings = [COUPLINGS[i % len(COUPLINGS)] for i in range(count)]
    out = []
    for i, (m, k0) in enumerate(zip(picks, couplings)):
        # picks are still in cost order, so residuals spread evenly over cost
        if i % RESIDUAL_EVERY == RESIDUAL_EVERY - 1:
            out.append(Request("residual", m, k0, torus_point(rng)))
        else:
            out.append(Request("specialize", m, k0))
    rng.shuffle(out)
    return out


def torus_point(rng: random.Random) -> tuple:
    while True:
        q = tuple(rng.uniform(0.1, math.pi - 0.1) for _ in range(4))
        if min_sine(q) > NODE_MARGIN:
            return q


def digest(requests) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(repr((r.kind, r.m, str(r.k0), r.q)).encode())
    return h.hexdigest()
