"""Random polynomial inputs, and the smooth ladders' rules, shared by the
test modules."""

from __future__ import annotations

from fractions import Fraction
from math import inf

from sphradon.quadrature import band_rule, build_rule


def random_polynomial(rng, max_degree: int = 5) -> dict[tuple[int, int, int], Fraction]:
    """Random total-degree <= max_degree polynomial, coefficients in [-1, 1].

    Coefficients are drawn as floats and stored exactly (every float is a
    rational), so the moment machinery stays exact.
    """
    poly: dict[tuple[int, int, int], Fraction] = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            for k in range(max_degree + 1 - i - j):
                poly[(i, j, k)] = Fraction(rng.uniform(-1.0, 1.0))
    return poly


def ladder_rule(sizes: tuple, z_support: tuple, u: float):
    """The rule a smooth ladder projects on at radius u, as a SphereRule:
    the `sizes` product rule for an unbounded z_support, else the `sizes`
    band rule in cos(theta) that the sphere of radius u shares with the
    support, or None where it misses the support."""
    if z_support == (-inf, inf):
        return build_rule(*sizes)
    a, b = max(-1.0, z_support[0] / u), min(1.0, z_support[1] / u)
    return band_rule(a, b, *sizes) if a < b else None
