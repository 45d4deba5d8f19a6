"""Random polynomial inputs shared by the test modules."""

from __future__ import annotations

from fractions import Fraction


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
