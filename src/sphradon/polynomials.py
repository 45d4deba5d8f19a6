"""Exact trivariate polynomials and closed-form sphere moments.

A polynomial field is a dict mapping exponent triples (i, j, k) to Fraction
coefficients, meaning sum c * x^i y^j z^k.  Restricted to the sphere of
center (p, q, 0) and radius t it becomes a polynomial in the direction
vector omega, and every harmonic projection reduces to monomial means

    <w1^a w2^b w3^c> = (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!

over the unit sphere (all exponents even; zero otherwise), with (-1)!! = 1.
This yields the moment functions a_{0n}(p,q,t) as exact polynomials in
(p, q, t) - the ground truth against which all quadrature is tested.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping

import numpy as np

__all__ = [
    "lap_xy",
    "total_degree",
    "a0n_poly",
    "eval_pqt",
    "random_polynomial",
]

Fr = Fraction

FieldPoly = Mapping[tuple[int, int, int], Fraction]
MomentPoly = Mapping[tuple[int, int, int], Fraction]  # exponents of (p, q, t)


def lap_xy(poly: FieldPoly) -> dict[tuple[int, int, int], Fraction]:
    """The two-dimensional Laplacian d^2/dx^2 + d^2/dy^2, exactly."""
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), c in poly.items():
        if i >= 2:
            key = (i - 2, j, k)
            out[key] = out.get(key, Fr(0)) + c * i * (i - 1)
        if j >= 2:
            key = (i, j - 2, k)
            out[key] = out.get(key, Fr(0)) + c * j * (j - 1)
    return {key: v for key, v in out.items() if v}


def total_degree(poly: FieldPoly) -> int:
    return max((i + j + k for (i, j, k) in poly), default=0)


def _dfact(n: int) -> int:
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


def _omega_mean(a: int, b: int, c: int) -> Fraction:
    if a % 2 or b % 2 or c % 2:
        return Fr(0)
    return Fr(_dfact(a - 1) * _dfact(b - 1) * _dfact(c - 1), _dfact(a + b + c + 1))


def _legendre_coeffs(n: int) -> list[dict[int, Fraction]]:
    P: list[dict[int, Fraction]] = [{0: Fr(1)}, {1: Fr(1)}]
    for k in range(1, n):
        nxt: dict[int, Fraction] = {}
        for e, v in P[k].items():
            nxt[e + 1] = nxt.get(e + 1, Fr(0)) + Fr(2 * k + 1, k + 1) * v
        for e, v in P[k - 1].items():
            nxt[e] = nxt.get(e, Fr(0)) - Fr(k, k + 1) * v
        P.append({e: v for e, v in nxt.items() if v})
    return P[: n + 1]


def a0n_poly(poly: FieldPoly, n: int) -> dict[tuple[int, int, int], Fraction]:
    """a_{0n}(p,q,t) of the field, as an exact polynomial in (p, q, t).

    a_{0n} = (2n+1) <f(p + t w1, q + t w2, t w3) P_n(w3)>.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    leg = _legendre_coeffs(n)[n]
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), coef in poly.items():
        for a in range(i + 1):
            ca = coef * comb(i, a)
            for b in range(j + 1):
                cb = ca * comb(j, b)
                # z-factor contributes (t w3)^k entirely: off-plane center not needed here
                for e, lv in leg.items():
                    mu = _omega_mean(a, b, k + e)
                    if mu:
                        key = (i - a, j - b, a + b + k)
                        out[key] = out.get(key, Fr(0)) + cb * lv * mu * (2 * n + 1)
    return {key: v for key, v in out.items() if v}


def eval_pqt(mpoly: MomentPoly, p, q, t):
    """Evaluate a polynomial at floats or numpy arrays (broadcasting).

    Serves moment polynomials in (p, q, t) and field polynomials in
    (x, y, z) alike.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    t = np.asarray(t, dtype=float)
    acc = np.zeros(np.broadcast_shapes(p.shape, q.shape, t.shape))
    for (a, b, d), c in mpoly.items():
        acc = acc + float(c) * p**a * q**b * t**d
    return acc if acc.shape else float(acc)


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
