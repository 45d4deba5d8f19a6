"""Exact trivariate polynomials and closed-form sphere moments.

A polynomial field is a dict mapping exponent triples (i, j, k) to Fraction
coefficients, meaning sum c * x^i y^j z^k.  Restricted to the sphere of
center (p, q, 0) and radius t it becomes a polynomial in the direction
vector omega, and every harmonic projection reduces to monomial means

    <w1^a w2^b w3^c> = (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!

over the unit sphere (all exponents even; zero otherwise), with (-1)!! = 1.
This yields the moment functions a_{0n}(p,q,t) as exact polynomials in
(p, q, t) - the ground truth against which all quadrature is tested.

`eval_pqt` evaluates such a polynomial in floating point from one power
table per variable, [1, v, v*v, (v*v)*v, ...] up to the largest exponent
used, built by repeated multiplication instead of a libm `pow` per element
and term.  A scalar operand stays a Python float, so evaluating at one
centre costs no numpy call per power.  Powers 0-2 are the bits numpy's
`v**a` gives; a power of 3 or more may differ from `pow` in the last bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping

import numpy as np

__all__ = [
    "lap_xy",
    "a0n_poly",
    "eval_pqt",
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


def _powers(v, top: int) -> list:
    """[1.0, v, v*v, ...] up to v**top, each power one multiplication on the
    last; the square is v*v, as numpy's `v**2` forms it."""
    out = [1.0, v]
    while len(out) <= top:
        out.append(out[-1] * v)
    return out


def eval_pqt(mpoly: MomentPoly, p, q, t):
    """Evaluate a polynomial at floats or numpy arrays (broadcasting).

    Serves moment polynomials in (p, q, t) and field polynomials in
    (x, y, z) alike.  Each variable gets one power table per call, built by
    repeated multiplication up to the largest exponent the polynomial uses;
    a scalar operand stays a Python float, so its table costs no numpy call.
    Each term is float(c) * p^a * q^b * t^d, multiplied left to right
    without its factors of exactly 1.0 (a unit coefficient and every
    zeroth power), since x * 1.0 is x.  Terms are summed in dict order,
    from the first one plus 0.0 in a fresh array of the broadcast shape, so
    the sums are those from zeros, a -0.0 first term reading +0.0.
    """
    pqt = [np.asarray(v, dtype=float) for v in (p, q, t)]
    pqt = [v if v.ndim else float(v) for v in pqt]
    shape = np.broadcast(*pqt).shape
    if not mpoly:
        return np.zeros(shape) if shape else 0.0
    P, Q, T = (_powers(v, top) for v, top in zip(pqt, map(max, zip(*mpoly))))
    acc = None
    for (a, b, d), c in mpoly.items():
        term = None if c == 1 else float(c)
        if a:
            term = P[a] if term is None else term * P[a]
        if b:
            term = Q[b] if term is None else term * Q[b]
        if d:
            term = T[d] if term is None else term * T[d]
        if term is None:
            term = 1.0
        if acc is None:
            acc = np.add(term, 0.0, out=np.empty(shape)) if shape else term + 0.0
        else:
            acc += term
    return acc
