"""Floating-point evaluation of exact polynomials: `eval_pqt`."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from sphradon.polynomials import eval_pqt


def _random_sparse(rng, max_exp: int, n_terms: int) -> dict[tuple[int, int, int], Fraction]:
    """n_terms monomials with exponents up to max_exp; the coefficients are
    sevenths, which no float holds exactly."""
    poly = {}
    while len(poly) < n_terms:
        key = tuple(int(e) for e in rng.integers(0, max_exp + 1, size=3))
        poly[key] = Fraction(int(rng.integers(-70, 71)) or 1, 7)
    return poly


def _power_reference(poly, p, q, t):
    """Terms summed from zeros in dict order, each float(c) * p**a * q**b * t**d
    with numpy's `**`."""
    p, q, t = (np.asarray(v, dtype=float) for v in (p, q, t))
    acc = np.zeros(np.broadcast_shapes(p.shape, q.shape, t.shape))
    for (a, b, d), c in poly.items():
        acc = acc + float(c) * p**a * q**b * t**d
    return acc


@pytest.mark.parametrize("seed", range(6))
def test_error_is_within_the_rounding_bound(seed):
    # against exact Fraction arithmetic at the float inputs: each term takes
    # at most degree + 3 roundings (coefficient, powers, products) and the
    # sum one per term, all relative to sum |term|
    rng = np.random.default_rng(seed)
    poly = _random_sparse(rng, 12, 12)
    degree = max(sum(key) for key in poly)
    pts = rng.uniform(-2.0, 2.0, size=(3, 40))
    got = eval_pqt(poly, *pts)
    for j in range(pts.shape[1]):
        p, q, t = (Fraction(float(v)) for v in pts[:, j])
        terms = [c * p**a * q**b * t**d for (a, b, d), c in poly.items()]
        exact = sum(terms)
        bound = (degree + len(poly) + 3) * 2.0**-52 * float(sum(abs(v) for v in terms))
        assert abs(Fraction(float(got[j])) - exact) <= Fraction(bound), (seed, j)


def test_array_and_scalar_evaluation_agree_bit_for_bit():
    rng = np.random.default_rng(11)
    poly = _random_sparse(rng, 12, 10)
    x, y = 0.3716, -1.215
    us = rng.uniform(-2.0, 2.0, size=17)
    column = eval_pqt(poly, x, y, us)
    assert column.shape == (17,)
    for j, u in enumerate(us):
        value = eval_pqt(poly, x, y, u)
        assert type(value) is float
        assert value == column[j]
        assert eval_pqt(poly, np.asarray(x), np.asarray(y), np.asarray(u)) == value
        assert eval_pqt(poly, x, y, float(u)) == value


def test_empty_polynomial_gives_zeros():
    got = eval_pqt({}, np.ones((2, 1)), 0.5, np.arange(3.0))
    assert got.shape == (2, 3) and not got.any()
    value = eval_pqt({}, 1.0, 2.0, 3.0)
    assert type(value) is float and value == 0.0


def test_powers_up_to_two_equal_numpy_powers():
    # the power table's 1, v and v*v are the bits of numpy's v**0, v**1, v**2
    rng = np.random.default_rng(3)
    poly = _random_sparse(rng, 2, 20)
    pts = rng.uniform(-2.0, 2.0, size=(3, 64))
    assert eval_pqt(poly, *pts).tobytes() == _power_reference(poly, *pts).tobytes()
    got = eval_pqt(poly, 0.25, pts[1], -1.5)
    assert got.tobytes() == _power_reference(poly, 0.25, pts[1], -1.5).tobytes()
    assert eval_pqt(poly, 0.7, -0.2, 1.9) == float(_power_reference(poly, 0.7, -0.2, 1.9))

