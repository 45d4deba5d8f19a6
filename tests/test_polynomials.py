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



def _product_reference(poly, p, q, t):
    """Terms summed from zeros in dict order, each float(c) * P[a] * Q[b] * T[d]
    with every factor multiplied, on power tables [1.0, v, v*v, ...] built
    by repeated multiplication."""
    p, q, t = (np.asarray(v, dtype=float) for v in (p, q, t))
    acc = np.zeros(np.broadcast_shapes(p.shape, q.shape, t.shape))
    tables = []
    for v, top in zip((p, q, t), map(max, zip(*poly))):
        table = [1.0, v]
        while len(table) <= top:
            table.append(table[-1] * v)
        tables.append(table)
    P, Q, T = tables
    for (a, b, d), c in poly.items():
        acc = acc + float(c) * P[a] * Q[b] * T[d]
    return acc


def _same_bits(got, want):
    return np.asarray(got).shape == np.asarray(want).shape and np.asarray(got).tobytes() == np.asarray(want).tobytes()


# unit coefficients, zeroth powers, a lone constant, negations and
# exponents up to 5
_UNIT_HEAVY = {
    (0, 0, 0): Fraction(1),
    (1, 0, 0): Fraction(1),
    (0, 2, 0): Fraction(3, 7),
    (0, 0, 5): Fraction(1),
    (2, 1, 0): Fraction(-1),
    (5, 0, 3): Fraction(-2, 7),
    (0, 4, 1): Fraction(1),
    (3, 5, 2): Fraction(5, 7),
}


@pytest.mark.parametrize("seed", range(4))
def test_unit_factors_are_skipped_exactly(seed):
    rng = np.random.default_rng(seed)
    poly = _random_sparse(rng, 5, 12)
    for key in list(poly)[::2]:
        poly[key] = Fraction(1)  # every other term a unit coefficient
    poly[(0, 0, 0)] = Fraction(1)
    pts = rng.uniform(-2.0, 2.0, size=(3, 50))
    for p_ in (poly, _UNIT_HEAVY):
        assert _same_bits(eval_pqt(p_, *pts), _product_reference(p_, *pts))
        assert _same_bits(eval_pqt(p_, 0.3, pts[1], -1.1), _product_reference(p_, 0.3, pts[1], -1.1))


def test_signed_zeros_sum_as_from_zeros():
    # a first term of -0.0 reads +0.0, as 0.0 + (-0.0) does; later -0.0
    # terms keep the sum's sign as the sum from zeros does
    grid = np.array([-0.0, 0.0, -1.5, 2.0])
    p, q, t = (a.ravel() for a in np.meshgrid(grid, grid, grid, indexing="ij"))
    polys = [
        {(1, 0, 0): Fraction(1)},
        {(1, 0, 0): Fraction(-1), (0, 1, 0): Fraction(1)},
        {(1, 1, 1): Fraction(1), (0, 0, 3): Fraction(-1), (2, 0, 0): Fraction(2, 7)},
        {(0, 0, 1): Fraction(-3, 7), (0, 0, 0): Fraction(1)},
        _UNIT_HEAVY,
    ]
    for poly in polys:
        got, want = eval_pqt(poly, p, q, t), _product_reference(poly, p, q, t)
        assert _same_bits(got, want), poly
        assert np.array_equal(np.signbit(got), np.signbit(want)), poly
        for j in range(p.size):
            value = eval_pqt(poly, float(p[j]), float(q[j]), float(t[j]))
            assert type(value) is float
            assert _same_bits(value, want[j]), (poly, j)


def test_ring_shaped_z_broadcasts_against_flat_rings():
    # a (rings, 1) z against (rings, n_phi) x and y, as the smooth ladders call
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-2.0, 2.0, size=(2, 6, 9))
    z = rng.uniform(-2.0, 2.0, size=(6, 1))
    for poly in (_UNIT_HEAVY, _random_sparse(rng, 5, 10), {(0, 0, 2): Fraction(1)}):
        got = eval_pqt(poly, x, y, z)
        assert got.shape == (6, 9)
        assert _same_bits(got, _product_reference(poly, x, y, z))


@pytest.mark.parametrize("c", [Fraction(3, 7), Fraction(1), Fraction(-1)])
def test_constant_polynomial_broadcasts_its_scalar(c):
    poly = {(0, 0, 0): c}
    x = np.linspace(-1.0, 1.0, 7)
    got = eval_pqt(poly, x, np.zeros((3, 1)), 0.5)
    assert got.shape == (3, 7) and got.flags.writeable
    assert _same_bits(got, _product_reference(poly, x, np.zeros((3, 1)), 0.5))
    value = eval_pqt(poly, 0.1, 0.2, 0.3)
    assert type(value) is float and value == float(c)


def test_result_is_a_fresh_array():
    # a lone power term must not hand back (or be summed into) a power table
    x = np.array([0.5, -2.0, 3.0])
    got = eval_pqt({(1, 0, 0): Fraction(1), (2, 0, 0): Fraction(1)}, x, 0.0, 0.0)
    assert not np.shares_memory(got, x)
    assert x.tolist() == [0.5, -2.0, 3.0]
    assert _same_bits(got, x + x * x)
    lone = eval_pqt({(1, 0, 0): Fraction(1)}, x, 0.0, 0.0)
    assert not np.shares_memory(lone, x) and _same_bits(lone, x + 0.0)
