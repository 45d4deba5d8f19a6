"""Hermite-form Laplacian ladders and the array-valued block protocol."""

from __future__ import annotations

import dataclasses
import random

import mpmath
import numpy as np
import pytest

from sphradon import polynomials
from sphradon.coeffs import build_tables
from sphradon.fields import _hermite_laplacians, make_phantom, polynomial_field
from sphradon.reconstruct import ReconstructionRequest, SliceSpec, reconstruct_point, reconstruct_slice

TABLE = build_tables(8)


# ----- the Hermite form against 50-digit arithmetic -----


def _he_exact(k: int, x):
    """Probabilists' Hermite He_k(x) from its explicit series, in mpmath."""
    return mpmath.fsum(
        (-1) ** m * mpmath.factorial(k) * x ** (k - 2 * m)
        / (mpmath.factorial(m) * mpmath.factorial(k - 2 * m) * 2**m)
        for m in range(k // 2 + 1)
    )


def _lap_ratio_exact(dx: float, dy: float, sx: float, sy: float, i: int):
    """Lap^i G / G at 50 digits, G = exp(-dx^2/(2 sx^2) - dy^2/(2 sy^2))."""
    sx, sy = mpmath.mpf(sx), mpmath.mpf(sy)
    xi, eta = mpmath.mpf(dx) / sx, mpmath.mpf(dy) / sy
    return mpmath.fsum(
        mpmath.binomial(i, j) * _he_exact(2 * j, xi) / sx ** (2 * j)
        * _he_exact(2 * (i - j), eta) / sy ** (2 * (i - j))
        for j in range(i + 1)
    )


def test_hermite_reference_is_the_laplacian_itself():
    # the 50-digit reference is Lap^i G / G: compare it with mpmath's own
    # numerical partial derivatives (good to about 1e-17 here) at a few
    # points; a wrong formula would be off at order 1
    sx, sy = 0.55, 0.65

    def g(x, y):
        a, b = mpmath.mpf(sx), mpmath.mpf(sy)
        return mpmath.exp(-x * x / (2 * a * a) - y * y / (2 * b * b))

    with mpmath.workdps(50):
        for dx, dy in ((0.3, -0.7), (1.1, 0.4), (-1.9, 1.3)):
            d = lambda a, b: mpmath.diff(g, (dx, dy), (a, b))  # noqa: E731
            lap2 = d(4, 0) + 2 * d(2, 2) + d(0, 4)
            want = lap2 / g(dx, dy)
            got = _lap_ratio_exact(dx, dy, sx, sy, 2)
            assert abs(got - want) <= mpmath.mpf("1e-15") * max(1, abs(want))


@pytest.mark.parametrize(
    "sx, sy, power",
    [(0.55, 0.65, 4), (0.45, 0.45, 8), (0.45, 0.45, 16)],
    ids=["gauss-4", "bump-8", "bump-16"],
)
def test_hermite_ladder_against_mpmath(sx, sy, power):
    # error relative to max(|exact|, s^-2i): near the zeros of Lap^i G the
    # value is a cancellation of terms of size s^-2i
    rng = np.random.default_rng(20240 + power)
    dx, dy = rng.uniform(-2.5, 2.5, size=(2, 200))
    got = list(_hermite_laplacians(dx, dy, sx, sy, power))[power]
    scale = min(sx, sy) ** (-2 * power)
    with mpmath.workdps(50):
        worst = 0.0
        for a, b, v in zip(dx, dy, got):
            exact = _lap_ratio_exact(float(a), float(b), sx, sy, power)
            worst = max(worst, float(abs(v - exact) / max(abs(exact), scale)))
    assert worst <= 1e-12, worst


# ----- laplacian_block: row i is laplacians(.., i), row 0 is moments -----


def _random_poly_field():
    return polynomial_field(polynomials.random_polynomial(random.Random(77), 5), "rand5")


@pytest.mark.parametrize(
    "make, n",
    [
        (lambda: make_phantom("gauss"), 4),
        (lambda: make_phantom("bump"), 8),
        (lambda: make_phantom("rsqz3"), 4),
        (_random_poly_field, 4),
    ],
    ids=["gauss", "bump", "rsqz3", "random-poly"],
)
def test_block_rows_equal_per_power_calls(make, n):
    f = make()
    us = np.array([0.3, 0.9, 1.7])
    for x, y in ((0.0, 0.0), (0.35, -0.6), (-1.1, 0.8)):
        mf, a01 = f.laplacian_block(x, y, us, n)
        assert mf.shape == a01.shape == (n + 1, us.size)
        for j, u in enumerate(us):
            assert (mf[0, j], a01[0, j]) == f.moments(x, y, float(u)), (x, y, u)
            for i in range(n + 1):
                assert (mf[i, j], a01[i, j]) == f.laplacians(x, y, float(u), i), (x, y, u, i)


def test_gauss_block_odd_rows_are_literal_zeros():
    mf, a01 = make_phantom("gauss").laplacian_block(0.4, 0.1, np.array([0.5, 1.2]), 4)
    assert np.all(a01 == 0.0) and not np.any(np.signbit(a01))
    assert np.all(mf[0] != 0.0)


# ----- structural guards: one ladder call per (x, y, |z|) and radius -----


def _counted(name: str):
    f = make_phantom(name)
    calls = []

    def ladder(x, y, u, n):
        calls.append((x, y, u, n))
        return f.analytic_ladder(x, y, u, n)

    return dataclasses.replace(f, analytic_ladder=ladder), calls


def test_one_ladder_call_per_radius():
    f, calls = _counted("gauss")
    req = ReconstructionRequest(points=((0.2, 0.1, 0.8),), order_n=4, mode="two_data", source=f)
    reconstruct_point(req, TABLE)
    assert len(calls) == 8  # n_gl = max(8, order + 4) radii, all powers each
    assert {c[3] for c in calls} == {4}


def test_gauss_slice_makes_one_ladder_pass_per_distinct_abs_z():
    # 3 x 3 nodes at +-0.8 and 0; the z = 0 row is excluded, and the rows
    # z = +-0.8 share their points' ladders
    f, calls = _counted("gauss")
    spec = SliceSpec("y", 0.1, (-0.8, 0.8), (-0.8, 0.8), 0.8)
    res = reconstruct_slice(spec, 4, "two_data", f, TABLE, min_abs_z=0.25)
    assert np.isnan(res.values).sum() == 3
    assert len(calls) == 3 * 8


def test_points_one_ulp_apart_in_abs_z_are_not_merged():
    f, calls = _counted("gauss")
    z = 0.9
    pts = ((0.3, -0.2, z), (0.3, -0.2, -np.nextafter(z, 2.0)))

    def run(points):
        req = ReconstructionRequest(points=points, order_n=3, mode="two_data", source=f)
        return reconstruct_point(req, TABLE)

    both = run(pts)
    assert len(calls) == 2 * 8
    apart = [run((p,)) for p in pts]
    assert both.partial_sums == apart[0].partial_sums + apart[1].partial_sums
