"""Hermite-form Laplacian ladders and the array-valued block protocol."""

from __future__ import annotations

import dataclasses
import random
import re

import mpmath
import numpy as np
import pytest

from sphradon import reconstruct
from sphradon.coeffs import build_tables
from sphradon.fields import _hermite_laplacians, make_phantom, polynomial_field
from sphradon.moments import MomentGrid, sample_moments
from sphradon.reconstruct import ReconstructionRequest, SliceSpec, reconstruct_point, reconstruct_slice

from poly_helpers import random_polynomial

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


# ----- laplacian_block: column j is the block at radius us[j] alone -----


def _random_poly_field():
    return polynomial_field(random_polynomial(random.Random(77), 5), "rand5")


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
            assert (mf[0, j], a01[0, j]) == f.analytic_moments(x, y, float(u)), (x, y, u)
            for i in range(1, n + 1):
                got = (mf[i, j], a01[i, j])
                assert got == f.analytic_laplacians(x, y, float(u), i), (x, y, u, i)


def test_gauss_block_odd_rows_are_literal_zeros():
    mf, a01 = make_phantom("gauss").laplacian_block(0.4, 0.1, np.array([0.5, 1.2]), 4)
    assert np.all(a01 == 0.0) and not np.any(np.signbit(a01))
    assert np.all(mf[0] != 0.0)


# ----- structural guards: two ladder calls per (x, y, |z|) -----


def _counted(name: str):
    f = make_phantom(name)
    calls = []

    def ladder(x, y, us, n):
        calls.append((x, y, us, n))
        return f.analytic_ladder(x, y, us, n)

    return dataclasses.replace(f, analytic_ladder=ladder), calls


def test_one_ladder_call_per_point():
    f, calls = _counted("gauss")
    req = ReconstructionRequest(points=((0.2, 0.1, 0.8),), order_n=4, mode="two_data", source=f)
    reconstruct_point(req, TABLE)
    # the power-0 column at t = 0.8, then every power at all
    # n_gl = max(8, order + 4) radii
    assert len(calls) == 2
    (_, _, ts, n_t), (_, _, us, n) = calls
    assert n_t == 0 and ts.tolist() == [0.8]
    assert n == 4 and us.shape == (8,)


def test_gauss_slice_makes_one_ladder_pass_per_distinct_abs_z():
    # 3 x 3 nodes at +-0.8 and 0; the z = 0 row is excluded, and the rows
    # z = +-0.8 share their points' ladders: two calls for each of 3 points
    f, calls = _counted("gauss")
    spec = SliceSpec("y", 0.1, (-0.8, 0.8), (-0.8, 0.8), 0.8)
    res = reconstruct_slice(spec, 4, "two_data", f, TABLE, min_abs_z=0.25)
    assert np.isnan(res.values).sum() == 3
    assert len(calls) == 2 * 3


def test_points_one_ulp_apart_in_abs_z_are_not_merged():
    f, calls = _counted("gauss")
    z = 0.9
    pts = ((0.3, -0.2, z), (0.3, -0.2, -np.nextafter(z, 2.0)))

    def run(points):
        req = ReconstructionRequest(points=points, order_n=3, mode="two_data", source=f)
        return reconstruct_point(req, TABLE)

    both = run(pts)
    assert len(calls) == 2 * 2
    apart = [run((p,)) for p in pts]
    assert both.partial_sums == apart[0].partial_sums + apart[1].partial_sums


# ----- the reconstructor's sources answer whole blocks -----


def _random_grid(n_pq=11, n_u=6):
    rng = np.random.default_rng(31)
    shape = (n_pq, n_pq, n_u)
    nodes = 0.1 * np.arange(1, n_u + 1)
    return MomentGrid((-0.5, -0.5), 0.1, n_pq, n_pq, nodes, rng.normal(size=shape), rng.normal(size=shape))


@pytest.mark.parametrize("node", [(5, 5), (4, 6)], ids=["interior", "exact-margin"])
def test_grid_block_rows_equal_laplacian_power(node):
    # row i of the order-n block equals the top row of an order-i source's
    # block, which sweeps only the (2i+1)^2 neighbourhood, at each radius on
    # its own; (4, 6) on an 11 x 11 grid at order 4 touches index 0 in p
    # and 10 in q
    grid, n = _random_grid(), 4
    ip, iq = node
    x, y = grid.p_node(ip), grid.q_node(iq)
    mf, a01 = reconstruct._GridSource(grid, n).laplacian_block(x, y, grid.radial_nodes, n)
    assert mf.shape == a01.shape == (n + 1, grid.radial_nodes.size)
    for iu, u in enumerate(grid.radial_nodes):
        for i in range(n + 1):
            want_mf, want_a01 = reconstruct._GridSource(grid, i).laplacian_block(x, y, [u], i)
            assert mf[i, iu] == want_mf[i, 0], (iu, i)
            assert a01[i, iu] == want_a01[i, 0], (iu, i)


@pytest.mark.parametrize("n_u", [1, 6])
def test_grid_radius_lookup_equals_per_radius_argmin(n_u):
    grid = _random_grid(n_u=n_u)
    src, nodes = reconstruct._GridSource(grid, 0), grid.radial_nodes
    ts = np.concatenate([nodes, nodes * (1 + 5e-10), nodes - 4e-10])
    want = [int(np.argmin(np.abs(nodes - t))) for t in ts]
    assert src._radius_indices(ts).tolist() == want
    for t in (0.05, 0.01 + (nodes[0] + nodes[-1]) / 2, 0.65, nodes[-1] + 2e-9):
        msg = f"radius {t} is not on the stored radial ladder"
        with pytest.raises(ValueError, match=re.escape(msg)):
            src._radius_indices(np.concatenate([nodes, [t]]))


class _PerPowerField:
    """A duck-typed source answering one power per call, built on a field."""

    def __init__(self, field, order_n):
        self.field = field
        self.order_n = order_n
        self.gl = np.polynomial.legendre.leggauss(max(8, order_n + 4))

    def radial_scheme(self, x, y, t):
        gx, gw = self.gl
        return 0.5 * t * (gx + 1.0), 0.5 * t * gw

    def laplacians(self, x, y, us, i):
        mf, a01 = self.field.laplacian_block(x, y, us, self.order_n)
        return mf[i], a01[i]


@pytest.mark.parametrize("mode", ["two_data", "even_mirror"])
@pytest.mark.parametrize("name", ["gauss", "rsqz3"])
def test_per_power_source_equals_the_field_it_wraps(name, mode):
    f, n = make_phantom(name), 4
    points = ((0.2, -0.1, 0.9), (0.2, -0.1, -0.9), (-0.4, 0.3, 1.4))

    def run(source):
        req = ReconstructionRequest(points=points, order_n=n, mode=mode, source=source)
        return reconstruct_point(req, TABLE)

    got, want = run(_PerPowerField(f, n)), run(f)
    assert got.values == want.values
    assert got.partial_sums == want.partial_sums
    assert got.last_increment == want.last_increment


def test_grid_request_sweeps_once_per_function_and_abs_z(monkeypatch):
    nodes = 0.1 * np.arange(1, 9)
    grid = sample_moments(make_phantom("rsqz3"), (-0.4, -0.4), 0.1, 9, 9, nodes)
    sweeps = []

    def counted(block, n, h):
        sweeps.append(n)
        return center(block, n, h)

    center = reconstruct._center_laplacians
    monkeypatch.setattr(reconstruct, "_center_laplacians", counted)
    # x in {-0.1, 0, 0.1}, z in {-0.4, -0.2, 0.2, 0.4} once the band is cut:
    # 12 points, 6 distinct (x, y, |z|); each reads its power-0 column at t
    # (no sweep) and then sweeps once for every power at the radial nodes
    spec = SliceSpec("y", 0.0, (-0.1, 0.1), (-0.4, 0.4), 0.2)
    reconstruct_slice(spec, 3, "two_data", grid, TABLE, min_abs_z=0.1)
    assert sweeps == [0, 0, 3, 3] * 6
