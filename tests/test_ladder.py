"""Hermite- and Laguerre-form Laplacian ladders, the smooth ladders' sphere
rules, and the array-valued block protocol."""

from __future__ import annotations

import dataclasses
import functools
import random
import re
from math import comb

import mpmath
import numpy as np
import pytest

from sphradon import fields, forward, moments
from sphradon.coeffs import build_tables
from sphradon.fields import _hermite_laplacians, _laguerre_laplacians, make_phantom, polynomial_field
from sphradon.moments import MomentGrid, sample_moments
from sphradon.reconstruct import ReconstructionRequest, SliceSpec, reconstruct_point, reconstruct_slice

from poly_helpers import ladder_rule, random_polynomial

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
    [(0.55, 0.65, 2), (0.55, 0.65, 4), (0.55, 0.65, 8), (0.45, 0.45, 8), (0.45, 0.45, 16)],
    ids=["gauss-2", "gauss-4", "gauss-8", "bump-8", "bump-16"],
)
def test_hermite_ladder_against_mpmath(sx, sy, power):
    # error relative to max(|exact|, s^-2i): near the zeros of Lap^i G the
    # value is a cancellation of terms of size s^-2i; gauss at power 2 is
    # what `verify` asks, at power 8 the CLI's table order
    rng = np.random.default_rng(20240 + power)
    dx, dy = rng.uniform(-2.5, 2.5, size=(2, 200))
    got = list(_hermite_laplacians(dx, dy, sx, sy, power))[power - 1]  # powers 1..n
    scale = min(sx, sy) ** (-2 * power)
    with mpmath.workdps(50):
        worst = 0.0
        for a, b, v in zip(dx, dy, got):
            exact = _lap_ratio_exact(float(a), float(b), sx, sy, power)
            worst = max(worst, float(abs(v - exact) / max(abs(exact), scale)))
    assert worst <= 1e-12, worst


@pytest.mark.parametrize(
    "power, seeded",
    [(4, False), (8, False), (16, False), (4, True), (8, True), (16, True)],
    ids=["bump-4", "bump-8", "bump-16", "bump-4-seeded", "bump-8-seeded", "bump-16-seeded"],
)
def test_laguerre_ladder_against_mpmath(power, seeded):
    # the isotropic form, against the same 50-digit Hermite sums with
    # sx == sy; a seeded recurrence steps seed * Lap^i G / G, so its rows
    # divided by a random positive seed are held to the same bound
    s = 0.45
    rng = np.random.default_rng(20240 + power)
    dx, dy = rng.uniform(-2.5, 2.5, size=(2, 200))
    seed = rng.uniform(0.01, 100.0, size=200) if seeded else np.ones(200)
    rows = list(_laguerre_laplacians(dx * dx + dy * dy, s, power, seed))
    assert len(rows) == power  # powers 1..n: power 0, the seed, is not yielded
    scale = s ** (-2 * power)
    with mpmath.workdps(50):
        worst = 0.0
        for a, b, v in zip(dx, dy, rows[-1] / seed):
            exact = _lap_ratio_exact(float(a), float(b), s, s, power)
            worst = max(worst, float(abs(v - exact) / max(abs(exact), scale)))
    assert worst <= 1e-12, worst


# ----- the smooth ladders' sphere rules -----


_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def _band_reference(f, x, y, u, n, n_theta=384, n_phi=96, zc=1.5, rz=1.4, s=0.45):
    """(Mf, a01) rows of powers 0..n of the default bump at one radius, on a
    dense band rule built here from numpy's Gauss-Legendre nodes, with the
    Hermite form of the Laplacians: no code shared with the ladder but the
    bump's own evaluate and the Hermite rows pinned above."""
    lo, hi = (zc - rz) / u, min(1.0, (zc + rz) / u)
    xg, wg = _leggauss(n_theta)
    ct = np.repeat(0.5 * (hi + lo) + 0.5 * (hi - lo) * xg, n_phi)
    w = np.repeat(0.5 * (hi - lo) * wg, n_phi) * (2 * np.pi / n_phi)
    phi = np.tile(2 * np.pi * np.arange(n_phi) / n_phi, n_theta)
    st = np.sqrt(1.0 - ct * ct)
    X, Y = x + u * st * np.cos(phi), y + u * st * np.sin(phi)
    base = f.evaluate(X, Y, u * ct)
    rows = np.array([base] + [lap * base for lap in _hermite_laplacians(X, Y, s, s, n)])
    return rows @ w / (4 * np.pi), 3 * (rows * ct) @ w / (4 * np.pi)


def test_bump_ladder_against_a_dense_band_reference():
    # error relative to each power's largest |value| over the radii of a
    # centre, powers 0..8: the 96 x 64 band rule measured at most 1.2e-12
    # here (and 9.8e-13 against a 1024 x 128 band rule summed with
    # math.fsum); the former 256 x 64 full-sphere rule measured 2.5e-8
    f, n = make_phantom("bump"), 8
    us = np.array([0.12, 0.3, 0.7, 1.0, 1.5, 2.0, 2.5, 2.95, 3.4])
    for x, y in ((0.0, 0.0), (1.5, -1.5), (0.7, 0.3), (-1.5, 1.0)):
        got = f.laplacian_block(x, y, us, n)
        ref = np.array([_band_reference(f, x, y, u, n) for u in us]).transpose(1, 2, 0)
        for g, r in zip(got, ref):
            err = np.max(np.abs(g - r), axis=1) / np.max(np.abs(r), axis=1)
            assert np.all(err <= 5e-12), (x, y, err)


def _masked_mollifier(s):
    """The mollifier evaluated on the inside nodes only, zeros elsewhere."""
    s1 = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(s1)
    inside = np.abs(s1) < 1.0
    w = s1[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - w * w))
    return out.reshape(np.shape(s))


def test_mollifier_equals_its_masked_form():
    # one pass over every node, then zeros outside, is bit for bit the form
    # that evaluates the inside nodes only, at NaN, +-inf, +-1, the last
    # floats inside and outside +-1 and signed zeros, with no warning
    edges = [np.nan, np.inf, -np.inf, 1.0, -1.0, 0.0, -0.0, 2.0, -5.0]
    edges += [np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)]
    s = np.concatenate([edges, np.random.default_rng(3).uniform(-1.5, 1.5, 500)]).reshape(3, -1)
    got = fields._mollifier(s)
    assert got.shape == s.shape and got.tobytes() == _masked_mollifier(s).tobytes()
    for v in edges + [0.5, -0.999]:
        got = fields._mollifier(v)
        assert type(got) is float and repr(got) == repr(float(_masked_mollifier(v))), v


def test_ladder_point_budget(monkeypatch):
    # sphere points each smooth ladder evaluates per radius, and the values
    # its z factor is formed on: gauss, even in z, on the 32 rings of one
    # hemisphere of the 64 x 48 rule; the bump on the 96 x 64 band rule
    # where its sphere meets the support z > 0.1, its mollifier once per
    # ring, and none below; a dense rule or a full-sphere gauss fails here
    points: dict[float, int] = {}
    ring_values: list[int] = []
    ladder_passes, mollifier = forward._ladder_passes, fields._mollifier

    def counted(f, ts, sizes, odd=True):
        for one in ladder_passes(f, ts, sizes, odd):
            j, dX, dY, Z, w, _ = one
            points[ts[j]] = points.get(ts[j], 0) + dX.size
            assert dY.size == w.size == dX.size and Z.shape == (dX.size // sizes[1],)
            yield one

    def counted_mollifier(s):
        ring_values.append(np.size(s))
        return mollifier(s)

    monkeypatch.setattr(fields, "_ladder_passes", counted)
    monkeypatch.setattr(fields, "_mollifier", counted_mollifier)
    us = np.array([0.05, 0.0999, 0.3, 1.5, 2.9, 3.5])
    for name, n, budget in (("gauss", 4, [1536] * 6), ("bump", 8, [0, 0, 6144, 6144, 6144, 6144])):
        points.clear()
        make_phantom(name).laplacian_block(0.4, -0.3, us, n)
        assert [points.get(u, 0) for u in us] == budget, name
    assert ring_values == [96] * 4


# ----- the smooth ladders against a plain pass over every node -----


def _plain_even_hermite_rows(d, s, n):
    """He_2j(d/s) / s^2j, j = 0..n, by the even rows' recurrence in q = d^2/s^4."""
    s2 = s * s
    s4 = s2 * s2
    q = d * d / s4
    rows = [np.ones_like(d), q - 1.0 / s2]
    for j in range(1, n):
        rows.append((q - (4 * j + 1) / s2) * rows[j] - (2 * j * (2 * j - 1) / s4) * rows[j - 1])
    return rows


def _plain_hermite_powers(dx, dy, sx, sy, n, base):
    """base * Lap^i G / G, i = 0..n, with every product formed, row 0 and C(i, i) too."""
    hx = _plain_even_hermite_rows(dx, sx, n)
    hy = _plain_even_hermite_rows(dy, sy, n)
    out = []
    for i in range(n + 1):
        acc = hx[0] * hy[i]
        for j in range(1, i + 1):
            acc = acc + hx[j] * comb(i, j) * hy[i - j]
        out.append(acc * base)
    return out


def _plain_laguerre_powers(r2, s, n, base):
    """base * Lap^i G / G, i = 0..n, by the Laguerre recurrence from R_0 = base."""
    s2 = s * s
    s4 = s2 * s2
    q = r2 / s4
    rows = [base]
    for k in range(n):
        nxt = (q - 2 * (2 * k + 1) / s2) * rows[-1]
        if k:
            nxt = nxt - (4 * k * k / s4) * rows[-2]
        rows.append(nxt)
    return rows


def _plain_pass(f, rule_sizes, powers, x, y, u, n):
    """(Mf, a01) of powers 0..n at one radius: the field and every power on
    every node of the ladder's own rule, as flat arrays, each power
    projected with `_project`'s arithmetic over its window of rings: for a
    field of declared z-parity the hemisphere's prefix against the folded
    weights, and of these the first to the last ring whose height lies
    strictly inside the field's z_support."""
    rule = ladder_rule(rule_sizes, f.z_support, u)
    if rule is None:
        return np.zeros((2, n + 1))
    st = u * rule.sin_t
    X, Y, Z = x + st * rule.cos_p, y + st * rule.sin_p, 0.0 + u * rule.cos_t
    base = np.asarray(f.evaluate(X, Y, Z), dtype=float)
    w = rule.w_fold if f.z_parity else rule.w
    lo, hi = f.z_support
    inside = np.flatnonzero((lo < Z[: w.size]) & (Z[: w.size] < hi))
    if not inside.size:
        return np.zeros((2, n + 1))
    k = rule.n_phi
    nodes = slice(inside[0] // k * k, (inside[-1] // k + 1) * k)
    vals, cos_t = [v[nodes] for v in powers(X, Y, n, base)], rule.cos_t[nodes]
    return np.array(
        [[float(np.dot(v, w[nodes])) / (4.0 * np.pi) for v in vals],
         [3 * float(np.dot(v * cos_t, w[nodes])) / (4.0 * np.pi) for v in vals]]
    )


def _plain_bump_powers(X, Y, n, base):
    dx, dy = X - 0.0, Y - 0.0
    return _plain_laguerre_powers(dx * dx + dy * dy, 0.45, n, base)


# the default phantoms' rule sizes and powers, about their centres (0, 0)
_PLAIN_PASSES = {
    "gauss": (fields._GAUSS_RULE, lambda X, Y, n, base: _plain_hermite_powers(X - 0.0, Y - 0.0, 0.55, 0.65, n, base)),
    "bump": (fields._BAND_SIZES, _plain_bump_powers),
}


def _assert_plain(f, plain, x, y, us, n, odd):
    """The ladder's block at (x, y) equals `_plain_pass` on `plain`, a
    (rule sizes, powers) pair, bit for bit: both moment functions of a
    field of parity 0, the mean of an even one (its a01 rows are +0.0 by
    its parity), and the mean alone when odd is False."""
    got = np.array(f.laplacian_block(x, y, us, n, odd))
    want = np.array([_plain_pass(f, *plain, x, y, float(u), n) for u in us]).transpose(1, 2, 0)
    assert got.shape == (2 if odd else 1, n + 1, us.size)
    assert got[0].tobytes() == want[0].tobytes(), (x, y)
    if odd and f.z_parity:
        assert np.all(got[1] == 0.0) and not np.any(np.signbit(got[1]))
    elif odd:
        assert got[1].tobytes() == want[1].tobytes(), (x, y)


@pytest.mark.parametrize("name", ["gauss", "bump"])
def test_smooth_ladders_equal_a_plain_pass_over_every_node(name):
    # powers 0..8 bit for bit: gauss on one hemisphere of rings, folded,
    # and the bump with its z factor per ring, against a pass that forms
    # every node and product; the bump's radii give a sphere below its
    # support, bands cut below and above, and one ending at the pole
    f, n = make_phantom(name), 8
    us = np.array([0.05, 0.3, 0.9, 1.5, 2.9, 3.4]) if name == "bump" else np.array([0.1, 0.3, 0.9, 1.7, 2.5])
    for x, y in ((0.0, 0.0), (0.4, -0.3), (1.5, -1.5), (-0.7, 1.1)):
        _assert_plain(f, _PLAIN_PASSES[name], x, y, us, n, True)


# radii within ulps of the bump's support bounds 0.1 and 2.9, where band
# rings round onto a bound: at 0.1 + 2e-16 14 of the 96 rings and at
# 0.1 + 1e-15 5 lie outside, at the next two floats above 0.1 all of them
_EDGE_RADII = [
    0.1 + 2e-16, 0.1 + 5e-16, 0.1 + 1e-15, float(np.nextafter(0.1, 1.0)), 0.1 * (1 + 2**-52), 0.1,
    2.9 - 1e-15, float(np.nextafter(2.9, 0.0)), 2.9, float(np.nextafter(2.9, 4.0)), 2.9 + 1e-15, 1.3,
]


@pytest.mark.parametrize("odd", [True, False])
@pytest.mark.parametrize("name", ["gauss", "bump"])
def test_smooth_ladders_equal_a_plain_pass_at_the_support_bounds(name, odd):
    # the same, at radii within ulps of the bump's support bounds, where a
    # band's first or last ring may round onto a bound and the pass scans
    # its window, with signed-zero centres and either request
    f, n = make_phantom(name), 4
    us = np.array(_EDGE_RADII)
    for x, y in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.4, -0.3), (-1.2, 0.9)):
        _assert_plain(f, _PLAIN_PASSES[name], x, y, us, n, odd)


def test_an_isotropic_gauss_takes_the_laguerre_path():
    # gauss with sx == sy forms its powers by the Laguerre recurrence in
    # r2, from its own planar form of the field (not the bump's radial one)
    f, n = make_phantom("gauss", cx=0.2, cy=-0.1, sx=0.5, sy=0.5), 6

    def powers(X, Y, n, base):
        dx, dy = X - 0.2, Y - -0.1
        return _plain_laguerre_powers(dx * dx + dy * dy, 0.5, n, base)

    for x, y in ((0.0, -0.0), (0.4, -0.3), (-1.2, 0.9)):
        _assert_plain(f, (fields._GAUSS_RULE, powers), x, y, np.array([0.2, 0.9, 1.7]), n, True)


def test_the_bump_band_windows_at_its_support_bounds():
    # the radii above scan their windows: rings round onto the bounds, and
    # at the next floats above 0.1 every ring does, so the sphere is zeros
    f = make_phantom("bump")
    rings = [
        [Z.size for _, _, _, Z, _, _ in forward._ladder_passes(f, [u], fields._BAND_SIZES)] for u in _EDGE_RADII
    ]
    assert rings[:6] == [[82], [96], [91], [], [], []]
    assert all(r == [96] for r in rings[6:]), rings


def _refusal_source(name):
    """A catalog phantom by name, or for "grid" a 9 x 9 MomentGrid about
    (0, 0) with the radii 0.1..1.0."""
    if name != "grid":
        return make_phantom(name)
    shape = (9, 9, 10)
    return MomentGrid((-0.4, -0.4), 0.1, 9, 9, np.linspace(0.1, 1.0, 10), np.ones(shape), np.ones(shape))


@pytest.mark.parametrize("name", fields.PHANTOM_NAMES + ("grid",))
def test_smooth_ladders_refuse_a_bad_radius(name):
    # every source checks a whole request once, before any ladder runs: a
    # polynomial ladder would answer a negative, zero, NaN or infinite
    # radius and the bump's band of one would be empty and read as zeros
    src = _refusal_source(name)
    radius = "sphere radius must be positive and finite, got t="
    for t in (-0.5, 0.0, np.nan, np.inf):
        if name != "grid":
            with pytest.raises(ValueError, match=re.escape(f"{radius}{t}")):
                src.analytic_moments(0.0, 0.0, t)
        with pytest.raises(ValueError, match=re.escape(f"{radius}{t}")):
            src.laplacian_block(0.0, 0.0, [0.5, t], 2)
    for x, y in ((np.nan, 0.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match=re.escape(f"sphere centre must be finite, got (p, q) = ({x}, {y})")):
            src.laplacian_block(x, y, [0.5], 2)
    for n in (-1, 1.0, 2.5, True, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match=re.escape(f"Laplacian power n must be a non-negative integer, got {n!r}")):
            src.laplacian_block(0.0, 0.0, [0.5], n)
    for us in ([[0.5], [0.5]], 0.5, np.ones((1, 2))):
        with pytest.raises(ValueError, match="radii us must be a 1-D array, got shape"):
            src.laplacian_block(0.0, 0.0, us, 2)
    # what is accepted: a numpy power, a list of radii, and no radius at all
    for us in ([0.5, 0.5], []):
        blocks = src.laplacian_block(0.0, 0.0, us, np.int64(2))
        assert len(blocks) == 2 and all(b.shape == (3, len(us)) for b in blocks), name


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


# ----- structural guards: one ladder call per slice column (x, y) -----


def _counted(name: str):
    f = make_phantom(name)
    calls = []

    def ladder(x, y, us, n, odd):
        calls.append((x, y, us, n, odd))
        return f.analytic_ladder(x, y, us, n, odd)

    return dataclasses.replace(f, analytic_ladder=ladder), calls


def test_one_ladder_call_per_point():
    f, calls = _counted("gauss")
    req = ReconstructionRequest(points=((0.2, 0.1, 0.8),), order_n=4, mode="two_data", source=f)
    reconstruct_point(req, TABLE)
    # every power at the n_gl = max(8, order + 4) radii followed by
    # t = 0.8, whose column is the boundary datum
    assert len(calls) == 1
    ((_, _, us, n, odd),) = calls
    assert n == 4 and us.shape == (9,) and us[-1] == 0.8 and odd


def test_gauss_slice_makes_one_ladder_pass_per_distinct_abs_z():
    # 3 x 3 nodes at +-0.8 and 0; the z = 0 row is excluded, and the rows
    # z = +-0.8 share their points' ladders: one call for each of 3 columns
    f, calls = _counted("gauss")
    spec = SliceSpec("y", 0.1, (-0.8, 0.8), (-0.8, 0.8), 0.8)
    res = reconstruct_slice(spec, 4, "two_data", f, TABLE, min_abs_z=0.25)
    assert np.isnan(res.values).sum() == 3
    assert len(calls) == 3


def test_points_one_ulp_apart_in_abs_z_are_not_merged():
    f, calls = _counted("gauss")
    z = 0.9
    pts = ((0.3, -0.2, z), (0.3, -0.2, -np.nextafter(z, 2.0)))

    def run(points):
        req = ReconstructionRequest(points=points, order_n=3, mode="two_data", source=f)
        return reconstruct_point(req, TABLE)

    both = run(pts)
    # one column, one ladder call, in which each |z| keeps its own column
    assert len(calls) == 1
    ((_, _, us, _, _),) = calls
    assert z in us and np.nextafter(z, 2.0) in us
    apart = [run((p,)) for p in pts]
    assert both.partial_sums == apart[0].partial_sums + apart[1].partial_sums


def test_an_even_mirror_request_forms_no_a01(monkeypatch):
    # even-mirror mode reads the mean data alone: its block asks odd=False,
    # and the bump's ladder projects no a01 (no cos(theta) row on any band);
    # its Mf rows are the two-data block's bit for bit
    f, calls = _counted("bump")
    orders = []
    project = forward._ring_project

    def counted(vals, w, n, cos_t=None):
        orders.append((n, cos_t is None))
        return project(vals, w, n, cos_t)

    monkeypatch.setattr(fields, "_ring_project", counted)
    req = ReconstructionRequest(points=((0.0, 0.2, 1.5),), order_n=8, mode="even_mirror", source=f)
    reconstruct_point(req, TABLE)
    ((x, y, us, n, odd),) = calls
    assert odd is False and orders and set(orders) == {(0, True)}
    (mf,) = f.laplacian_block(x, y, us, n, odd=False)
    assert mf.tobytes() == f.laplacian_block(x, y, us, n)[0].tobytes()


@pytest.mark.parametrize("make", [lambda: make_phantom("gauss"), lambda: make_phantom("rsqz3"), lambda: _random_grid()])
def test_a_mean_only_block_is_the_mean_of_the_full_block(make):
    src = make()
    x, y, us = (0.0, 0.0, np.array([0.2, 0.4, 0.6])) if isinstance(src, MomentGrid) else (0.3, -0.1, np.array([0.2, 0.9]))
    full = src.laplacian_block(x, y, us, 3)
    mean = src.laplacian_block(x, y, us, 3, odd=False)
    assert len(full) == 2 and len(mean) == 1
    assert mean[0].tobytes() == full[0].tobytes()


# ----- the reconstructor's sources answer whole blocks -----


def _random_grid(n_pq=11, n_u=6):
    rng = np.random.default_rng(31)
    shape = (n_pq, n_pq, n_u)
    nodes = 0.1 * np.arange(1, n_u + 1)
    return MomentGrid((-0.5, -0.5), 0.1, n_pq, n_pq, nodes, rng.normal(size=shape), rng.normal(size=shape))


@pytest.mark.parametrize("node", [(5, 5), (4, 6)], ids=["interior", "exact-margin"])
def test_grid_block_rows_equal_laplacian_power(node):
    # row i of the order-n block equals the top row of the order-i block,
    # which sweeps only the (2i+1)^2 neighbourhood, at each radius on its
    # own; (4, 6) on an 11 x 11 grid at order 4 touches index 0 in p and 10
    # in q
    grid, n = _random_grid(), 4
    ip, iq = node
    x, y = grid.p_node(ip), grid.q_node(iq)
    mf, a01 = grid.laplacian_block(x, y, grid.radial_nodes, n)
    assert mf.shape == a01.shape == (n + 1, grid.radial_nodes.size)
    for iu, u in enumerate(grid.radial_nodes):
        for i in range(n + 1):
            want_mf, want_a01 = grid.laplacian_block(x, y, [u], i)
            assert mf[i, iu] == want_mf[i, 0], (iu, i)
            assert a01[i, iu] == want_a01[i, 0], (iu, i)


@pytest.mark.parametrize("n_u", [1, 6])
def test_grid_radius_lookup_equals_per_radius_argmin(n_u):
    grid = _random_grid(n_u=n_u)
    nodes = grid.radial_nodes
    ts = np.concatenate([nodes, nodes * (1 + 5e-10), nodes - 4e-10])
    want = [int(np.argmin(np.abs(nodes - t))) for t in ts]
    assert grid._radius_indices(ts).tolist() == want
    for t in (0.05, 0.01 + (nodes[0] + nodes[-1]) / 2, 0.65, nodes[-1] + 2e-9):
        msg = f"radius {t} is not on the stored radial ladder"
        with pytest.raises(ValueError, match=re.escape(msg)):
            grid._radius_indices(np.concatenate([nodes, [t]]))


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

    if mode == "two_data":
        got, want = run(_PerPowerField(f, n)), run(f)
    else:
        # a duck-typed source cannot be probed and is used as-is; the
        # phantom itself fails the half-space test and is used as-is too
        got = run(_PerPowerField(f, n))
        with pytest.warns(UserWarning, match="nonzero for z <= 0"):
            want = run(f)
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

    center = moments._center_laplacians
    monkeypatch.setattr(moments, "_center_laplacians", counted)
    # x in {-0.1, 0.1}, z in {-0.4, -0.2, 0.2 + 7e-17, 0.4} once the band is
    # cut: 8 points, 6 distinct (x, y, |z|) in 2 columns; each column sweeps
    # once for every power at the union of its points' radial nodes and t
    spec = SliceSpec("y", 0.0, (-0.1, 0.1), (-0.4, 0.4), 0.2)
    reconstruct_slice(spec, 3, "two_data", grid, TABLE, min_abs_z=0.1)
    assert sweeps == [3, 3] * 2
    # even-mirror mode sweeps the mean data alone
    sweeps.clear()
    reconstruct_slice(spec, 3, "even_mirror", grid, TABLE, min_abs_z=0.1)
    assert sweeps == [3] * 2


def test_grid_column_sweeps_each_stored_radius_once(monkeypatch):
    # the slice's 13 |z| (+z and -z are one) are not all bit-equal to the
    # stored nodes 0.1 j they sit on, and its column asks both: 23 radii on
    # 15 stored nodes; each stored radius is swept once, and every column of
    # the block is bit for bit the one a sweep of that radius alone gives
    nodes = 0.1 * np.arange(1, 17)
    grid = sample_moments(make_phantom("rsqz3"), (-0.6, -0.6), 0.1, 13, 13, nodes)
    spec = SliceSpec("y", 0.0, (0.0, 0.0), (-1.5, 1.5), 0.1)
    swept = []

    def counted(block, n, h):
        swept.append(block.shape[2])
        return center(block, n, h)

    center = moments._center_laplacians
    monkeypatch.setattr(moments, "_center_laplacians", counted)
    res = reconstruct_slice(spec, 4, "two_data", grid, TABLE, min_abs_z=0.25)
    assert swept == [15, 15]
    us = np.array(sorted(set(nodes[:15].tolist()) | set(np.abs(res.others[np.abs(res.others) >= 0.25]).tolist())))
    assert us.size == 23
    block = grid.laplacian_block(0.0, 0.0, us, 4)
    for j, u in enumerate(us):
        alone = grid.laplacian_block(0.0, 0.0, [u], 4)
        assert all(b[:, j].tobytes() == a[:, 0].tobytes() for b, a in zip(block, alone)), u


# ----- a slice column equals its points asked one at a time -----


def _gl_node(t: float, n: int, j: int) -> float:
    """Radial node j of the default max(8, n + 4)-point rule on [0, t]."""
    gx, _ = np.polynomial.legendre.leggauss(max(8, n + 4))
    return float(0.5 * t * (gx[j] + 1.0))


def _column_points(x: float, y: float, z: float, node: float) -> tuple:
    """Two columns, (x, y) and the centre (-0.0, y) beside (0.0, y): +-z, a
    |z| one ulp above z, a |z| equal to another point's radial node, and
    both signed zeros."""
    return (
        (x, y, z), (x, y, -z), (x, y, -np.nextafter(z, 2.0)), (x, y, node),
        (0.0, y, z), (-0.0, y, -z), (-0.0, y, node), (0.0, y, -node),
    )


def _bits(res) -> tuple:
    return tuple(
        np.array(v, dtype=float).tobytes() for v in (res.values, res.partial_sums, res.last_increment)
    )


_GRID = sample_moments(make_phantom("rsqz3"), (-0.4, -0.4), 0.1, 9, 9, 0.1 * np.arange(1, 13))


@pytest.mark.parametrize(
    "source, mode, n, points",
    [
        (make_phantom("rsqz3"), "two_data", 8, _column_points(0.3, -0.2, 0.9, _gl_node(0.9, 8, 5))),
        (make_phantom("gauss"), "two_data", 4, _column_points(0.3, -0.2, 0.9, _gl_node(0.9, 4, 3))),
        (make_phantom("bump"), "even_mirror", 8, _column_points(0.1, 0.2, 1.5, _gl_node(1.5, 8, 9))),
        # the grid's node 0.4 is one of t = 0.8's radial nodes
        (_GRID, "two_data", 3, _column_points(0.1, 0.1, 0.8, 0.4)),
        (_PerPowerField(make_phantom("rsqz3"), 4), "two_data", 4, _column_points(0.3, -0.2, 0.9, _gl_node(0.9, 4, 2))),
    ],
    ids=["rsqz3", "gauss", "bump-even-mirror", "grid", "per-power"],
)
def test_a_column_equals_its_points_one_at_a_time(source, mode, n, points):
    def run(pts):
        req = ReconstructionRequest(points=pts, order_n=n, mode=mode, source=source)
        return reconstruct_point(req, TABLE)

    together = run(points)
    apart = [run((p,)) for p in points]
    assert _bits(together) == tuple(b"".join(parts) for parts in zip(*map(_bits, apart)))
