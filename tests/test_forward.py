"""Forward operators against symbolic ground truth."""

import dataclasses
import gc
import random
import weakref
from fractions import Fraction as Fr
from math import factorial, inf, pi

import numpy as np
import pytest

from sphradon import checks, fields, forward, moments, polynomials
from sphradon.fields import (
    bump_field,
    const_field,
    gauss_field,
    make_phantom,
    polynomial_field,
    rsqz3_field,
    z_field,
    zsq_field,
)
from sphradon.moments import sample_moments
from sphradon.quadrature import SphereRule, assoc_legendre, band_rule, build_rule
from sphradon.forward import (
    SphereCenter,
    _evaluate_on_sphere,
    _factor_rows,
    _project,
    _sphere_offsets,
    first_cosine_coefficient,
    harmonic_coefficient,
    off_plane_mean,
    spherical_mean,
    two_data_transform,
)

from poly_helpers import ladder_rule, random_polynomial


def test_mean_of_constant():
    assert spherical_mean(const_field(7.0), SphereCenter(2.0, -1.0, 3.0)) == pytest.approx(7.0, rel=1e-14)


def test_mean_of_worked_example_vanishes():
    f = rsqz3_field()
    for c in (SphereCenter(0, 0, 1), SphereCenter(1, 3, 0.5), SphereCenter(-2, 1, 2)):
        assert spherical_mean(f, c) == pytest.approx(0.0, abs=1e-13)


def test_mean_of_zsq():
    assert spherical_mean(zsq_field(), SphereCenter(0, 0, 2.0)) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_first_cosine_of_worked_example():
    f = rsqz3_field()
    for (x, y, u) in ((1.0, 3.0, 1.0), (0.5, -0.25, 2.0), (0.0, 0.0, 0.7)):
        want = 0.6 * (x * x + y * y) * u**3 + (6.0 / 35.0) * u**5
        assert first_cosine_coefficient(f, SphereCenter(x, y, u)) == pytest.approx(want, rel=1e-13)


def test_first_cosine_even_field_vanishes():
    assert first_cosine_coefficient(zsq_field(), SphereCenter(1, 1, 1.5)) == pytest.approx(0.0, abs=1e-14)


def test_first_cosine_of_z():
    assert first_cosine_coefficient(z_field(), SphereCenter(5, -3, 1.25)) == pytest.approx(1.25, rel=1e-14)


def test_two_data_split():
    f = rsqz3_field()
    c = SphereCenter(1.0, 3.0, 1.0)
    got = two_data_transform(f, c)
    assert got.real == pytest.approx(0.0, abs=1e-13)
    assert got.imag == pytest.approx((0.6 * 10 + 6 / 35) / 3.0, rel=1e-13)
    # the split is definitional: both parts equal their standalone operators
    assert got.real == spherical_mean(f, c)
    assert got.imag == first_cosine_coefficient(f, c) / 3.0


@pytest.mark.parametrize("rule", [None, build_rule(32, 64)], ids=["default", "32x64"])
def test_two_data_split_sweep(rule):
    # whether two scalings agree depends on the rounding of each sum, so one
    # centre proves little; sweep many centres on every catalog phantom
    rng = random.Random(2404)
    for name in ("z", "zsq", "rsqz3", "const", "gauss", "bump"):
        f = make_phantom(name)
        for _ in range(40):
            c = SphereCenter(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 2.5))
            got = two_data_transform(f, c, rule)
            assert got.real == spherical_mean(f, c, rule), (name, c)
            assert got.imag == first_cosine_coefficient(f, c, rule) / 3.0, (name, c)


@pytest.mark.parametrize("name", ["gauss", "bump"])
def test_smooth_callbacks_equal_sphere_operators(name):
    # the callbacks are forward's one sphere pass under the rule the phantom
    # names for each radius; gauss's first-cosine data is the exact zero of
    # its plane symmetry, where quadrature leaves rounding noise.  Radii
    # below the bump's support (z > 0.1) meet none of it: literal zeros,
    # as every sphere operator gives there under any rule
    f = make_phantom(name)
    rng = random.Random(3303)
    centres = [SphereCenter(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.5)) for _ in range(40)]
    below = [SphereCenter(0.3, -0.4, t) for t in (0.01, 0.05, 0.0999)]
    for c in centres + below:
        mf, a01 = f.analytic_moments(c.p, c.q, c.t)
        rule = ladder_rule(fields._GAUSS_RULE if name == "gauss" else fields._BAND_SIZES, f.z_support, c.t)
        assert (rule is None) == (name == "bump" and c in below), c
        if rule is None:
            assert (mf, a01) == (0.0, 0.0) and not np.signbit([mf, a01]).any(), c
            assert spherical_mean(f, c, build_rule(256, 64)) == 0.0, c
            continue
        assert mf == spherical_mean(f, c, rule), c
        assert a01 == (0.0 if name == "gauss" else first_cosine_coefficient(f, c, rule)), c


def test_harmonic_a00_is_mean():
    f = make_phantom("gauss")
    c = SphereCenter(0.3, -0.2, 0.8)
    assert harmonic_coefficient(f, c, 0) == spherical_mean(f, c)


def test_harmonic_zsq():
    c = SphereCenter(4.0, 4.0, 1.3)
    assert harmonic_coefficient(zsq_field(), c, 2) == pytest.approx(2 * 1.3**2 / 3, rel=1e-13)


def test_harmonic_axisymmetric_m_vanishes():
    f = zsq_field()  # independent of (x, y): axisymmetric about any vertical axis
    c = SphereCenter(0.0, 0.0, 1.0)
    for m in (1, 2):
        assert harmonic_coefficient(f, c, 3, m, "a") == pytest.approx(0.0, abs=1e-13)
        assert harmonic_coefficient(f, c, 3, m, "b") == pytest.approx(0.0, abs=1e-13)


def test_harmonic_a11_of_x():
    f = polynomial_field({(1, 0, 0): Fr(1)}, "x")
    c = SphereCenter(0.0, 0.0, 2.0)
    assert harmonic_coefficient(f, c, 1, 1, "a") == pytest.approx(2.0, rel=1e-13)
    assert harmonic_coefficient(f, c, 1, 1, "b") == pytest.approx(0.0, abs=1e-13)


def test_harmonic_a11_of_xsq_zsq():
    f = polynomial_field({(2, 0, 2): Fr(1)}, "x2z2")
    p, t = 1.7, 0.9
    got = harmonic_coefficient(f, SphereCenter(p, 0.0, t), 1, 1, "a")
    assert got == pytest.approx(0.4 * p * t**3, rel=1e-13)


def test_harmonic_validation():
    f = zsq_field()
    c = SphereCenter(0, 0, 1)
    with pytest.raises(ValueError):
        harmonic_coefficient(f, c, -1)
    with pytest.raises(ValueError):
        harmonic_coefficient(f, c, 1, 2)
    with pytest.raises(ValueError):
        harmonic_coefficient(f, c, 1, 0, "b")
    with pytest.raises(ValueError):
        harmonic_coefficient(f, c, 1, 1, "c")
    with pytest.raises(ValueError):
        SphereCenter(0, 0, 0.0)
    # non-integer orders are named before any factor row is built
    with pytest.raises(ValueError, match="n must be an integer"):
        harmonic_coefficient(f, c, 2.5)
    with pytest.raises(ValueError, match="m must be an integer"):
        harmonic_coefficient(f, c, 2, 1.0)
    got = harmonic_coefficient(f, c, np.int64(2), np.int32(0))
    assert got == harmonic_coefficient(f, c, 2, 0)


@pytest.mark.parametrize("n, m", [(True, 0), (1, False), (False, False), (2, True)])
def test_harmonic_coefficient_refuses_a_bool_degree_or_order(n, m):
    # True is an Integral, and would project a_{01} as if asked for n = 1
    name, value = ("n", n) if isinstance(n, bool) else ("m", m)
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        harmonic_coefficient(rsqz3_field(), SphereCenter(0.3, 0.2, 0.7), n, m)


def _reference_projection(vals, rule, n, m, kind):
    """a_{mn} / b_{mn} with every factor rebuilt on the call: the
    per-call arithmetic the cached rows must reproduce bit for bit."""
    if m == 0:
        pn = None if n == 0 else assoc_legendre(n, 0, rule.cos_t)
        return (2 * n + 1) * float(np.dot(vals if pn is None else vals * pn, rule.w)) / (4.0 * pi)
    pnm = assoc_legendre(n, m, rule.cos_t)
    phi = np.arctan2(rule.sin_p, rule.cos_p)
    trig = np.cos(m * phi) if kind == "a" else np.sin(m * phi)
    norm = (2 * n + 1) * factorial(n - m) / factorial(n + m) / (2.0 * pi)
    return norm * float(np.dot(vals * pnm * trig, rule.w))


def _orders(max_n):
    return [(n, m, kind) for n in range(max_n + 1) for m in range(n + 1) for kind in "ab" if m or kind == "a"]


@pytest.mark.parametrize("rule", [None, build_rule(16, 32)], ids=["default", "16x32"])
@pytest.mark.parametrize("name", ["rsqz3", "gauss", "bump"])
def test_project_matches_per_call_reference(name, rule):
    # on every node: a declared parity would evaluate one hemisphere and
    # fold, a declared support a window of rings
    rule = rule or build_rule()
    f = _undeclared(make_phantom(name))
    for c in (SphereCenter(0.3, -0.2, 0.8), SphereCenter(-1.0, 0.5, 1.7)):
        vals, window = _evaluate_on_sphere(f, c, rule)
        assert window == (0, rule.n_theta, 0)
        for n, m, kind in _orders(6):
            want = _reference_projection(vals, rule, n, m, kind)
            assert _project(vals, rule, n, m, kind) == want, (c, n, m, kind)
        assert spherical_mean(f, c, rule) == _reference_projection(vals, rule, 0, 0, "a")
        assert first_cosine_coefficient(f, c, rule) == _reference_projection(vals, rule, 1, 0, "a")


# the package's rules: default, gauss, the bump's band, the dense
# reference and the checks' bump rule
_PACKAGE_RULES = {
    "24x48": lambda: build_rule(),
    "64x48": lambda: build_rule(64, 48),
    "96x64 band": lambda: band_rule(0.1, 0.9, 96, 64),
    "64x160": lambda: build_rule(64, 160),
    "256x64": lambda: build_rule(256, 64),
}
_BLOCK_RULES = {"7x12": lambda: build_rule(7, 12), "16x32": lambda: build_rule(16, 32), **_PACKAGE_RULES}


def _layouts(rng, rows, nodes):
    """One (rows, nodes) block each C-ordered, a step-2 view and Fortran-ordered."""
    block = rng.normal(size=(rows, nodes))
    wide = rng.normal(size=(rows, 2 * nodes))
    return {"C": block, "step 2": wide[:, ::2], "F": np.asfortranarray(rng.normal(size=(rows, nodes)))}


@pytest.mark.parametrize("rule", _PACKAGE_RULES)
def test_vecdot_sums_each_row_as_its_own_dot(rule):
    # the property `_project` rests on: np.vecdot over a block calls the
    # BLAS dot of np.dot once per row, whatever the block's memory layout
    w = _PACKAGE_RULES[rule]().w
    rng = np.random.default_rng(23)
    for rows in (1, 2, 8, 11):
        for layout, block in _layouts(rng, rows, w.size).items():
            want = np.array([np.dot(v, w) for v in block])
            assert np.vecdot(block, w).tobytes() == want.tobytes(), (rows, layout)
            assert np.vecdot(block[0], w).tobytes() == np.dot(block[0], w).tobytes(), layout


@pytest.mark.parametrize("rule", _BLOCK_RULES)
def test_project_of_a_block_equals_its_rows(rule):
    # an (R, nodes) block gives each row's own projection bit for bit, in
    # any memory layout
    rule = _BLOCK_RULES[rule]()
    rng = np.random.default_rng(7)
    for layout, block in _layouts(rng, 5, rule.w.size).items():
        for n, m, kind in _orders(4):
            got = _project(block, rule, n, m, kind)
            assert got.shape == (5,)
            want = np.array([_project(row, rule, n, m, kind) for row in block])
            assert got.tobytes() == want.tobytes(), (layout, n, m, kind)


def test_project_of_one_sphere_is_a_python_float():
    # gauss is even in z: one hemisphere, folded, so a vanishing
    # coefficient's +0.0 is a float too
    rule = build_rule()
    vals, window = _evaluate_on_sphere(make_phantom("gauss"), SphereCenter(0.2, 0.1, 0.9), rule)
    assert window.parity == 1
    for n, m, kind in _orders(2):
        assert type(_project(vals, rule, n, m, kind, window)) is float


def test_factor_rows_cached_read_only():
    rule = build_rule()
    assert _factor_rows(rule, 0, 0, "a") == ()
    for n, m, kind in _orders(4)[1:]:
        rows = _factor_rows(rule, n, m, kind)
        assert len(rows) == (2 if m else 1)
        for row in rows:
            assert not row.flags.writeable and row.flags.owndata
            with pytest.raises(ValueError):
                row[0] = 0.0
        assert all(a is b for a, b in zip(rows, _factor_rows(rule, n, m, kind)))
    assert _factor_rows(rule, 1, 0, "a")[0] is rule.cos_t


@pytest.mark.parametrize(
    "rule",
    [build_rule(), build_rule(64, 160), build_rule(256, 64), build_rule(7, 12), band_rule(0.1, 0.9, 96, 64),
     band_rule(-0.3, 1.0, 12, 16)],
    ids=["24x48", "64x160", "256x64", "7x12", "band-96x64", "band-12x16"],
)
def test_a01_factor_row_is_the_rules_cos_t(rule):
    # P_{1,0}(cos theta) = cos theta: the rule's own read-only cos_t, bit
    # for bit the Legendre row repeated along each ring that it replaces
    row = _factor_rows(rule, 1, 0, "a")[0]
    assert row is rule.cos_t and not row.flags.writeable
    assert row.tobytes() == np.repeat(assoc_legendre(1, 0, rule.cos_t[:: rule.n_phi]), rule.n_phi).tobytes()
    assert ("P", 1, 0) not in rule.rows


def test_trig_rows_are_shared_by_every_degree():
    rule = build_rule(16, 32)
    for m, kind in ((1, "a"), (1, "b"), (2, "a"), (3, "b")):
        rows = [_factor_rows(rule, n, m, kind) for n in range(m, m + 4)]
        assert all(r[1] is rows[0][1] for r in rows), (m, kind)
        assert all(r[0] is not rows[0][0] for r in rows[1:]), (m, kind)
    assert _factor_rows(rule, 3, 1, "a")[1] is _factor_rows(rule, 1, 1, "a")[1]
    assert _factor_rows(rule, 3, 1, "b")[1] is not _factor_rows(rule, 3, 1, "a")[1]


def test_transient_rule_is_freed_with_its_rows():
    # a band rule as the bump ladder builds one per radius: once projected
    # through, nothing but the caller may keep it alive
    rule = band_rule(0.1, 0.9, 12, 16)
    vals, window = _evaluate_on_sphere(make_phantom("bump"), SphereCenter(0.2, 0.1, 1.5), rule)
    for n, m, kind in _orders(3):
        _project(vals, rule, n, m, kind, window)
    assert rule.rows
    ref = weakref.ref(rule)
    del rule
    gc.collect()
    assert ref() is None


def test_factor_rows_follow_rule_identity():
    # a hand-built rule with a cached rule's sizes but turned phi nodes
    base = build_rule()
    phi = np.arctan2(base.sin_p, base.cos_p) + 0.3
    turned = SphereRule(base.n_theta, base.n_phi, base.cos_t, base.sin_t, np.cos(phi), np.sin(phi), base.w)
    assert turned != base
    for n, m, kind in ((2, 0, "a"), (2, 1, "a"), (3, 2, "b")):
        mine, theirs = _factor_rows(turned, n, m, kind), _factor_rows(base, n, m, kind)
        assert all(a is not b for a, b in zip(mine, theirs))
        if m:
            assert not np.array_equal(mine[1], theirs[1])
    gauss = _undeclared(make_phantom("gauss"))  # every node
    vals, _ = _evaluate_on_sphere(gauss, SphereCenter(0.2, 0.1, 0.9), turned)
    for n, m, kind in _orders(3):
        assert _project(vals, turned, n, m, kind) == _reference_projection(vals, turned, n, m, kind)


def _pole_sum(f, c, sgn, N):
    """sum_{n=0..N} sgn^n a_{0n}: the restriction expansion at the pole (p, q, sgn*t)."""
    return sum(sgn**n * harmonic_coefficient(f, c, n) for n in range(N + 1))


def test_restriction_partial_sum_poles():
    c = SphereCenter(0.0, 0.0, 1.5)
    assert _pole_sum(zsq_field(), c, 1.0, 2) == pytest.approx(1.5**2, rel=1e-13)
    f = rsqz3_field()
    c = SphereCenter(1.0, 3.0, 1.0)
    assert _pole_sum(f, c, -1.0, 5) == pytest.approx(-10.0, rel=1e-12)
    assert _pole_sum(const_field(3), c, 1.0, 0) == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize(
    "p, q, t",
    [(np.nan, 0.0, 1.0), (0.0, -np.inf, 1.0), (0.0, 0.0, np.nan), (0.0, 0.0, np.inf), (0.0, 0.0, -1.0)],
    ids=["nan-p", "inf-q", "nan-t", "inf-t", "negative-t"],
)
def test_sphere_center_rejects_non_finite_or_nonpositive(p, q, t):
    with pytest.raises(ValueError, match="sphere (centre|radius) must be"):
        SphereCenter(p, q, t)


def scalar(x, y, z):
    return 1.0


def three(x, y, z):
    return np.ones(3)


@pytest.mark.parametrize(
    "operator",
    [
        spherical_mean,
        first_cosine_coefficient,
        lambda f, c, rule: harmonic_coefficient(f, c, 2, 1, rule=rule),
        lambda f, c, rule: off_plane_mean(f, c.p, c.q, 0.3, c.t, rule),
        two_data_transform,
    ],
    ids=["mean", "a01", "harmonic", "off-plane", "two-data"],
)
@pytest.mark.parametrize("evaluate, shape", [(scalar, r"\(\)"), (three, r"\(3,\)")], ids=["scalar", "three"])
def test_sphere_operators_refuse_an_evaluate_without_one_value_per_node(operator, evaluate, shape):
    want = rf"evaluate '{evaluate.__name__}' returned shape {shape} on sphere nodes .* one value per node"
    with pytest.raises(ValueError, match=want):
        operator(evaluate, SphereCenter(0.2, 0.1, 1.0), build_rule(7, 12))


@pytest.mark.parametrize("z0", [np.nan, np.inf, -np.inf])
def test_off_plane_mean_rejects_non_finite_height(z0):
    with pytest.raises(ValueError, match="z0 must be finite"):
        off_plane_mean(z_field(), 0.0, 0.0, z0, 1.0)


def test_off_plane_mean_matches_shifted_polynomial():
    # mean of z over a sphere centered (p, q, z0) is z0
    assert off_plane_mean(z_field(), 2.0, -1.0, 0.35, 1.2) == pytest.approx(0.35, rel=1e-13)


def test_analytic_moments_match_quadrature_for_catalog():
    # the mollifier shell needs a much finer theta rule than the default,
    # so compare it against an explicit refined quadrature
    fine = build_rule(512, 64)
    for name in ("rsqz3", "z", "zsq", "gauss", "bump"):
        f = make_phantom(name)
        rule, tol = (fine, 1e-9) if name == "bump" else (None, 1e-11)
        for (x, y, u) in ((0.0, 0.0, 0.5), (1.0, -1.0, 1.0), (0.3, 0.2, 2.0)):
            mf, a01 = f.analytic_moments(x, y, u)
            c = SphereCenter(x, y, u)
            assert mf == pytest.approx(spherical_mean(f, c, rule), rel=1e-9, abs=tol), name
            assert a01 == pytest.approx(first_cosine_coefficient(f, c, rule), rel=1e-9, abs=tol), name


def test_polynomial_moments_random():
    rng = random.Random(901)
    for _ in range(3):
        poly = random_polynomial(rng, 5)
        f = polynomial_field(poly)
        x, y, u = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.3, 2.0)
        mf, a01 = f.analytic_moments(x, y, u)
        c = SphereCenter(x, y, u)
        assert mf == pytest.approx(spherical_mean(f, c), rel=1e-12, abs=1e-13)
        assert a01 == pytest.approx(first_cosine_coefficient(f, c), rel=1e-12, abs=1e-13)
        # Laplacian callbacks agree with the Laplacian-then-moment route
        g = polynomials.lap_xy(polynomials.lap_xy(poly))
        want = spherical_mean(polynomial_field(g), c)
        got_mf, _ = f.analytic_laplacians(x, y, u, 2)
        assert got_mf == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_gauss_moment_symmetry():
    f = make_phantom("gauss")
    _, a01 = f.analytic_moments(0.4, 0.1, 0.9)
    assert a01 == 0.0
    assert first_cosine_coefficient(f, SphereCenter(0.4, 0.1, 0.9)) == pytest.approx(0.0, abs=1e-14)


def test_bump_support():
    f = make_phantom("bump")
    z = np.array([-1.0, -0.1, 0.0, 0.05, 0.0999])
    vals = f.evaluate(np.zeros_like(z), np.zeros_like(z), z)
    assert np.all(vals == 0.0)
    assert f.evaluate(0.0, 0.0, 1.5) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        bump_field(zc=0.5, rz=0.6)


def test_boundary_decay_of_higher_coefficients():
    f = make_phantom("gauss")
    for n in (1, 2, 3):
        val = harmonic_coefficient(f, SphereCenter(0.0, 0.0, 1e-3), n)
        assert abs(val) <= 5e-3


def test_make_phantom_unknown():
    with pytest.raises(ValueError):
        make_phantom("cube")


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("gauss", {"foo": 1.0}, "phantom 'gauss' has no parameter 'foo'; accepted: amp, cx, cy, sx, sy, sz"),
        ("bump", {"sigma": 0.5, "z0": 1.0}, "phantom 'bump' has no parameter 'z0'; accepted: amp, x0, y0, sigma, zc, rz"),
        ("zero", {"value": 1.0}, "phantom 'zero' has no parameter 'value'; accepted: none"),
    ],
    ids=["gauss", "bump", "zero"],
)
def test_make_phantom_rejects_unknown_parameters(name, params, message):
    with pytest.raises(ValueError) as info:
        make_phantom(name, **params)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "poly, key",
    [
        ({(-1, 0, 0): 1}, (-1, 0, 0)),
        ({(2, 0, 0): 1, (0, 0, -2): 1}, (0, 0, -2)),
        ({(1.0, 0, 0): 1}, (1.0, 0, 0)),
        ({(1, 0): 1}, (1, 0)),
    ],
    ids=["negative", "negative-among-valid", "float", "two-exponents"],
)
def test_polynomial_field_refuses_bad_exponent_keys(poly, key):
    # a negative exponent would index the power table from its end, so
    # {(-1, 0, 0): 1} would evaluate as x, with a zero mean
    with pytest.raises(ValueError) as info:
        polynomial_field(poly, "bad")
    assert str(info.value) == f"polynomial 'bad' exponent key {key!r} must be three non-negative integers"


def test_gauss_validation():
    with pytest.raises(ValueError):
        gauss_field(sx=0.0)


# ----- a declared z-parity: one hemisphere evaluated, the projection folded -----

PARITY_PHANTOMS = ("rsqz3", "z", "zsq", "const", "zero", "gauss")
# 7 x 12 has an equator ring, which is evaluated and weighted once; the
# band over |cos(theta)| < 0.6 mirrors about the equator, the one over
# (0.1, 0.9) not
PARITY_RULES = {
    "24x48": (24, 48),
    "64x48": (64, 48),
    "64x160": (64, 160),
    "256x64": (256, 64),
    "7x12": (7, 12),
    "band-symmetric": (-0.6, 0.6, 12, 16),
    "band": (0.1, 0.9, 12, 16),
}

# a surviving coefficient is the hemisphere's sum against w_fold, which
# holds the same terms as the sum over every node (doubling is exact) added
# in another order; it stays within _ULPS eps of norm * sum |terms| of that
# sum (at most 2.6 eps measured over these phantoms and rules, 4 seeded
# centres each, degrees 0-5)
_ULPS = 8
_EPS = np.finfo(float).eps


def _rule(sizes):
    return build_rule(*sizes) if len(sizes) == 2 else band_rule(*sizes)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=complex if isinstance(v, complex) else float).tobytes()


def _undeclared(f):
    """f with neither trait declared, so that every pass evaluates every node."""
    return dataclasses.replace(f, z_parity=0, z_support=(-inf, inf))


def _nodes(window, rule):
    """The slice of the rule's flat nodes that a pass's window evaluates."""
    return slice(window.lo * rule.n_phi, window.hi * rule.n_phi)


def _seeded_centres(count=3, seed=26):
    rng = np.random.default_rng(seed)
    return [
        SphereCenter(float(p), float(q), float(t))
        for p, q, t in zip(rng.uniform(-1.5, 1.5, count), rng.uniform(-1.5, 1.5, count), rng.uniform(0.2, 2.5, count))
    ]


def _assert_folded(got, f, full, rule, n, m=0, kind="a"):
    """got is the declared field f's a_{mn} (kind "a") or b_{mn} (kind "b")
    of a sphere whose values on every node are `full`: exactly +0.0 when
    f.z_parity * (-1)^(n-m) == -1, else within _ULPS eps * norm * sum |terms|
    of the sum over every node."""
    if f.z_parity * (-1) ** (n - m) == -1:
        assert got == 0.0 and not np.signbit(got), (n, m, kind, got)
        return
    terms = full
    for row in _factor_rows(rule, n, m, kind):
        terms = terms * row
    norm = (2 * n + 1) / (4.0 * pi) if m == 0 else (2 * n + 1) * factorial(n - m) / factorial(n + m) / (2.0 * pi)
    want = _project(full, rule, n, m, kind)
    assert abs(got - want) <= _ULPS * _EPS * norm * float(np.sum(np.abs(terms * rule.w))), (n, m, kind, got, want)


def _rings(f, rule, z_shift=0.0):
    """How many theta rings a pass of f on `rule` lifted by z_shift
    evaluates: Z holds one value per ring."""
    return _sphere_offsets(1.0, rule, f, z_shift)[2].size


def test_which_passes_evaluate_one_hemisphere():
    rsqz3, bump = make_phantom("rsqz3"), make_phantom("bump")
    assert _rings(rsqz3, build_rule(24, 48)) == 12
    assert _rings(rsqz3, build_rule(7, 12)) == 4  # the equator with the rings above it
    assert _rings(rsqz3, band_rule(-0.6, 0.6, 12, 16)) == 6
    assert _rings(rsqz3, band_rule(0.1, 0.9, 12, 16)) == 12
    assert _rings(rsqz3, build_rule(24, 48), z_shift=1e-3) == 24
    # the bump declares no parity, and its window is the 11 rings whose
    # height cos(theta) lies in its support (0.1, 2.9)
    assert _rings(bump, build_rule(24, 48)) == 11
    assert _rings(_undeclared(bump), build_rule(24, 48)) == 24
    assert _rings(lambda x, y, z: z, build_rule(24, 48)) == 24


@pytest.mark.parametrize("rule", PARITY_RULES, ids=str)
def test_w_fold_doubles_the_rings_before_the_equator(rule):
    rule = _rule(PARITY_RULES[rule])
    before = rule.n_theta // 2 * rule.n_phi
    fold = rule.w_fold
    assert fold.size == (rule.n_theta + 1) // 2 * rule.n_phi
    assert _bits(fold[:before]) == _bits(2.0 * rule.w[:before])
    # an odd rule's equator ring, kept once; nothing for an even rule
    assert _bits(fold[before:]) == _bits(rule.w[before : fold.size])
    assert (fold.size > before) == (rule.n_theta % 2 == 1)
    assert not fold.flags.writeable and rule.w_fold is fold


def test_project_refuses_a_hemisphere_without_a_parity():
    # projected as every ring, which is what no window means
    rule = build_rule(24, 48)
    half, window = _evaluate_on_sphere(make_phantom("zsq"), SphereCenter(0.1, 0.2, 0.7), rule)
    assert half.size == rule.w_fold.size and window == (0, 12, 1)
    for n, m, kind in _orders(2):
        with pytest.raises(ValueError, match=r"576 values for the 1152 sphere nodes of rings \[0, 24\)"):
            _project(half, rule, n, m, kind)
        with pytest.raises(ValueError, match="over the window it evaluated"):
            _project(np.stack([half, half]), rule, n, m, kind, None)


@pytest.mark.parametrize("rule", PARITY_RULES, ids=str)
@pytest.mark.parametrize("name", PARITY_PHANTOMS)
def test_a_declared_parity_keeps_every_sphere_operator_bit_for_bit(name, rule):
    # the hemisphere keeps every node value of a pass over every node, bit
    # for bit, and each operator is the parity fold of those values, bit
    # for bit: a vanishing coefficient +0.0, a surviving one the all-node
    # sum within _ULPS; on a band whose rings do not mirror and off the
    # plane, every operator is the all-node sum's bytes, and the undeclared
    # field's all-node sum is the per-call reference's
    f, rule = make_phantom(name), _rule(PARITY_RULES[rule])
    g = _undeclared(f)
    # zero declares the empty support (0, 0): its window has no ring
    rings = 0 if name == "zero" else (rule.n_theta + 1) // 2 if rule.symmetric else rule.n_theta
    for c in _seeded_centres():
        (full, _), (half, window) = _evaluate_on_sphere(g, c, rule), _evaluate_on_sphere(f, c, rule)
        assert window == (0, rings, f.z_parity if rule.symmetric else 0)
        assert _bits(half) == _bits(full[_nodes(window, rule)])
        for n, m, kind in _orders(5):
            got = harmonic_coefficient(f, c, n, m, kind, rule)
            assert type(got) is float
            assert _bits(got) == _bits(_project(full[_nodes(window, rule)], rule, n, m, kind, window))
            plain = harmonic_coefficient(g, c, n, m, kind, rule)
            assert _bits(plain) == _bits(_reference_projection(full, rule, n, m, kind))
            if rule.symmetric:
                _assert_folded(got, f, full, rule, n, m, kind)
            else:
                assert _bits(got) == _bits(plain)
        mf, a01 = spherical_mean(f, c, rule), first_cosine_coefficient(f, c, rule)
        assert _bits(mf) == _bits(harmonic_coefficient(f, c, 0, rule=rule))
        assert _bits(a01) == _bits(harmonic_coefficient(f, c, 1, rule=rule))
        assert _bits(two_data_transform(f, c, rule)) == _bits(complex(mf, a01 / 3.0))
        assert _bits(off_plane_mean(f, c.p, c.q, 0.0, c.t, rule)) == _bits(mf)
        assert _bits(off_plane_mean(f, c.p, c.q, 0.25, c.t, rule)) == _bits(off_plane_mean(g, c.p, c.q, 0.25, c.t, rule))


@pytest.mark.parametrize("rule", PARITY_RULES, ids=str)
@pytest.mark.parametrize("name", PARITY_PHANTOMS)
def test_a_declared_parity_keeps_quadrature_sampling_bit_for_bit(name, rule):
    # every sample is `_sphere_moments` at its sphere bit for bit, so it
    # folds as the operators do: +0.0 for the vanishing moment (a whole
    # block of them at once), the all-node sum within _ULPS for the other,
    # and the undeclared field's bytes on a band whose rings do not mirror
    f, rule = make_phantom(name), _rule(PARITY_RULES[rule])
    g = _undeclared(f)
    # 11 radii: one full block and one partial block per centre
    args = ((-0.35, 0.2), 0.15, 2, 3, 0.2 * np.arange(1, 12))
    got = sample_moments(f, *args, analytic=False, rule=rule)
    plain = sample_moments(g, *args, analytic=False, rule=rule)
    for ip, iq, iu in np.ndindex(got.mf_values.shape):
        c = SphereCenter(got.p_node(ip), got.q_node(iq), float(got.radial_nodes[iu]))
        mf, a01 = got.mf_values[ip, iq, iu], got.a01_values[ip, iq, iu]
        assert _bits([mf, a01]) == _bits(forward._sphere_moments(f, c, rule))
        assert _bits([plain.mf_values[ip, iq, iu], plain.a01_values[ip, iq, iu]]) == _bits(forward._sphere_moments(g, c, rule))
        if rule.symmetric:
            full, _ = _evaluate_on_sphere(g, c, rule)
            _assert_folded(mf, f, full, rule, 0)
            _assert_folded(a01, f, full, rule, 1)
    if not rule.symmetric:
        assert _bits(got.mf_values) == _bits(plain.mf_values)
        assert _bits(got.a01_values) == _bits(plain.a01_values)


# every sphere the checks' stencil evaluates, two of them off the plane
_STENCIL = [(0, 0, 0, 0)] + [
    tuple(e if i == axis else 0 for i in range(4)) for axis in range(4) for e in (-1, 1)
] + [(1, 0, 1, 0), (0, -1, -1, 0)]


@pytest.mark.parametrize("rule", ["24x48", "64x160", "256x64", "7x12", "band-symmetric"])
@pytest.mark.parametrize("name", PARITY_PHANTOMS)
def test_a_declared_parity_keeps_the_checks_stencil_bit_for_bit(name, rule):
    # an on-plane stencil sphere is `harmonic_coefficient` of its sphere bit
    # for bit, and so folded; an off-plane one sums every node, as the
    # undeclared field's stencil does, bit for bit
    f, rule, h = make_phantom(name), _rule(PARITY_RULES[rule]), 1e-3
    point = (0.3, -0.2, 0.8)
    s, plain = checks._Spheres(f, *point, rule, h), checks._Spheres(_undeclared(f), *point, rule, h)
    for key in _STENCIL:
        c = SphereCenter(*(v + d * h if d else v for v, d in zip(point, key)))
        for n, m, kind in ((0, 0, "a"), (1, 0, "a"), (2, 1, "a"), (2, 1, "b")):
            got = s(n, m, kind, *key)
            if key[3]:
                assert _bits(got) == _bits(plain(n, m, kind, *key))
            else:
                assert _bits(got) == _bits(harmonic_coefficient(f, c, n, m, kind, rule))
                _assert_folded(got, f, _evaluate_on_sphere(_undeclared(f), c, rule)[0], rule, n, m, kind)


@pytest.mark.parametrize("rule", ["24x48", "7x12", "band-symmetric"])
def test_an_odd_field_zero_at_a_node_folds_to_plus_zero(rule):
    # x z is odd in z; move the centre so that x is exactly 0.0 at a node
    # above the equator: the pass keeps the +0.0 f gives there and evaluates
    # no node below the equator, and every even-degree a_{0n} is +0.0 by the
    # fold, whatever the signs of the values summed
    f, rule = polynomial_field({(1, 0, 1): Fr(1)}, "xz"), _rule(PARITY_RULES[rule])
    assert f.z_parity == -1
    t, node = 0.9, rule.n_phi + 1
    p = -float(t * rule.sin_t[node] * rule.cos_p[node])
    c = SphereCenter(p, 0.2, t)
    vals, window = _evaluate_on_sphere(f, c, rule)
    assert vals.size == rule.w_fold.size and window.parity == -1 and _bits(vals[node]) == _bits(0.0)
    full, _ = _evaluate_on_sphere(_undeclared(f), c, rule)
    for n in range(6):
        _assert_folded(harmonic_coefficient(f, c, n, rule=rule), f, full, rule, n)
    for negative in (np.full(vals.size, -0.0), -np.abs(vals)):
        for n in (0, 2, 4):
            got = _project(negative, rule, n, window=window)
            assert type(got) is float and _bits(got) == _bits(0.0)
            block = _project(np.stack([negative, negative]), rule, n, window=window)
            assert _bits(block) == _bits([0.0, 0.0])


def _count_nodes(monkeypatch, module):
    """(radii, nodes) of every `_sphere_offsets` call made through `module`."""
    calls = []
    offsets = forward._sphere_offsets

    def counted(t, rule, f=None, z_shift=0.0):
        dX, dY, Z, window = offsets(t, rule, f, z_shift)
        calls.append((np.size(t), dX.size))
        return dX, dY, Z, window

    monkeypatch.setattr(module, "_sphere_offsets", counted)
    return calls


# the bump's windows on 24 x 48 at radii 0.1, ..., 1.1: its support
# (0.1, 2.9) holds no ring at 0.1, then the top 8, 9, 10, 10 and 11 rings
_BUMP_WINDOWS = [0, 8, 9, 10, 10] + [11] * 6


@pytest.mark.parametrize("name, per_radius", [("rsqz3", 576), ("zsq", 576), ("bump", 1152)])
def test_quadrature_sampling_node_budget(monkeypatch, name, per_radius):
    # 24 x 48: one hemisphere of 12 rings for a declared parity, all 24
    # otherwise, of which the bump's support keeps a window of rings; a
    # block for each run of radii that share one, and no `evaluate` for the
    # empty window
    calls = _count_nodes(monkeypatch, moments)
    f = make_phantom(name)
    points = []

    def counted(x, y, z):
        points.append(np.shape(z))
        return f.evaluate(x, y, z)

    sample_moments(dataclasses.replace(f, evaluate=counted), (0.0, 0.0), 0.1, 2, 2, 0.1 * np.arange(1, 12), analytic=False)
    rings = _BUMP_WINDOWS if name == "bump" else [per_radius // 48] * 11
    assert calls == [(1, 48 * r) for r in rings] and max(rings) * 48 <= per_radius
    blocks = [(1, 384), (1, 432), (2, 480), (6, 528)] if name == "bump" else [(8, 576), (3, 576)]
    assert points == blocks * 4


def test_checks_stencil_node_budget(monkeypatch):
    # on the plane one hemisphere; an off-plane sphere every node
    calls = _count_nodes(monkeypatch, forward)
    s = checks._Spheres(make_phantom("rsqz3"), 0.3, -0.2, 0.8, build_rule(24, 48), 1e-3)
    for dz in (0, 1, -1):
        s(0, dz=dz)
    assert calls == [(1, 576), (1, 1152), (1, 1152)]
    calls.clear()
    # the bump's window: the 11 rings of its support (0.1, 2.9) at t = 0.8
    checks._Spheres(make_phantom("bump"), 0.3, -0.2, 0.8, build_rule(24, 48), 1e-3)(0)
    assert calls == [(1, 528)]


# ----- a declared z-support: each pass evaluates its window of rings -----


def _windows(f, rule, ts, z_shift=0.0):
    return [_sphere_offsets(float(t), rule, f, z_shift)[3] for t in ts]


def test_a_sphere_that_misses_the_support_is_plus_zero_without_evaluate():
    # t = 0.05 on the plane stays below the bump's support (0.1, 2.9)
    bump = make_phantom("bump")
    calls = []

    def evaluate(x, y, z):
        calls.append(np.shape(z))
        return bump.evaluate(x, y, z)

    f = dataclasses.replace(bump, evaluate=evaluate)
    c = SphereCenter(0.3, -0.4, 0.05)
    for rule in (build_rule(), build_rule(7, 12), build_rule(256, 64)):
        assert _windows(f, rule, [c.t])[0][:2] == (0, 0)
        got = [spherical_mean(f, c, rule), first_cosine_coefficient(f, c, rule), *forward._sphere_moments(f, c, rule)]
        got += [harmonic_coefficient(f, c, 3, 2, "b", rule), off_plane_mean(f, c.p, c.q, -1e-3, c.t, rule)]
        assert all(type(v) is float for v in got) and _bits(got) == _bits([0.0] * 6)
    assert calls == []


def test_a_window_is_the_first_to_the_last_ring_inside_the_support():
    # rings in any order: the window spans the rings inside (0.1, 2.9), and
    # the ring outside it between them is evaluated, as a superset must be
    base = build_rule(7, 12)
    order = np.array([6, 0, 4, 1, 5, 2, 3])  # ring heights out of order
    rows = [np.repeat(getattr(base, a)[:: base.n_phi][order], base.n_phi) for a in ("cos_t", "sin_t", "w")]
    shuffled = SphereRule(7, 12, rows[0], rows[1], base.cos_p, base.sin_p, rows[2])
    bump, t = make_phantom("bump"), 1.0
    z = t * shuffled.cos_t[:: shuffled.n_phi]
    inside = np.flatnonzero((0.1 < z) & (z < 2.9))
    (window,) = _windows(bump, shuffled, [t])
    assert window == (inside[0], inside[-1] + 1, 0) and window.hi - window.lo > inside.size
    plain = _undeclared(bump)
    for c in _seeded_centres():
        for n, m, kind in _orders(3):
            _assert_folded(harmonic_coefficient(bump, c, n, m, kind, shuffled), bump,
                           _evaluate_on_sphere(plain, c, shuffled)[0], shuffled, n, m, kind)


# the bump on the rules of the package, and an equator-ring rule
_WINDOW_RULES = {"24x48": (24, 48), "7x12": (7, 12), "64x160": (64, 160), "256x64": (256, 64)}


@pytest.mark.parametrize("rule", _WINDOW_RULES)
def test_windowed_operators_agree_with_every_node(rule):
    # a windowed pass sums the same nonzero terms as a pass over every node,
    # in another order: within _ULPS eps of norm * sum |terms|; on and off
    # the plane, and for spheres the support cuts below, above and not at all
    f, rule = make_phantom("bump"), _rule(_WINDOW_RULES[rule])
    g = _undeclared(f)
    centres = _seeded_centres(4) + [SphereCenter(1.0, -1.0, 1.0), SphereCenter(0.2, 0.1, 3.2)]
    for c in centres:
        full, _ = _evaluate_on_sphere(g, c, rule)
        for n, m, kind in _orders(4):
            _assert_folded(harmonic_coefficient(f, c, n, m, kind, rule), f, full, rule, n, m, kind)
        mf, a01 = forward._sphere_moments(f, c, rule)
        assert _bits([mf, a01]) == _bits([spherical_mean(f, c, rule), first_cosine_coefficient(f, c, rule)])
        for z0 in (1e-3, -1e-3):
            lifted, _ = _evaluate_on_sphere(g, c, rule, z0)
            _assert_folded(off_plane_mean(f, c.p, c.q, z0, c.t, rule), f, lifted, rule, 0)


@pytest.mark.parametrize("rule", ["24x48", "7x12"])
def test_windowed_sampling_equals_one_sphere_pass_per_radius(rule):
    # radii from below the support up: the windows change inside the first
    # block of 8, so blocks split there, and every sample is still
    # `_sphere_moments` at its sphere bit for bit
    f, rule = make_phantom("bump"), _rule(_WINDOW_RULES[rule])
    radii = 0.05 + 0.1 * np.arange(12)
    windows = _windows(f, rule, radii)
    assert windows[0][:2] == (0, 0) and len(set(windows[:8])) > 2
    grid = sample_moments(f, (-0.3, 0.2), 0.2, 2, 3, radii, analytic=False, rule=rule)
    for ip, iq, iu in np.ndindex(grid.mf_values.shape):
        c = SphereCenter(grid.p_node(ip), grid.q_node(iq), float(radii[iu]))
        got = [grid.mf_values[ip, iq, iu], grid.a01_values[ip, iq, iu]]
        assert _bits(got) == _bits(forward._sphere_moments(f, c, rule)), (ip, iq, iu)


def test_the_bump_ladder_band_is_its_own_window():
    # each band rule lies inside the support, so its window is every ring,
    # and power 0 of the ladder is the sphere operators under it bit for bit
    f = make_phantom("bump")
    radii = np.concatenate([[0.1000001, 0.15], np.linspace(0.3, 3.1, 15), [2.9, 4.2]])
    mf, a01 = f.laplacian_block(0.3, -0.2, radii, 0)
    for j, t in enumerate(radii.tolist()):
        rule = ladder_rule(fields._BAND_SIZES, f.z_support, t)
        assert _windows(f, rule, [t])[0] == (0, rule.n_theta, 0), t
        c = SphereCenter(0.3, -0.2, t)
        want = [spherical_mean(f, c, rule), first_cosine_coefficient(f, c, rule)]
        assert _bits([mf[0, j], a01[0, j]]) == _bits(want), t
