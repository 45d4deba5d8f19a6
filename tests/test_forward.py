"""Forward operators against symbolic ground truth."""

import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from sphradon import polynomials
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
from sphradon.quadrature import build_rule
from sphradon.forward import (
    SphereCenter,
    first_cosine_coefficient,
    harmonic_coefficient,
    off_plane_mean,
    spherical_mean,
    two_data_transform,
)

from poly_helpers import random_polynomial


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
    # the callbacks are forward's one sphere pass under the phantom's own
    # rule; gauss's first-cosine data is the exact zero of its plane
    # symmetry, where quadrature leaves rounding noise
    rule = build_rule(64, 160) if name == "gauss" else build_rule(256, 64)
    f = make_phantom(name)
    rng = random.Random(3303)
    for _ in range(40):
        c = SphereCenter(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.5))
        mf, a01 = f.analytic_moments(c.p, c.q, c.t)
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


def test_gauss_validation():
    with pytest.raises(ValueError):
        gauss_field(sx=0.0)
