"""Quadrature rule exactness and Legendre conventions."""

import numpy as np
import pytest

from sphradon.quadrature import (
    _band_rings,
    _gauss_legendre,
    _phi_ring,
    _gauss_legendre_on,
    assoc_legendre,
    band_rule,
    build_rule,
)


def test_weights_sum_to_sphere_area():
    rule = build_rule(24, 48)
    assert np.sum(rule.w) == pytest.approx(4 * np.pi, rel=1e-14)


def test_monomial_exactness():
    rule = build_rule(8, 16)
    # integral of cos^k over the sphere: 4pi/(k+1) for even k, 0 for odd
    for k in range(0, 15):
        got = float(np.dot(rule.cos_t**k, rule.w))
        want = 4 * np.pi / (k + 1) if k % 2 == 0 else 0.0
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_azimuthal_exactness():
    rule = build_rule(4, 16)
    phi = np.arctan2(rule.sin_p, rule.cos_p)
    for m in range(1, 8):
        assert float(np.dot(np.cos(m * phi), rule.w)) == pytest.approx(0.0, abs=1e-12)
        assert float(np.dot(np.sin(m * phi), rule.w)) == pytest.approx(0.0, abs=1e-12)
    # cos^2(m phi) integrates to 2pi * 2 = half the measure of the constant 1
    got = float(np.dot(np.cos(3 * phi) ** 2, rule.w))
    assert got == pytest.approx(2 * np.pi, rel=1e-13)


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_rule(0, 8)


def test_gauss_legendre_is_one_shared_read_only_rule():
    # one cached rule per size serves the sphere rules' theta nodes and the
    # radial integrals on [0, t], with the values of a fresh leggauss
    x, w = _gauss_legendre(12)
    assert _gauss_legendre(12)[0] is x
    fresh_x, fresh_w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(x, fresh_x) and np.array_equal(w, fresh_w)
    assert not (x.flags.writeable or w.flags.writeable)
    rule = build_rule(12, 5)
    assert np.array_equal(rule.cos_t[::5], x)
    us, ws = _gauss_legendre_on(1.7, 12)
    assert np.array_equal(us, 0.5 * 1.7 * (fresh_x + 1.0))
    assert np.array_equal(ws, 0.5 * 1.7 * fresh_w)


def test_legendre_values():
    x = np.linspace(-1, 1, 7)
    P = [assoc_legendre(n, 0, x) for n in range(5)]
    assert P[0] == pytest.approx(np.ones_like(x))
    assert P[1] == pytest.approx(x)
    assert P[2] == pytest.approx(1.5 * x**2 - 0.5)
    assert P[3] == pytest.approx(2.5 * x**3 - 1.5 * x)
    assert P[4] == pytest.approx((35 * x**4 - 30 * x**2 + 3) / 8)


def test_assoc_legendre_positive_convention():
    x = np.linspace(-0.99, 0.99, 11)
    s = np.sqrt(1 - x**2)
    # P_{1,1} = sin(theta), no Condon-Shortley minus
    assert assoc_legendre(1, 1, x) == pytest.approx(s)
    # P_{2,1} = 3 x sin, P_{2,2} = 3 sin^2
    assert assoc_legendre(2, 1, x) == pytest.approx(3 * x * s)
    assert assoc_legendre(2, 2, x) == pytest.approx(3 * s**2)
    # P_{3,2} = 15 x sin^2
    assert assoc_legendre(3, 2, x) == pytest.approx(15 * x * s**2)
    # m = 0 reduces to plain Legendre
    assert assoc_legendre(3, 0, x) == pytest.approx(2.5 * x**3 - 1.5 * x)
    with pytest.raises(ValueError):
        assoc_legendre(1, 2, x)


def test_nodes_property_shape():
    rule = build_rule(3, 5)
    assert rule.w.flags.writeable is False


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 24, 63, 64, 80, 96, 256])
def test_gauss_legendre_nodes_are_exactly_symmetric(n):
    # the smooth ladders mirror a field even in z from one hemisphere of
    # rings, which needs x[::-1] == -x bit for bit; the weights follow
    x, w = _gauss_legendre(n)
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
    assert build_rule(n, 3).symmetric


def test_rule_symmetry_reads_its_rings():
    # a band off the equator, or one mapped onto [-0.5, 0.25], is not a
    # mirror image of itself; [-0.5, 0.5] is, as the map is exact there
    assert not band_rule(0.1, 0.9, 12, 4).symmetric
    assert not band_rule(-0.5, 0.25, 12, 4).symmetric
    assert band_rule(-0.5, 0.5, 12, 4).symmetric


@pytest.mark.parametrize("size", [(24, 48), (64, 48), (64, 160), (256, 64)])
def test_build_rule_nodes_are_unmapped_gauss_legendre(size):
    # the full rule takes leggauss's nodes as they are: a map of [-1, 1]
    # onto itself can move their last bit
    n_theta, n_phi = size
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    ct = np.repeat(x, n_phi)
    want = (
        ct,
        np.sqrt(np.maximum(0.0, 1.0 - ct * ct)),
        np.tile(np.cos(phi), n_theta),
        np.tile(np.sin(phi), n_theta),
        np.repeat(wx, n_phi) * (2.0 * np.pi / n_phi),
    )
    rule = build_rule(*size)
    got = (rule.cos_t, rule.sin_t, rule.cos_p, rule.sin_p, rule.w)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("lo, hi", [(0.1 / 1.5, 1.0), (0.1 / 3.4, 2.9 / 3.4), (-1.0, 1.0)])
def test_band_rule_arrays_equal_the_flat_construction(lo, hi):
    # sin(theta) and the weights are formed per theta node and repeated:
    # bit for bit the arrays formed on every node
    n_theta, n_phi = 96, 64
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    half = 0.5 * (hi - lo)
    ct = np.repeat(0.5 * (hi + lo) + half * x, n_phi)
    want = (ct, np.sqrt(np.maximum(0.0, 1.0 - ct * ct)), np.repeat(half * wx, n_phi) * (2.0 * np.pi / n_phi))
    rule = band_rule(lo, hi, n_theta, n_phi)
    assert all(a.tobytes() == b.tobytes() for a, b in zip((rule.cos_t, rule.sin_t, rule.w), want))


@pytest.mark.parametrize(
    "lo, hi, n_theta, n_phi",
    [(0.1 / 1.5, 1.0, 96, 64), (0.1 / 3.4, 2.9 / 3.4, 96, 64), (-1.0, 1.0, 96, 64), (-0.5, 0.25, 7, 12)],
)
def test_band_rule_is_its_rings_repeated(lo, hi, n_theta, n_phi):
    # the smooth ladders read a band as its rings (`_band_rings`); the
    # rule's flat arrays are those rings repeated along the phi ring, byte
    # for byte, so a ladder pass and a pass on the rule share every node
    rule = band_rule(lo, hi, n_theta, n_phi)
    rings = _band_rings(lo, hi, n_theta, n_phi)
    assert all(a.shape == (n_theta,) for a in rings)
    for flat, ring in zip((rule.cos_t, rule.sin_t, rule.w), rings):
        assert flat.tobytes() == np.repeat(ring, n_phi).tobytes()
    cos_p, sin_p = _phi_ring(n_theta, n_phi)
    assert rule.cos_p is cos_p and rule.sin_p is sin_p


def test_band_rule_integrates_over_its_band():
    lo, hi = 0.15, 0.8
    rule = band_rule(lo, hi, 12, 16)
    assert (rule.n_theta, rule.n_phi) == (12, 16) and rule.w.size == 12 * 16
    assert np.all((lo < rule.cos_t) & (rule.cos_t < hi))
    # cos^k over the band: 2 pi (hi^(k+1) - lo^(k+1)) / (k + 1), exact to
    # degree 2 * 12 - 1
    for k in range(0, 24):
        want = 2 * np.pi * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        assert float(np.dot(rule.cos_t**k, rule.w)) == pytest.approx(want, rel=1e-13)
    for a in (rule.cos_t, rule.sin_t, rule.cos_p, rule.sin_p, rule.w):
        assert not a.flags.writeable
    # every band rule of these sizes shares one phi ring
    other = band_rule(-0.5, 0.25, 12, 16)
    assert other.cos_p is rule.cos_p and other.sin_p is rule.sin_p
    assert other is not band_rule(-0.5, 0.25, 12, 16)  # not cached


@pytest.mark.parametrize("lo, hi", [(0.5, 0.5), (0.6, 0.2), (-1.5, 0.0), (0.0, 1.01), (np.nan, 0.5)])
def test_band_rule_rejects_bad_bounds(lo, hi):
    with pytest.raises(ValueError, match="need -1 <= lo < hi <= 1"):
        band_rule(lo, hi, 4, 8)
