"""Declared field traits: each phantom's z_support and z_parity."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphradon.fields import PHANTOM_NAMES, ScalarField3D, make_phantom, polynomial_field

# every phantom whose declared support is bounded, and the empty polynomial
BOUNDED = {name: f for name in PHANTOM_NAMES if (f := make_phantom(name)).z_support != (-inf, inf)}
BOUNDED["polynomial {}"] = polynomial_field({})


def test_the_bounded_catalog_phantoms_are_the_bump_and_zero():
    assert sorted(BOUNDED) == ["bump", "polynomial {}", "zero"]
    assert make_phantom("bump").z_support == (1.5 - 1.4, 1.5 + 1.4)
    assert make_phantom("bump", zc=2.0, rz=0.5).z_support == (1.5, 2.5)
    assert BOUNDED["zero"].z_support == BOUNDED["polynomial {}"].z_support == (0.0, 0.0)


def _outside(support, lattice):
    """z values of `lattice` outside the open interval `support`, with its ends."""
    lo, hi = support
    return sorted({z for z in lattice if not lo < z < hi} | {lo, hi})


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_a_bounded_phantom_is_exactly_zero_outside_its_support_on_a_lattice(name):
    f = BOUNDED[name]
    zs = _outside(f.z_support, np.linspace(-4.0, 4.0, 81).tolist())
    X, Y, Z = np.meshgrid(np.linspace(-3.0, 3.0, 25), np.linspace(-3.0, 3.0, 25), zs, indexing="ij")
    vals = np.asarray(f.evaluate(X, Y, Z), dtype=float)
    assert vals.shape == X.shape and (vals == 0.0).all()


_coords = st.floats(-50.0, 50.0, allow_nan=False)
_offsets = st.floats(0.0, 1e6, allow_nan=False)


@pytest.mark.parametrize("name", sorted(BOUNDED))
@settings(max_examples=200, deadline=None)
@given(x=_coords, y=_coords, offset=_offsets, above=st.booleans())
def test_a_bounded_phantom_is_exactly_zero_outside_its_support(name, x, y, offset, above):
    f = BOUNDED[name]
    lo, hi = f.z_support
    z = hi + offset if above else lo - offset
    assert f.evaluate(x, y, z) == 0.0
    assert np.asarray(f.evaluate(np.array([x]), np.array([y]), np.array([z]))).tolist() == [0.0]


@settings(max_examples=100, deadline=None)
@given(
    zc=st.floats(0.2, 5.0), frac=st.floats(0.05, 0.95), x=_coords, y=_coords,
    offset=_offsets, above=st.booleans(),
)
def test_every_bump_is_exactly_zero_outside_its_declared_support(zc, frac, x, y, offset, above):
    f = make_phantom("bump", zc=zc, rz=frac * zc)
    lo, hi = f.z_support
    assert 0 < lo < hi
    assert f.evaluate(x, y, hi + offset if above else lo - offset) == 0.0


@pytest.mark.parametrize("name", ["rsqz3", "z", "zsq", "const", "gauss"])
def test_an_unbounded_phantom_keeps_the_default(name):
    assert make_phantom(name).z_support == (-inf, inf)


def test_only_the_zero_polynomial_declares_the_empty_support():
    # a nonzero polynomial vanishes on no open set; zero coefficients are dropped
    assert polynomial_field({(1, 0, 0): Fraction(1)}).z_support == (-inf, inf)
    assert polynomial_field({(0, 0, 5): Fraction(-3, 7)}).z_support == (-inf, inf)
    assert polynomial_field({(0, 0, 1): Fraction(0)}).z_support == (0.0, 0.0)


def test_a_field_declares_nothing_by_default():
    f = ScalarField3D(lambda x, y, z: z, "bare")
    assert f.z_support == (-inf, inf)
    assert ScalarField3D(lambda x, y, z: z, "ints", z_support=(1, 2)).z_support == (1.0, 2.0)


@pytest.mark.parametrize(
    "support",
    [(nan, 1.0), (0.0, nan), (nan, nan), (2.0, 1.0), (inf, -inf), (1.0,), (0.0, 1.0, 2.0), (), None, 0.5,
     "ab", ("0", "1"), (None, 1.0), {0.0, 1.0}],
    ids=lambda s: repr(s),
)
def test_a_malformed_z_support_is_refused_by_name(support):
    with pytest.raises(ValueError, match="z_support"):
        ScalarField3D(lambda x, y, z: z, "bad", z_support=support)


def test_the_declaration_survives_a_replaced_evaluate():
    # a traced or wrapped field (dataclasses.replace) keeps what it declares
    f = make_phantom("bump")
    g = dataclasses.replace(f, evaluate=lambda x, y, z: f.evaluate(x, y, z))
    assert g.z_support == f.z_support


# ----- z_parity -----

PARITY = {"rsqz3": -1, "z": -1, "zsq": 1, "const": 1, "zero": 1, "gauss": 1, "bump": 0}


def test_every_catalog_phantom_declares_its_parity():
    assert sorted(PARITY) == sorted(PHANTOM_NAMES)
    assert {name: make_phantom(name).z_parity for name in PHANTOM_NAMES} == PARITY


def _mirrored(f, x, y, z):
    """f at (x, y, -z), and what the declared parity says it is, as bytes."""
    got = np.asarray(f.evaluate(x, y, -np.asarray(z)), dtype=float)
    v = np.asarray(f.evaluate(x, y, z), dtype=float)
    want = v if f.z_parity == 1 else np.subtract(0.0, v)
    return got.tobytes(), want.tobytes()


@pytest.mark.parametrize("name", [n for n in sorted(PARITY) if PARITY[n]])
def test_a_declared_parity_holds_bit_for_bit_on_a_lattice(name):
    f = make_phantom(name)
    # z = 0.0 reads as -0.0 once negated, and rsqz3 is 0.0 on the z axis:
    # an odd field's zeros stay +0.0, which -f would not give
    zs = np.append(np.linspace(-4.0, 4.0, 81), 0.0)
    X, Y, Z = np.meshgrid(np.linspace(-3.0, 3.0, 25), np.linspace(-3.0, 3.0, 25), zs, indexing="ij")
    got, want = _mirrored(f, X, Y, Z)
    assert got == want


@pytest.mark.parametrize("name", [n for n in sorted(PARITY) if PARITY[n]])
@settings(max_examples=200, deadline=None)
@given(x=_coords, y=_coords, z=st.floats(-50.0, 50.0, allow_nan=False) | st.sampled_from([0.0, 5e-324, 1e-120]))
def test_a_declared_parity_holds_bit_for_bit(name, x, y, z):
    f = make_phantom(name)
    got, want = _mirrored(f, np.array([x]), np.array([y]), np.array([z]))
    assert got == want
    got, want = _mirrored(f, x, y, z)
    assert got == want


def test_the_bump_is_neither_even_nor_odd():
    f = make_phantom("bump")
    assert f.evaluate(0.0, 0.0, 1.5) > 0.0
    assert f.evaluate(0.0, 0.0, -1.5) == 0.0


_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 5))
_coefficients = st.fractions(-9, 9, max_denominator=7).filter(bool)


@st.composite
def _polynomials(draw, z_powers):
    """A nonzero polynomial whose z-exponents have the parities `z_powers`
    (all of them present)."""
    keys = draw(st.lists(_monomials, min_size=len(z_powers), max_size=6, unique=True))
    keys = [(i, j, 2 * (k // 2) + z_powers[n % len(z_powers)]) for n, (i, j, k) in enumerate(keys)]
    return {key: draw(_coefficients) for key in keys}


@pytest.mark.parametrize("z_powers, parity", [((0,), 1), ((1,), -1), ((0, 1), 0)], ids=["even", "odd", "mixed"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), x=_coords, y=_coords, z=st.floats(-5.0, 5.0, allow_nan=False))
def test_a_polynomial_derives_its_parity_from_its_z_exponents(z_powers, parity, data, x, y, z):
    poly = data.draw(_polynomials(z_powers))
    f = polynomial_field(poly)
    assert f.z_parity == parity
    if parity:
        got, want = _mirrored(f, np.array([x, 0.0]), np.array([y, 0.0]), np.array([z, 0.0]))
        assert got == want


def test_the_zero_polynomial_is_even():
    assert polynomial_field({}).z_parity == polynomial_field({(0, 0, 1): Fraction(0)}).z_parity == 1
    # a zero coefficient does not make a polynomial mixed
    assert polynomial_field({(0, 0, 1): Fraction(1), (0, 0, 2): Fraction(0)}).z_parity == -1


def test_a_field_declares_no_parity_by_default():
    assert ScalarField3D(lambda x, y, z: z, "bare").z_parity == 0
    for parity in (1, -1, 0, np.int64(-1)):
        f = ScalarField3D(lambda x, y, z: z, "declared", z_parity=parity)
        assert f.z_parity == parity and type(f.z_parity) is int


@pytest.mark.parametrize("parity", [2, 0.5, True, "odd", None, -2, 1.0, nan], ids=lambda p: repr(p))
def test_a_malformed_z_parity_is_refused_by_name(parity):
    with pytest.raises(ValueError, match="z_parity"):
        ScalarField3D(lambda x, y, z: z, "bad", z_parity=parity)


@pytest.mark.parametrize("name", ["rsqz3", "gauss", "bump"])
def test_the_parity_survives_a_replaced_evaluate(name):
    f = make_phantom(name)
    g = dataclasses.replace(f, evaluate=lambda x, y, z: f.evaluate(x, y, z))
    assert g.z_parity == f.z_parity
    assert dataclasses.replace(f, z_parity=0).z_parity == 0
