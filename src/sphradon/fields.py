"""Scalar fields and the phantom catalog.

A ScalarField3D bundles pointwise evaluation with an optional analytic
moment ladder.  "Analytic" here means: no finite differencing anywhere - the
two-dimensional Laplacians are applied in closed form to the field itself
(they commute with the spherical mean), and any remaining integral over the
sphere is done by a dedicated high-order quadrature whose error is far below
every test tolerance.  That quadrature is forward's one sphere pass under the
phantom's own rule, so power 0 of the ladder equals `spherical_mean` and
`first_cosine_coefficient` under that rule bit for bit (bar gauss's literal
first-cosine zeros, below).  For polynomial phantoms the moments are exact
rationals evaluated in floating point.

`ScalarField3D.laplacian_block` is the one entry point to the moment data:
it answers every power 0..n at a whole array of radii with one call to the
field's `analytic_ladder`, and the datum at radius t is its power-0 column
at [t].  The reconstructor, the residual checks and `sample_moments` all
ask the field through it.  Every catalog phantom has a ladder; a field
without one answers power 0 only, by sphere quadrature.  A polynomial
field's ladder is one broadcast `eval_pqt` per (power, moment function)
over the radii.

gauss and bump share a transverse Gaussian G, and the center-Laplacians hit
only G, so Lap^i f = f * Lap^i G / G.  Their ladders evaluate f once per
radius on the phantom's own rule, project it as power 0, and form every
higher power in Hermite form,

    Lap^i G / G = sum_j C(i, j) He_2j(dx/sx)/sx^2j He_2(i-j)(dy/sy)/sy^2(i-j),

from one table of even-degree probabilists' Hermite rows; each power is
projected as soon as it is formed.  Against 50-digit arithmetic at 200
points of [-2.5, 2.5]^2 (tests/test_ladder.py) its error relative to
max(|exact|, s^-2i) is at most 3e-13 at powers 4, 8 and 16; the expanded
monomial form (a sum of c dx^a dy^b) measured 2.9e-12, 3.3e-11 and 2.8e-8.

Catalog (built by `make_phantom`):

    rsqz3   (x^2 + y^2) z^3, the worked example with identically zero mean data
    z       the linear field z
    zsq     z^2
    const   a constant (value parameter)
    zero    the zero field
    gauss   anisotropic Gaussian centered on the plane {z=0} (even in z)
    bump    C-infinity compactly supported bump strictly inside {z > 0}:
            2-D Gaussian in (x,y) times a mollifier shell in z

The gauss phantom's plane symmetry makes its odd moment data vanish exactly,
so its first-cosine callbacks return literal zeros.  The bump is the standard
half-space phantom for the even-mirror reconstruction mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, isfinite
from typing import Callable, Mapping

import numpy as np

from . import polynomials
from .forward import SphereCenter, _sphere_moments, _sphere_points, _zonal_coefficient
from .quadrature import SphereRule, build_rule

__all__ = [
    "ScalarField3D",
    "make_phantom",
    "polynomial_field",
    "const_field",
    "zero_field",
    "z_field",
    "zsq_field",
    "rsqz3_field",
    "gauss_field",
    "bump_field",
    "PHANTOM_NAMES",
]

Array = np.ndarray

@dataclass(frozen=True)
class ScalarField3D:
    """A field f(x,y,z) with an optional analytic moment ladder.

    evaluate: vectorized (x, y, z) -> values.
    descriptor: human-readable name with parameters.
    analytic_ladder: (x, y, us, n) -> (Mf, a01) arrays of shape
        (n + 1, len(us)) whose row i, column j is (Lap^i Mf, Lap^i a01),
        the two-dimensional center-Laplacians of the moment functions, at
        radius us[j].  Column j depends on us[j] alone.

    Callers read the data through `laplacian_block` only; the datum at
    radius t is its power-0 column at [t].
    """

    evaluate: Callable
    descriptor: str
    analytic_ladder: Callable | None = None

    def laplacian_block(self, x: float, y: float, us, n: int, rule: SphereRule | None = None):
        """(Mf, a01) arrays of shape (n + 1, len(us)): row i, column j is
        (Lap^i Mf, Lap^i a01) at center (x, y), radius us[j].

        One `analytic_ladder` call answers every power and radius.  A field
        without a ladder answers n == 0 only, one sphere pass under `rule`
        (None: the default) per radius.
        """
        if self.analytic_ladder is not None:
            return self.analytic_ladder(x, y, np.asarray(us, dtype=float), n)
        if n > 0:
            raise ValueError(
                f"phantom {self.descriptor!r} has no Laplacian capability (power 1 requested)"
            )
        pairs = [_sphere_moments(self, SphereCenter(x, y, float(u)), rule) for u in us]
        mf, a01 = np.array(pairs, dtype=float).reshape(-1, 2).T
        return mf[None], a01[None]

    def analytic_laplacians(self, x: float, y: float, u: float, i: int):
        """(Lap^i Mf, Lap^i a01) at center (x, y), radius u: one radius of
        `laplacian_block`."""
        mf, a01 = self.laplacian_block(x, y, [u], i)
        return float(mf[i, 0]), float(a01[i, 0])

    def analytic_moments(self, x: float, y: float, u: float):
        """(Mf, a01) at center (x, y), radius u: power 0 of `analytic_laplacians`."""
        return self.analytic_laplacians(x, y, u, 0)


def _check_params(phantom: str, positive: tuple = (), **params) -> None:
    """Raise naming the first parameter that is not finite, or not positive
    and finite when it is listed in `positive`."""
    for name, value in params.items():
        if name in positive:
            if not 0 < value < inf:
                raise ValueError(f"{phantom} parameter {name} must be positive and finite, got {value}")
        elif not isfinite(value):
            raise ValueError(f"{phantom} parameter {name} must be finite, got {value}")


# ----- polynomial phantoms -----


def polynomial_field(poly: Mapping[tuple[int, int, int], Fraction], name: str = "poly") -> ScalarField3D:
    """Exact-moment field from a trivariate polynomial (see polynomials)."""
    poly = {k: Fraction(v) for k, v in poly.items() if v}
    mcache: dict[int, tuple[dict, dict]] = {}

    def momdata(i: int) -> tuple[dict, dict]:
        if i not in mcache:
            g = dict(poly)
            for _ in range(i):
                g = polynomials.lap_xy(g)
            mcache[i] = (polynomials.a0n_poly(g, 0), polynomials.a0n_poly(g, 1))
        return mcache[i]

    def ladder(x, y, us, n):
        rows = [[polynomials.eval_pqt(m, x, y, us) for m in momdata(i)] for i in range(n + 1)]
        return tuple(np.array([row[f] for row in rows]) for f in (0, 1))

    return ScalarField3D(
        evaluate=lambda x, y, z: polynomials.eval_pqt(poly, x, y, z),
        descriptor=name,
        analytic_ladder=ladder,
    )


def const_field(value: float = 1.0) -> ScalarField3D:
    _check_params("const", value=value)
    return polynomial_field({(0, 0, 0): Fraction(value)}, f"const({value:g})")


def zero_field() -> ScalarField3D:
    return polynomial_field({}, "zero")


def z_field() -> ScalarField3D:
    return polynomial_field({(0, 0, 1): Fraction(1)}, "z")


def zsq_field() -> ScalarField3D:
    return polynomial_field({(0, 0, 2): Fraction(1)}, "zsq")


def rsqz3_field() -> ScalarField3D:
    """(x^2+y^2) z^3: zero spherical mean, first-cosine data
    a01(x,y,u) = (3/5)(x^2+y^2)u^3 + (6/35)u^5."""
    poly = {(2, 0, 3): Fraction(1), (0, 2, 3): Fraction(1)}
    return polynomial_field(poly, "rsqz3")


# ----- Gaussian machinery shared by gauss and bump -----


def _even_hermite_rows(xi: Array, s: float, n: int) -> Array:
    """Rows He_2j(xi) / s^2j, j = 0..n, from He_{k+1} = xi He_k - k He_{k-1}.

    Sphere-sized work arrays are reused: a fresh array of that size per
    operation costs more than the arithmetic.
    """
    rows = np.empty((n + 1,) + xi.shape)
    rows[0] = 1.0
    prev, cur, nxt = np.ones_like(xi), xi.copy(), np.empty_like(xi)
    s2 = s * s
    for k in range(1, 2 * n):
        np.multiply(xi, cur, out=nxt)
        prev *= k
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        if k % 2:
            np.divide(cur, s2 ** ((k + 1) // 2), out=rows[(k + 1) // 2])
    return rows


def _hermite_laplacians(dx: Array, dy: Array, sx: float, sy: float, n: int):
    """Yield Lap^i G / G for i = 0..n, G = exp(-dx^2/(2 sx^2) - dy^2/(2 sy^2)).

    d^2j/dx^2j exp(-xi^2/2) = He_2j(xi) exp(-xi^2/2) with xi = dx/sx, so

        Lap^i G / G = sum_j C(i, j) He_2j(dx/sx)/sx^2j He_2(i-j)(dy/sy)/sy^2(i-j).

    The even Hermite rows are built once; each power then costs i + 1
    products.  Power 0 is exactly 1.0.
    """
    hx = _even_hermite_rows(dx / sx, sx, n)
    hy = _even_hermite_rows(dy / sy, sy, n)
    term = np.empty_like(hx[0])
    for i in range(n + 1):
        acc = hx[0] * hy[i]
        for j in range(1, i + 1):
            np.multiply(hx[j], comb(i, j), out=term)
            term *= hy[i - j]
            acc += term
        yield acc


def _gaussian_field(
    evaluate, descriptor: str, x0: float, y0: float, sx: float, sy: float, rule: SphereRule, odd: bool
) -> ScalarField3D:
    """A field that is G(x - x0, y - y0) times a factor free of (x, y), with
    its ladder on `rule`.

    The ladder evaluates the field once on `rule` per radius, projects it as
    power 0, and projects each higher power as soon as it is formed; power
    0 alone builds no Hermite table.  Without `odd` the a01 rows are the
    literal zeros of a field even in z.
    """

    def ladder(x, y, us, n):
        mf, a01 = np.zeros((n + 1, len(us))), np.zeros((n + 1, len(us)))
        for j, u in enumerate(us):
            X, Y, Z = _sphere_points(SphereCenter(x, y, float(u)), rule)
            base = np.asarray(evaluate(X, Y, Z), dtype=float)
            # Lap^i f on the sphere (Hermite power 0 is exactly 1.0)
            if n:
                laps = _hermite_laplacians(X - x0, Y - y0, sx, sy, n)
                powers = (np.multiply(lap, base, out=lap) for lap in laps)
            else:
                powers = [base]
            for i, vals in enumerate(powers):
                mf[i, j] = _zonal_coefficient(vals, rule)
                if odd:
                    a01[i, j] = _zonal_coefficient(vals, rule, 1, rule.cos_t)
        return mf, a01

    return ScalarField3D(evaluate=evaluate, descriptor=descriptor, analytic_ladder=ladder)


def gauss_field(
    amp: float = 1.0,
    cx: float = 0.0,
    cy: float = 0.0,
    sx: float = 0.55,
    sy: float = 0.65,
    sz: float = 0.6,
) -> ScalarField3D:
    """Anisotropic Gaussian centered on the plane, even in z: a01 == 0.

    The default widths keep the fourth transverse derivatives small enough
    that 5-point-stencil residual checks at step 1e-3 stay a factor of two
    under their 1e-5 budget; much narrower Gaussians breach it.
    """
    _check_params("gauss", ("sx", "sy", "sz"), amp=amp, cx=cx, cy=cy, sx=sx, sy=sy, sz=sz)
    sx2, sy2, sz2 = sx * sx, sy * sy, sz * sz

    def evaluate(x, y, z):
        x = np.asarray(x, dtype=float)
        dx, dy = x - cx, np.asarray(y, dtype=float) - cy
        z = np.asarray(z, dtype=float)
        out = amp * np.exp(-dx * dx / (2 * sx2) - dy * dy / (2 * sy2) - z * z / (2 * sz2))
        return out if out.shape else float(out)

    # 160 phi nodes because the Gaussian is evaluated at centers off its own
    # axis; 64 Gauss nodes in cos(theta) resolve entire integrands to ~1e-13
    return _gaussian_field(
        evaluate,
        f"gauss(amp={amp:g},cx={cx:g},cy={cy:g},sx={sx:g},sy={sy:g},sz={sz:g})",
        cx, cy, sx, sy, build_rule(64, 160), odd=False,
    )


def _mollifier(s: Array) -> Array:
    """exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside; C-infinity, peak 1 at 0."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s1 = np.atleast_1d(s)
    out = np.zeros_like(s1)
    inside = np.abs(s1) < 1.0
    w = s1[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - w * w))
    return float(out[0]) if scalar else out.reshape(s.shape)


def bump_field(
    amp: float = 1.0,
    x0: float = 0.0,
    y0: float = 0.0,
    sigma: float = 0.45,
    zc: float = 1.5,
    rz: float = 1.4,
) -> ScalarField3D:
    """Smooth bump supported in the open half space {z > 0}:

        f(x,y,z) = amp * exp(-((x-x0)^2+(y-y0)^2) / (2 sigma^2)) * psi((z-zc)/rz)

    with psi the standard mollifier.  Support in z is (zc-rz, zc+rz), which
    must stay strictly above 0.  The center-Laplacians hit only the Gaussian
    factor, so they are closed-form here too.

    The defaults are tuned so that the evenized field's Legendre spectrum at
    the center decays strictly through order 16: the transverse width must
    satisfy zc/sigma >~ 3 or the support's inner edge (visible from the
    origin at polar angle arccos((zc-rz)/zc)) leaves an oscillating tail in
    the harmonic coefficients and partial sums stop improving monotonically.
    """
    _check_params("bump", ("sigma",), amp=amp, x0=x0, y0=y0, sigma=sigma, zc=zc, rz=rz)
    if not 0 < rz < zc:
        raise ValueError("need 0 < rz < zc so the support stays in {z > 0}")
    s2 = sigma * sigma

    def evaluate(x, y, z):
        dx = np.asarray(x, dtype=float) - x0
        dy = np.asarray(y, dtype=float) - y0
        g = amp * np.exp(-(dx * dx + dy * dy) / (2 * s2))
        return g * _mollifier((np.asarray(z, dtype=float) - zc) / rz)

    # all derivatives of the mollifier shell vanish at the support boundary
    # but grow huge just inside it, so Gauss-Legendre needs ~256 nodes in
    # cos(theta) to reach ~1e-10 there (phi stays cheap: the transverse
    # factor is a Gaussian)
    return _gaussian_field(
        evaluate,
        f"bump(amp={amp:g},x0={x0:g},y0={y0:g},sigma={sigma:g},zc={zc:g},rz={rz:g})",
        x0, y0, sigma, sigma, build_rule(256, 64), odd=True,
    )


# ----- catalog -----

_CONSTRUCTORS: dict[str, Callable[..., ScalarField3D]] = {
    "rsqz3": rsqz3_field,
    "z": z_field,
    "zsq": zsq_field,
    "const": const_field,
    "zero": zero_field,
    "gauss": gauss_field,
    "bump": bump_field,
}

PHANTOM_NAMES = tuple(sorted(_CONSTRUCTORS))


def make_phantom(name: str, **params) -> ScalarField3D:
    """Build a catalog phantom by name; keyword parameters where supported."""
    try:
        ctor = _CONSTRUCTORS[name]
    except KeyError:
        raise ValueError(f"unknown phantom {name!r}; available: {', '.join(PHANTOM_NAMES)}") from None
    return ctor(**params)
