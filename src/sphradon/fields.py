"""Scalar fields and the phantom catalog.

A ScalarField3D bundles pointwise evaluation with an optional analytic
moment ladder.  "Analytic" here means: no finite differencing anywhere - the
two-dimensional Laplacians are applied in closed form to the field itself
(they commute with the spherical mean), and any remaining integral over the
sphere is done by a dedicated high-order quadrature whose error is far below
every test tolerance.  That quadrature is forward's one sphere pass under the
phantom's own rule, so power 0 of the ladder equals `spherical_mean` and
`first_cosine_coefficient` under that rule bit for bit.  For polynomial
phantoms the moments are exact rationals evaluated in floating point.

`ScalarField3D.laplacian_block` is the one entry point to the moment data:
it answers every power 0..n at a whole array of radii with one call to the
field's `analytic_ladder`, for both moment functions, or with odd=False
for the mean Mf alone (no a01 is formed; even-mirror mode asks that way).
The reconstructor, the residual checks and analytic `sample_moments` all
ask the field through it.  It checks each request once, vectorised, before
any ladder runs, as `MomentGrid.laplacian_block` does: a finite centre, a
1-D array of positive, finite radii and a non-negative integer power.  The
reconstructor asks one block per slice column (x, y), on the sorted union
of its points' radial nodes and radii t, and reads each point's nodes and
its datum at t from it; the checks ask one block on a point's radial nodes
followed by t, whose last column is the datum at t.  Every catalog phantom
has a ladder; a field without one carries no moment data (quadrature
sampling is `forward`'s sphere pass).  A polynomial
field's ladder is one broadcast `eval_pqt` per (power, moment function).

gauss and bump share a transverse Gaussian G, and the center-Laplacians hit
only G, so Lap^i f = f * Lap^i G / G.  Their ladders evaluate f once per
radius on the phantom's own rule, project it as power 0, and project each
higher power as soon as it is formed.  Each pass is one item of
`forward._ladder_passes`, formed from the rule's rings alone, with the
nodes, window and fold of every pass of the field on that rule, read on
the (theta ring, phi) grid with z one value per ring, so a factor of z
alone (the bump's mollifier) is formed once per ring; each power is one
`forward._ring_project` per datum.  Lap^i G / G is free of z, so every
power keeps the field's declared parity, and the ladders fold as every
on-plane pass does (`forward`).  The anisotropic gauss forms the
Laplacians in Hermite form,

    Lap^i G / G = sum_j C(i, j) He_2j(dx/sx)/sx^2j He_2(i-j)(dy/sy)/sy^2(i-j),

from the even-degree probabilists' Hermite rows of each axis, stepped by
their own three-term recurrence in dx^2 (He_2j is a Laguerre polynomial
in (dx/sx)^2, DLMF 18.7.19), and multiplies each power by f; an isotropic
G (sx == sy, so the bump) by one Laguerre recurrence in r^2 = dx^2 + dy^2,

    Lap^i G / G = (-2/s^2)^i i! L_i(r^2/(2 s^2)),

which is linear, so seeded with f it yields f * Lap^i G / G itself.
Power 0 of either is exactly 1.0 and is never formed: power 0 of the
ladder is f itself.  gauss is evaluated as a function of (dx, dy, z) and
the bump of (r^2, z), so neither forms an offset twice.

Against 50-digit arithmetic at 200 points of [-2.5, 2.5]^2
(tests/test_ladder.py) the error relative to max(|exact|, s^-2i) is at most
2.3e-13 in either form at powers 2 to 16: Hermite for gauss's widths at
powers 2, 4 and 8 3.7e-15, 1.5e-13 and 1.6e-13, and at s = 0.45 at powers
4, 8 and 16 7.4e-14, 1.4e-13 and 2.2e-13; Laguerre at s = 0.45 5.1e-14,
1.4e-13 and 2.1e-13.  The expanded monomial form (a sum of c dx^a dy^b)
measured 2.9e-12, 3.3e-11 and 2.8e-8 at powers 4, 8 and 16.

The rules fit the integrands' supports and are module constants.  gauss
uses the 64 x 48 product rule (`_GAUSS_RULE`).  The bump declares the
z_support zc - rz < z < zc + rz, which a sphere of radius u centred on the
plane meets in the band (zc - rz)/u < cos(theta) < (zc + rz)/u; since area
is uniform in cos(theta), its rule is Gauss-Legendre on that band crossed
with a phi ring (`_BAND_SIZES`, `quadrature.band_rule`), read per radius
as its rings alone and never built, and a sphere below the slab gets
literal zeros.

Each field also declares its parity in z, `z_parity` (`ScalarField3D`):
`polynomial_field` derives it from its z-exponents (all even +1, all odd
-1, mixed 0), gauss declares +1 and the bump 0.

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
so its first-cosine data are +0.0, by the parity fold of every on-plane
pass.  The bump is the standard half-space phantom for the even-mirror
reconstruction mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from inspect import signature
from math import comb, inf, isfinite
from numbers import Integral, Real
from typing import Callable, Mapping

import numpy as np

from . import polynomials
from .forward import _ladder_passes, _ring_project

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
    analytic_ladder: (x, y, us, n, odd) -> (Mf, a01) arrays of shape
        (n + 1, len(us)) whose row i, column j is (Lap^i Mf, Lap^i a01),
        the two-dimensional center-Laplacians of the moment functions, at
        radius us[j]; (Mf,) alone when odd is False, with no a01 formed.
        Column j depends on us[j] alone.
    z_support: (lo, hi), the open interval in z outside which f is
        exactly 0.0, (-inf, inf) by default; lo == hi declares f == 0.  A
        sphere pass evaluates only the theta rings inside it (`forward`),
        and even-mirror mode doubles the mean data of a field with lo >= 0
        (`reconstruct`).
    z_parity: +1 declares f(x, y, -z) == f(x, y, z) bit for bit, -1
        f(x, y, -z) == 0.0 - f(x, y, z) bit for bit, 0 (the default)
        neither.  A sphere pass on the plane then evaluates one hemisphere
        and folds its projections by the parity (`forward`).

    Callers read the data through `laplacian_block` only; one block on
    the radial nodes followed by t holds the datum at t in its last column.
    """

    evaluate: Callable
    descriptor: str
    analytic_ladder: Callable | None = None
    z_support: tuple[float, float] = (-inf, inf)
    z_parity: int = 0

    def __post_init__(self):
        support = tuple(self.z_support) if isinstance(self.z_support, (tuple, list)) else ()
        if not (len(support) == 2 and all(isinstance(v, Real) for v in support) and support[0] <= support[1]):
            raise ValueError(f"z_support must be two numbers lo <= hi, neither NaN, got {self.z_support!r}")
        object.__setattr__(self, "z_support", tuple(map(float, support)))  # frozen: set once, here
        parity = self.z_parity
        if isinstance(parity, bool) or not (isinstance(parity, Integral) and parity in (-1, 0, 1)):
            raise ValueError(f"z_parity must be the integer 1, -1 or 0, got {parity!r}")
        object.__setattr__(self, "z_parity", int(parity))

    def laplacian_block(self, x: float, y: float, us, n: int, odd: bool = True):
        """(Mf, a01) arrays of shape (n + 1, len(us)): row i, column j is
        (Lap^i Mf, Lap^i a01) at center (x, y), radius us[j].  With odd
        False the block is (Mf,) alone: the mean data is all that
        even-mirror mode reads, and no a01 is formed.

        One `analytic_ladder` call answers every power and radius; a field
        without a ladder carries no moment data and is refused, and so is a
        request `_checked_block_request` refuses.
        """
        us, n = _checked_block_request(x, y, us, n)
        if self.analytic_ladder is None:
            raise ValueError(
                f"phantom {self.descriptor!r} has no Laplacian capability (power {n} requested)"
            )
        return self.analytic_ladder(x, y, us, n, odd)

    def analytic_laplacians(self, x: float, y: float, u: float, i: int):
        """(Lap^i Mf, Lap^i a01) at center (x, y), radius u: one radius of
        `laplacian_block`."""
        mf, a01 = self.laplacian_block(x, y, [u], i)
        return float(mf[i, 0]), float(a01[i, 0])

    def analytic_moments(self, x: float, y: float, u: float):
        """(Mf, a01) at center (x, y), radius u: power 0 of `analytic_laplacians`."""
        return self.analytic_laplacians(x, y, u, 0)


def _checked_block_request(x: float, y: float, us, n) -> tuple[Array, int]:
    """The radii of a `laplacian_block` request as a 1-D float array, and
    its power as an int, after one vectorised check of the whole request:
    the centre (x, y) finite, us 1-D with every radius positive and finite
    (in `SphereCenter`'s words), and n a non-negative integer, not a bool."""
    if isinstance(n, bool) or not (isinstance(n, Integral) and n >= 0):
        raise ValueError(f"Laplacian power n must be a non-negative integer, got {n!r}")
    if not (isfinite(x) and isfinite(y)):
        raise ValueError(f"sphere centre must be finite, got (p, q) = ({x}, {y})")
    us = np.asarray(us, dtype=float)
    if us.ndim != 1:
        raise ValueError(f"radii us must be a 1-D array, got shape {us.shape}")
    bad = ~((us > 0.0) & (us < inf))
    if bad.any():
        raise ValueError(f"sphere radius must be positive and finite, got t={float(us[bad][0])}")
    return us, int(n)


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
    for key in poly:
        triple = isinstance(key, tuple) and len(key) == 3
        if not (triple and all(isinstance(e, Integral) and e >= 0 for e in key)):
            raise ValueError(f"polynomial {name!r} exponent key {key!r} must be three non-negative integers")
    poly = {k: Fraction(v) for k, v in poly.items() if v}
    mcache: dict[int, tuple[dict, dict]] = {}

    def momdata(i: int) -> tuple[dict, dict]:
        if i not in mcache:
            g = dict(poly)
            for _ in range(i):
                g = polynomials.lap_xy(g)
            mcache[i] = (polynomials.a0n_poly(g, 0), polynomials.a0n_poly(g, 1))
        return mcache[i]

    def ladder(x, y, us, n, odd):
        return tuple(
            np.array([polynomials.eval_pqt(momdata(i)[f], x, y, us) for i in range(n + 1)])
            for f in range(2 if odd else 1)
        )

    # an odd power of -z is the power of z negated, and eval_pqt's sums from
    # +0.0 negate exactly, bar a zero sum, which stays +0.0
    z_powers = {k % 2 for _, _, k in poly}
    return ScalarField3D(
        evaluate=lambda x, y, z: polynomials.eval_pqt(poly, x, y, z),
        descriptor=name,
        analytic_ladder=ladder,
        z_support=(-inf, inf) if poly else (0.0, 0.0),  # a nonzero one vanishes on no open set
        z_parity=0 if len(z_powers) > 1 else -1 if z_powers == {1} else 1,
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


def _even_hermite_rows(d: Array, s: float, n: int) -> list:
    """Rows R_j = He_2j(d/s) / s^2j, j = 0..n, by the recurrence in d^2.

    He_2j is a Laguerre polynomial in xi^2, He_2j(xi) = (-2)^j j! L_j^(-1/2)(xi^2/2)
    (DLMF 18.7.19), so its three-term recurrence (DLMF 18.9.13) steps the
    even rows alone: with q = d^2/s^4,

        R_0 = 1,  R_1 = q - 1/s^2,
        R_{j+1} = (q - (4j+1)/s^2) R_j - (2j(2j-1)/s^4) R_{j-1},

    n array steps where the recurrence of He_k in xi takes 2n.  Row 0 is
    the scalar 1.0, which R_2 takes as a scalar.
    """
    s2 = s * s
    s4 = s2 * s2
    q = d * d / s4
    rows = [1.0, q - 1.0 / s2][: n + 1]
    for j in range(1, n):
        nxt = q - (4 * j + 1) / s2
        nxt *= rows[j]
        nxt -= (2 * j * (2 * j - 1) / s4) * rows[j - 1]
        rows.append(nxt)
    return rows


def _hermite_laplacians(dx: Array, dy: Array, sx: float, sy: float, n: int):
    """Yield Lap^i G / G for i = 1..n, G = exp(-dx^2/(2 sx^2) - dy^2/(2 sy^2)).

    d^2j/dx^2j exp(-xi^2/2) = He_2j(xi) exp(-xi^2/2) with xi = dx/sx, so

        Lap^i G / G = sum_j C(i, j) He_2j(dx/sx)/sx^2j He_2(i-j)(dy/sy)/sy^2(i-j).

    The even Hermite rows are built once.  Row 0 of each is exactly 1.0 and
    C(i, 0) = C(i, i) = 1, so the terms j = 0 and j = i are the rows
    hy[i] and hx[i] as they are, and power i costs i - 1 products.  Power
    0, exactly 1.0, is not formed.
    """
    hx = _even_hermite_rows(dx, sx, n)
    hy = _even_hermite_rows(dy, sy, n)
    term = np.empty_like(dx)
    for i in range(1, n + 1):
        acc = hy[i].copy()
        for j in range(1, i):
            np.multiply(hx[j], comb(i, j), out=term)
            term *= hy[i - j]
            acc += term
        acc += hx[i]
        yield acc


def _laguerre_laplacians(r2: Array, s: float, n: int, seed: Array):
    """Yield seed * Lap^i G / G for i = 1..n, G = exp(-r2/(2 s^2)) isotropic.

    Lap^i G / G = R_i = (-2/s^2)^i i! L_i(r2/(2 s^2)), and the Laguerre
    recurrence (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1} scales to

        R_{k+1} = (r2/s^4 - 2(2k+1)/s^2) R_k - (4 k^2/s^4) R_{k-1}.

    It is linear, so started from R_0 = seed it steps seed * R_k: seeded
    with the field's node values, it yields the ladder's powers themselves,
    with no product by the field.  Power 0, the seed, is not yielded.
    Yielded rows are never written again.
    """
    s2 = s * s
    s4 = s2 * s2
    q = r2 / s4
    prev, cur = None, seed
    for k in range(n):
        nxt = q - 2 * (2 * k + 1) / s2
        nxt *= cur
        if k:
            nxt -= (4 * k * k / s4) * prev
        prev, cur = cur, nxt
        yield nxt


def _gaussian_field(
    evaluate, descriptor: str, x0: float, y0: float, sx: float, sy: float, sizes: tuple,
    z_support: tuple, z_parity: int = 0, planar: Callable | None = None, radial: Callable | None = None,
) -> ScalarField3D:
    """A field that is G(x - x0, y - y0) times a factor free of (x, y) and
    vanishes outside z_support, with its ladder on the `sizes` rule of
    `forward._ladder_passes` at each radius.

    The ladder evaluates the field once per radius on the pass's (theta
    ring, phi) grid, with z one value per ring, projects it as power 0, and
    projects each higher power f * Lap^i G / G as soon as it is formed;
    power 0 alone builds no Laplacian rows.  Each pass forms the offsets
    dx = x - x0, dy = y - y0 once, for the field and its Laplacian rows.
    An anisotropic G takes the Hermite form, each power one product of its
    row with f = planar(dx, dy, z); an isotropic G the Laguerre form in
    r2 = dx^2 + dy^2, seeded with f so that its rows are the powers, and f
    is radial(r2, z) where given (the bump), else planar(dx, dy, z).  Both
    are the field that `evaluate` is built on.
    """
    def powers(dx, dy, Z, n):
        """f on the nodes, then f * Lap^i G / G for i = 1..n, formed lazily."""
        if sx != sy:
            base = np.asarray(planar(dx, dy, Z), dtype=float)
            yield base
            for lap in _hermite_laplacians(dx, dy, sx, sy, n):
                yield lap * base
        else:
            r2 = dx * dx + dy * dy
            base = np.asarray(planar(dx, dy, Z) if radial is None else radial(r2, Z), dtype=float)
            yield base
            yield from _laguerre_laplacians(r2, sx, n, base)

    def ladder(x, y, us, n, odd):
        data = np.zeros((2 if odd else 1, n + 1, len(us)))
        for j, dX, dY, Z, w, factors in _ladder_passes(f, us.tolist(), sizes, odd):
            # moved to the centre in place, as `forward._evaluate_on_sphere`
            # moves a pass, then offset from G's centre: (x + dX) - x0
            dX += x
            dY += y
            dX -= x0
            dY -= y0
            shape = (Z.size, sizes[1])
            for i, vals in zip(range(n + 1), powers(dX.reshape(shape), dY.reshape(shape), Z[:, None], n)):
                vals = vals.reshape(-1)
                for k, cos_t in factors:
                    data[k, i, j] = _ring_project(vals, w, k, cos_t)
        return tuple(data)

    f = ScalarField3D(
        evaluate=evaluate, descriptor=descriptor, analytic_ladder=ladder, z_support=z_support, z_parity=z_parity
    )
    return f


# the smooth ladders' sphere rules: gauss's integrand is entire, so 64
# Gauss nodes in cos(theta) and 48 in phi resolve it off its own axis to
# ~1e-14 (64 x 160 did no better against a 96 x 400 reference); the bump's
# band rule needs 96 nodes in cos(theta) across its mollifier shell, whose
# derivatives grow huge just inside the support, and 64 in phi for centres
# 1.5 off its axis (48 left 4e-9 at power 8)
_GAUSS_RULE = (64, 48)
_BAND_SIZES = (96, 64)


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

    def planar(dx, dy, z):
        # f at dx = x - cx, dy = y - cy: the ladder forms dx, dy once for f
        # and its Laplacian rows
        return amp * np.exp(-dx * dx / (2 * sx2) - dy * dy / (2 * sy2) - z * z / (2 * sz2))

    def evaluate(x, y, z):
        dx, dy = np.asarray(x, dtype=float) - cx, np.asarray(y, dtype=float) - cy
        out = planar(dx, dy, np.asarray(z, dtype=float))
        return out if out.shape else float(out)

    return _gaussian_field(
        evaluate,
        f"gauss(amp={amp:g},cx={cx:g},cy={cy:g},sx={sx:g},sy={sy:g},sz={sz:g})",
        cx, cy, sx, sy, _GAUSS_RULE, (-inf, inf), z_parity=1, planar=planar,
    )


def _mollifier(s: Array) -> Array:
    """exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside; C-infinity, peak 1 at 0."""
    s = np.asarray(s, dtype=float)
    # one elementwise pass over every node (the bump's ladder evaluates its
    # window of band rings, all inside); a node outside may divide by zero,
    # overflow or be NaN, and reads 0 after the pass
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.exp(1.0 - 1.0 / (1.0 - s * s))
    if s.ndim == 0:
        return float(out) if abs(s) < 1.0 else 0.0
    out[~(np.abs(s) < 1.0)] = 0.0
    return out


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

    def radial(r2, z):
        # f at r2 = (x - x0)^2 + (y - y0)^2: the ladder forms r2 once for
        # f and its Laguerre rows
        return amp * np.exp(-r2 / (2 * s2)) * _mollifier((np.asarray(z, dtype=float) - zc) / rz)

    def evaluate(x, y, z):
        dx = np.asarray(x, dtype=float) - x0
        dy = np.asarray(y, dtype=float) - y0
        return radial(dx * dx + dy * dy, z)

    return _gaussian_field(
        evaluate,
        f"bump(amp={amp:g},x0={x0:g},y0={y0:g},sigma={sigma:g},zc={zc:g},rz={rz:g})",
        x0, y0, sigma, sigma, _BAND_SIZES, (zc - rz, zc + rz), radial=radial,
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


def _phantom_constructor(name: str) -> Callable[..., ScalarField3D]:
    try:
        return _CONSTRUCTORS[name]
    except KeyError:
        raise ValueError(f"unknown phantom {name!r}; available: {', '.join(PHANTOM_NAMES)}") from None


def make_phantom(name: str, **params) -> ScalarField3D:
    """Build a catalog phantom by name; keyword parameters where supported."""
    ctor = _phantom_constructor(name)
    accepted = tuple(signature(ctor).parameters)
    unknown = [key for key in params if key not in accepted]
    if unknown:
        raise ValueError(
            f"phantom {name!r} has no parameter {unknown[0]!r}; accepted: {', '.join(accepted) or 'none'}"
        )
    return ctor(**params)
