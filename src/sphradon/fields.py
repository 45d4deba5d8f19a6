"""Scalar fields and the phantom catalog.

A ScalarField3D bundles pointwise evaluation with optional analytic moment
callbacks.  "Analytic" here means: no finite differencing anywhere - the
two-dimensional Laplacians are applied in closed form to the field itself
(they commute with the spherical mean), and any remaining integral over the
sphere is done by a dedicated high-order quadrature whose error is far below
every test tolerance.  That quadrature is forward's one sphere pass under the
phantom's own rule, so the callbacks equal `spherical_mean` and
`first_cosine_coefficient` under that rule bit for bit (bar gauss's literal
first-cosine zeros, below).  For polynomial phantoms the moments are exact
rationals evaluated in floating point.

`ScalarField3D.moments` and `ScalarField3D.laplacians` are the one place that
picks between the callbacks and sphere quadrature; the reconstructor and the
residual checks both ask the field through them.

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
from typing import Callable, Mapping

import numpy as np

from . import polynomials
from .forward import SphereCenter, _sphere_moments
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

# Internal rule for non-polynomial moment callbacks.  160 phi nodes because
# the Gaussians are evaluated at centers off their own axis; 64 Gauss nodes
# in cos(theta) resolve entire integrands to ~1e-13.  The mollifier shell is
# the exception: all its derivatives vanish at the support boundary but grow
# huge just inside it, so Gauss-Legendre needs ~256 nodes in cos(theta) to
# reach ~1e-10 there (phi stays cheap, the transverse factor is a Gaussian).
_MOMENT_RULE: SphereRule | None = None
_SHELL_RULE: SphereRule | None = None


def _moment_rule() -> SphereRule:
    global _MOMENT_RULE
    if _MOMENT_RULE is None:
        _MOMENT_RULE = build_rule(64, 160)
    return _MOMENT_RULE


def _shell_rule() -> SphereRule:
    global _SHELL_RULE
    if _SHELL_RULE is None:
        _SHELL_RULE = build_rule(256, 64)
    return _SHELL_RULE


@dataclass(frozen=True)
class ScalarField3D:
    """A field f(x,y,z) with optional analytic moment data.

    evaluate: vectorized (x, y, z) -> values.
    analytic_moments: (x, y, u) -> (Mf, a01) at center (x,y), radius u.
    analytic_laplacians: (x, y, u, i) -> (Lap^i Mf, Lap^i a01), the
        two-dimensional center-Laplacians of the moment functions.
    descriptor: human-readable name with parameters.
    """

    evaluate: Callable
    descriptor: str
    analytic_moments: Callable | None = None
    analytic_laplacians: Callable | None = None

    def moments(self, x: float, y: float, u: float, rule: SphereRule | None = None):
        """(Mf, a01) at center (x, y), radius u: the analytic callback if
        there is one, else one sphere pass under `rule` (None: the default)."""
        if self.analytic_moments is not None:
            return self.analytic_moments(x, y, u)
        return _sphere_moments(self, SphereCenter(x, y, u), rule)

    def laplacians(self, x: float, y: float, u: float, i: int, rule: SphereRule | None = None):
        """(Lap^i Mf, Lap^i a01); power 0 is `moments`, higher powers need
        the analytic callback."""
        if i == 0:
            return self.moments(x, y, u, rule)
        if self.analytic_laplacians is None:
            raise ValueError(
                f"phantom {self.descriptor!r} has no Laplacian capability (power {i} requested)"
            )
        return self.analytic_laplacians(x, y, u, i)


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

    def moments(x, y, u):
        m0, m1 = momdata(0)
        return polynomials.eval_pqt(m0, x, y, u), polynomials.eval_pqt(m1, x, y, u)

    def laplacians(x, y, u, i):
        m0, m1 = momdata(i)
        return polynomials.eval_pqt(m0, x, y, u), polynomials.eval_pqt(m1, x, y, u)

    return ScalarField3D(
        evaluate=lambda x, y, z: polynomials.eval_pqt(poly, x, y, z),
        descriptor=name,
        analytic_moments=moments,
        analytic_laplacians=laplacians,
    )


def const_field(value: float = 1.0) -> ScalarField3D:
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


def _gauss_lap_terms(i: int, sx2: float, sy2: float) -> list[tuple[int, int, float]]:
    """(a, b, coef) terms of Lap_xy^i applied to exp(-dx^2/(2 sx2) - dy^2/(2 sy2)),
    as a polynomial in (dx, dy) times the Gaussian itself."""
    terms: dict[tuple[int, int], float] = {(0, 0): 1.0}
    for _ in range(i):
        nxt: dict[tuple[int, int], float] = {}

        def add(key, v):
            nxt[key] = nxt.get(key, 0.0) + v

        for (a, b), c in terms.items():
            # d2/dx2 of dx^a dy^b G
            if a >= 2:
                add((a - 2, b), c * a * (a - 1))
            add((a, b), -c * (2 * a + 1) / sx2)
            add((a + 2, b), c / (sx2 * sx2))
            # d2/dy2
            if b >= 2:
                add((a, b - 2), c * b * (b - 1))
            add((a, b), -c * (2 * b + 1) / sy2)
            add((a, b + 2), c / (sy2 * sy2))
        terms = nxt
    return [(a, b, c) for (a, b), c in terms.items() if c]


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
    if min(sx, sy, sz) <= 0:
        raise ValueError("Gaussian widths must be positive")
    sx2, sy2, sz2 = sx * sx, sy * sy, sz * sz

    def evaluate(x, y, z):
        x = np.asarray(x, dtype=float)
        dx, dy = x - cx, np.asarray(y, dtype=float) - cy
        z = np.asarray(z, dtype=float)
        out = amp * np.exp(-dx * dx / (2 * sx2) - dy * dy / (2 * sy2) - z * z / (2 * sz2))
        return out if out.shape else float(out)

    lap_cache: dict[int, list[tuple[int, int, float]]] = {}

    def lap_evaluate(i: int):
        if i not in lap_cache:
            lap_cache[i] = _gauss_lap_terms(i, sx2, sy2)
        terms = lap_cache[i]

        def ev(x, y, z):
            dx = np.asarray(x, dtype=float) - cx
            dy = np.asarray(y, dtype=float) - cy
            z = np.asarray(z, dtype=float)
            g = amp * np.exp(-dx * dx / (2 * sx2) - dy * dy / (2 * sy2) - z * z / (2 * sz2))
            acc = np.zeros(np.broadcast_shapes(dx.shape, dy.shape, z.shape))
            for a, b, c in terms:
                acc = acc + c * dx**a * dy**b
            return acc * g

        return ev

    def moments(x, y, u):
        mf, _ = _sphere_moments(evaluate, SphereCenter(x, y, u), _moment_rule())
        return mf, 0.0

    def laplacians(x, y, u, i):
        if i == 0:
            return moments(x, y, u)
        mf, _ = _sphere_moments(lap_evaluate(i), SphereCenter(x, y, u), _moment_rule())
        return mf, 0.0

    return ScalarField3D(
        evaluate=evaluate,
        descriptor=f"gauss(amp={amp:g},cx={cx:g},cy={cy:g},sx={sx:g},sy={sy:g},sz={sz:g})",
        analytic_moments=moments,
        analytic_laplacians=laplacians,
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
    if not 0 < rz < zc:
        raise ValueError("need 0 < rz < zc so the support stays in {z > 0}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    s2 = sigma * sigma

    def evaluate(x, y, z):
        dx = np.asarray(x, dtype=float) - x0
        dy = np.asarray(y, dtype=float) - y0
        g = amp * np.exp(-(dx * dx + dy * dy) / (2 * s2))
        return g * _mollifier((np.asarray(z, dtype=float) - zc) / rz)

    lap_cache: dict[int, list[tuple[int, int, float]]] = {}

    def lap_evaluate(i: int):
        if i not in lap_cache:
            lap_cache[i] = _gauss_lap_terms(i, s2, s2)
        terms = lap_cache[i]

        def ev(x, y, z):
            dx = np.asarray(x, dtype=float) - x0
            dy = np.asarray(y, dtype=float) - y0
            g = amp * np.exp(-(dx * dx + dy * dy) / (2 * s2))
            acc = np.zeros(np.broadcast_shapes(dx.shape, dy.shape))
            for a, b, c in terms:
                acc = acc + c * dx**a * dy**b
            return acc * g * _mollifier((np.asarray(z, dtype=float) - zc) / rz)

        return ev

    def moments(x, y, u):
        return _sphere_moments(evaluate, SphereCenter(x, y, u), _shell_rule())

    def laplacians(x, y, u, i):
        if i == 0:
            return moments(x, y, u)
        return _sphere_moments(lap_evaluate(i), SphereCenter(x, y, u), _shell_rule())

    return ScalarField3D(
        evaluate=evaluate,
        descriptor=f"bump(amp={amp:g},x0={x0:g},y0={y0:g},sigma={sigma:g},zc={zc:g},rz={rz:g})",
        analytic_moments=moments,
        analytic_laplacians=laplacians,
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
