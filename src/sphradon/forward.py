"""Forward operators: spherical means, cosine coefficients, the two-data
transform, and general harmonic projections of sphere restrictions.

All operators act on spheres centered at (p, q, 0) with radius t > 0 and
discretize the surface integral with a product quadrature rule (exact for
the polynomial restrictions dominating the tests).  The harmonic projections
follow the normalization

    a_{0n} = (2n+1)/(4 pi) * Int f P_n(cos theta) dw
    a_{mn} = (2n+1)/(2 pi) * (n-m)!/(n+m)! * Int f P_{n,m}(cos theta) cos(m phi) dw
    b_{mn} =                     likewise with sin(m phi)

with P_{n,m} in the positive convention of the quadrature module, so that
a_{00} is the spherical mean Mf and a_{01} is the first cosine coefficient.
The two-data transform packs them as Mf + i * a01 / 3; under the same rule
its real and imaginary parts equal `spherical_mean` and
`first_cosine_coefficient / 3` bit for bit, since every a_{0n} is scaled by
the one helper `_zonal_coefficient`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, inf, isfinite, pi

import numpy as np

from .quadrature import SphereRule, assoc_legendre, build_rule, legendre_all

__all__ = [
    "SphereCenter",
    "spherical_mean",
    "first_cosine_coefficient",
    "two_data_transform",
    "harmonic_coefficient",
    "off_plane_mean",
]

@dataclass(frozen=True)
class SphereCenter:
    """Sphere of radius t centered at (p, q, 0)."""

    p: float
    q: float
    t: float

    def __post_init__(self):
        if not (isfinite(self.p) and isfinite(self.q)):
            raise ValueError(f"sphere centre must be finite, got (p, q) = ({self.p}, {self.q})")
        if not 0 < self.t < inf:
            raise ValueError(f"sphere radius must be positive and finite, got t={self.t}")


def _sphere_points(c: SphereCenter, rule: SphereRule, z_shift: float = 0.0):
    """(X, Y, Z) of the rule's nodes on the sphere c, lifted by z_shift."""
    X = c.p + c.t * rule.sin_t * rule.cos_p
    Y = c.q + c.t * rule.sin_t * rule.sin_p
    Z = z_shift + c.t * rule.cos_t
    return X, Y, Z


def _evaluate_on_sphere(f, c: SphereCenter, rule: SphereRule, z_shift: float = 0.0):
    ev = f.evaluate if hasattr(f, "evaluate") else f
    return np.asarray(ev(*_sphere_points(c, rule, z_shift)), dtype=float)


def _zonal_coefficient(vals, rule: SphereRule, n: int = 0, pn=None) -> float:
    """a_{0n} of sphere values already evaluated on `rule`.

    `pn` holds P_n(cos theta) on the rule's nodes (None for n = 0).  Every
    a_{0n} in this module is scaled here, so operators that project the same
    values agree bit for bit; 4.0 * pi is exact, leaving one rounding after
    the (2n+1) factor.
    """
    s = float(np.dot(vals if pn is None else vals * pn, rule.w))
    return (2 * n + 1) * s / (4.0 * pi)


def spherical_mean(f, c: SphereCenter, rule: SphereRule | None = None) -> float:
    """Mf(p,q,t): the average of f over the sphere."""
    rule = rule or build_rule()
    return _zonal_coefficient(_evaluate_on_sphere(f, c, rule), rule)


def first_cosine_coefficient(f, c: SphereCenter, rule: SphereRule | None = None) -> float:
    """a_{01}(p,q,t), the coefficient of cos(theta) in the restriction."""
    rule = rule or build_rule()
    return _zonal_coefficient(_evaluate_on_sphere(f, c, rule), rule, 1, rule.cos_t)


def _sphere_moments(f, c: SphereCenter, rule: SphereRule | None = None) -> tuple[float, float]:
    """(Mf, a01) from one sphere pass.

    Equal bit for bit to `spherical_mean(f, c, rule)` and
    `first_cosine_coefficient(f, c, rule)`, which evaluate f once each.
    """
    rule = rule or build_rule()
    vals = _evaluate_on_sphere(f, c, rule)
    return _zonal_coefficient(vals, rule), _zonal_coefficient(vals, rule, 1, rule.cos_t)


def two_data_transform(f, c: SphereCenter, rule: SphereRule | None = None) -> complex:
    """The complex two-data value Mf + i a01/3 in one sphere pass.

    The real part equals `spherical_mean(f, c, rule)` and the imaginary part
    `first_cosine_coefficient(f, c, rule) / 3.0`, bit for bit.
    """
    mf, a01 = _sphere_moments(f, c, rule)
    return complex(mf, a01 / 3.0)


def harmonic_coefficient(
    f,
    c: SphereCenter,
    n: int,
    m: int = 0,
    kind: str = "a",
    rule: SphereRule | None = None,
) -> float:
    """General projection a_{mn} (kind "a") or b_{mn} (kind "b")."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if kind not in ("a", "b"):
        raise ValueError("kind must be 'a' or 'b'")
    if kind == "b" and m == 0:
        raise ValueError("b coefficients need m >= 1")
    rule = rule or build_rule()
    vals = _evaluate_on_sphere(f, c, rule)
    if m == 0:
        return _zonal_coefficient(vals, rule, n, legendre_all(n, rule.cos_t)[n])
    pnm = assoc_legendre(n, m, rule.cos_t)
    phi = np.arctan2(rule.sin_p, rule.cos_p)
    trig = np.cos(m * phi) if kind == "a" else np.sin(m * phi)
    norm = (2 * n + 1) * factorial(n - m) / factorial(n + m) / (2.0 * pi)
    return norm * float(np.dot(vals * pnm * trig, rule.w))


def off_plane_mean(f, p: float, q: float, z0: float, t: float, rule: SphereRule | None = None) -> float:
    """Mean of f over the sphere centered at (p, q, z0), radius t.

    Plumbing for the normal-derivative check: the detector model only knows
    plane-centered spheres, but the Dirichlet-Neumann identity differentiates
    the mean as the center moves off the plane.
    """
    if not isfinite(z0):
        raise ValueError(f"centre height z0 must be finite, got {z0}")
    rule = rule or build_rule()
    return _zonal_coefficient(_evaluate_on_sphere(f, SphereCenter(p, q, t), rule, z_shift=z0), rule)
