"""Sphere quadrature and Legendre evaluation.

The product rule is Gauss-Legendre in cos(theta) crossed with a uniform
periodic grid in phi.  It integrates every spherical polynomial of degree
<= min(2*n_theta - 1, n_phi - 1) exactly, which covers all polynomial
phantoms used in the tests; weights sum to the sphere area 4*pi.  Its
Gauss-Legendre factor, cached per size, also gives every radial rule on [0, t]
and every band rule (`band_rule`), which maps it onto a band of cos(theta).
Both kinds of product rule are their theta rings' cos(theta), sin(theta)
and weight (`_rings`) repeated along the phi ring; a band's rings
(`_band_rings`) are also read without a rule, by the smooth ladders
(`forward._ladder_passes`).

Legendre conventions: P_n is the standard Legendre polynomial; the associated
functions used in the harmonic projections follow the positive convention

    P_{n,m}(cos theta) = sin^m(theta) * d^m/dx^m P_n(x) |_{x=cos theta},

i.e. any Condon-Shortley (-1)^m is already divided out, so P_{1,1} = sin(theta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

__all__ = ["SphereRule", "build_rule", "band_rule", "assoc_legendre"]

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Flattened product quadrature over the unit sphere.

    Nodes are (theta_j, phi_j) with weights w_j such that
    sum_j w_j g(omega_j) approximates the surface integral of g.
    cos_t, sin_t, cos_p, sin_p, w are 1-D arrays of equal length, ring by
    ring: node k * n_phi + j lies on theta ring k at phi node j, so
    cos_t[::n_phi] holds the rings' cos(theta) and cos_p[:n_phi] the ring.
    `rows` holds the projection factor rows built on these nodes
    (`forward._factor_rows`), filled on first use and freed with the rule.
    """

    n_theta: int
    n_phi: int
    cos_t: Array
    sin_t: Array
    cos_p: Array
    sin_p: Array
    w: Array
    rows: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def symmetric(self) -> bool:
        """Whether the theta rings are exactly mirror images about the
        equator: ring k's cos(theta) is minus ring n_theta - 1 - k's."""
        ct = self.cos_t[:: self.n_phi]
        return bool(np.array_equal(ct[::-1], -ct))

    @cached_property
    def w_fold(self) -> Array:
        """The weights of the rings up to the equator, each ring before it
        doubled and an odd rule's equator ring kept once (read-only): a
        field of declared z-parity on a symmetric rule is summed over that
        hemisphere against them (`forward._project`)."""
        w = self.w[: (self.n_theta + 1) // 2 * self.n_phi].copy()
        w[: self.n_theta // 2 * self.n_phi] *= 2.0
        w.setflags(write=False)
        return w


@cache
def _gauss_legendre(n: int) -> tuple[Array, Array]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once, read-only.

    The nodes are exactly antisymmetric and the weights exactly symmetric,
    x[::-1] == -x and w[::-1] == w, on every numpy: they are re-symmetrised
    here (a no-op where leggauss already symmetrises), since on-plane
    sphere passes fold a field of declared z-parity onto one hemisphere of
    rings (`SphereRule.w_fold`).
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


def _gauss_legendre_on(t: float, n: int) -> tuple[Array, Array]:
    """`_gauss_legendre(n)` mapped onto [0, t]."""
    x, w = _gauss_legendre(n)
    return 0.5 * t * (x + 1.0), 0.5 * t * w


@cache
def _phi_ring(n_theta: int, n_phi: int) -> tuple[Array, Array]:
    """cos(phi) and sin(phi) of the uniform phi grid, tiled once per theta
    node: shared, read-only, by every rule of these sizes."""
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    ring = np.tile(np.cos(phi), n_theta), np.tile(np.sin(phi), n_theta)
    for a in ring:
        a.setflags(write=False)
    return ring


def _rings(x: Array, wx: Array, n_phi: int) -> tuple[Array, Array, Array]:
    """cos(theta), sin(theta) and weight of each theta ring: nodes x in
    cos(theta) with weights wx, crossed with the n_phi-node phi ring."""
    return x, np.sqrt(np.maximum(0.0, 1.0 - x * x)), wx * (2.0 * np.pi / n_phi)


def _product_rule(rings: tuple, n_phi: int) -> SphereRule:
    """The rule of `rings` (`_rings`): each ring's cos(theta), sin(theta)
    and weight repeated along the phi ring."""
    n_theta = rings[0].size
    ct, st, w = (np.repeat(a, n_phi) for a in rings)
    for a in (ct, st, w):
        a.setflags(write=False)
    return SphereRule(n_theta, n_phi, ct, st, *_phi_ring(n_theta, n_phi), w)


@cache
def build_rule(n_theta: int = 24, n_phi: int = 48) -> SphereRule:
    """The n_theta x n_phi product rule, built once per argument list.

    The default 24 x 48 rule is exact to restriction degree ~46.  Rules are
    frozen with read-only arrays, so every caller can share one instance.
    """
    if n_theta < 1 or n_phi < 1:
        raise ValueError("rule sizes must be positive")
    return _product_rule(_rings(*_gauss_legendre(n_theta), n_phi), n_phi)


def _band_rings(lo: float, hi: float, n_theta: int, n_phi: int) -> tuple[Array, Array, Array]:
    """cos(theta), sin(theta) and weight of each theta ring of the n_theta x
    n_phi product rule over the band lo <= cos(theta) <= hi (`band_rule`),
    for -1 <= lo < hi <= 1: `_gauss_legendre(n_theta)` mapped onto [lo, hi]."""
    x, wx = _gauss_legendre(n_theta)
    half = 0.5 * (hi - lo)
    return _rings(0.5 * (hi + lo) + half * x, half * wx, n_phi)


def band_rule(lo: float, hi: float, n_theta: int, n_phi: int) -> SphereRule:
    """The n_theta x n_phi product rule over the band lo <= cos(theta) <= hi,
    its rings `_band_rings` repeated along the phi ring.

    Area on the sphere is uniform in cos(theta) (Archimedes), so
    Gauss-Legendre mapped onto [lo, hi] integrates a g that vanishes off the
    band as well as the full rule integrates a smooth g over the sphere.
    Not cached: a band rule is transient, and its factor rows go with it.
    """
    if not -1.0 <= lo < hi <= 1.0:
        raise ValueError(f"need -1 <= lo < hi <= 1, got [{lo}, {hi}]")
    return _product_rule(_band_rings(lo, hi, n_theta, n_phi), n_phi)


def assoc_legendre(n: int, m: int, x: Array) -> Array:
    """P_{n,m}(x) in the positive convention (see module docstring).

    Upward recurrence in degree at fixed order m:
        P_{m,m}   = (2m-1)!! (1-x^2)^{m/2}
        P_{m+1,m} = (2m+1) x P_{m,m}
        (n-m) P_{n,m} = (2n-1) x P_{n-1,m} - (n+m-1) P_{n-2,m}

    which at m = 0 is Bonnet's recurrence for the Legendre polynomial P_n.
    """
    if m < 0 or n < m:
        raise ValueError("need 0 <= m <= n")
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    pmm = s**m * float(np.prod(np.arange(1, 2 * m, 2, dtype=float)))
    if n == m:
        return pmm
    pm1 = (2 * m + 1) * x * pmm
    if n == m + 1:
        return pm1
    for k in range(m + 2, n + 1):
        pmm, pm1 = pm1, ((2 * k - 1) * x * pm1 - (k + m - 1) * pmm) / (k - m)
    return pm1
