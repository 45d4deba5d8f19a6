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
`first_cosine_coefficient / 3` bit for bit, since every coefficient is one
`_project` over read-only factor rows stored on the rule itself, built on
first use and freed with the rule: one Legendre row per (n, m) and one
trig row per (m, kind), which every degree n shares.  The rule's own cos_t
is the row of P_{1,0}, so a01 builds none.

A sphere's nodes are its centre plus the offsets of its radius;
`_sphere_offsets` forms them, and decides from the field, the rule, the
radius and the height which of them a pass evaluates: a window of theta
rings (`_Window`), which every pass evaluates and `_project` sums alone.
The generic passes (these operators, the checks' stencil, quadrature
sampling) give `evaluate` flat arrays of those nodes; the smooth ladders
of `fields` take the same nodes from `_ladder_passes` (below) and read
them by (theta ring, phi), so every pass forms each coordinate bit for
bit alike.  Every generic pass that forms the two data projects them by
`_two_data`, one `_project` each.  Sampling
builds the offsets once per grid and evaluates a centre's radii in blocks
of one window each; one `np.vecdot` sums a block, one BLAS dot per row as
`np.dot` sums one sphere, so the samples equal one sphere pass per radius
bit for bit.

The plane of centres is where every pass does half its work.  On a sphere
centred on it, under a rule whose theta rings mirror about the equator
(`SphereRule.symmetric`), node k of ring n_theta - 1 - j is node k of ring
j with z negated, and P_{n,m}(cos theta) has parity (-1)^(n-m).  So
`_sphere_offsets` gives a field that declares a `z_parity` s the rings up
to the equator alone, a flat prefix of the rule's nodes, in every pass,
and `_project` folds the projection by parity: a coefficient with
s * (-1)^(n-m) == -1 is exactly +0.0, which the reflection z -> -z makes
it, with no arithmetic, and any other is the hemisphere's sum against
`SphereRule.w_fold`, its rings before the equator weighted twice (the
factor 2 is exact) and an equator ring once.  An odd field's mean data
and an even field's first-cosine data are thus +0.0 by construction, and
the surviving sums differ from a sum over every node at rounding level.
Off-plane spheres, rules whose rings do not mirror and fields of parity 0
evaluate and sum every ring.

A field that declares a bounded `z_support` (lo, hi) is exactly 0.0 at
every node outside it, so a pass skips the rings that lie outside: the
window runs from the first to the last ring whose height z_shift +
t cos(theta) lies strictly inside (lo, hi), within the hemisphere when the
fold applies.  In any ring order that is a contiguous superset of the
nonzero rings, and on the rules of this package, whose rings ascend in
cos(theta), exactly those rings.  The sum over the window holds every
nonzero term of the sum over the whole sphere, added in another order, so
the two differ at rounding level; a sphere that misses the support has an
empty window, no `evaluate` call, and +0.0 for every coefficient.  An
unbounded support costs one tuple comparison, and the window is every
ring when the first and last rings lie inside, which two comparisons
decide; else a scan finds it (`_ring_window`).

The smooth ladders of `fields` take their passes from `_ladder_passes`,
formed from a rule's rings (a band's per radius, with no `SphereRule`
built) with the nodes, fold and window above, bit for bit: a band lies
inside the support, and is scanned only where rounding puts its first or
last ring on a bound.  `_ring_project` projects each power with
`_project`'s sum and scaling, without its per-call dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, inf, isfinite, pi
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .quadrature import SphereRule, _band_rings, _phi_ring, assoc_legendre, build_rule

__all__ = [
    "SphereCenter",
    "spherical_mean",
    "first_cosine_coefficient",
    "two_data_transform",
    "harmonic_coefficient",
    "off_plane_mean",
]

_UNBOUNDED = (-inf, inf)  # the z_support of a field that declares none


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


class _Window(NamedTuple):
    """The theta rings [lo, hi) of a rule that a sphere pass evaluates, and
    the z-parity that folds their projections: +1 or -1 for the rings up to
    the equator of an on-plane sphere, 0 where each node stands for itself
    (`_sphere_offsets`)."""

    lo: int
    hi: int
    parity: int = 0


def _sphere_offsets(t: float, rule: SphereRule, f=None, z_shift: float = 0.0):
    """(dX, dY, Z, window): the nodes a pass of f on `rule` evaluates, on
    the sphere of radius t about the origin lifted by z_shift, and their
    `_Window`.  The rings are those up to the equator when f declares a
    z-parity, the sphere is on the plane and the rule's rings mirror about
    the equator, so that every other node mirrors one of them (`_project`
    folds them), else every ring; of these, the first to the last whose
    height z_shift + t cos(theta) lies strictly inside f's declared
    z_support, none if no ring does.  dX and dY are flat in the rule's ring
    order, Z holds one value per ring (cos_t is constant along a ring, so
    `np.repeat` along phi gives the flat Z bit for bit)."""
    k = rule.n_phi
    parity = getattr(f, "z_parity", 0)
    parity = parity if parity and z_shift == 0.0 and rule.symmetric else 0  # `symmetric` last: costly on a fresh rule
    lo, hi = 0, (rule.n_theta + 1) // 2 if parity else rule.n_theta
    Z = z_shift + t * rule.cos_t[: hi * k : k]
    support = getattr(f, "z_support", _UNBOUNDED)
    if support != _UNBOUNDED:
        lo, hi = _ring_window(Z, support)
        Z = Z[lo:hi]
    nodes = slice(lo * k, hi * k)
    tst = t * rule.sin_t[nodes]  # flat: a (rings, 1) by (n_phi,) broadcast is slower
    return tst * rule.cos_p[nodes], tst * rule.sin_p[nodes], Z, _Window(lo, hi, parity)


def _ring_window(Z, support: tuple) -> tuple[int, int]:
    """[lo, hi): the first to the last ring whose height Z lies strictly
    inside the support, (0, 0) if none.  In any ring order that is a
    contiguous superset of the nonzero rings, since a field is exactly 0.0
    outside its declared support; it is every ring when the first and last
    rings lie inside, which two comparisons decide, else a scan finds it."""
    lo, hi = support
    if lo < Z[0] < hi and lo < Z[-1] < hi:
        return 0, Z.size
    inside = np.flatnonzero((lo < Z) & (Z < hi))
    return (int(inside[0]), int(inside[-1]) + 1) if inside.size else (0, 0)


def _node_values(f, X, Y, Z) -> np.ndarray:
    """f on the nodes (X, Y, Z) as floats, by `f.evaluate` for a field and
    by f itself for a plain function; refused by name unless it returns one
    value per node.  An empty window has no node, and f is not called."""
    if not Z.size:
        return np.zeros(Z.shape)
    vals = np.asarray((f.evaluate if hasattr(f, "evaluate") else f)(X, Y, Z), dtype=float)
    if vals.shape != Z.shape:
        name = (
            f"phantom '{f.descriptor}' evaluate"
            if hasattr(f, "descriptor")
            else f"evaluate {getattr(f, '__name__', type(f).__name__)!r}"
        )
        raise ValueError(
            f"{name} returned shape {vals.shape} "
            f"on sphere nodes of shape {Z.shape}; it must return one value per node"
        )
    return vals


def _evaluate_on_sphere(f, c: SphereCenter, rule: SphereRule, z_shift: float = 0.0):
    """(values, window): f on the sphere c lifted by z_shift, as a flat,
    contiguous array of the nodes `_sphere_offsets` forms, and the
    `_Window` that `_project` sums them by."""
    X, Y, Z, window = _sphere_offsets(c.t, rule, f, z_shift)
    X += c.p  # in place: the same sums as c.p + offsets, one array fewer live
    Y += c.q
    return _node_values(f, X, Y, np.repeat(Z, rule.n_phi)), window


def _ladder_passes(f, ts, sizes: tuple, odd: bool = True):
    """Yield (j, dX, dY, Z, w, factors) for each radius ts[j] whose sphere,
    centred on the plane, meets f's z_support: the smooth ladders' passes
    (`fields`), formed from the rings' data alone.

    The rule is the cached `sizes` product rule for an unbounded support,
    else the `sizes` band rule of the band the sphere shares with the
    support, read as its rings (`quadrature._band_rings`) and never built.
    Nodes, fold and window are `_sphere_offsets`'s on that rule, bit for
    bit, for the smooth phantoms (a band is never folded: the bump, the
    one bounded field with a ladder, declares parity 0): dX, dY flat, ring
    by ring, Z one height per ring.  w is the flat weight row (folded where
    the parity folds); `factors` holds (n, row)
    for each datum `_ring_project` forms: (0, None) for Mf, (1, flat
    cos(theta)) for a01 when odd, and none that the parity makes +0.0.
    """
    n_theta, k = sizes
    cos_p, sin_p = _phi_ring(n_theta, k)

    def factors(parity, cos_t):
        # the data the parity leaves, a01 only when odd; cos_t() forms its row
        return tuple((n, cos_t() if n else None) for n in range(2 if odd else 1) if parity in (0, (-1) ** n))

    if f.z_support == _UNBOUNDED:
        rule = build_rule(n_theta, k)
        parity = f.z_parity if f.z_parity and rule.symmetric else 0
        nodes = slice(0, ((n_theta + 1) // 2 if parity else n_theta) * k)
        ct, st, w = rule.cos_t[nodes], rule.sin_t[nodes], rule.w_fold if parity else rule.w
        rings, kept = ct[::k], factors(parity, lambda: ct)
        for j, t in enumerate(ts):
            tst = t * st
            yield j, tst * cos_p[nodes], tst * sin_p[nodes], t * rings, w, kept
        return
    for j, t in enumerate(ts):
        a, b = max(-1.0, f.z_support[0] / t), min(1.0, f.z_support[1] / t)  # the band a < cos(theta) < b
        if not a < b:
            continue
        ct, st, w = _band_rings(a, b, n_theta, k)
        Z = t * ct
        lo, hi = _ring_window(Z, f.z_support)
        if lo == hi:
            continue
        ct, st, w, Z = ct[lo:hi], st[lo:hi], w[lo:hi], Z[lo:hi]
        tst = np.repeat(t * st, k)
        nodes = slice(0, tst.size)
        yield j, tst * cos_p[nodes], tst * sin_p[nodes], Z, np.repeat(w, k), factors(0, lambda: np.repeat(ct, k))


def _ring_project(vals, w, n: int, cos_t=None) -> float:
    """a_{0n}, n = 0 or 1, of one `_ladder_passes` pass's flat values: the
    values, times the flat cos(theta) row for n = 1, summed against w by
    `_project`'s `np.vecdot` and scaled by `_project`'s formula."""
    return _scaled(float(np.vecdot(vals if cos_t is None else vals * cos_t, w)), n, 0)


def _coefficient(f, c: SphereCenter, rule, n: int, m: int = 0, kind: str = "a", z_shift: float = 0.0):
    """One coefficient of f on the sphere c lifted by z_shift: one pass,
    one `_project` over its window; the default rule for None."""
    rule = rule or build_rule()
    vals, window = _evaluate_on_sphere(f, c, rule, z_shift)
    return _project(vals, rule, n, m, kind, window)


def spherical_mean(f, c: SphereCenter, rule: SphereRule | None = None) -> float:
    """Mf(p,q,t): the average of f over the sphere."""
    return _coefficient(f, c, rule, 0)


def first_cosine_coefficient(f, c: SphereCenter, rule: SphereRule | None = None) -> float:
    """a_{01}(p,q,t), the coefficient of cos(theta) in the restriction."""
    return _coefficient(f, c, rule, 1)


def _two_data(vals, rule: SphereRule, window: _Window) -> tuple:
    """(Mf, a01) of the values a pass evaluated on `rule` over `window`,
    each one `_project`; floats for one sphere, arrays of R for an
    (R, nodes) block."""
    return _project(vals, rule, 0, window=window), _project(vals, rule, 1, window=window)


def _sphere_moments(f, c: SphereCenter, rule: SphereRule | None = None) -> tuple[float, float]:
    """(Mf, a01) from one sphere pass, bit for bit `spherical_mean` and
    `first_cosine_coefficient`, which evaluate f once each."""
    rule = rule or build_rule()
    vals, window = _evaluate_on_sphere(f, c, rule)
    return _two_data(vals, rule, window)


def two_data_transform(f, c: SphereCenter, rule: SphereRule | None = None) -> complex:
    """The complex two-data value Mf + i a01/3 in one sphere pass; its parts
    equal `spherical_mean` and `first_cosine_coefficient / 3` bit for bit."""
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
    for name, v in (("n", n), ("m", m)):
        if isinstance(v, bool) or not isinstance(v, Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if kind not in ("a", "b"):
        raise ValueError("kind must be 'a' or 'b'")
    if kind == "b" and m == 0:
        raise ValueError("b coefficients need m >= 1")
    return _coefficient(f, c, rule, n, m, kind)


def _stored_row(rule: SphereRule, key: tuple, build) -> np.ndarray:
    """rule.rows[key], built by `build()` and made read-only on first use."""
    row = rule.rows.get(key)
    if row is None:
        row = rule.rows[key] = build()
        row.setflags(write=False)
    return row


def _factor_rows(rule: SphereRule, n: int, m: int, kind: str) -> tuple:
    """Read-only factors of a_{mn} (kind "a") or b_{mn} (kind "b") on the
    nodes of `rule`, stored on the rule: P_{n,m}(cos theta), then cos(m phi)
    or sin(m phi) for m >= 1, shared by every n.  P_{1,0}(cos theta) is the
    rule's own cos_t."""
    if n == 0:
        return ()  # a_{00} has no factor
    k = rule.n_phi  # formed on the theta rings, then repeated along each
    if (n, m) == (1, 0):
        rows = (rule.cos_t,)
    else:
        rows = (_stored_row(rule, ("P", n, m), lambda: np.repeat(assoc_legendre(n, m, rule.cos_t[::k]), k)),)
    if m:
        trig = np.cos if kind == "a" else np.sin
        rows += (_stored_row(rule, (kind, m), lambda: trig(m * np.arctan2(rule.sin_p, rule.cos_p))),)
    return rows


def _project(vals, rule: SphereRule, n: int, m: int = 0, kind: str = "a", window: _Window | None = None):
    """a_{mn} (kind "a") or b_{mn} (kind "b") of sphere values evaluated on
    `rule` over `window` (every ring for None), for arguments
    `harmonic_coefficient` accepts: the package's one projection, so
    operators that project the same values agree bit for bit.

    A float for one sphere's values; for an (R, nodes) block, the R
    coefficients as an array.  One `np.vecdot` sums either: its loop calls
    the BLAS dot that `np.dot` calls on one sphere, once per row, so each
    row is summed exactly as a single sphere is (a matrix product sums in
    another order).  The values are summed C-ordered: BLAS sums a strided
    row in another order than a contiguous one, so a Fortran-ordered block
    or a strided sphere gives the bits of its contiguous copy.

    The values and the window's slice of each factor row are summed
    against the window's slice of `SphereRule.w`, or for a window folded
    by a z-parity (`_sphere_offsets`) of `SphereRule.w_fold`: P_{n,m} has
    parity (-1)^(n-m) in cos(theta), so a coefficient of parity *
    (-1)^(n-m) == -1 is +0.0 with no arithmetic.  An empty window sums to
    +0.0.  Values that do not fill the window are refused."""
    vals = np.ascontiguousarray(vals)
    lo, hi, parity = window or (0, rule.n_theta, 0)
    a, b = lo * rule.n_phi, hi * rule.n_phi  # the window's flat nodes
    if vals.shape[-1] != b - a:
        raise ValueError(
            f"{vals.shape[-1]} values for the {b - a} sphere nodes of rings "
            f"[{lo}, {hi}): project a pass's values over the window it evaluated"
        )
    if parity and parity != (-1) ** (n - m):
        return 0.0 if vals.ndim == 1 else np.zeros(vals.shape[:-1])
    for row in _factor_rows(rule, n, m, kind):
        vals = vals * row[a:b]
    s = np.vecdot(vals, (rule.w_fold if parity else rule.w)[a:b])
    return _scaled(float(s) if vals.ndim == 1 else s, n, m)


def _scaled(s, n: int, m: int):
    """The coefficient a_{mn} or b_{mn} of its weighted sum s."""
    if m == 0:
        return (2 * n + 1) * s / (4.0 * pi)  # 4.0 * pi is exact: one rounding after (2n+1)
    return (2 * n + 1) * factorial(n - m) / factorial(n + m) / (2.0 * pi) * s


def off_plane_mean(f, p: float, q: float, z0: float, t: float, rule: SphereRule | None = None) -> float:
    """Mean of f over the sphere centered at (p, q, z0), radius t: the mean
    data moved off the plane, as the Dirichlet-Neumann identity differentiates it."""
    if not isfinite(z0):
        raise ValueError(f"centre height z0 must be finite, got {z0}")
    return _coefficient(f, SphereCenter(p, q, t), rule, 0, z_shift=z0)
