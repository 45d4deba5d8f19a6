"""Brute-force residual oracles for the moment identities.

Every identity the inversion rests on is checked here by computing both
sides independently: restriction coefficients by sphere quadrature, the
representation integrals by dense Gauss-Legendre rules, derivatives by
central differences.  The checks share the field and sphere layer with the
reconstructor (the phantoms' moment data comes from
`ScalarField3D.laplacian_block`), but never its filter arithmetic: the
filter polynomials and radial integrals are assembled here from the
coefficient tables on their own, so a transcription error in the
recurrences or in the reconstructor's series cannot cancel out of these
checks.

Identity registry (the names appear verbatim in reports and CSV rows):

    rep_even   a_{0(2k)}  = (4k+1) Mf + filtered radial integrals of Lap^i Mf
    rep_odd    a_{0(2k-1)} = ((4k-1)/3) a01 + the odd-filtered integrals
    lemma1     t^2 d/dn (3 a00) = d/dt (t^2 a01), the Dirichlet-Neumann link
    eq4_14     radial ODE tying a_{1(n+1)}, a_{1(n-1)} to d/dp a_{0n}
    eq4_16     the same with b-coefficients and d/dq
    eq4_21     radial ODE tying a_{0(n+1)}, a_{0(n-1)} to the m=1 divergence
    eq4_22     second-order form: the divergence pair against Lap a_{0n}

The normal derivative in lemma1 is taken as the z-derivative of the
off-plane-extended spherical mean at z0 = 0; that reading makes the residual
vanish at O(fd_step^2) for every phantom tried.  Each report also carries
the variant with the factor 3 moved to the other side, so if the stated form
ever failed, the numbers would say which reading is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from ._io import atomic_write, fmt
from .coeffs import CoefficientTable, build_tables
from .fields import ScalarField3D, make_phantom
from .forward import (
    SphereCenter,
    first_cosine_coefficient,
    harmonic_coefficient,
    off_plane_mean,
)
from .quadrature import SphereRule, build_rule

__all__ = [
    "ResidualReport",
    "check_representation_even",
    "check_representation_odd",
    "check_lemma1",
    "check_ode_residual",
    "run_all_checks",
    "write_residual_csv",
    "CATALOG_RULES",
    "TEST_LATTICE",
]

ODE_NAMES = ("eq4_14", "eq4_16", "eq4_21", "eq4_22")
IDENTITIES = ("rep_even", "rep_odd", "lemma1") + ODE_NAMES  # registry order

# phantom name -> sphere-rule size (None = default rule); the two smooth
# phantoms need denser rules than the polynomial ones
CATALOG_RULES: tuple = (
    ("z", None),
    ("zsq", None),
    ("rsqz3", None),
    ("const", None),
    ("gauss", (64, 160)),
    ("bump", (128, 64)),
)

TEST_LATTICE: tuple = tuple(
    (p, q, t) for p in (-1.0, 0.0, 1.0) for q in (-1.0, 0.0, 1.0) for t in (0.5, 1.0, 2.0)
)

# Gauss-Legendre nodes of the representation checks' radial integrals, and
# the relative tolerances: the representation checks are quadrature against
# quadrature, the lemma and ODE checks carry O(fd_step^2) differencing error
_N_RADIAL = 80
_REP_TOLERANCE = 1e-8
_FD_TOLERANCE = 1e-5


@cache
def _default_table() -> CoefficientTable:
    return build_tables(8)


@dataclass(frozen=True)
class ResidualReport:
    """Two independently computed sides of one identity at one point."""

    identity: str
    point: tuple
    n: int | None
    left: float
    right: float
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool
    extras: dict = field(default_factory=dict)


def _report(identity, point, n, left, right, tolerance, **extras) -> ResidualReport:
    ab = abs(left - right)
    rel = ab / max(1.0, abs(left), abs(right))
    return ResidualReport(
        identity=identity,
        point=tuple(float(v) for v in point),
        n=n,
        left=float(left),
        right=float(right),
        abs_residual=ab,
        rel_residual=rel,
        tolerance=tolerance,
        passed=rel <= tolerance,
        extras=extras,
    )


# ----- representation checks -----


def _check_representation(f, p, q, t, k, odd, rule, table) -> ResidualReport:
    """a_{0(2k)} (odd = 0) or a_{0(2k-1)} (odd = 1) from sphere quadrature
    vs its filtered-integral form; the odd filters are the table's order k - 1."""
    left = harmonic_coefficient(f, SphereCenter(p, q, t), 2 * k - odd, rule=rule)
    gx, gw = np.polynomial.legendre.leggauss(_N_RADIAL)
    us, ws = 0.5 * t * (gx + 1.0), 0.5 * t * gw
    boundary = (4 * k - 1) / 3.0 if odd else 4 * k + 1
    right = boundary * float(f.laplacian_block(p, q, [t], 0, rule)[odd][0, 0])
    c_at = table.c_odd_at if odd else table.c_even_at
    filters = []
    for i in range(k - odd + 1):
        cs = [(m, float(c_at(k - odd, i, m))) for m in range(1, k - odd + i + 1)]
        cs = [(m, c) for m, c in cs if c]
        if cs:
            filters.append((i, cs))
    if filters:
        lap = f.laplacian_block(p, q, us, filters[-1][0], rule)[odd]
    for i, cs in filters:
        filt = np.zeros_like(us)
        for m, c in cs:
            filt += c * (us / t) ** (2 * m + odd)
        right += t ** (2 * i - 1) * float(np.dot(ws, filt * lap[i]))
    identity = "rep_odd" if odd else "rep_even"
    return _report(identity, (p, q, t), k, left, right, _REP_TOLERANCE, n_radial=_N_RADIAL)


def check_representation_even(
    f: ScalarField3D,
    p: float,
    q: float,
    t: float,
    k: int,
    rule: SphereRule | None = None,
    table: CoefficientTable | None = None,
) -> ResidualReport:
    """a_{0(2k)} from sphere quadrature vs its filtered-integral form."""
    table = table or _default_table()
    if not 0 <= k <= table.order_n:
        raise ValueError(f"need 0 <= k <= {table.order_n}, got k={k}")
    return _check_representation(f, p, q, t, k, 0, rule, table)


def check_representation_odd(
    f: ScalarField3D,
    p: float,
    q: float,
    t: float,
    k: int,
    rule: SphereRule | None = None,
    table: CoefficientTable | None = None,
) -> ResidualReport:
    """a_{0(2k-1)} from sphere quadrature vs its filtered-integral form."""
    table = table or _default_table()
    if k < 1:
        raise ValueError("odd representation needs k >= 1")
    if k - 1 > table.order_n:
        raise ValueError(f"need k - 1 <= {table.order_n}, got k={k}")
    return _check_representation(f, p, q, t, k, 1, rule, table)


# ----- lemma check -----


def check_lemma1(
    f: ScalarField3D,
    p: float,
    q: float,
    t: float,
    rule: SphereRule | None = None,
    fd_step: float = 1e-3,
) -> ResidualReport:
    """Normal derivative of the mean data against the radial a01 derivative."""
    h = fd_step
    if not 0 < h < np.inf:
        raise ValueError(f"fd_step must be positive and finite, got {h}")
    if h >= t / 4:
        raise ValueError(f"fd_step {h} too coarse for radius {t} (need < t/4)")
    dmean = (off_plane_mean(f, p, q, h, t, rule) - off_plane_mean(f, p, q, -h, t, rule)) / (2 * h)

    def ta01(tt: float) -> float:
        return tt * tt * first_cosine_coefficient(f, SphereCenter(p, q, tt), rule)

    right = (ta01(t + h) - ta01(t - h)) / (2 * h)
    left = t * t * 3.0 * dmean
    vleft = t * t * dmean
    vright = 3.0 * right
    return _report(
        "lemma1",
        (p, q, t),
        None,
        left,
        right,
        _FD_TOLERANCE,
        fd_step=h,
        variant_left=vleft,
        variant_right=vright,
        variant_abs_residual=abs(vleft - vright),
        variant_rel_residual=abs(vleft - vright) / max(1.0, abs(vleft), abs(vright)),
    )


# ----- consistency ODE checks -----


def check_ode_residual(
    f: ScalarField3D,
    which: str,
    p: float,
    q: float,
    t: float,
    n: int,
    rule: SphereRule | None = None,
    fd_step: float = 1e-3,
) -> ResidualReport:
    """One consistency identity evaluated as a residual against zero.

    All coefficients come from sphere quadrature; p-, q- and t-derivatives
    are central differences with step fd_step, the transverse Laplacian in
    eq4_22 a 5-point stencil.  Coefficients a_{1k}, b_{1k} with k < 1 are
    zero by convention, which is what makes eq4_14/eq4_16/eq4_22 valid from
    n = 0; eq4_21 needs n >= 1.
    """
    if which not in ODE_NAMES:
        raise ValueError(f"unknown identity {which!r}; expected one of {ODE_NAMES}")
    if which == "eq4_21":
        if n < 1:
            raise ValueError("eq4_21 is valid for n >= 1")
    elif n < 0:
        raise ValueError(f"{which} is valid for n >= 0")
    h = fd_step
    if not 0 < h < np.inf:
        raise ValueError(f"fd_step must be positive and finite, got {h}")
    if h >= t / 4:
        raise ValueError(f"fd_step {h} too coarse for radius {t} (need < t/4)")

    def a0(pp, qq, tt, k):
        return harmonic_coefficient(f, SphereCenter(pp, qq, tt), k, rule=rule)

    def a1(pp, qq, tt, k):
        if k < 1:
            return 0.0
        return harmonic_coefficient(f, SphereCenter(pp, qq, tt), k, 1, "a", rule=rule)

    def b1(pp, qq, tt, k):
        if k < 1:
            return 0.0
        return harmonic_coefficient(f, SphereCenter(pp, qq, tt), k, 1, "b", rule=rule)

    A = (n + 1) * (n + 2) / (2 * n + 3)
    B = (n + 1) * (n + 2) ** 2 / (2 * n + 3)
    if n >= 1:
        C = n * (n - 1) / (2 * n - 1)
        D = n * (n - 1) ** 2 / (2 * n - 1)
    else:
        C = D = 0.0

    if which in ("eq4_14", "eq4_16"):
        coef = a1 if which == "eq4_14" else b1
        dt_hi = (coef(p, q, t + h, n + 1) - coef(p, q, t - h, n + 1)) / (2 * h)
        val = A * dt_hi + B / t * coef(p, q, t, n + 1)
        if C or D:
            dt_lo = (coef(p, q, t + h, n - 1) - coef(p, q, t - h, n - 1)) / (2 * h)
            val += -C * dt_lo + D / t * coef(p, q, t, n - 1)
        if which == "eq4_14":
            dxy = (a0(p + h, q, t, n) - a0(p - h, q, t, n)) / (2 * h)
        else:
            dxy = (a0(p, q + h, t, n) - a0(p, q - h, t, n)) / (2 * h)
        val -= 2.0 * dxy
    elif which == "eq4_21":
        dt_hi = (a0(p, q, t + h, n + 1) - a0(p, q, t - h, n + 1)) / (2 * h)
        dt_lo = (a0(p, q, t + h, n - 1) - a0(p, q, t - h, n - 1)) / (2 * h)
        val = (
            2.0 / (2 * n + 3) * dt_hi
            + 2.0 * (n + 2) / (t * (2 * n + 3)) * a0(p, q, t, n + 1)
            - 2.0 / (2 * n - 1) * dt_lo
            + 2.0 * (n - 1) / (t * (2 * n - 1)) * a0(p, q, t, n - 1)
        )
        val += (a1(p + h, q, t, n) - a1(p - h, q, t, n)) / (2 * h)
        val += (b1(p, q + h, t, n) - b1(p, q - h, t, n)) / (2 * h)
    else:  # eq4_22

        def g(tt, k):
            if k < 1:
                return 0.0
            da = (a1(p + h, q, tt, k) - a1(p - h, q, tt, k)) / (2 * h)
            db = (b1(p, q + h, tt, k) - b1(p, q - h, tt, k)) / (2 * h)
            return da + db

        val = A * (g(t + h, n + 1) - g(t - h, n + 1)) / (2 * h) + B / t * g(t, n + 1)
        if C or D:
            val += -C * (g(t + h, n - 1) - g(t - h, n - 1)) / (2 * h) + D / t * g(t, n - 1)
        lap = (
            a0(p + h, q, t, n)
            + a0(p - h, q, t, n)
            + a0(p, q + h, t, n)
            + a0(p, q - h, t, n)
            - 4.0 * a0(p, q, t, n)
        ) / (h * h)
        val -= 2.0 * lap

    return _report(which, (p, q, t), n, val, 0.0, _FD_TOLERANCE, fd_step=h)


# ----- suite runner -----


def _random_polynomials(seed: int, count: int = 3):
    from .fields import polynomial_field

    rng = np.random.default_rng(seed)
    out = []
    for idx in range(count):
        poly = {}
        for _ in range(8):
            key = tuple(int(e) for e in rng.integers(0, 4, size=3))
            if sum(key) <= 5:
                poly[key] = round(float(rng.uniform(-1.0, 1.0)), 6)
        if not poly:
            poly[(1, 0, 1)] = 0.5
        out.append((polynomial_field(poly, name=f"rand5#{idx}"), None))
    return out


def run_all_checks(
    table: CoefficientTable | None = None,
    fd_step: float = 1e-3,
    seed: int | None = None,
    lattice: tuple | None = None,
) -> list[ResidualReport]:
    """The full catalog gate: every check over the fixed test lattice.

    With a seed, random degree <= 5 polynomial phantoms are appended to the
    representation checks (the fd-based checks gain nothing from them and
    dominate the runtime).  Reports come back in deterministic order, each
    tagged with its phantom in extras.
    """
    table = table or _default_table()
    lattice = TEST_LATTICE if lattice is None else tuple(lattice)
    reports: list[ResidualReport] = []

    def add(f, r):
        reports.append(replace(r, extras={**r.extras, "phantom": f.descriptor}))

    catalog = []
    for name, size in CATALOG_RULES:
        rule = build_rule(*size) if size else None
        catalog.append((make_phantom(name), rule))
    rep_targets = list(catalog)
    if seed is not None:
        rep_targets.extend(_random_polynomials(seed))
    for f, rule in rep_targets:
        for p, q, t in lattice:
            for k in (1, 2):
                add(f, check_representation_even(f, p, q, t, k, rule, table))
                add(f, check_representation_odd(f, p, q, t, k, rule, table))
    for f, rule in catalog:
        for p, q, t in lattice:
            add(f, check_lemma1(f, p, q, t, rule, fd_step))
    for f, rule in catalog:
        for p, q, t in lattice:
            for which in ODE_NAMES:
                start = 1 if which == "eq4_21" else 0
                for n in range(start, 3):
                    add(f, check_ode_residual(f, which, p, q, t, n, rule, fd_step))
    return reports


# ----- CSV -----


def write_residual_csv(reports, path: str) -> None:
    lines = ["identity,p,q,t,n,left,right,abs_residual,rel_residual,pass"]
    for r in reports:
        p, q, t = r.point
        ncol = "" if r.n is None else str(r.n)
        lines.append(
            f"{r.identity},{fmt(p)},{fmt(q)},{fmt(t)},{ncol},"
            f"{fmt(r.left)},{fmt(r.right)},{fmt(r.abs_residual)},"
            f"{fmt(r.rel_residual)},{'true' if r.passed else 'false'}"
        )
    atomic_write(path, ("\n".join(lines) + "\n").encode())
