"""Brute-force residual oracles for the moment identities.

Every identity the inversion rests on is checked here by computing both
sides independently: restriction coefficients by sphere quadrature, the
representation integrals by dense Gauss-Legendre rules, derivatives by
central differences.  The checks share the field and sphere layer with the
reconstructor (moment data comes from `ScalarField3D.laplacian_block`, so a
field without a ladder is refused), but never its filter arithmetic: the
filter polynomials and radial integrals are assembled here from the
coefficient tables on their own, so a transcription error in the
recurrences or in the reconstructor's series cannot cancel out of these
checks.

Each check reads its point once: one `laplacian_block` on the 80 cached
Gauss-Legendre nodes on [0, t] followed by t (the datum is its last column),
and one `_Spheres` stencil that evaluates f once per sphere and projects each
of its coefficients once.  `run_all_checks` shares both among the checks at
one (phantom, lattice point).

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
from .forward import SphereCenter, _evaluate_on_sphere, _project, harmonic_coefficient
from .quadrature import SphereRule, _gauss_legendre_on, build_rule

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

# phantom name -> sphere-rule size of the harmonic coefficients (None = default
# rule; ladders use their own); the smooth phantoms need denser rules.  The
# bump's mollifier shell needs 256 nodes in cos(theta) on this full-sphere
# side: with 128 its quadrature error alone took the worst rep_even residual
# to 0.66 of the tolerance, with 256 it is 5e-4.  A pass evaluates only the
# rings inside the bump's support z > 0.1: at t = 1, 120 of the 256
# (`forward._sphere_offsets`)
CATALOG_RULES: tuple = (
    ("z", None),
    ("zsq", None),
    ("rsqz3", None),
    ("const", None),
    ("gauss", (64, 160)),
    ("bump", (256, 64)),
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


def _radial_block(f, p, q, t, n):
    """Gauss-Legendre nodes and weights on [0, t], and the (Mf, a01) block
    of powers 0..n on those nodes followed by t: its last column is the
    boundary datum."""
    us, ws = _gauss_legendre_on(t, _N_RADIAL)
    return us, ws, f.laplacian_block(p, q, np.append(us, t), n)


def _representation(point, k, odd, left, radial, table) -> ResidualReport:
    """a_{0(2k)} (odd = 0) or a_{0(2k-1)} (odd = 1), `left` by sphere
    quadrature, vs its filtered-integral form on `radial` (a `_radial_block`
    of power k - odd or more); the odd filters are the table's order k - 1."""
    t = point[2]
    us, ws, block = radial
    lap = block[odd]
    order = k - odd
    boundary = (4 * k - 1) / 3.0 if odd else 4 * k + 1
    right = boundary * float(lap[0, -1])
    c_at = table.c_odd_at if odd else table.c_even_at
    for i in range(order + 1 if order else 0):  # order 0 has no filters
        filt = np.zeros_like(us)
        for m in range(1, order + i + 1):
            filt += float(c_at(order, i, m)) * (us / t) ** (2 * m + odd)
        right += t ** (2 * i - 1) * float(np.dot(ws, filt * lap[i, :-1]))
    identity = "rep_odd" if odd else "rep_even"
    return _report(identity, point, k, left, right, _REP_TOLERANCE, n_radial=_N_RADIAL)


def _check_representation(f, p, q, t, k, odd, rule, table) -> ResidualReport:
    left = harmonic_coefficient(f, SphereCenter(p, q, t), 2 * k - odd, rule=rule)
    return _representation((p, q, t), k, odd, left, _radial_block(f, p, q, t, k - odd), table)


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


# ----- lemma and ODE checks: one stencil of spheres -----


class _Spheres:
    """Harmonic coefficients of f on the spheres of a finite-difference
    stencil around the sphere (p, q, t): centre (p + dp h, q + dq h, dz h),
    radius t + dt h, for unit shifts dp, dq, dt, dz.

    Each sphere is evaluated once, over the window of rings that
    `forward._sphere_offsets` gives it, and stored with that window; each
    coefficient of it is projected once, with `harmonic_coefficient`'s
    arithmetic, so it equals that call bit for bit.
    """

    def __init__(self, f, p, q, t, rule, h):
        SphereCenter(p, q, t)  # the centre and radius are checked first
        if not 0 < h < np.inf:
            raise ValueError(f"fd_step must be positive and finite, got {h}")
        if h >= t / 4:
            raise ValueError(f"fd_step {h} too coarse for radius {t} (need < t/4)")
        self.f, self.point, self.h = f, (p, q, t), h
        self.rule = rule or build_rule()
        self._values = {}
        self._coefficients = {}

    def __call__(self, n, m=0, kind="a", dp=0, dq=0, dt=0, dz=0) -> float:
        """a_{mn} (kind "a") or b_{mn} (kind "b") on the shifted sphere."""
        key = (dp, dq, dt, dz)
        coefficient = (key, n, m, kind)
        if coefficient not in self._coefficients:
            if key not in self._values:
                p, q, t = (v + d * self.h if d else v for v, d in zip(self.point, key))
                self._values[key] = _evaluate_on_sphere(self.f, SphereCenter(p, q, t), self.rule, dz * self.h)
            vals, window = self._values[key]
            self._coefficients[coefficient] = _project(vals, self.rule, n, m, kind, window)
        return self._coefficients[coefficient]

    def diff(self, g) -> float:
        """(g(1) - g(-1)) / (2 h): the central difference of g over one unit shift."""
        return (g(1) - g(-1)) / (2 * self.h)


def _lemma1(s: _Spheres) -> ResidualReport:
    t, h = s.point[2], s.h
    dmean = s.diff(lambda e: s(0, dz=e))
    right = s.diff(lambda e: (t + e * h) * (t + e * h) * s(1, dt=e))
    left = t * t * 3.0 * dmean
    variant = _report("lemma1", s.point, None, t * t * dmean, 3.0 * right, _FD_TOLERANCE)
    return _report(
        "lemma1",
        s.point,
        None,
        left,
        right,
        _FD_TOLERANCE,
        fd_step=h,
        variant_left=variant.left,
        variant_right=variant.right,
        variant_abs_residual=variant.abs_residual,
        variant_rel_residual=variant.rel_residual,
    )


def check_lemma1(
    f: ScalarField3D,
    p: float,
    q: float,
    t: float,
    rule: SphereRule | None = None,
    fd_step: float = 1e-3,
) -> ResidualReport:
    """Normal derivative of the mean data against the radial a01 derivative."""
    return _lemma1(_Spheres(f, p, q, t, rule, fd_step))


def _ode(s: _Spheres, which: str, n: int) -> ResidualReport:
    t, h = s.point[2], s.h
    if which == "eq4_21":
        val = (
            2.0 / (2 * n + 3) * s.diff(lambda e: s(n + 1, dt=e))
            + 2.0 * (n + 2) / (t * (2 * n + 3)) * s(n + 1)
            - 2.0 / (2 * n - 1) * s.diff(lambda e: s(n - 1, dt=e))
            + 2.0 * (n - 1) / (t * (2 * n - 1)) * s(n - 1)
        )
        val += s.diff(lambda e: s(n, 1, "a", dp=e))
        val += s.diff(lambda e: s(n, 1, "b", dq=e))
        return _report(which, s.point, n, val, 0.0, _FD_TOLERANCE, fd_step=h)

    if which == "eq4_22":  # g is the m = 1 divergence, against Lap a_{0n}

        def g(k, dt):
            return s.diff(lambda e: s(k, 1, "a", dp=e, dt=dt)) + s.diff(lambda e: s(k, 1, "b", dq=e, dt=dt))

        rhs = (s(n, dp=1) + s(n, dp=-1) + s(n, dq=1) + s(n, dq=-1) - 4.0 * s(n)) / (h * h)
    else:  # eq4_14: g = a_{1k} against d/dp a_{0n}; eq4_16: b_{1k} and d/dq
        kind, axis = ("a", "dp") if which == "eq4_14" else ("b", "dq")

        def g(k, dt):
            return s(k, 1, kind, dt=dt)

        rhs = s.diff(lambda e: s(n, **{axis: e}))
    # the radial operator of eq4_14, eq4_16 and eq4_22; C = D = 0 below
    # n = 2, where g_{n-1} holds a_{1k}, b_{1k} with k < 1, zero by convention
    A = (n + 1) * (n + 2) / (2 * n + 3)
    B = (n + 1) * (n + 2) ** 2 / (2 * n + 3)
    C = n * (n - 1) / (2 * n - 1)
    D = n * (n - 1) ** 2 / (2 * n - 1)
    val = A * s.diff(lambda e: g(n + 1, e)) + B / t * g(n + 1, 0)
    if C or D:
        val += -C * s.diff(lambda e: g(n - 1, e)) + D / t * g(n - 1, 0)
    val -= 2.0 * rhs
    return _report(which, s.point, n, val, 0.0, _FD_TOLERANCE, fd_step=h)


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
    return _ode(_Spheres(f, p, q, t, rule, fd_step), which, n)


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
    tagged with its phantom in extras.  The checks at one (phantom, lattice
    point) share one power-2 `_radial_block` and one `_Spheres`, which are
    dropped before the next point.  The table must reach order 2.
    """
    table = table or _default_table()
    if table.order_n < 2:
        raise ValueError(f"run_all_checks needs a table of order >= 2, got order {table.order_n}")
    lattice = TEST_LATTICE if lattice is None else tuple(lattice)
    targets = [(make_phantom(name), build_rule(*size) if size else None) for name, size in CATALOG_RULES]
    n_catalog = len(targets)
    if seed is not None:
        targets.extend(_random_polynomials(seed))
    reps, lemmas, odes = [], [], []
    for j, (f, rule) in enumerate(targets):
        for p, q, t in lattice:
            s = _Spheres(f, p, q, t, rule, fd_step)
            radial = _radial_block(f, p, q, t, 2)
            for k in (1, 2):
                for odd in (0, 1):
                    reps.append((f, _representation(s.point, k, odd, s(2 * k - odd), radial, table)))
            if j < n_catalog:
                lemmas.append((f, _lemma1(s)))
                for which in ODE_NAMES:
                    for n in range(1 if which == "eq4_21" else 0, 3):
                        odes.append((f, _ode(s, which, n)))
    return [replace(r, extras={**r.extras, "phantom": f.descriptor}) for f, r in reps + lemmas + odes]


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
