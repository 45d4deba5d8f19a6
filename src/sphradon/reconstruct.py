"""Series inversion of the two-data transform.

The value of f at (x, y, z), z != 0, is the limit of partial sums S_n built
from the moment data Mf and a01 at center (x, y) and radii up to |z|.  Each
order adds one even and one odd restriction coefficient,

    S_n - S_{n-1} = a_{0(2n)} + sgn(z) * a_{0(2n+1)},

and each of those is reproduced from the data through its own filter-weighted
radial integral, so the partial sums come out of a single pass that
accumulates per-order increments.  Summing the increment identities over
k = 0..n telescopes exactly into the closed partial-sum formula: the boundary
weights add up to (n+1)(2n+1) and (n+1)(2n+3)/3, and the per-order filter
coefficients add up to the order-n filter polynomials.

Points (x, y, z) and (x, y, -z) differ only in sgn(z), so each exact
(x, y, |z|) is reconstructed once and its odd terms are negated for the
other sign; negation is exact, so every partial sum is the one a separate
pass would give.

A source answers `radial_scheme(x, y, t)` (radial nodes and weights on
[0, t]), `moments(x, y, t)` (Mf, a01) and `laplacian_block(x, y, us, n)`
(every power 0..n of both at the radii us, once per (x, y, |z|)).  Two
flavors are built in: analytic (a phantom's callbacks, radial integral by
Gauss-Legendre) and sampled grid (stored nodes, every power from one 5-point
stencil sweep, radial integral by the trapezoid ladder with a virtual node
at u = 0 where every integrand vanishes).  Grid mode requires the target
center and radius to sit on stored nodes; it interpolates nothing.  A
source with per-power `laplacians(x, y, us, i)` instead is adapted once.
The filters of each parity are one dense coefficient array [k, i, m].

Even-mirror mode runs the same pipeline with the odd data identically zero.
For a phantom verified to vanish on {z <= 0} the evenized field's mean data
is exactly twice the phantom's; a phantom that fails that test is used as-is
with its odd data dropped, which is exact precisely when the phantom is even
in z.  mirror_even_reconstruct warns in that case rather than guessing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._io import atomic_write, fmt
from .coeffs import CoefficientTable
from .fields import ScalarField3D
from .moments import MomentGrid, _center_laplacians

__all__ = [
    "ReconstructionRequest",
    "ReconstructionResult",
    "SliceSpec",
    "SliceResult",
    "reconstruct_point",
    "reconstruct_slice",
    "mirror_even_reconstruct",
    "write_slice_csv",
    "write_slice_pgm",
]

Array = np.ndarray

_MODES = ("two_data", "even_mirror")


def _check_min_abs_z(min_abs_z: float) -> None:
    if not 0 < min_abs_z < math.inf:
        raise ValueError(f"min_abs_z must be positive and finite, got {min_abs_z}")


@dataclass(frozen=True)
class ReconstructionRequest:
    """What to reconstruct, from what, and how hard.

    radial_rule overrides the Gauss-Legendre node count for analytic sources
    (default max(8, order_n + 4), exact for polynomial phantoms of degree <= 7
    at every order).  Grid sources always integrate on their stored ladder.
    """

    points: tuple
    order_n: int
    mode: str
    source: object
    min_abs_z: float = 1e-3
    radial_rule: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(tuple(map(float, p)) for p in self.points))
        if not self.points:
            raise ValueError("no reconstruction points given")
        for point in self.points:
            if not all(map(math.isfinite, point)):
                raise ValueError(f"points must have finite coordinates, got {point}")
        if self.order_n < 0:
            raise ValueError("order_n must be >= 0")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        _check_min_abs_z(self.min_abs_z)
        if self.radial_rule is not None and self.radial_rule < 1:
            raise ValueError("radial_rule must be a positive node count")


@dataclass(frozen=True)
class ReconstructionResult:
    """Per point: final value, the whole ladder S_0..S_n, and |S_n - S_{n-1}|."""

    points: tuple
    order_n: int
    values: tuple
    partial_sums: tuple
    last_increment: tuple


# ----- data sources -----


class _AnalyticSource:
    def __init__(self, field: ScalarField3D, order_n: int, radial_rule: int | None):
        n_gl = radial_rule if radial_rule is not None else max(8, order_n + 4)
        self._gl = np.polynomial.legendre.leggauss(n_gl)
        self.moments = field.moments
        self.laplacian_block = field.laplacian_block

    def radial_scheme(self, x: float, y: float, t: float):
        gx, gw = self._gl
        return 0.5 * t * (gx + 1.0), 0.5 * t * gw


class _GridSource:
    def __init__(self, grid: MomentGrid, order_n: int):
        self.grid = grid
        self.order_n = order_n

    def _node_index(self, x: float, y: float):
        g = self.grid
        fp = (x - g.origin[0]) / g.h
        fq = (y - g.origin[1]) / g.h
        ip, iq = round(fp), round(fq)
        tol = 1e-9
        if abs(fp - ip) > tol or abs(fq - iq) > tol:
            raise ValueError(f"point ({x}, {y}) is not on the stored (p, q) lattice")
        n = self.order_n
        if ip - n < 0 or ip + n >= g.n_p or iq - n < 0 or iq + n >= g.n_q:
            raise ValueError(
                f"insufficient margin: order {n} at node ({ip}, {iq}) of a "
                f"{g.n_p}x{g.n_q} grid"
            )
        return ip, iq

    def _radius_indices(self, ts) -> Array:
        """Index of the stored node nearest each radius, the lower one on a
        tie (as argmin over the ladder picks), each within 1e-9 relative."""
        nodes = self.grid.radial_nodes
        ts = np.asarray(ts, dtype=float)
        hi = np.minimum(np.searchsorted(nodes, ts), nodes.size - 1)
        lo = np.maximum(hi - 1, 0)
        j = np.where(np.abs(nodes[lo] - ts) <= np.abs(nodes[hi] - ts), lo, hi)
        off = np.abs(nodes[j] - ts) > 1e-9 * np.maximum(1.0, ts)
        if off.any():
            raise ValueError(f"radius {ts[off][0]} is not on the stored radial ladder")
        return j

    def radial_scheme(self, x: float, y: float, t: float):
        j = self._radius_indices([t])[0]
        us = self.grid.radial_nodes[: j + 1]
        # trapezoid with a virtual node at u=0; every integrand vanishes there
        prev = np.concatenate(([0.0], us[:-1]))
        nxt = np.concatenate((us[1:], [us[-1]]))
        return us, (nxt - prev) / 2.0

    def moments(self, x: float, y: float, t: float):
        ip, iq = self._node_index(x, y)
        iu = self._radius_indices([t])[0]
        return float(self.grid.mf_values[ip, iq, iu]), float(self.grid.a01_values[ip, iq, iu])

    def laplacian_block(self, x: float, y: float, us: Array, n: int):
        ip, iq = self._node_index(x, y)
        iu = self._radius_indices(us)
        g = self.grid
        return tuple(
            _center_laplacians(values[ip - n : ip + n + 1, iq - n : iq + n + 1][:, :, iu], n, g.h)
            for values in (g.mf_values, g.a01_values)
        )


class _EvenDataSource:
    """Even-mirror data: the mean data times `scale`, the odd data exactly 0.0.

    scale 2.0 gives the moments of f(x, y, |z|) for f supported in {z > 0};
    scale 1.0 keeps the source's own mean data (1.0 * x == x bit for bit).
    """

    def __init__(self, inner, scale: float = 1.0):
        self.inner = inner
        self.scale = scale
        self.radial_scheme = inner.radial_scheme

    def moments(self, x, y, t):
        return self.scale * self.inner.moments(x, y, t)[0], 0.0

    def laplacian_block(self, x, y, us, n):
        mf = self.inner.laplacian_block(x, y, us, n)[0]
        return self.scale * mf, np.zeros_like(mf)


class _PerPowerSource:
    """A source that answers one Laplacian power per call,
    `laplacians(x, y, us, i) -> (Lap^i Mf, Lap^i a01)`, seen as a block."""

    def __init__(self, inner):
        self.inner = inner
        self.radial_scheme = inner.radial_scheme
        self.moments = inner.moments

    def laplacian_block(self, x, y, us, n):
        rows = [self.inner.laplacians(x, y, us, i) for i in range(n + 1)]
        return tuple(np.array([row[f] for row in rows], dtype=float) for f in (0, 1))


def _make_source(source, order_n: int, radial_rule: int | None):
    if isinstance(source, MomentGrid):
        return _GridSource(source, order_n)
    if isinstance(source, ScalarField3D):
        return _AnalyticSource(source, order_n, radial_rule)
    if isinstance(source, _EvenDataSource):
        return source
    if hasattr(source, "radial_scheme") and hasattr(source, "laplacians"):
        return _PerPowerSource(source)
    raise TypeError(f"unsupported source type {type(source).__name__}")


# ----- core -----


def _filter_coefficients(table: CoefficientTable, order_n: int):
    """Per parity (even, odd): the dense float filter coefficients C[k, i, m]
    of orders k <= order_n, and the (k, i) pairs whose filter is not zero."""
    out = []
    for stored in (table.c_even, table.c_odd):
        coef = np.zeros((order_n + 1, order_n + 1, 2 * order_n + 1))
        for (k, i, m), c in stored.items():
            if k <= order_n:
                coef[k, i, m] = float(c)
        active = [(int(k), int(i)) for k, i in zip(*np.nonzero(coef.any(axis=2)))]
        out.append((coef, active))
    return out


def _point_terms(src, x: float, y: float, t: float, order_n: int, filters):
    """Per-order increment terms at (x, y, |z| = t), unsigned.

    Returns (even, odd): even[k] holds order k's terms from the mean data,
    odd[k] those from the first-cosine data, which sgn(z) multiplies; each
    list starts with its boundary term.
    """
    data_t = src.moments(x, y, t)
    us, ws = src.radial_scheme(x, y, t)
    v2 = (us / t) ** 2
    vodd = us / t
    if any(active for _, active in filters):
        lap = src.laplacian_block(x, y, us, order_n)
    terms = []
    for parity, (coef, active) in enumerate(filters):
        per_order = [
            [((4 * k + 3) / 3.0 if parity else 4 * k + 1) * data_t[parity]] for k in range(order_n + 1)
        ]
        if active:
            # every filter at once, in ascending m: a zero coefficient adds
            # +0.0, so each sum is bit for bit the one over its non-zero terms
            filt = np.zeros(coef.shape[:2] + us.shape)
            for m in range(1, coef.shape[2]):
                filt = filt + coef[:, :, m, None] * v2**m
            if parity:
                filt = filt * vodd
            for k, i in active:
                per_order[k].append(t ** (2 * i - 1) * float(np.dot(ws, filt[k, i] * lap[parity][i])))
        terms.append(per_order)
    return terms


def _partial_sums(even, odd, sg: float):
    """S_0..S_n with sgn(z) = sg applied to the odd terms.

    Negation is exact, and fsum rounds the exact sum once, so both signs
    of z get the partial sums a separate pass per point would give.
    """
    all_terms: list[float] = []
    sums = []
    for even_k, odd_k in zip(even, odd):
        all_terms.extend(even_k)
        all_terms.extend(odd_k if sg > 0 else [-v for v in odd_k])
        sums.append(math.fsum(all_terms))
    return sums


def reconstruct_point(req: ReconstructionRequest, table: CoefficientTable) -> ReconstructionResult:
    """Partial sums of the inversion series at each requested point.

    Points (x, y, z) and (x, y, -z) share every moment and Laplacian, so
    the terms are computed once per exact (x, y, |z|) and only sgn(z)
    differs between them.
    """
    if req.order_n > table.order_n:
        raise ValueError(f"order {req.order_n} exceeds table order {table.order_n}")
    src = _make_source(req.source, req.order_n, req.radial_rule)
    if req.mode == "even_mirror" and not isinstance(src, _EvenDataSource):
        src = _EvenDataSource(src)
    filters = _filter_coefficients(table, req.order_n)

    terms: dict[tuple, tuple] = {}
    values, ladders, last = [], [], []
    for (x, y, z) in req.points:
        if abs(z) < req.min_abs_z:
            raise ValueError(
                f"on-plane point not reconstructible: |z|={abs(z):g} < min_abs_z={req.min_abs_z:g}"
            )
        key = (x.hex(), y.hex(), abs(z))  # hex keeps centres -0.0 and 0.0 apart
        if key not in terms:
            terms[key] = _point_terms(src, x, y, abs(z), req.order_n, filters)
        sums = _partial_sums(*terms[key], 1.0 if z > 0 else -1.0)
        values.append(sums[-1])
        ladders.append(tuple(sums))
        last.append(abs(sums[-1] - sums[-2]) if len(sums) > 1 else abs(sums[-1]))
    return ReconstructionResult(
        points=req.points,
        order_n=req.order_n,
        values=tuple(values),
        partial_sums=tuple(ladders),
        last_increment=tuple(last),
    )


# ----- slices -----


@dataclass(frozen=True)
class SliceSpec:
    """Rectangle in a plane y=value or z=value.

    axis is "y" or "z".  xrange spans x in both cases; other_range spans z
    for y-slices and y for z-slices.  step applies to both directions.
    """

    axis: str
    value: float
    xrange: tuple[float, float]
    other_range: tuple[float, float]
    step: float

    def __post_init__(self):
        if self.axis not in ("y", "z"):
            raise ValueError("slice axis must be 'y' or 'z'")
        if not math.isfinite(self.value):
            raise ValueError(f"slice value must be finite, got {self.value}")
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        for name, (lo, hi) in (("xrange", self.xrange), ("other_range", self.other_range)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} must be finite, got {(lo, hi)}")
            if hi < lo:
                raise ValueError("range bounds out of order")


@dataclass(frozen=True)
class SliceResult:
    spec: SliceSpec
    order_n: int
    mode: str
    xs: Array
    others: Array
    values: Array  # shape (len(xs), len(others)); NaN where |z| < min_abs_z
    last_increment: Array  # |S_n - S_{n-1}| per cell, same shape and NaN band


def _axis_nodes(lo: float, hi: float, step: float) -> Array:
    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def reconstruct_slice(
    spec: SliceSpec,
    order_n: int,
    mode: str,
    source,
    table: CoefficientTable,
    min_abs_z: float = 1e-3,
    radial_rule: int | None = None,
) -> SliceResult:
    """Reconstruct over a rectangle; on-plane points come back as NaN."""
    _check_min_abs_z(min_abs_z)
    xs = _axis_nodes(*spec.xrange, spec.step)
    others = _axis_nodes(*spec.other_range, spec.step)
    values = np.full((xs.size, others.size), np.nan)
    last_increment = np.full_like(values, np.nan)
    slots, points = [], []
    for ix, x in enumerate(xs):
        for io, o in enumerate(others):
            if spec.axis == "y":
                point = (float(x), spec.value, float(o))
            else:
                point = (float(x), float(o), spec.value)
            if abs(point[2]) < min_abs_z:
                continue
            slots.append((ix, io))
            points.append(point)
    if points:
        req = ReconstructionRequest(
            points=tuple(points),
            order_n=order_n,
            mode=mode,
            source=source,
            min_abs_z=min_abs_z,
            radial_rule=radial_rule,
        )
        res = reconstruct_point(req, table)
        for (ix, io), v, inc in zip(slots, res.values, res.last_increment):
            values[ix, io] = v
            last_increment[ix, io] = inc
    return SliceResult(
        spec=spec,
        order_n=order_n,
        mode=mode,
        xs=xs,
        others=others,
        values=values,
        last_increment=last_increment,
    )


def mirror_even_reconstruct(
    f_c: ScalarField3D, req: ReconstructionRequest, table: CoefficientTable
) -> ReconstructionResult:
    """SRT-only reconstruction of a phantom supported in {z > 0}.

    Verifies the support condition by sampling f_c on {z <= 0}.  When it
    holds, the evenized field's mean data is exactly 2*Mf and its odd data
    vanishes.  When it fails, the phantom's own moments are used unchanged
    (exact if the phantom is even in z) and a warning is issued.
    """
    probe = np.linspace(-2.5, 2.5, 9)
    zs = np.linspace(-3.0, 0.0, 13)
    X, Y, Z = np.meshgrid(probe, probe, zs, indexing="ij")
    below = float(np.max(np.abs(np.asarray(f_c.evaluate(X, Y, Z), dtype=float))))
    inner = _AnalyticSource(f_c, req.order_n, req.radial_rule)
    if below > 1e-12:
        warnings.warn(
            f"phantom {f_c.descriptor!r} is detectably nonzero for z <= 0 "
            f"(max {below:.3g}); using its own moments as already-even data",
            stacklevel=2,
        )
        source = _EvenDataSource(inner)
    else:
        source = _EvenDataSource(inner, scale=2.0)
    return reconstruct_point(replace(req, mode="even_mirror", source=source), table)


# ----- output files -----


def write_slice_csv(result: SliceResult, path: str) -> None:
    mode_name = result.mode.replace("_", "-")
    lines = [f"# order={result.order_n} mode={mode_name}", "x,y,z,f_rec"]
    for ix, x in enumerate(result.xs):
        for io, o in enumerate(result.others):
            if result.spec.axis == "y":
                y, z = result.spec.value, o
            else:
                y, z = o, result.spec.value
            lines.append(f"{fmt(x)},{fmt(y)},{fmt(z)},{fmt(result.values[ix, io])}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_slice_pgm(result: SliceResult, path: str) -> None:
    """8-bit PGM rendering; linear min-max scaling recorded in the comment.

    Columns follow x; rows run top-to-bottom from the high end of the other
    axis.  NaN cells render black.
    """
    vals = result.values
    finite = vals[np.isfinite(vals)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    scaled = np.zeros_like(vals)
    mask = np.isfinite(vals)
    scaled[mask] = np.clip((vals[mask] - lo) / span, 0.0, 1.0) * 255.0
    img = scaled.T[::-1, :].round().astype(np.uint8)
    header = (
        f"P5\n# linear min-max scaling: fmin={fmt(lo)} fmax={fmt(hi)}\n"
        f"{img.shape[1]} {img.shape[0]}\n255\n"
    )
    atomic_write(path, header.encode() + img.tobytes())
