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
pass would give.  A slice axis symmetric about 0 holds exact negatives
(`_axis_nodes`), so its z and -z are one |z|.

The reconstructor reads a phantom (`ScalarField3D`) or a `MomentGrid`
directly, through `laplacian_block(x, y, us, n)` (every power 0..n of Mf
and a01 at the radii us).  The value at (x, y, z) needs only the spheres
centred at (x, y) with radii up to |z|, so each slice column, the points of
one exact centre (x, y), asks for one block, on the sorted union of every
point's radial nodes and every t, and forms its filter rows once, on the
distinct ratios u/t of all its points (`_column_terms`).  The radial nodes
and weights on [0, t] are a grid's trapezoid ladder on its stored radii
(target centre and radius must sit on stored nodes; it interpolates
nothing) or a phantom's cached Gauss-Legendre rule (`_source`).  Each
parity's block becomes one term table per point: row k holds order k's
boundary term and the filtered radial integral of every Laplacian power i.
The column's points with the same number of radial nodes form their
tables in one batch (`_term_tables`), with no BLAS call: one product of
filter rows, Laplacian columns and weights, summed by np.add.reduce in an
order that depends on that number alone, so each table is bit for bit the
one its point gets on its own.  S_k is the exactly rounded sum of the
structurally non-zero terms of the first k + 1 rows of both tables.

Even-mirror mode, for every entry point, asks its blocks for the mean data
alone (`laplacian_block(..., odd=False)`), forms the mean-data terms only
and scales the partial sums: by 2.0 for a phantom whose declared z_support
lies in {z >= 0}, so that its even extension f(x, y, |z|) has exactly twice
its mean data, and by 1.0 otherwise, with a warning.  Nothing is sampled.
Scale 1.0 is exact for a phantom even in z; grid and duck-typed data declare
nothing, and give the even part (f(z) + f(-z)) / 2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cache
from numbers import Integral

import numpy as np

from ._io import atomic_write, fmt, format_rows
from .coeffs import CoefficientTable
from .fields import ScalarField3D
from .moments import MomentGrid
from .quadrature import _gauss_legendre_on

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
            if len(point) != 3:
                raise ValueError(f"points must have three coordinates (x, y, z), got {point}")
            if not all(map(math.isfinite, point)):
                raise ValueError(f"points must have finite coordinates, got {point}")
        if isinstance(self.order_n, bool) or not (isinstance(self.order_n, Integral) and self.order_n >= 0):
            raise ValueError(f"order_n must be an integer >= 0, got {self.order_n!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        _check_min_abs_z(self.min_abs_z)
        rule = self.radial_rule
        if rule is not None and not (isinstance(rule, Integral) and rule >= 1):
            raise ValueError(f"radial_rule must be an integer node count >= 1, got {rule!r}")


@dataclass(frozen=True)
class ReconstructionResult:
    """Per point: final value, the whole ladder S_0..S_n, and |S_n - S_{n-1}|."""

    points: tuple
    order_n: int
    values: tuple
    partial_sums: tuple
    last_increment: tuple


# ----- data sources -----


class _PerPowerSource:
    """A source that answers one Laplacian power per call,
    `laplacians(x, y, us, i) -> (Lap^i Mf, Lap^i a01)`, seen as a block."""

    def __init__(self, inner):
        self.inner = inner
        self.radial_scheme = inner.radial_scheme

    def laplacian_block(self, x, y, us, n, odd=True):
        rows = [self.inner.laplacians(x, y, us, i) for i in range(n + 1)]
        return tuple(np.array([row[f] for row in rows], dtype=float) for f in range(2 if odd else 1))


def _source(source, order_n: int, radial_rule: int | None):
    """The request's source and its radial scheme.

    A phantom or a grid is read as it is; a per-power source is adapted.
    A source without a `radial_scheme` (a phantom) is integrated by
    Gauss-Legendre with radial_rule nodes, by default max(8, order_n + 4).
    """
    if not isinstance(source, (ScalarField3D, MomentGrid)):
        if not (hasattr(source, "radial_scheme") and hasattr(source, "laplacians")):
            raise TypeError(f"unsupported source type {type(source).__name__}")
        source = _PerPowerSource(source)
    if hasattr(source, "radial_scheme"):
        return source, source.radial_scheme
    n_radial = radial_rule or max(8, order_n + 4)
    return source, lambda x, y, t: _gauss_legendre_on(t, n_radial)


def _mirror_scale(source) -> float:
    """2.0 for a phantom whose z_support lies in {z >= 0}, else 1.0, warned for a phantom."""
    if not isinstance(source, ScalarField3D):
        return 1.0
    lo, hi = source.z_support
    if lo >= 0:
        return 2.0
    warnings.warn(
        f"phantom {source.descriptor!r} may be nonzero for z <= 0 (z_support ({lo:g}, {hi:g})); "
        "using its own moments as already-even data",
        stacklevel=3,
    )
    return 1.0


# ----- core -----


def _filter_coefficients(table: CoefficientTable, order_n: int) -> Array:
    """The dense float filter coefficients C[parity, k, i, m], k <= order_n,
    even parity first: a read-only view of the table's `c_dense`.  Order 0
    has no filter; `_term_tables` forms all others."""
    return table.c_dense[:, : order_n + 1, : order_n + 1, : 2 * order_n + 1]


def _filter_rows(filters: Array, ratios: Array) -> Array:
    """Every filter of `filters` at the 1-D `ratios` = u/t: shape
    (parities, n+1, n+1, len(ratios)).

    Row (k, i) is sum_m C[k, i, m] (u/t)^2m, times u/t for the odd parity.
    Every operation is elementwise, so each ratio's column is bit for bit
    the one it would get on its own.
    """
    v2 = ratios**2
    # every filter at once, in ascending m: a zero coefficient adds +0.0,
    # so each sum is bit for bit the one over its non-zero terms
    filt = np.zeros(filters.shape[:3] + ratios.shape)
    for m in range(1, filters.shape[3]):
        filt = filt + filters[..., m, None] * v2**m
    filt[1:] = filt[1:] * ratios
    return filt


@cache
def _layout(order_n: int, parities: int) -> tuple:
    """The fixed structure of `parities` term tables of order order_n, all
    read-only: the boundary weights 4k + 1 and (4k + 3)/3, shape
    (parities, n+1, 1); the flat C index of every structurally non-zero
    term, row by row: the boundary, and the integrals with i <= k on the
    rows k > 0; and how many of them the rows 0..k hold, for each k."""
    k = np.arange(order_n + 1)
    weights = np.array([4 * k + 1, (4 * k + 3) / 3.0])[:parities, :, None]
    filtered = (k[:, None] >= k) & (k[:, None] > 0)
    shape = (parities, order_n + 1, order_n + 2)
    by_row = np.broadcast_to(np.insert(filtered, 0, True, axis=1), shape).transpose(1, 0, 2)
    index = np.arange(by_row.size).reshape(shape).transpose(1, 0, 2)[by_row]
    for a in (weights, index):
        a.flags.writeable = False
    return weights, index, tuple(np.cumsum(by_row.sum(axis=(1, 2))).tolist())


def _term_tables(lap: Array, filt: Array, ws: Array, ts: tuple, order_n: int) -> Array:
    """Term tables of P points that share one radial-rule size J, unsigned:
    shape (P, parities, n+1, n+2).

    Point p brings lap[p], its block on its J radial nodes and then on
    |z| = ts[p], shape (parities, n+1, J+1); filt[p], its filter rows at
    those nodes, (parities, n+1, n+1, J); and ws[p], its J weights.  Table
    [p, 0] is from the mean data, [p, 1] (two-data mode only) from the
    first-cosine data, which sgn(z) multiplies.  Row k holds order k's
    boundary term, then the filtered radial integral of each Laplacian
    power i = 0..n.  Only i <= k on the rows k > 0 are terms; row 0 has
    no filter, and `_partial_sums` reads the terms alone (`_layout`).

    The integrals are one C-ordered product, filter times Laplacian times
    weight, summed along its last axis by np.add.reduce: pairwise, within
    each row alone, in an order set by J.  So a point's table is bit for
    bit the one it gets alone, whatever the batch and the operands' layout.
    """
    weights, _, _ = _layout(order_n, lap.shape[1])
    # libm pow per power: numpy's vectorised power may differ in the last bit
    powers = np.array([[t ** (2 * i - 1) for i in range(order_n + 1)] for t in ts])
    product = np.multiply(filt, lap[:, :, None, :, :-1], order="C")
    product *= ws[:, None, None, None, :]
    integrals = np.add.reduce(product, axis=-1) * powers[:, None, None, :]
    boundary = weights * lap[:, :, 0, -1, None, None]
    return np.concatenate((boundary, integrals), axis=-1)


def _distinct(values: Array) -> Array:
    """Sorted distinct `values` by sort and neighbour compare: np.unique adds over 1 MiB of peak RSS."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


def _column_terms(src, scheme, x: float, y: float, ts: list, order_n: int, filters: Array) -> dict:
    """The term tables of every |z| = t in ts at centre (x, y), keyed by t.

    The column asks one block, on the sorted union of every point's radial
    nodes and every t; a source's column j depends on us[j] alone, so each
    point's columns are the block it would get on its own.  The filter
    rows are formed once, on the column's sorted distinct ratios u/t.  The
    points with the same number J of radial nodes gather their columns
    into one batch for `_term_tables`: a phantom's column is one batch, a
    grid's one point per prefix length.  No batch is padded, so every
    table is the one its point gets on its own.
    """
    schemes = [scheme(x, y, t) for t in ts]
    nodes = _distinct(np.concatenate([us for us, _ in schemes] + [np.array(ts)]))
    block = np.array(src.laplacian_block(x, y, nodes, order_n, odd=len(filters) > 1))
    ratios = [us / t for (us, _), t in zip(schemes, ts)]
    grid = _distinct(np.concatenate(ratios))
    filt = _filter_rows(filters, grid)
    batches: dict[int, list] = {}
    for (us, ws), t, r in zip(schemes, ts, ratios):
        batches.setdefault(us.size, []).append((t, np.append(us, t), r, ws))
    out = {}
    for batch in batches.values():
        bts, at, r, ws = zip(*batch)
        lap = block[:, :, np.searchsorted(nodes, at)].transpose(2, 0, 1, 3)
        rows = filt[..., np.searchsorted(grid, r)].transpose(3, 0, 1, 2, 4)
        out.update(zip(bts, _term_tables(lap, rows, np.array(ws), bts, order_n)))
    return out


def _partial_sums(tables: Array, sg: float, scale: float):
    """scale * S_0..S_n with sgn(z) = sg applied to the odd table, if any:
    S_k sums the structurally non-zero terms of the first k + 1 rows.

    fsum rounds the exact sum of the terms once, whatever their order; the
    tables' other entries are not terms and are never read.  Negation is exact, so both signs of z get the partial sums a
    separate pass per point would give; scale is 1.0 or 2.0, so it is
    exact too and equals scaling the data.
    """
    _, index, ends = _layout(tables.shape[1] - 1, len(tables))
    terms = (tables * np.array([1.0, sg])[: len(tables), None, None]).ravel()[index].tolist()
    return tuple(scale * math.fsum(terms[:end]) for end in ends)


def reconstruct_point(req: ReconstructionRequest, table: CoefficientTable) -> ReconstructionResult:
    """Partial sums of the inversion series at each requested point.

    Points (x, y, z) and (x, y, -z) share every moment and Laplacian, so
    the terms are computed once per exact (x, y, |z|) and only sgn(z)
    differs between them; every |z| of one exact centre (x, y) is read
    from one block (`_column_terms`).  Even-mirror mode forms the mean-data
    terms only and scales them by `_mirror_scale`.

    Every point is checked against min_abs_z, in request order, before any
    data is read.  Then the columns are read in the order of their first
    points, each column's radial schemes in the order of first appearance
    of its |z|, then its one block; the first error raised names its point.
    """
    if req.order_n > table.order_n:
        raise ValueError(f"order {req.order_n} exceeds table order {table.order_n}")
    src, scheme = _source(req.source, req.order_n, req.radial_rule)
    mirror = req.mode == "even_mirror"
    filters = _filter_coefficients(table, req.order_n)[: 1 if mirror else 2]
    scale = _mirror_scale(req.source) if mirror else 1.0

    columns: dict[tuple, tuple] = {}
    for (x, y, z) in req.points:
        if abs(z) < req.min_abs_z:
            raise ValueError(
                f"on-plane point not reconstructible: |z|={abs(z):g} < min_abs_z={req.min_abs_z:g}"
            )
        # hex keeps centres -0.0 and 0.0 apart; a dict keeps first-appearance order
        columns.setdefault((x.hex(), y.hex()), (x, y, {}))[2][abs(z)] = None
    terms = {
        key: _column_terms(src, scheme, x, y, list(ts), req.order_n, filters)
        for key, (x, y, ts) in columns.items()
    }
    ladders = [
        _partial_sums(terms[x.hex(), y.hex()][abs(z)], 1.0 if z > 0 else -1.0, scale)
        for (x, y, z) in req.points
    ]
    return ReconstructionResult(
        points=req.points,
        order_n=req.order_n,
        values=tuple(sums[-1] for sums in ladders),
        partial_sums=tuple(ladders),
        last_increment=tuple(abs(sums[-1] - (sums[-2] if len(sums) > 1 else 0.0)) for sums in ladders),
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
    """lo + step k up to hi; on nodes spanning lo == -hi, the upper half
    negates the lower about an exact 0, so node k is -node(n - 1 - k)."""
    ratio = (hi - lo) / step
    n = int(np.floor(ratio + 1e-9)) + 1
    nodes = lo + step * np.arange(n)
    if lo == -hi and abs(ratio - (n - 1)) < 1e-9:
        nodes[n - n // 2 :] = -nodes[: n // 2][::-1]
        if n % 2:
            nodes[n // 2] = 0.0
    return nodes


def _slice_points(spec: SliceSpec, xs: Array, others: Array) -> Array:
    """(x, y, z) of every slice cell, shape (len(xs), len(others), 3)."""
    X, O = np.meshgrid(xs, others, indexing="ij")
    V = np.full_like(X, spec.value)
    return np.stack((X, V, O) if spec.axis == "y" else (X, O, V), axis=-1)


def reconstruct_slice(
    spec: SliceSpec,
    order_n: int,
    mode: str,
    source,
    table: CoefficientTable,
    min_abs_z: float = 1e-3,
) -> SliceResult:
    """Reconstruct over a rectangle; on-plane points come back as NaN."""
    _check_min_abs_z(min_abs_z)
    xs = _axis_nodes(*spec.xrange, spec.step)
    others = _axis_nodes(*spec.other_range, spec.step)
    cells = _slice_points(spec, xs, others)
    keep = np.abs(cells[..., 2]) >= min_abs_z
    values = np.full(keep.shape, np.nan)
    last_increment = np.full_like(values, np.nan)
    if keep.any():
        req = ReconstructionRequest(cells[keep].tolist(), order_n, mode, source, min_abs_z)
        res = reconstruct_point(req, table)
        values[keep] = res.values
        last_increment[keep] = res.last_increment
    return SliceResult(spec, order_n, mode, xs, others, values, last_increment)


def mirror_even_reconstruct(
    f_c: ScalarField3D, req: ReconstructionRequest, table: CoefficientTable
) -> ReconstructionResult:
    """SRT-only reconstruction of a phantom supported in {z > 0}: `req` in
    even-mirror mode with f_c as its source (see `reconstruct_point`)."""
    return reconstruct_point(replace(req, mode="even_mirror", source=f_c), table)


# ----- output files -----


def write_slice_csv(result: SliceResult, path: str) -> None:
    cells = _slice_points(result.spec, result.xs, result.others)
    rows = np.concatenate((cells, result.values[..., None]), axis=-1).reshape(-1, 4)
    header = f"# order={result.order_n} mode={result.mode.replace('_', '-')}\nx,y,z,f_rec\n"
    atomic_write(path, (header + format_rows(rows)).encode())


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
