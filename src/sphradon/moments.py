"""Sampled moment data on a detector grid.

A MomentGrid holds the two measured functions Mf(p,q,u) and a01(p,q,u) on a
uniform (p,q) lattice times a strictly increasing set of radii.  It is the
discrete form of the inverse problem's data (`sample_moments` fills it from
a phantom's ladder, or by quadrature, which needs only the field's
`evaluate`: one pass per centre over blocks of its radii, on the sphere
offsets of `forward._sphere_offsets` built once per grid, z repeated along
each ring, each block, of radii that share one window of rings, projected
by `forward._two_data`; a field without a ladder carries no moment data)
and the reconstructor's grid source: it answers `laplacian_block` as a
phantom does, and `radial_scheme` with the trapezoid ladder of its stored
radii, for centres and radii on stored nodes only; it interpolates
nothing.

Center-Laplacians are taken by iterating the 5-point stencil, which costs i
cells of margin per application and is exact on fields quadratic in (p,q).
One sweep over a node's (2n+1)^2 neighbourhood yields every power 0..n at
every radius asked, and the stencil is elementwise in the radius; the
reconstructor asks the union of a slice column's radial nodes and radii,
so each column costs one sweep per function.
The file format is a CSV with a comment sidecar, lossless at 17 significant
digits; the writer formats each distinct coordinate once, and the reader
parses the body in one `np.loadtxt` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import isfinite
from numbers import Integral

import numpy as np

from ._io import atomic_write, fmt, format_rows
from .fields import ScalarField3D, _checked_block_request
from .forward import _node_values, _sphere_offsets, _two_data
from .quadrature import SphereRule, build_rule

__all__ = [
    "MomentGrid",
    "sample_moments",
    "write_moment_csv",
    "read_moment_csv",
]

Array = np.ndarray

# radii of one centre per `evaluate` call in quadrature sampling: enough to
# amortise the call, few enough to keep the block's temporaries small
_RADII_PER_PASS = 8


def _check_lattice(origin, h: float, n_p: int, n_q: int, radial_nodes) -> Array:
    """The radial nodes as a float array, once the sample lattice of a
    MomentGrid is valid: an origin of two finite numbers, positive finite h,
    integer node counts of at least one per axis, and finite, positive,
    strictly increasing radii."""
    if not 0 < h < np.inf:
        raise ValueError("grid spacing h must be positive and finite")
    try:
        pq0 = np.asarray(origin, dtype=float)
    except (TypeError, ValueError):
        pq0 = None
    if pq0 is None or pq0.shape != (2,):
        raise ValueError(f"grid origin must be two numbers (p0, q0), got {origin!r}")
    if not np.all(np.isfinite(pq0)):
        raise ValueError(f"grid origin must be finite, got {origin}")
    for name, count in (("n_p", n_p), ("n_q", n_q)):
        if not isinstance(count, Integral):
            raise ValueError(f"{name} must be an integer node count, got {count!r}")
    if n_p < 1 or n_q < 1:
        raise ValueError("grid must have at least one node per axis")
    nodes = np.asarray(radial_nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("radial_nodes must be a nonempty 1-D array")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("radial_nodes must be finite")
    if nodes[0] <= 0 or np.any(np.diff(nodes) <= 0):
        raise ValueError("radial_nodes must be positive and strictly increasing")
    return nodes


@dataclass(frozen=True)
class MomentGrid:
    """Moment samples over origin + h*(0..n_p-1) x (0..n_q-1) x radial_nodes.

    Value arrays are indexed (ip, iq, iu) and frozen after construction;
    the origin is stored as two Python floats, a zero as +0.0.
    """

    origin: tuple[float, float]
    h: float
    n_p: int
    n_q: int
    radial_nodes: Array
    mf_values: Array
    a01_values: Array

    def __post_init__(self):
        nodes = _check_lattice(self.origin, self.h, self.n_p, self.n_q, self.radial_nodes)
        shape = (self.n_p, self.n_q, nodes.size)
        mf = np.asarray(self.mf_values, dtype=float)
        a01 = np.asarray(self.a01_values, dtype=float)
        if mf.shape != shape or a01.shape != shape:
            raise ValueError(f"value arrays must have shape {shape}")
        if not (np.all(np.isfinite(mf)) and np.all(np.isfinite(a01))):
            raise ValueError("moment values must be finite")
        for arr in (nodes, mf, a01):
            arr.setflags(write=False)
        # two Python floats, -0.0 as +0.0: the CSV stores node 0, which is
        # origin + 0 * h == +0.0 for either zero, so the origin reads back
        object.__setattr__(self, "origin", tuple(float(v) + 0.0 for v in self.origin))
        object.__setattr__(self, "radial_nodes", nodes)
        object.__setattr__(self, "mf_values", mf)
        object.__setattr__(self, "a01_values", a01)

    # node coordinates
    def p_node(self, ip: int) -> float:
        return self.origin[0] + ip * self.h

    def q_node(self, iq: int) -> float:
        return self.origin[1] + iq * self.h

    # the grid as a reconstruction source

    def _node_index(self, x: float, y: float, n: int):
        """Lattice indices of node (x, y), checked for n rings of margin; a
        point past the grid's nodes is off the stored lattice."""
        fp = (x - self.origin[0]) / self.h
        fq = (y - self.origin[1]) / self.h
        if not (-0.5 < fp < self.n_p - 0.5 and -0.5 < fq < self.n_q - 0.5):
            raise ValueError(
                f"point ({x}, {y}) is not on the stored (p, q) lattice: past the {self.n_p}x{self.n_q} grid"
            )
        ip, iq = round(fp), round(fq)
        if abs(fp - ip) > 1e-9 or abs(fq - iq) > 1e-9:
            raise ValueError(f"point ({x}, {y}) is not on the stored (p, q) lattice")
        if ip - n < 0 or ip + n >= self.n_p or iq - n < 0 or iq + n >= self.n_q:
            raise ValueError(
                f"insufficient margin: order {n} at node ({ip}, {iq}) of a "
                f"{self.n_p}x{self.n_q} grid"
            )
        return ip, iq

    def _radius_indices(self, ts) -> Array:
        """Index of the stored node nearest each radius, the lower one on a
        tie (as argmin over the ladder picks), each within 1e-9 relative; a
        radius that is not finite is on no node (the tolerance is inf at
        t = inf)."""
        nodes = self.radial_nodes
        ts = np.asarray(ts, dtype=float)
        hi = np.minimum(np.searchsorted(nodes, ts), nodes.size - 1)
        lo = np.maximum(hi - 1, 0)
        j = np.where(np.abs(nodes[lo] - ts) <= np.abs(nodes[hi] - ts), lo, hi)
        off = ~(np.isfinite(ts) & (np.abs(nodes[j] - ts) <= 1e-9 * np.maximum(1.0, ts)))
        if off.any():
            raise ValueError(f"radius {ts[off][0]} is not on the stored radial ladder")
        return j

    def radial_scheme(self, x: float, y: float, t: float):
        """The stored radii up to t and their trapezoid weights, with a
        virtual node at u = 0 where every integrand of the series vanishes,
        for a finite centre (x, y) on a stored lattice node."""
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"sphere centre must be finite, got (p, q) = ({x}, {y})")
        self._node_index(x, y, 0)
        j = self._radius_indices([t])[0]
        us = self.radial_nodes[: j + 1]
        prev = np.concatenate(([0.0], us[:-1]))
        nxt = np.concatenate((us[1:], [us[-1]]))
        return us, (nxt - prev) / 2.0

    def laplacian_block(self, x: float, y: float, us, n: int, odd: bool = True):
        """(Mf, a01) of shape (n + 1, len(us)), or (Mf,) alone when odd is
        False: row i is the i-fold 5-point stencil at node (x, y), stored
        radii us.

        Radii on the same stored node (a radius within 1e-9 of a node but
        not bit-equal to it, asked beside the node) are swept once, and the
        columns are read back by index; the stencil is elementwise in the
        radius, so every column is the one a sweep of its own would give.
        The request is checked as a phantom's is (`ScalarField3D.laplacian_block`).
        """
        us, n = _checked_block_request(x, y, us, n)
        ip, iq = self._node_index(x, y, n)
        iu = self._radius_indices(us)
        asked = np.zeros(self.radial_nodes.size, dtype=bool)
        asked[iu] = True
        swept, back = np.flatnonzero(asked), np.cumsum(asked)[iu] - 1
        return tuple(
            _center_laplacians(values[ip - n : ip + n + 1, iq - n : iq + n + 1][:, :, swept], n, self.h)[:, back]
            for values in (self.mf_values, self.a01_values)[: 2 if odd else 1]
        )


def sample_moments(
    field: ScalarField3D,
    origin: tuple[float, float],
    h: float,
    n_p: int,
    n_q: int,
    radial_nodes,
    analytic: bool = True,
    rule: SphereRule | None = None,
) -> MomentGrid:
    """Fill a MomentGrid from a phantom, one centre at a time.

    With analytic=True each centre is one power-0 `laplacian_block` column
    (a field without a ladder is refused).  Otherwise both moments come from
    quadrature under `rule` (default `build_rule()`), which needs only
    `evaluate`: the node offsets a pass of the field evaluates are built
    once for every radius, each centre is one `evaluate` per block of at
    most _RADII_PER_PASS radii, which must return one value per node, and
    both moments of a block are one `forward._two_data`, whose `np.vecdot`
    sums each radius's row with the BLAS dot of a single sphere.  A block
    never spans two windows of rings (`forward._sphere_offsets`), so every
    sample is bit for bit `forward._sphere_moments` at its sphere; a
    block whose window is empty is +0.0 with no `evaluate`.  The lattice
    is checked before any sample is taken.
    """
    nodes = _check_lattice(origin, h, n_p, n_q, radial_nodes)
    if not analytic:
        rule = rule or build_rule()
        blocks = _sampling_blocks(field, rule, nodes)
    mf = np.empty((n_p, n_q, nodes.size))
    a01 = np.empty_like(mf)
    for ip in range(n_p):
        for iq in range(n_q):
            x, y = origin[0] + ip * h, origin[1] + iq * h
            if analytic:
                m, a = field.laplacian_block(x, y, nodes, 0)
                mf[ip, iq], a01[ip, iq] = m[0], a[0]
            else:
                for block, dX, dY, Z, window in blocks:
                    vals = _node_values(field, x + dX, y + dY, Z)
                    mf[ip, iq, block], a01[ip, iq, block] = _two_data(vals, rule, window)
    return MomentGrid(tuple(origin), h, n_p, n_q, nodes, mf, a01)


def _sampling_blocks(field, rule: SphereRule, nodes: Array) -> list:
    """(radii, dX, dY, Z, window) for each block of quadrature sampling:
    at most _RADII_PER_PASS consecutive radii that share the window of
    `forward._sphere_offsets`, with the offsets of their nodes stacked one
    row per radius and z repeated along each ring.  Every centre shares
    them, read-only, since each goes to `evaluate` as it is.  Ascending
    radii meet a support in runs of equal windows, and a block never spans
    two, so each row is summed as its own sphere is."""
    blocks, lo = [], 0
    passes = (_sphere_offsets(u, rule, field) for u in nodes.tolist())
    for window, run in groupby(passes, key=lambda offsets: offsets[3]):
        run = list(run)
        for part in (run[i : i + _RADII_PER_PASS] for i in range(0, len(run), _RADII_PER_PASS)):
            dX, dY, Z = (np.stack(arrays) for arrays in zip(*(offsets[:3] for offsets in part)))
            Z = np.repeat(Z, rule.n_phi, axis=-1)
            for arr in (dX, dY, Z):
                arr.setflags(write=False)
            blocks.append((slice(lo, lo + len(part)), dX, dY, Z, window))
            lo += len(part)
    return blocks


def _center_laplacians(block: Array, n: int, h: float) -> Array:
    """Lap^0..Lap^n at the centre of a (2n+1, 2n+1, ...) neighbourhood, one
    5-point sweep per power; trailing axes (radii) ride along.  The centre
    after sweep i depends only on its own (2i+1)^2 cells, so row i is the
    i-fold stencil on that smaller neighbourhood bit for bit."""
    out = np.empty((n + 1,) + block.shape[2:])
    out[0] = block[n, n]
    h2 = h * h
    for i in range(1, n + 1):
        block = (
            block[2:, 1:-1] + block[:-2, 1:-1] + block[1:-1, 2:] + block[1:-1, :-2]
            - 4.0 * block[1:-1, 1:-1]
        ) / h2
        out[i] = block[n - i, n - i]
    return out


# ----- file format -----
#
# # h=... Np=... Nq=... u0=... du=... Nu=...
# p,q,u,Mf,a01
# <rows, p outer, q middle, u inner>
#
# The sidecar pins the uniform radial ladder; only uniform ladders are
# representable in a file.  Node coordinates ride along in every row, so the
# origin needs no extra field, and the reader takes the radial nodes from the
# u column (exact at 17 digits) rather than rebuilding them from u0 and du.
# The reader rejects, naming the file line, a row that is not five finite
# numbers, a (p, q) off origin + h*index in the written order (within the
# 1e-9*h lattice tolerance of grid mode), and a block whose u column is not
# the first block's.


def _off_ladder(nodes: Array, u0: float, du: float) -> Array:
    """Where the finite radii miss the uniform ladder u0 + du*k by more than
    1e-12 * max(1, |u_last|) (a non-finite ladder misses everywhere): the
    writer's rule and the reader's, so every ladder the reader takes can be
    written."""
    ladder = u0 + du * np.arange(nodes.size)
    return ~(np.abs(nodes - ladder) <= 1e-12 * max(1.0, abs(nodes[-1])))


def write_moment_csv(grid: MomentGrid, path: str) -> None:
    nodes = grid.radial_nodes
    du = nodes[1] - nodes[0] if nodes.size > 1 else nodes[0]
    if _off_ladder(nodes, nodes[0], du).any():
        raise ValueError("only uniform radial ladders are representable in CSV")
    header = (
        f"# h={fmt(grid.h)} Np={grid.n_p} Nq={grid.n_q} "
        f"u0={fmt(nodes[0])} du={fmt(du)} Nu={nodes.size}\n"
        "p,q,u,Mf,a01\n"
    )
    # one (p, q, u, Mf, a01) row per sample, p outer, q middle, u inner; the
    # p and q columns are p_node/q_node's origin + index * h.  Each distinct
    # coordinate is formatted once and each row's "p,q,u," joined from them
    p, q, u = (
        [fmt(v) + "," for v in axis.tolist()]
        for axis in (
            grid.origin[0] + np.arange(grid.n_p) * grid.h,
            grid.origin[1] + np.arange(grid.n_q) * grid.h,
            nodes,
        )
    )
    pq = [a + b for a in p for b in q]
    moments = np.stack((grid.mf_values.ravel(), grid.a01_values.ravel()), axis=1)
    body = format_rows(moments, [a + b for a in pq for b in u])
    atomic_write(path, (header + body).encode())


def _sidecar(meta: dict, key: str) -> int | float:
    """Sidecar field `key`: a positive integer for the counts, else a float."""
    text = meta[key]
    if key in ("Np", "Nq", "Nu"):
        if not (text.isdecimal() and int(text) > 0):
            raise ValueError(f"moment CSV sidecar {key}={text!r} is not a positive integer")
        return int(text)
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"moment CSV sidecar {key}={text!r} is not a number") from None


def _parse_body(lines: list[str], linenos: list[int]) -> Array:
    """The data rows as a (rows, 5) array, parsed in one `np.loadtxt` call.

    A body that call refuses, or whose rows are not five wide, is read
    again line by line, cell by cell with `float`, to name the file line of
    the first row that is not five numbers.
    """
    why = None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == 5:
            return data
    except ValueError as exc:
        why = exc
    # a row of other than five fields always stops this loop
    for lineno, line in zip(linenos, lines):
        cells = line.split(",")
        try:
            if len(cells) != 5:
                raise ValueError(f"expected 5 fields p,q,u,Mf,a01, got {len(cells)}")
            for cell in cells:
                float(cell)
        except ValueError as exc:
            raise ValueError(f"moment CSV line {lineno}: {exc}") from None
    raise ValueError(f"moment CSV body: {why}")


def read_moment_csv(path: str) -> MomentGrid:
    meta: dict[str, str] = {}
    lines: list[str] = []
    linenos: list[int] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        meta[k] = v
                continue
            if line.startswith("p,"):
                continue
            lines.append(line)
            linenos.append(lineno)
    if not lines:
        raise ValueError("moment CSV has no data rows")
    data = _parse_body(lines, linenos)
    try:
        h, n_p, n_q, n_u, u0, du = (_sidecar(meta, key) for key in ("h", "Np", "Nq", "Nu", "u0", "du"))
    except KeyError as exc:
        raise ValueError(f"moment CSV missing sidecar field {exc}") from None
    if len(data) != n_p * n_q * n_u:
        raise ValueError(
            f"moment CSV row count {len(data)} != Np*Nq*Nu = {n_p * n_q * n_u}"
        )

    def reject(bad, why: str):
        hits = np.flatnonzero(bad)
        if hits.size:
            raise ValueError(f"moment CSV line {linenos[hits[0]]}: {why}")

    reject(~np.all(np.isfinite(data), axis=1), "non-finite value")
    nodes = data[:n_u, 2]
    grid = MomentGrid(
        (data[0, 0], data[0, 1]), h, n_p, n_q, nodes,
        data[:, 3].reshape(n_p, n_q, n_u), data[:, 4].reshape(n_p, n_q, n_u),
    )
    ip, iq, iu = np.unravel_index(np.arange(len(data)), (n_p, n_q, n_u))
    reject(
        (np.abs(data[:, 0] - grid.p_node(ip)) > 1e-9 * h)
        | (np.abs(data[:, 1] - grid.q_node(iq)) > 1e-9 * h),
        "p, q off the lattice origin + h*index in p-outer, q-middle order",
    )
    reject(data[:, 2] != nodes[iu], "u differs from the first block's u column")
    reject(_off_ladder(nodes, u0, du), "radial column disagrees with the sidecar ladder u0 + du*k")
    return grid
