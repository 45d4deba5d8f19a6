"""Sampled moment data on a detector grid.

A MomentGrid holds the two measured functions Mf(p,q,u) and a01(p,q,u) on a
uniform (p,q) lattice times a strictly increasing set of radii.  It is the
discrete form of the inverse problem's data: everything the reconstructor
needs in grid mode lives here, and nothing else does.

Center-Laplacians are taken by iterating the 5-point stencil, which costs i
cells of margin per application and is exact on fields quadratic in (p,q).
One sweep over a node's (2n+1)^2 neighbourhood yields every power 0..n;
the reconstructor's grid source is its one caller.
The file format is a CSV with a comment sidecar, lossless at 17 significant
digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import atomic_write, fmt
from .fields import ScalarField3D
from .quadrature import SphereRule

__all__ = [
    "MomentGrid",
    "sample_moments",
    "write_moment_csv",
    "read_moment_csv",
]

Array = np.ndarray


def _check_lattice(origin, h: float, n_p: int, n_q: int, radial_nodes) -> Array:
    """The radial nodes as a float array, once the sample lattice of a
    MomentGrid is valid: finite origin, positive finite h, at least one node
    per axis, and finite, positive, strictly increasing radii."""
    if not 0 < h < np.inf:
        raise ValueError("grid spacing h must be positive and finite")
    if not np.all(np.isfinite(origin)):
        raise ValueError(f"grid origin must be finite, got {origin}")
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

    Value arrays are indexed (ip, iq, iu) and frozen after construction.
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
        object.__setattr__(self, "radial_nodes", nodes)
        object.__setattr__(self, "mf_values", mf)
        object.__setattr__(self, "a01_values", a01)

    # node coordinates
    def p_node(self, ip: int) -> float:
        return self.origin[0] + ip * self.h

    def q_node(self, iq: int) -> float:
        return self.origin[1] + iq * self.h


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
    """Fill a MomentGrid from a phantom, one `laplacian_block` column of
    power 0 per centre.

    With analytic=True (and the field providing a ladder) samples are exact
    up to the ladder's own accuracy; otherwise the field is asked with its
    ladder stripped, so both moments come from one sphere pass under `rule`
    at every node.  The lattice is checked before any sample is taken.
    """
    nodes = _check_lattice(origin, h, n_p, n_q, radial_nodes)
    if not analytic:
        field = ScalarField3D(field.evaluate, field.descriptor)
    mf = np.empty((n_p, n_q, nodes.size))
    a01 = np.empty_like(mf)
    for ip in range(n_p):
        for iq in range(n_q):
            m, a = field.laplacian_block(origin[0] + ip * h, origin[1] + iq * h, nodes, 0, rule)
            mf[ip, iq], a01[ip, iq] = m[0], a[0]
    return MomentGrid(tuple(origin), h, n_p, n_q, nodes, mf, a01)


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


def write_moment_csv(grid: MomentGrid, path: str) -> None:
    nodes = grid.radial_nodes
    if nodes.size > 1:
        du = nodes[1] - nodes[0]
        if not np.allclose(np.diff(nodes), du, rtol=1e-12, atol=1e-15):
            raise ValueError("only uniform radial ladders are representable in CSV")
    else:
        du = nodes[0]
    lines = [
        f"# h={fmt(grid.h)} Np={grid.n_p} Nq={grid.n_q} "
        f"u0={fmt(nodes[0])} du={fmt(du)} Nu={nodes.size}",
        "p,q,u,Mf,a01",
    ]
    for ip in range(grid.n_p):
        p = grid.p_node(ip)
        for iq in range(grid.n_q):
            q = grid.q_node(iq)
            for iu, u in enumerate(nodes):
                lines.append(
                    f"{fmt(p)},{fmt(q)},{fmt(u)},"
                    f"{fmt(grid.mf_values[ip, iq, iu])},{fmt(grid.a01_values[ip, iq, iu])}"
                )
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_moment_csv(path: str) -> MomentGrid:
    meta: dict[str, str] = {}
    rows: list[tuple[float, ...]] = []
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
            cells = line.split(",")
            try:
                if len(cells) != 5:
                    raise ValueError(f"expected 5 fields p,q,u,Mf,a01, got {len(cells)}")
                rows.append(tuple(float(x) for x in cells))
            except ValueError as exc:
                raise ValueError(f"moment CSV line {lineno}: {exc}") from None
            linenos.append(lineno)
    try:
        h = float(meta["h"])
        n_p, n_q, n_u = int(meta["Np"]), int(meta["Nq"]), int(meta["Nu"])
        u0, du = float(meta["u0"]), float(meta["du"])
    except KeyError as exc:
        raise ValueError(f"moment CSV missing sidecar field {exc}") from None
    if not rows:
        raise ValueError("moment CSV has no data rows")
    if len(rows) != n_p * n_q * n_u:
        raise ValueError(
            f"moment CSV row count {len(rows)} != Np*Nq*Nu = {n_p * n_q * n_u}"
        )
    data = np.asarray(rows)

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
    # rows run p outer, q middle, u inner
    ip, iq, iu = np.unravel_index(np.arange(len(rows)), (n_p, n_q, n_u))
    reject(
        (np.abs(data[:, 0] - grid.p_node(ip)) > 1e-9 * h)
        | (np.abs(data[:, 1] - grid.q_node(iq)) > 1e-9 * h),
        "p, q off the lattice origin + h*index in p-outer, q-middle order",
    )
    reject(data[:, 2] != nodes[iu], "u differs from the first block's u column")
    # the stored u column must agree with the sidecar ladder
    ladder = u0 + du * np.arange(n_u)
    if not np.allclose(nodes, ladder, rtol=0, atol=1e-12 * max(1.0, abs(ladder[-1]))):
        raise ValueError("radial column disagrees with the sidecar ladder")
    return grid
