"""The four benchmark workloads.

Each workload is a closed loop with one client: `run()` is one repetition,
and the next repetition starts when the previous one has returned.  The seed
picks only the generated inputs (slice plane offset, grid origin offset,
the random polynomials of `run_all_checks`); the amount of work per
repetition is the same for every seed.  See README.md for why each one is
here and which layers it stresses.

Every workload has the same shape:

    setup()      build the coefficient table, the phantoms and every lazy
                 rule the repetitions use, so no repetition pays for them
    run()        one timed repetition; returns (payload, item_seconds), where
                 item_seconds is the time the workload's items took
    check(p)     raises CheckFailed unless the payload is correct; returns the
                 largest absolute error against the reference (or 0.0)
    items        work items per repetition (points, samples or reports)
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np

TABLE_ORDER = 8


class CheckFailed(Exception):
    """An output of the library disagreed with its reference."""


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def rsqz3_truth(x, y, z):
    """The worked example (x^2 + y^2) z^3 in closed form."""
    return (x * x + y * y) * z**3


def _y_slice_points(res):
    """x, y, z of every cell of a y-slice result."""
    X, Z = np.meshgrid(res.xs, res.others, indexing="ij")
    return X, np.full_like(X, res.spec.value), Z


class SlicePoly:
    """reconstruct_slice of rsqz3: two-data, order 8, y-slice, |z| >= 0.25."""

    name = "slice-poly"
    order = 8
    min_abs_z = 0.25
    tolerance = 1e-6  # order-8 rounding reads about 1e-10 here; 1.1e-3 <= |f| <= 0.28
    # one column of 17 nodes at x = 0; the rows z = 0, +-0.15 are in the
    # excluded band.  Every point costs the same, so the slice is kept
    # narrow: a repetition of about 35 ms often fits between the bursts of
    # other tenants on a shared host, and the fastest of a run's hundreds
    # of repetitions is then the program's own time (README.md, "Statistic").
    items = 14

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.y0 = 0.2 + 0.2 * float(_rng(seed, 1).random())
        self.spec = lib.SliceSpec("y", self.y0, (0.0, 0.0), (-1.2, 1.2), 0.15)

    def setup(self):
        lib = self.lib
        self.table = lib.build_tables(TABLE_ORDER)
        self.field = lib.make_phantom("rsqz3")
        for i in range(self.order + 1):
            self.field.analytic_laplacians(0.0, self.y0, 1.0, i)

    def run(self):
        t = time.perf_counter()
        res = self.lib.reconstruct_slice(
            self.spec, self.order, "two_data", self.field, self.table, min_abs_z=self.min_abs_z
        )
        return res, time.perf_counter() - t

    def check(self, res) -> float:
        X, Y, Z = _y_slice_points(res)
        band = np.abs(Z) < self.min_abs_z
        if not np.array_equal(np.isnan(res.values), band):
            raise CheckFailed("slice-poly: NaN cells differ from the excluded band |z| < min_abs_z")
        err = float(np.max(np.abs(res.values[~band] - rsqz3_truth(X, Y, Z)[~band])))
        if not err <= self.tolerance:
            raise CheckFailed(f"slice-poly: max error {err:.3e} > {self.tolerance:g}")
        return err


class SliceSmooth:
    """gauss slice (two-data, order 4) plus one bump point by mirror mode (order 8)."""

    name = "slice-smooth"
    gauss_order = 4
    bump_order = 8
    min_abs_z = 0.25
    # measured truncation error over seeds 1..10: gauss (order 4, |z| = 0.8)
    # 1.5e-7, bump (order 8, at its centre) 2.0e-3 .. 3.1e-3
    gauss_tolerance = 2e-6
    bump_tolerance = 1e-2
    items = 6 + 1  # 3 x 3 gauss nodes less the excluded row z = 0, one bump point

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.y0 = 0.05 + 0.1 * float(_rng(seed, 2).random())
        self.spec = lib.SliceSpec("y", self.y0, (-0.8, 0.8), (-0.8, 0.8), 0.8)
        self.bump_point = (0.0, self.y0, 1.5)

    def setup(self):
        lib = self.lib
        self.table = lib.build_tables(TABLE_ORDER)
        self.gauss = lib.make_phantom("gauss")
        self.bump = lib.make_phantom("bump")
        # first use builds the 64x160 and 256x64 moment rules and the
        # per-power Gaussian Laplacian terms
        for i in range(self.gauss_order + 1):
            self.gauss.analytic_laplacians(0.0, self.y0, 0.5, i)
        for i in range(self.bump_order + 1):
            self.bump.analytic_laplacians(0.0, self.y0, 0.5, i)
        self.bump_req = lib.ReconstructionRequest(
            points=(self.bump_point,), order_n=self.bump_order, mode="even_mirror", source=self.bump
        )

    def run(self):
        lib = self.lib
        t = time.perf_counter()
        res = lib.reconstruct_slice(
            self.spec, self.gauss_order, "two_data", self.gauss, self.table, min_abs_z=self.min_abs_z
        )
        bump = lib.mirror_even_reconstruct(self.bump, self.bump_req, self.table)
        return (res, bump), time.perf_counter() - t

    def check(self, payload) -> float:
        res, bump = payload
        X, Y, Z = _y_slice_points(res)
        band = np.abs(Z) < self.min_abs_z
        if not np.array_equal(np.isnan(res.values), band):
            raise CheckFailed("slice-smooth: NaN cells differ from the excluded band")
        g_err = float(np.max(np.abs(res.values[~band] - self.gauss.evaluate(X, Y, Z)[~band])))
        b_err = abs(float(bump.values[0]) - float(self.bump.evaluate(*self.bump_point)))
        if not g_err <= self.gauss_tolerance:
            raise CheckFailed(f"slice-smooth: gauss max error {g_err:.3e} > {self.gauss_tolerance:g}")
        if not b_err <= self.bump_tolerance:
            raise CheckFailed(f"slice-smooth: bump error {b_err:.3e} > {self.bump_tolerance:g}")
        return max(g_err, b_err)


class TrapezoidReference:
    """The grid scheme's own answer for a phantom with closed-form moments.

    A reconstruction source in the shape `reconstruct_point` accepts: the
    radial integral is the trapezoid rule on the sampled ladder with a
    virtual node at u = 0, exactly as grid mode integrates, but the moments
    and their Laplacians come from the phantom's closed-form callbacks, not
    from the read-back CSV and the 5-point stencil.  For rsqz3 the moments
    are quadratic in (p, q), where the stencil is exact, so grid mode must
    reproduce this answer up to rounding; the truncation error of the
    trapezoid rule, which is larger than the field itself at du = 0.1 and
    order 4, is the same on both sides and cancels.
    """

    def __init__(self, field, nodes):
        self.field = field
        self.nodes = np.asarray(nodes, dtype=float)

    def radial_scheme(self, x, y, t):
        j = int(np.argmin(np.abs(self.nodes - t)))
        if abs(self.nodes[j] - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"radius {t} is not on the sampled ladder")
        us = self.nodes[: j + 1]
        lower = np.concatenate(([0.0], us[:-1]))
        upper = np.concatenate((us[1:], us[-1:]))
        return us, (upper - lower) / 2.0

    def moments(self, x, y, t):
        return self.field.analytic_moments(x, y, t)

    def laplacians(self, x, y, us, i):
        pairs = [self.field.analytic_laplacians(x, y, float(u), i) for u in us]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


class GridPipeline:
    """In-process CLI: forward by quadrature to a CSV, then a grid-mode slice from it."""

    name = "grid-pipeline"
    h = 0.1
    n_pq = 13
    n_u = 16
    u_max = 1.6
    order = 4
    items = n_pq * n_pq * n_u  # (p, q, u) moment samples per repetition
    # |grid mode - TrapezoidReference| over seeds 0..39 reads at most 1.2e-10,
    # and the reference is at least 0.026 in magnitude at every node, so an
    # all-zeros or otherwise wrong slice fails
    tolerance = 1e-6

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        op, oq = (round(-0.65 + 0.1 * float(v), 6) for v in _rng(seed, 3).random(2))
        self.origin = (op, oq)
        self.nodes = (self.u_max / self.n_u) * np.arange(1, self.n_u + 1)
        self.csv = os.path.join(workdir, "moments.csv")
        self.slice_csv = os.path.join(workdir, "slice.csv")
        h = self.h
        self.forward_argv = [
            "forward", "--phantom", "rsqz3", "--origin", f"{op:.6f},{oq:.6f}",
            "--h", f"{h}", "--np", f"{self.n_pq}", "--nq", f"{self.n_pq}",
            "--umax", f"{self.u_max}", "--nu", f"{self.n_u}", "--out", self.csv,
        ]
        # 5 x 13 slice nodes, each with `order` rings of stencil margin
        self.reconstruct_argv = [
            "reconstruct", "--grid", self.csv, "--order", f"{self.order}",
            "--slice", f"y={oq + 6 * h:.12f}",
            "--xrange", f"{op + 4 * h:.12f},{op + 8 * h:.12f}",
            "--zrange", "0.3,1.5", "--step", f"{h}", "--min-abs-z", "0.25",
            "--out", self.slice_csv,
        ]
        # the slice nodes in the order the slice CSV lists them, x outer
        xs = op + h * np.arange(4, 9)
        zs = 0.3 + h * np.arange(13)
        self.points = tuple((float(x), oq + 6 * h, float(z)) for x in xs for z in zs)
        self.moments_digest = None
        self.expected = None

    def setup(self):
        lib = self.lib
        # the CLI builds its own table in every repetition; this one is the
        # set-up every workload pays, and the output check uses it
        self.table = lib.build_tables(TABLE_ORDER)
        self.field = lib.make_phantom("rsqz3")
        # first use builds the shared 24x48 sphere rule
        lib.spherical_mean(self.field, lib.SphereCenter(0.0, 0.0, 1.0))

    def run(self):
        cli = self.lib.cli
        t = time.perf_counter()
        rc_forward = cli.main(self.forward_argv)
        forward_s = time.perf_counter() - t
        rc_reconstruct = cli.main(self.reconstruct_argv)
        return (rc_forward, rc_reconstruct), forward_s

    def _check_round_trip(self):
        """The read-back grid against the same grid sampled through the API."""
        lib = self.lib
        ref = lib.sample_moments(
            self.field, self.origin, self.h, self.n_pq, self.n_pq, self.nodes, analytic=False
        )
        got = lib.read_moment_csv(self.csv)
        same = (
            got.origin == ref.origin
            and got.h == ref.h
            and (got.n_p, got.n_q) == (ref.n_p, ref.n_q)
            and got.mf_values.tobytes() == ref.mf_values.tobytes()
            and got.a01_values.tobytes() == ref.a01_values.tobytes()
        )
        if not same:
            raise CheckFailed("grid-pipeline: read-back moment samples differ from the sampled grid")
        # the reader rebuilds the ladder as u0 + du*k, which can differ from the
        # sampled du*(k+1) in the last bit; anything beyond one ulp is an error
        if not np.all(np.abs(got.radial_nodes - ref.radial_nodes) <= np.spacing(ref.radial_nodes)):
            raise CheckFailed("grid-pipeline: read-back radial ladder differs by more than one ulp")

    def _expected(self):
        req = self.lib.ReconstructionRequest(
            points=self.points, order_n=self.order, mode="two_data",
            source=TrapezoidReference(self.field, self.nodes), min_abs_z=0.25,
        )
        return np.asarray(self.lib.reconstruct_point(req, self.table).values)

    def check(self, payload) -> float:
        if payload != (0, 0):
            raise CheckFailed(f"grid-pipeline: CLI exit codes {payload}, expected (0, 0)")
        # the moment file of the first repetition is checked sample by sample;
        # every later one must be byte-identical to it
        with open(self.csv, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.moments_digest is None:
            self._check_round_trip()
            self.moments_digest = digest
        elif digest != self.moments_digest:
            raise CheckFailed("grid-pipeline: moment file differs from the first repetition's")
        rows = np.loadtxt(self.slice_csv, delimiter=",", comments="#", skiprows=2, ndmin=2)
        if rows.shape != (5 * 13, 4):
            raise CheckFailed(f"grid-pipeline: slice CSV has shape {rows.shape}, expected (65, 4)")
        x, y, z, f = rows.T
        if not np.allclose(rows[:, :3], self.points, rtol=0, atol=1e-9):
            raise CheckFailed("grid-pipeline: slice CSV lists other nodes than the requested slice")
        if self.expected is None:
            self.expected = self._expected()
        err = np.abs(f - self.expected)
        if not np.all(err <= self.tolerance):
            worst = int(np.argmax(err))
            raise CheckFailed(
                f"grid-pipeline: {f[worst]:.6g} at (x, z) = ({x[worst]:g}, {z[worst]:g}) "
                f"differs from the grid scheme's {self.expected[worst]:.6g} by more than {self.tolerance:g}"
            )
        return float(err.max())


class Verify:
    """run_all_checks at one fixed centre of the test lattice."""

    name = "verify"
    # one off-axis member of checks.TEST_LATTICE; every centre costs the same
    lattice = ((1.0, -1.0, 1.0),)
    # per centre: 9 representation targets x 4, lemma1 x 6, ODEs x 6 x 11
    items = len(lattice) * (9 * 4 + 6 + 6 * 11)

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed

    def setup(self):
        lib = self.lib
        self.table = lib.build_tables(TABLE_ORDER)
        # first use builds the shared sphere rule and the smooth phantoms'
        # moment rules; run_all_checks builds its own dense rules every call
        centre = lib.SphereCenter(0.0, 0.0, 1.0)
        lib.spherical_mean(lib.make_phantom("z"), centre)
        for name in ("gauss", "bump"):
            lib.make_phantom(name).analytic_moments(centre.p, centre.q, centre.t)

    def run(self):
        t = time.perf_counter()
        reports = self.lib.run_all_checks(
            table=self.table, fd_step=1e-3, seed=self.seed, lattice=self.lattice
        )
        return reports, time.perf_counter() - t

    def check(self, reports) -> float:
        if len(reports) != self.items:
            raise CheckFailed(f"verify: {len(reports)} reports, expected {self.items}")
        failed = [r for r in reports if not r.passed]
        if failed:
            r = failed[0]
            raise CheckFailed(
                f"verify: {len(failed)} reports failed, first {r.identity} at {r.point} "
                f"rel={r.rel_residual:.3e} tol={r.tolerance:g}"
            )
        return 0.0


WORKLOADS = {w.name: w for w in (SlicePoly, SliceSmooth, GridPipeline, Verify)}
