"""Series inversion: worked values, termination, invariants, grid mode."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sphradon import cli, reconstruct
from sphradon._io import fmt
from sphradon.coeffs import build_tables
from sphradon.fields import make_phantom, polynomial_field
from sphradon.forward import SphereCenter, harmonic_coefficient
from sphradon.moments import MomentGrid, read_moment_csv, sample_moments, write_moment_csv
from sphradon.quadrature import _gauss_legendre_on
from sphradon.reconstruct import (
    ReconstructionRequest,
    SliceSpec,
    _filter_coefficients,
    _filter_rows,
    _point_terms,
    mirror_even_reconstruct,
    reconstruct_point,
    reconstruct_slice,
    write_slice_csv,
    write_slice_pgm,
)

TABLE = build_tables(8)


def _run(field, points, n, mode="two_data", **kw):
    req = ReconstructionRequest(points=points, order_n=n, mode=mode, source=field, **kw)
    return reconstruct_point(req, TABLE)


# ----- worked examples -----


def test_zsq_at_pole():
    res = _run(make_phantom("zsq"), ((0.0, 0.0, 2.0),), 2)
    assert res.values[0] == pytest.approx(4.0, abs=1e-12)
    s0, s1, s2 = res.partial_sums[0]
    assert s0 == pytest.approx(4.0 / 3.0, abs=1e-13)
    assert s1 == pytest.approx(4.0, abs=1e-12)
    assert s2 == pytest.approx(4.0, abs=1e-12)
    assert res.last_increment[0] < 1e-12


def test_rsqz3_both_signs():
    res = _run(make_phantom("rsqz3"), ((1.0, 3.0, 1.0), (1.0, 3.0, -1.0)), 2)
    assert res.values[0] == pytest.approx(10.0, abs=1e-10)
    assert res.values[1] == pytest.approx(-10.0, abs=1e-10)


def test_polynomial_termination():
    rng = np.random.default_rng(20260816)
    for _ in range(3):
        poly = {}
        for _ in range(6):
            key = tuple(int(e) for e in rng.integers(0, 3, size=3))
            if sum(key) <= 5:
                poly[key] = int(rng.integers(-4, 5))
        poly[(1, 1, 3)] = 2  # keep degree 5 present
        f = polynomial_field({k: v for k, v in poly.items() if v}, name="rand5")
        pts = [(0.7, -0.4, 1.3), (-1.0, 0.2, -0.6), (0.0, 0.0, 2.0)]
        vals = {}
        for n in (2, 3, 4):
            vals[n] = _run(f, tuple(pts), n).values
        for a, b in zip(vals[2], vals[4]):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))
        for a, b in zip(vals[3], vals[4]):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))
        exact = float(
            sum(c * 0.7**i * (-0.4) ** j * 1.3**k for (i, j, k), c in poly.items() if c)
        )
        assert vals[4][0] == pytest.approx(exact, rel=1e-9, abs=1e-9)


# ----- invariants -----


def test_partial_sum_increments_match_harmonic_coefficients():
    # the default radial rule is sized for polynomials; the Gaussian needs
    # a denser one to push the increment error below the 1e-8 budget
    f = make_phantom("gauss")
    x, y, z = 0.3, -0.2, 0.9
    res = _run(f, ((x, y, z),), 3, radial_rule=40)
    sums = res.partial_sums[0]
    c = SphereCenter(x, y, z)
    for k in (1, 2, 3):
        inc = sums[k] - sums[k - 1]
        want = harmonic_coefficient(f, c, 2 * k) + harmonic_coefficient(f, c, 2 * k + 1)
        assert inc == pytest.approx(want, abs=1e-8)


def test_even_phantom_is_even_in_z():
    f = make_phantom("gauss")
    up = _run(f, ((0.4, 0.1, 0.8),), 3).values[0]
    dn = _run(f, ((0.4, 0.1, -0.8),), 3).values[0]
    assert up == pytest.approx(dn, rel=1e-12)


def test_odd_phantom_flips_sign():
    f = make_phantom("rsqz3")
    up = _run(f, ((0.5, 0.2, 1.1),), 2).values[0]
    dn = _run(f, ((0.5, 0.2, -1.1),), 2).values[0]
    assert up == pytest.approx(-dn, rel=1e-12)


def test_mode_equivalence_bit_for_bit_on_even_phantom():
    # gauss's odd data is identically zero, so the two modes must agree
    # exactly; even-mirror warns that gauss is not a half-space phantom and
    # uses its moments unscaled.  The narrow gauss at x = 0.3125 lies between
    # the points of any probe lattice of spacing 0.625 or 0.5; its declared
    # z_support, not a sample, keeps it from being doubled
    cases = (
        (make_phantom("gauss"), ((0.3, -0.6, 0.7), (0.0, 0.0, 1.4), (1.0, 1.0, -0.5))),
        (make_phantom("gauss", cx=0.3125, sx=0.005, sy=0.005), ((0.5, 0.0, 0.5),)),
    )
    for f, pts in cases:
        a = _run(f, pts, 3, mode="two_data")
        with pytest.warns(UserWarning, match="nonzero for z <= 0"):
            b = _run(f, pts, 3, mode="even_mirror")
        assert a.values == b.values
        assert a.partial_sums == b.partial_sums


# ----- points (x, y, +-z) share one reconstruction -----


def _rsqz3_grid():
    # rsqz3's odd data are non-zero, so the two signs of z differ
    nodes = 0.1 * np.arange(1, 13)
    return sample_moments(make_phantom("rsqz3"), (-0.4, -0.4), 0.1, 9, 9, nodes)


@pytest.mark.parametrize(
    "source, point",
    [
        (make_phantom("rsqz3"), (0.3, -0.2, 0.9)),
        (make_phantom("gauss"), (0.3, -0.2, 0.9)),
        (_rsqz3_grid(), (0.1, 0.0, 0.8)),
    ],
    ids=["rsqz3", "gauss", "grid"],
)
def test_mirrored_points_equal_separate_requests(source, point):
    x, y, z = point
    both = _run(source, ((x, y, z), (x, y, -z)), 3)
    up = _run(source, ((x, y, z),), 3)
    down = _run(source, ((x, y, -z),), 3)
    assert both.values == up.values + down.values
    assert both.partial_sums == up.partial_sums + down.partial_sums
    assert both.last_increment == up.last_increment + down.last_increment


# ----- the term table against one dot product per (order, power) -----


def _reference_partial_sums(source, point, n):
    """S_0..S_n at one point, each filtered integral by its own np.dot, and
    the sum of |terms| that enter each S_k."""
    x, y, z = point
    t = abs(z)
    if isinstance(source, MomentGrid):
        us, ws = source.radial_scheme(x, y, t)
    else:
        gx, gw = np.polynomial.legendre.leggauss(max(8, n + 4))
        us, ws = 0.5 * t * (gx + 1.0), 0.5 * t * gw
    block = source.laplacian_block(x, y, np.append(us, t), n)
    v2 = (us / t) ** 2
    terms, sums, bounds = [], [], []
    for k in range(n + 1):
        for lap, stored, sign, weight in (
            (block[0], TABLE.c_even, 1.0, 4 * k + 1),
            (block[1], TABLE.c_odd, math.copysign(1.0, z), (4 * k + 3) / 3.0),
        ):
            terms.append(sign * weight * float(lap[0, -1]))
            for i in range(k + 1 if k else 0):
                filt = np.zeros_like(us)
                for m in range(1, 2 * n + 1):
                    if (k, i, m) in stored:
                        filt = filt + float(stored[(k, i, m)]) * v2**m
                if stored is TABLE.c_odd:
                    filt = filt * (us / t)
                terms.append(sign * t ** (2 * i - 1) * float(np.dot(ws, filt * lap[i, :-1])))
        sums.append(math.fsum(terms))
        bounds.append(math.fsum(map(abs, terms)))
    return sums, bounds


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize(
    "source, points",
    [
        (make_phantom("rsqz3"), ((0.3, -0.2, 0.9), (1.1, 0.4, -1.3), (-0.7, 0.0, 0.25))),
        (
            sample_moments(make_phantom("rsqz3"), (-1.0, -1.0), 0.1, 21, 21, 0.05 * np.arange(1, 41)),
            ((0.0, 0.0, 1.0), (0.1, -0.2, -0.45), (-0.2, 0.1, 1.95)),
        ),
    ],
    ids=["phantom", "grid"],
)
def test_partial_sums_equal_one_dot_per_order_and_power(source, points, n):
    res = _run(source, points, n)
    for point, sums in zip(points, res.partial_sums):
        want, bounds = _reference_partial_sums(source, point, n)
        for got, ref, bound in zip(sums, want, bounds):
            assert abs(got - ref) <= 8 * np.finfo(float).eps * bound


def _per_call_filters(table, order_n):
    """The dense filter array as every call once rebuilt it from the table."""
    coef = np.zeros((2, order_n + 1, order_n + 1, 2 * order_n + 1))
    for parity, stored in enumerate((table.c_even, table.c_odd)):
        for (k, i, m), c in stored.items():
            if k <= order_n:
                coef[parity, k, i, m] = float(c)
    return coef


@pytest.mark.parametrize("n", [0, 4, 8])
def test_filter_array_is_converted_once_per_table(n):
    got = _filter_coefficients(TABLE, n)
    want = _per_call_filters(TABLE, n)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    assert got.base is _filter_coefficients(TABLE, 2).base is TABLE.c_dense


# ----- filter rows: once per column, on its distinct ratios -----


def _point_operands(n=8, x=0.3, y=-0.2, t=0.9):
    """`_point_terms`' operands at one rsqz3 point: its block, its filter
    rows (by Horner's rule in (u/t)^2), its weights, t and the order."""
    us, ws = _gauss_legendre_on(t, max(8, n + 4))
    lap = np.array(make_phantom("rsqz3").laplacian_block(x, y, np.append(us, t), n))
    filt = np.polynomial.polynomial.polyval((us / t) ** 2, np.moveaxis(_filter_coefficients(TABLE, n), -1, 0))
    filt[1:] *= us / t
    return lap, filt, ws, t, n


def _layouts(a):
    """`a` C-ordered, Fortran-ordered, as a view with a step of 2 in its last
    axis, and with its last axis outermost in memory (what gathering the
    columns of a C-ordered array gives)."""
    spaced = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    spaced[..., ::2] = a
    last_outer = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
    return {
        "C": np.ascontiguousarray(a),
        "F": np.asfortranarray(a),
        "step-2": spaced[..., ::2],
        "last-outer": last_outer,
    }


def test_point_terms_do_not_depend_on_the_operands_memory_layout():
    lap, filt, ws, t, n = _point_operands()
    want = _point_terms(lap, filt, ws, t, n).tobytes()
    for (fname, f), (lname, lp) in itertools.product(_layouts(filt).items(), _layouts(lap).items()):
        assert f.tobytes(order="C") == filt.tobytes() and lp.tobytes(order="C") == lap.tobytes()
        assert _point_terms(lp, f, ws, t, n).tobytes() == want, (fname, lname)


def _counted_filter_rows(monkeypatch):
    calls = []

    def counted(filters, ratios):
        calls.append(np.array(ratios))
        return filter_rows(filters, ratios)

    filter_rows = reconstruct._filter_rows
    monkeypatch.setattr(reconstruct, "_filter_rows", counted)
    return calls


def _assert_sorted_distinct(ratios, want):
    assert ratios.ndim == 1 and np.all(ratios[1:] > ratios[:-1])
    assert ratios.tolist() == sorted(set(want))


def test_a_phantom_column_forms_its_filter_rows_once_on_its_distinct_ratios(monkeypatch):
    # rsqz3 at order 8 on one column of 14 points, 7 |z| keys (+z and -z
    # of the symmetric range are one key): 7 x 12 ratio rows, 18 distinct
    calls = _counted_filter_rows(monkeypatch)
    spec = SliceSpec("y", 0.3, (0.0, 0.0), (-1.2, 1.2), 0.15)
    res = reconstruct_slice(spec, 8, "two_data", make_phantom("rsqz3"), TABLE, min_abs_z=0.25)
    ts = set(np.abs(res.others[np.abs(res.others) >= 0.25]).tolist())
    assert len(ts) == 7 and len(calls) == 1 and calls[0].size == 18
    _assert_sorted_distinct(calls[0], [r for t in ts for r in (_gauss_legendre_on(t, 12)[0] / t).tolist()])


def test_a_grid_column_forms_its_filter_rows_once_for_every_prefix_length(monkeypatch):
    # |z| from 0.3 to 1.5 reads 13 prefix lengths of the stored ladder
    nodes = 0.1 * np.arange(1, 17)
    grid = sample_moments(make_phantom("rsqz3"), (-0.6, -0.6), 0.1, 13, 13, nodes)
    calls = _counted_filter_rows(monkeypatch)
    spec = SliceSpec("y", 0.0, (0.0, 0.0), (-1.5, 1.5), 0.1)
    res = reconstruct_slice(spec, 4, "two_data", grid, TABLE, min_abs_z=0.25)
    ts = set(np.abs(res.others[np.abs(res.others) >= 0.25]).tolist())
    prefixes = {t: grid.radial_scheme(0.0, 0.0, t)[0] for t in ts}
    assert len({us.size for us in prefixes.values()}) == 13 and len(calls) == 1
    _assert_sorted_distinct(calls[0], [r for t, us in prefixes.items() for r in (us / t).tolist()])


# ----- grid mode -----


def _zsq_grid(du=0.05, h=0.1, half=4):
    n = 2 * half + 1
    nodes = du * np.arange(1, int(round(2.0 / du)) + 1)
    return sample_moments(make_phantom("zsq"), (-half * h, -half * h), h, n, n, nodes)


def test_grid_mode_matches_analytic_closely():
    # trapezoid ladder converges at second order: du -> du/4 gains ~16x
    grid = _zsq_grid(du=0.01)
    got = _run(grid, ((0.0, 0.0, 2.0),), 2).values[0]
    assert got == pytest.approx(4.0, abs=5e-3)
    fine = _zsq_grid(du=0.0025)
    got_fine = _run(fine, ((0.0, 0.0, 2.0),), 2).values[0]
    assert abs(got_fine - 4.0) < abs(got - 4.0) / 10.0


def test_grid_mode_reads_a_csv_ladder_that_starts_at_half_du(tmp_path):
    # any increasing positive ladder integrates: the trapezoid rule runs from
    # a virtual node at u = 0 through the stored radii up to |z|; on zsq at
    # du = 0.05 the ladder 0.05 k misses z^2 by 0.051 at z = 1 and z = 2
    nodes = 0.025 + 0.05 * np.arange(40)
    grid = sample_moments(make_phantom("zsq"), (-0.4, -0.4), 0.1, 9, 9, nodes)
    path = str(tmp_path / "half_du.csv")
    write_moment_csv(grid, path)
    read = read_moment_csv(path)
    assert read.radial_nodes.tolist() == nodes.tolist()
    points = ((0.0, 0.0, nodes[19]), (0.1, -0.1, -nodes[-1]))
    got = _run(read, points, 2)
    assert got == _run(grid, points, 2)
    for (_, _, z), value in zip(points, got.values):
        assert value == pytest.approx(z * z, abs=0.06)


def test_grid_mode_locality():
    grid = _zsq_grid(du=0.05)
    target = (0.1, -0.1, 1.0)
    base = _run(grid, (target,), 2).values[0]
    # perturb radii beyond |z| and lattice nodes beyond the stencil reach
    mf = np.array(grid.mf_values)
    a01 = np.array(grid.a01_values)
    ju = int(np.argmin(np.abs(grid.radial_nodes - 1.0)))
    mf[:, :, ju + 1 :] += 17.0
    a01[:, :, ju + 1 :] -= 5.0
    ip = round((target[0] - grid.origin[0]) / grid.h)
    iq = round((target[1] - grid.origin[1]) / grid.h)
    mf[: ip - 2, :, :] += 3.0
    mf[ip + 3 :, :, :] += 3.0
    mf[:, : iq - 2, :] -= 2.0
    mf[:, iq + 3 :, :] -= 2.0
    from sphradon.moments import MomentGrid

    pert = MomentGrid(grid.origin, grid.h, grid.n_p, grid.n_q, np.array(grid.radial_nodes), mf, a01)
    assert _run(pert, (target,), 2).values[0] == base


def test_grid_mode_errors():
    grid = _zsq_grid(du=0.25, half=2)
    with pytest.raises(ValueError, match="lattice"):
        _run(grid, ((0.03, 0.0, 1.0),), 1)
    with pytest.raises(ValueError, match="radial ladder"):
        _run(grid, ((0.0, 0.0, 1.07),), 1)
    with pytest.raises(ValueError, match="insufficient margin"):
        _run(grid, ((0.2, 0.0, 1.0),), 3)
    with pytest.raises(ValueError, match="insufficient margin"):
        _run(grid, ((0.0, 0.0, 1.0),), 5)


def test_a_request_with_several_bad_points_names_the_first_in_column_order():
    grid = _zsq_grid(du=0.25, half=2)  # 5 x 5 nodes, h = 0.1: x = 0.2 has no margin
    # every point is held to min_abs_z, in request order, before any data
    # is read
    with pytest.raises(ValueError, match="on-plane"):
        _run(grid, ((0.03, 0.0, 1.0), (0.0, 0.0, 1e-5)), 1)
    # columns are read in the order of their first points: column x = 0
    # reads its off-ladder radius before column x = 0.2 asks its block
    with pytest.raises(ValueError, match="radius 1.07 is not on the stored radial ladder"):
        _run(grid, ((0.0, 0.0, 1.0), (0.2, 0.0, 1.0), (0.0, 0.0, 1.07)), 1)
    with pytest.raises(ValueError, match="insufficient margin"):
        _run(grid, ((0.2, 0.0, 1.0), (0.0, 0.0, 1.07)), 1)
    # a column reads every radial scheme before its one block
    with pytest.raises(ValueError, match="radius 1.07 is not on the stored radial ladder"):
        _run(grid, ((0.2, 0.0, 1.0), (0.2, 0.0, 1.07)), 1)


# ----- request validation -----


def test_request_validation():
    f = make_phantom("zsq")
    with pytest.raises(ValueError, match="on-plane"):
        _run(f, ((0.0, 0.0, 1e-5),), 1)
    with pytest.raises(ValueError, match="order"):
        _run(f, ((0.0, 0.0, 1.0),), 9)
    with pytest.raises(ValueError, match="mode"):
        ReconstructionRequest(points=((0, 0, 1),), order_n=1, mode="magic", source=f)
    with pytest.raises(ValueError):
        ReconstructionRequest(points=(), order_n=1, mode="two_data", source=f)
    with pytest.raises(ValueError):
        ReconstructionRequest(points=((0, 0, 1),), order_n=1, mode="two_data", source=f, min_abs_z=0.0)
    with pytest.raises(ValueError):
        ReconstructionRequest(points=((0, 0, 1),), order_n=1, mode="two_data", source=f, radial_rule=0)
    base = dict(points=((0.0, 0.0, 1.0),), order_n=1, mode="two_data", source=f, radial_rule=9)
    for order in (True, False):
        with pytest.raises(ValueError, match=re.escape(f"order_n must be an integer >= 0, got {order!r}")):
            ReconstructionRequest(**{**base, "order_n": order})
    for key in ("order_n", "radial_rule"):
        with pytest.raises(ValueError, match=re.escape(f"{key} must be a") + ".* integer.*2.5"):
            ReconstructionRequest(**{**base, key: 2.5})
    # numpy integers are accepted and read as the python ones
    want = reconstruct_point(ReconstructionRequest(**base), TABLE).values
    req = ReconstructionRequest(**{**base, "order_n": np.int64(1), "radial_rule": np.int32(9)})
    assert reconstruct_point(req, TABLE).values == want
    with pytest.raises(TypeError):
        reconstruct_point(
            ReconstructionRequest(points=((0, 0, 1),), order_n=1, mode="two_data", source=42),
            TABLE,
        )


# ----- mirror -----


def test_mirror_on_half_space_bump_is_silent():
    import warnings

    f = make_phantom("bump")
    req = ReconstructionRequest(
        points=((0.0, 0.0, 1.5),), order_n=2, mode="even_mirror", source=f
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = mirror_even_reconstruct(f, req, TABLE)
    assert np.isfinite(res.values[0])


def test_mirror_scale_reads_the_declared_support_and_samples_nothing():
    # the scale comes from z_support alone: the same ladder declared
    # unbounded is warned about and gives exactly half the bump's values
    import warnings

    def evaluate(x, y, z):
        raise AssertionError("even-mirror mode sampled the field")

    bump = make_phantom("bump")
    pts = ((0.0, 0.2, 1.5), (0.3, 0.0, 1.0))
    declared = replace(bump, evaluate=evaluate)
    undeclared = replace(declared, z_support=(-math.inf, math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _run(bump, pts, 4, mode="even_mirror")
        got = _run(declared, pts, 4, mode="even_mirror")
    assert got.partial_sums == want.partial_sums
    with pytest.warns(UserWarning, match=r"nonzero for z <= 0 \(z_support \(-inf, inf\)\)"):
        half = _run(undeclared, pts, 4, mode="even_mirror")
    assert tuple(2.0 * v for v in half.values) == want.values


def test_mirror_on_plane_symmetric_phantom_warns_and_is_exact():
    f = make_phantom("zsq")
    req = ReconstructionRequest(
        points=((0.0, 0.0, 2.0),), order_n=2, mode="two_data", source=f
    )
    with pytest.warns(UserWarning, match="nonzero for z <= 0"):
        res = mirror_even_reconstruct(f, req, TABLE)
    assert res.values[0] == pytest.approx(4.0, abs=1e-10)


def test_mirror_probes_below_the_requested_points():
    # gauss(cx=8) is even in z and nonzero below the plane, far from the
    # origin, where a probe box fixed about the origin would miss it and
    # double its mean data (1.41330 for f = 0.70665); probed where the
    # spheres of the request reach, it is warned about and used as-is
    f = make_phantom("gauss", cx=8.0)
    req = ReconstructionRequest(points=((8.0, 0.0, 0.5),), order_n=4, mode="even_mirror", source=f)
    with pytest.warns(UserWarning, match="nonzero for z <= 0"):
        res = reconstruct_point(req, TABLE)
    assert res.values[0] == pytest.approx(f.evaluate(8.0, 0.0, 0.5), abs=1e-6)


def test_mirror_probe_is_no_coarser_on_a_wide_slice():
    # a narrow gauss (sx = 0.1) at cx = 1.5 inside the fixed box: a 9-point
    # lattice across a slice x in [-10, 10] puts no probe within 1.1 of cx
    # and doubles its mean data, the fixed box alone has one at x = 1.25;
    # the probe must warn wherever the fixed box does, however wide the slice
    f = make_phantom("gauss", cx=1.5, sx=0.1, sy=0.1)
    pts = ((-10.0, 0.0, 0.5), (1.5, 0.0, 0.5), (10.0, 0.0, 0.5))
    alone = ReconstructionRequest(points=pts[1:2], order_n=4, mode="even_mirror", source=f)
    wide = replace(alone, points=pts)
    with pytest.warns(UserWarning, match="nonzero for z <= 0"):
        expected = reconstruct_point(alone, TABLE).values[0]
    with pytest.warns(UserWarning, match="nonzero for z <= 0"):
        res = reconstruct_point(wide, TABLE)
    assert res.values[1] == expected


def test_even_mirror_is_one_path_for_slice_cli_and_mirror(tmp_path):
    # the bump vanishes on z <= 0, so every entry point doubles its mean
    # data; the slice and the CLI's CSV (17 digits, lossless) must equal
    # mirror_even_reconstruct bit for bit
    f, n = make_phantom("bump"), 4
    spec = SliceSpec("y", 0.0, (0.0, 0.0), (-1.5, 1.5), 0.5)
    res = reconstruct_slice(spec, n, "even_mirror", f, TABLE, min_abs_z=0.2)
    band = np.abs(res.others) < 0.2
    points = tuple((0.0, 0.0, float(z)) for z in res.others[~band])
    req = ReconstructionRequest(points=points, order_n=n, mode="two_data", source=f)
    want = mirror_even_reconstruct(f, req, TABLE)
    assert tuple(res.values[0, ~band]) == want.values
    assert tuple(res.last_increment[0, ~band]) == want.last_increment
    assert want.values[points.index((0.0, 0.0, 1.5))] == pytest.approx(1.0, abs=0.1)

    out = tmp_path / "m.csv"
    argv = [
        "reconstruct", "--phantom", "bump", "--order", str(n), "--mode", "even-mirror",
        "--slice", "y=0", "--xrange", "0,0", "--zrange", "-1.5,1.5", "--step", "0.5",
        "--min-abs-z", "0.2", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    assert tuple(rows[~band, 3]) == want.values


# ----- slices and files -----


def test_slice_layout_and_missing_values():
    spec = SliceSpec(axis="y", value=0.0, xrange=(0.0, 0.4), other_range=(-0.5, 0.5), step=0.5)
    res = reconstruct_slice(spec, 1, "two_data", make_phantom("zsq"), TABLE, min_abs_z=0.25)
    assert res.xs.tolist() == [0.0]
    assert res.others.tolist() == [-0.5, 0.0, 0.5]
    assert np.isnan(res.values[0, 1])
    assert res.values[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert res.values[0, 2] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("lo, step", [(2.0, 0.1), (3.0, 0.1), (0.7, 0.1), (1.5, 0.1), (0.4, 0.1), (1.0, 0.5)])
def test_a_symmetric_axis_is_its_own_negated_reverse(lo, step):
    nodes = reconstruct._axis_nodes(-lo, lo, step)
    assert nodes[0] == -lo and nodes[-1] == lo
    assert nodes.tolist() == (-nodes[::-1]).tolist()
    assert len(nodes) == round(2 * lo / step) + 1


def test_rsqz3_on_a_symmetric_slice_is_odd_in_z_bit_for_bit():
    # rsqz3 is odd in z; z and -z on a symmetric slice are one |z|, so the
    # two halves of the slice are exact negatives of each other
    spec = SliceSpec("y", 0.3, (-0.5, 0.5), (-2.0, 2.0), 0.1)
    res = reconstruct_slice(spec, 8, "two_data", make_phantom("rsqz3"), TABLE, min_abs_z=0.25)
    up, down = res.values, -res.values[:, ::-1]
    kept = ~np.isnan(up)
    assert kept.sum() == 11 * 36 and (kept == ~np.isnan(down)).all()
    assert up[kept].tobytes() == down[kept].tobytes()
    assert res.others.tolist() == (-res.others[::-1]).tolist()


def test_slice_keeps_last_increment():
    spec = SliceSpec(axis="y", value=0.2, xrange=(-0.5, 0.5), other_range=(-0.6, 0.6), step=0.3)
    f = make_phantom("gauss")
    res = reconstruct_slice(spec, 3, "two_data", f, TABLE, min_abs_z=0.25)
    assert res.last_increment.shape == res.values.shape
    assert np.array_equal(np.isnan(res.last_increment), np.isnan(res.values))
    assert np.isnan(res.values).sum() == res.xs.size  # the z = 0 column
    for ix, x in enumerate(res.xs):
        for io, z in enumerate(res.others):
            if abs(z) < 0.25:
                continue
            one = _run(f, ((float(x), 0.2, float(z)),), 3)
            assert res.values[ix, io] == one.values[0]
            assert res.last_increment[ix, io] == one.last_increment[0]


def test_slice_z_plane():
    spec = SliceSpec(axis="z", value=1.0, xrange=(-0.2, 0.2), other_range=(0.0, 0.2), step=0.2)
    res = reconstruct_slice(spec, 2, "two_data", make_phantom("rsqz3"), TABLE)
    for ix, x in enumerate(res.xs):
        for io, y in enumerate(res.others):
            assert res.values[ix, io] == pytest.approx((x * x + y * y), abs=1e-10)


def test_slice_csv_and_pgm(tmp_path):
    spec = SliceSpec(axis="y", value=0.5, xrange=(0.0, 0.2), other_range=(-0.4, 0.4), step=0.2)
    res = reconstruct_slice(spec, 1, "two_data", make_phantom("zsq"), TABLE, min_abs_z=0.3)
    csv = tmp_path / "slice.csv"
    write_slice_csv(res, str(csv))
    lines = csv.read_text().splitlines()
    assert lines[0] == "# order=1 mode=two-data"
    assert lines[1] == "x,y,z,f_rec"
    assert len(lines) == 2 + res.xs.size * res.others.size
    assert lines[2].split(",")[1] == "0.5"
    # z runs over {-0.4,-0.2,0,0.2,0.4}; the inner three violate min_abs_z=0.3
    nan_rows = [ln for ln in lines[2:] if ln.endswith("nan")]
    assert len(nan_rows) == 3 * res.xs.size

    pgm = tmp_path / "slice.pgm"
    write_slice_pgm(res, str(pgm))
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5\n# linear min-max scaling")
    header, _, rest = blob.partition(b"255\n")
    dims = header.decode().splitlines()[2].split()
    assert [int(dims[0]), int(dims[1])] == [res.xs.size, res.others.size]
    assert len(rest) == res.xs.size * res.others.size


def _per_cell_csv(result) -> bytes:
    lines = [f"# order={result.order_n} mode={result.mode.replace('_', '-')}", "x,y,z,f_rec"]
    for ix, x in enumerate(result.xs):
        for io, o in enumerate(result.others):
            y, z = (result.spec.value, o) if result.spec.axis == "y" else (o, result.spec.value)
            lines.append(",".join(fmt(v) for v in (x, y, z, result.values[ix, io])))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "spec",
    [
        SliceSpec("y", 0.3, (-0.5, 0.5), (-0.6, 0.6), 0.15),
        SliceSpec("z", -0.7, (-0.5, 0.5), (-0.45, 0.45), 0.15),
    ],
    ids=["y", "z"],
)
def test_slice_csv_bytes_equal_the_per_cell_format(tmp_path, spec):
    res = reconstruct_slice(spec, 4, "two_data", make_phantom("rsqz3"), TABLE, min_abs_z=0.2)
    values = res.values.copy()
    values[0, -1] = -0.0
    res = replace(res, values=values)
    if spec.axis == "y":
        assert np.isnan(res.values).any()  # the band |z| < min_abs_z
    path = tmp_path / "slice.csv"
    write_slice_csv(res, str(path))
    assert path.read_bytes() == _per_cell_csv(res)
    assert b",-0\n" in path.read_bytes()


@pytest.mark.parametrize(
    "kw",
    [
        {"points": ((0.0, float("nan"), 1.0),)},
        {"points": ((0.0, 0.0, float("inf")),)},
        {"min_abs_z": float("nan")},
        {"min_abs_z": float("inf")},
    ],
    ids=["nan-point", "inf-point", "nan-min-abs-z", "inf-min-abs-z"],
)
def test_request_rejects_non_finite_geometry(kw):
    args = {"points": ((0.0, 0.0, 1.0),), "order_n": 1, "mode": "two_data", "source": make_phantom("zsq")}
    name = next(iter(kw))
    with pytest.raises(ValueError, match=name):
        ReconstructionRequest(**{**args, **kw})


@pytest.mark.parametrize("point", [(0.0, 1.0), (0.0, 0.0, 1.0, 2.0)], ids=["two", "four"])
def test_request_rejects_a_point_without_three_coordinates(point):
    # refused by name when the request is built, not by an unpacking error
    # inside reconstruct_point
    with pytest.raises(ValueError, match=re.escape(f"three coordinates (x, y, z), got {point}")):
        ReconstructionRequest(
            points=((0.0, 0.0, 1.0), point), order_n=1, mode="two_data", source=make_phantom("zsq")
        )


@pytest.mark.parametrize(
    "kw",
    [
        {"value": float("nan")},
        {"xrange": (float("nan"), 1.0)},
        {"other_range": (0.0, float("inf"))},
        {"step": float("nan")},
        {"step": float("inf")},
    ],
    ids=["value", "xrange", "other_range", "nan-step", "inf-step"],
)
def test_slice_spec_rejects_non_finite_geometry(kw):
    args = {"axis": "y", "value": 0.0, "xrange": (0.0, 1.0), "other_range": (0.5, 1.0), "step": 0.5}
    name = next(iter(kw))
    with pytest.raises(ValueError, match=name):
        SliceSpec(**{**args, **kw})


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0], ids=["inf", "nan", "zero"])
def test_slice_rejects_bad_min_abs_z_before_filtering(bad):
    # min_abs_z = inf puts every point in the excluded band, so no request
    # is ever built to reject it; the slice must not come back all NaN
    spec = SliceSpec("y", 0.0, (-0.2, 0.2), (-0.4, 0.4), 0.2)
    with pytest.raises(ValueError, match="min_abs_z must be positive and finite"):
        reconstruct_slice(spec, 1, "two_data", make_phantom("zsq"), TABLE, min_abs_z=bad)


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(axis="x", value=0, xrange=(0, 1), other_range=(0, 1), step=0.1)
    with pytest.raises(ValueError):
        SliceSpec(axis="y", value=0, xrange=(1, 0), other_range=(0, 1), step=0.1)
    with pytest.raises(ValueError):
        SliceSpec(axis="y", value=0, xrange=(0, 1), other_range=(0, 1), step=0.0)
