"""Series inversion: worked values, termination, invariants, grid mode."""

from __future__ import annotations

import numpy as np
import pytest

from sphradon.coeffs import build_tables
from sphradon.fields import make_phantom, polynomial_field
from sphradon.forward import SphereCenter, harmonic_coefficient
from sphradon.moments import sample_moments
from sphradon.reconstruct import (
    ReconstructionRequest,
    SliceSpec,
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
    # gauss's odd data is identically zero, so the two modes must agree exactly
    f = make_phantom("gauss")
    pts = ((0.3, -0.6, 0.7), (0.0, 0.0, 1.4), (1.0, 1.0, -0.5))
    a = _run(f, pts, 3, mode="two_data")
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


def test_mirror_on_plane_symmetric_phantom_warns_and_is_exact():
    f = make_phantom("zsq")
    req = ReconstructionRequest(
        points=((0.0, 0.0, 2.0),), order_n=2, mode="two_data", source=f
    )
    with pytest.warns(UserWarning, match="nonzero for z <= 0"):
        res = mirror_even_reconstruct(f, req, TABLE)
    assert res.values[0] == pytest.approx(4.0, abs=1e-10)


# ----- slices and files -----


def test_slice_layout_and_missing_values():
    spec = SliceSpec(axis="y", value=0.0, xrange=(0.0, 0.4), other_range=(-0.5, 0.5), step=0.5)
    res = reconstruct_slice(spec, 1, "two_data", make_phantom("zsq"), TABLE, min_abs_z=0.25)
    assert res.xs.tolist() == [0.0]
    assert res.others.tolist() == [-0.5, 0.0, 0.5]
    assert np.isnan(res.values[0, 1])
    assert res.values[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert res.values[0, 2] == pytest.approx(0.25, abs=1e-12)


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


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(axis="x", value=0, xrange=(0, 1), other_range=(0, 1), step=0.1)
    with pytest.raises(ValueError):
        SliceSpec(axis="y", value=0, xrange=(1, 0), other_range=(0, 1), step=0.1)
    with pytest.raises(ValueError):
        SliceSpec(axis="y", value=0, xrange=(0, 1), other_range=(0, 1), step=0.0)
