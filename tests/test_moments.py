"""Moment grids: sampling, stencils, CSV round trips."""

from __future__ import annotations

import inspect
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphradon._io import fmt
from sphradon.coeffs import build_tables
from sphradon.fields import ScalarField3D, make_phantom
from sphradon.forward import SphereCenter, _sphere_moments, first_cosine_coefficient, spherical_mean
from sphradon.moments import (
    MomentGrid,
    read_moment_csv,
    sample_moments,
    write_moment_csv,
)
from sphradon.quadrature import build_rule
from sphradon.reconstruct import SliceSpec, reconstruct_slice


def _ladder(du: float, n: int) -> np.ndarray:
    return du * np.arange(1, n + 1)


def _rsqz3_grid(origin=(-0.2, 0.4), h=0.1, n_p=7, n_q=7, du=0.25, n_u=8) -> MomentGrid:
    return sample_moments(make_phantom("rsqz3"), origin, h, n_p, n_q, _ladder(du, n_u))


# ----- sampling -----


def test_sample_zsq_mean_is_u_squared_over_three():
    grid = sample_moments(make_phantom("zsq"), (0.0, 0.0), 0.5, 3, 3, _ladder(0.5, 4))
    for iu, u in enumerate(grid.radial_nodes):
        assert np.allclose(grid.mf_values[:, :, iu], u * u / 3.0, rtol=0, atol=1e-15)
    assert np.all(grid.a01_values == 0.0)


@pytest.mark.parametrize("rule", [None, build_rule(16, 32)], ids=["default", "16x32"])
def test_quadrature_sampling_equals_sphere_operators(rule):
    # one sphere pass per node gives both moments, bit for bit the operators';
    # it needs only `evaluate`, so a field without a ladder is sampled alike
    f = make_phantom("gauss")
    bare = ScalarField3D(f.evaluate, "bare")
    nodes = _ladder(0.3, 5)
    grid = sample_moments(f, (-0.3, 0.2), 0.25, 3, 3, nodes, analytic=False, rule=rule)
    bare_grid = sample_moments(bare, (-0.3, 0.2), 0.25, 3, 3, nodes, analytic=False, rule=rule)
    for ip in range(3):
        for iq in range(3):
            for iu, u in enumerate(nodes):
                c = SphereCenter(grid.p_node(ip), grid.q_node(iq), float(u))
                assert grid.mf_values[ip, iq, iu] == spherical_mean(f, c, rule)
                assert grid.a01_values[ip, iq, iu] == first_cosine_coefficient(f, c, rule)
                got = (bare_grid.mf_values[ip, iq, iu], bare_grid.a01_values[ip, iq, iu])
                assert got == _sphere_moments(bare, c, rule), (ip, iq, iu)


def test_sample_rsqz3_columns():
    grid = _rsqz3_grid()
    assert np.all(grid.mf_values == 0.0)
    ip, iq, iu = 3, 5, 2
    p, q, u = grid.p_node(ip), grid.q_node(iq), grid.radial_nodes[iu]
    want = 0.6 * (p * p + q * q) * u**3 + (6.0 / 35.0) * u**5
    assert grid.a01_values[ip, iq, iu] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("name", ["rsqz3", "gauss", "bump", "bare"])
def test_sample_moments_equals_per_sample_moments(name):
    # analytic mode stores the field's own power-0 block at every node, and
    # quadrature mode one sphere pass under the rule, bit for bit; a field
    # without a ladder has no analytic data and is refused
    rule, nodes = build_rule(16, 32), _ladder(0.35, 4)
    origin, h = (-0.2, 0.15), 0.3
    if name == "bare":
        f = ScalarField3D(make_phantom("gauss").evaluate, "bare gauss")
        with pytest.raises(ValueError, match="phantom 'bare gauss' has no Laplacian capability"):
            sample_moments(f, origin, h, 2, 3, nodes, analytic=True, rule=rule)
        ga = None
    else:
        f = make_phantom(name)
        ga = sample_moments(f, origin, h, 2, 3, nodes, analytic=True, rule=rule)
    gq = sample_moments(f, origin, h, 2, 3, nodes, analytic=False, rule=rule)
    for ip in range(2):
        for iq in range(3):
            p, q = gq.p_node(ip), gq.q_node(iq)
            for iu, u in enumerate(nodes):
                if ga is not None:
                    got = (ga.mf_values[ip, iq, iu], ga.a01_values[ip, iq, iu])
                    want = f.laplacian_block(p, q, [u], 0)
                    assert got == (want[0][0, 0], want[1][0, 0]), (ip, iq, iu)
                got = (gq.mf_values[ip, iq, iu], gq.a01_values[ip, iq, iu])
                assert got == _sphere_moments(f, SphereCenter(p, q, float(u)), rule), (ip, iq, iu)


@pytest.mark.parametrize(
    "rule, n_u",
    [(build_rule(7, 12), 5), (build_rule(16, 32), 19)],
    ids=["odd-theta", "two-blocks-and-a-part"],
)
@pytest.mark.parametrize("name", ["rsqz3", "bump"])
def test_per_centre_pass_equals_per_sphere_moments(name, rule, n_u):
    # one `evaluate` per block of radii of a centre, each radius projected on
    # its own, is bit for bit one sphere pass per radius: on an odd-theta rule
    # (a node at cos theta = 0) and on 19 radii, two full blocks and a part
    f = make_phantom(name)
    nodes = _ladder(2.9 / n_u, n_u)
    grid = sample_moments(f, (-0.25, 0.1), 0.35, 2, 2, nodes, analytic=False, rule=rule)
    for ip in range(2):
        for iq in range(2):
            for iu, u in enumerate(nodes):
                c = SphereCenter(grid.p_node(ip), grid.q_node(iq), float(u))
                got = (grid.mf_values[ip, iq, iu], grid.a01_values[ip, iq, iu])
                assert got == _sphere_moments(f, c, rule), (ip, iq, iu)


def test_per_centre_pass_evaluates_blocks_of_radii():
    # 19 radii of each of 2 centres: blocks of 8, 8 and 3 radii per centre
    shapes = []

    def evaluate(x, y, z):
        shapes.append(np.shape(z))
        return np.asarray(z, dtype=float) ** 2

    rule = build_rule(7, 12)
    sample_moments(ScalarField3D(evaluate, "zsq"), (0.0, 0.0), 0.1, 2, 1, _ladder(0.1, 19), analytic=False, rule=rule)
    assert shapes == [(8, 84), (8, 84), (3, 84)] * 2


@pytest.mark.parametrize(
    "evaluate",
    [lambda x, y, z: 1.0, lambda x, y, z: np.ravel(z), lambda x, y, z: np.asarray(z)[..., :-1]],
    ids=["scalar", "flat", "short"],
)
def test_sampling_refuses_an_evaluate_without_one_value_per_node(evaluate):
    f = ScalarField3D(evaluate, "odd one")
    with pytest.raises(ValueError, match="phantom 'odd one' evaluate returned shape .* one value per node"):
        sample_moments(f, (0.0, 0.0), 0.1, 1, 1, _ladder(0.2, 2), analytic=False)


def test_phantom_and_grid_blocks_take_the_same_parameters():
    want = ["self", "x", "y", "us", "n", "odd"]
    assert list(inspect.signature(ScalarField3D.laplacian_block).parameters) == want
    assert list(inspect.signature(MomentGrid.laplacian_block).parameters) == want


@pytest.mark.parametrize(
    "origin, h, n_p, nodes, message",
    [
        ((np.nan, 0.0), 0.1, 3, _ladder(0.2, 4), "grid origin must be finite"),
        ((0.0, 0.0), np.inf, 3, _ladder(0.2, 4), "grid spacing h must be positive and finite"),
        ((0.0, 0.0), 0.1, 0, _ladder(0.2, 4), "at least one node per axis"),
        ((0.0, 0.0), 0.1, 3, np.array([0.2, np.nan]), "radial_nodes must be finite"),
        ((0.0, 0.0), 0.1, 3, np.array([0.2, 0.2]), "strictly increasing"),
        ((0.0,), 0.1, 3, _ladder(0.2, 4), "grid origin must be two numbers (p0, q0), got (0.0,)"),
        ((0.0, 0.0, 0.0), 0.1, 3, _ladder(0.2, 4), "grid origin must be two numbers"),
        ((0.0, 0.0), 0.1, 2.5, _ladder(0.2, 4), "n_p must be an integer node count, got 2.5"),
    ],
    ids=[
        "nan-origin", "inf-h", "no-p-nodes", "nan-radius", "repeated-radius",
        "one-value-origin", "three-value-origin", "fractional-n_p",
    ],
)
def test_sample_moments_checks_the_lattice_before_sampling(origin, h, n_p, nodes, message):
    calls = []

    def evaluate(x, y, z):
        calls.append(np.size(z))
        return np.asarray(z, dtype=float) ** 2

    f = ScalarField3D(evaluate, "counted zsq")
    sample_moments(f, (0.0, 0.0), 0.1, 1, 1, _ladder(0.2, 2), analytic=False)
    assert sum(calls) == 2 * 1152  # both radii of the one centre on the 24 x 48 rule
    calls.clear()
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_moments(f, origin, h, n_p, 3, nodes, analytic=False)
    assert calls == []


def test_sample_quadrature_agrees_with_analytic():
    f = make_phantom("zsq")
    nodes = _ladder(0.4, 3)
    ga = sample_moments(f, (0.1, -0.3), 0.2, 2, 2, nodes, analytic=True)
    gq = sample_moments(f, (0.1, -0.3), 0.2, 2, 2, nodes, analytic=False)
    assert np.allclose(ga.mf_values, gq.mf_values, rtol=0, atol=1e-12)
    assert np.allclose(ga.a01_values, gq.a01_values, rtol=0, atol=1e-12)


def test_grid_validation():
    nodes = _ladder(0.5, 2)
    ok = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        MomentGrid((0, 0), -0.1, 2, 2, nodes, ok, ok)
    with pytest.raises(ValueError):
        MomentGrid((0, 0), 0.1, 2, 2, np.array([0.5, 0.5]), ok, ok)
    with pytest.raises(ValueError):
        MomentGrid((0, 0), 0.1, 2, 2, np.array([0.0, 0.5]), ok, ok)
    with pytest.raises(ValueError):
        MomentGrid((0, 0), 0.1, 2, 2, nodes, np.zeros((2, 2, 3)), ok)


def test_grid_rejects_non_finite_values():
    nodes = _ladder(0.5, 2)
    ok = np.zeros((2, 2, 2))
    bad = ok.copy()
    bad[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MomentGrid((0, 0), 0.1, 2, 2, nodes, bad, ok)
    bad[1, 0, 1] = -np.inf
    with pytest.raises(ValueError, match="finite"):
        MomentGrid((0, 0), 0.1, 2, 2, nodes, ok, bad)
    with pytest.raises(ValueError, match="finite"):
        MomentGrid((0, 0), 0.1, 2, 2, np.array([0.5, np.inf]), ok, ok)


@pytest.mark.parametrize("origin", [(np.nan, 0.0), (0.0, -np.inf)], ids=["nan-p", "inf-q"])
def test_grid_rejects_non_finite_origin(origin):
    ok = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match="origin must be finite"):
        MomentGrid(origin, 0.1, 2, 2, _ladder(0.5, 2), ok, ok)


@pytest.mark.parametrize(
    "origin, n_p, n_q, message",
    [
        ((0.0,), 2, 2, "grid origin must be two numbers (p0, q0), got (0.0,)"),
        ((0.0, 0.0, 0.0), 2, 2, "grid origin must be two numbers (p0, q0), got (0.0, 0.0, 0.0)"),
        (0.0, 2, 2, "grid origin must be two numbers (p0, q0), got 0.0"),
        (("a", 0.0), 2, 2, "grid origin must be two numbers (p0, q0), got ('a', 0.0)"),
        ((0.0, 0.0), 2.5, 2, "n_p must be an integer node count, got 2.5"),
        ((0.0, 0.0), 2, 2.0, "n_q must be an integer node count, got 2.0"),
    ],
    ids=["one-value-origin", "three-value-origin", "scalar-origin", "text-origin", "fractional-n_p", "float-n_q"],
)
def test_grid_names_a_bad_lattice_argument(origin, n_p, n_q, message):
    ok = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match=re.escape(message)):
        MomentGrid(origin, 0.1, n_p, n_q, _ladder(0.5, 2), ok, ok)
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_moments(make_phantom("zsq"), origin, 0.1, n_p, n_q, _ladder(0.5, 2))


def test_grid_accepts_numpy_lattice_arguments():
    grid = _rsqz3_grid(n_p=3, n_q=3, n_u=2)
    same = MomentGrid(
        np.array(grid.origin), grid.h, np.int64(3), np.int32(3), grid.radial_nodes,
        grid.mf_values, grid.a01_values,
    )
    assert same.mf_values.tobytes() == grid.mf_values.tobytes()


def test_grid_arrays_are_frozen():
    grid = _rsqz3_grid(n_p=3, n_q=3, n_u=2)
    with pytest.raises(ValueError):
        grid.mf_values[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        grid.radial_nodes[0] = 9.0


# ----- stencils -----


def _grid_block(grid, n, at):
    """The grid's (Mf, a01) block of powers 0..n at node (ip, iq) and
    radial indices iu."""
    ip, iq, iu = at
    return grid.laplacian_block(grid.p_node(ip), grid.q_node(iq), grid.radial_nodes[iu], n)


def test_laplacian_exact_on_quadratic_data():
    # a01 of rsqz3 is quadratic in (p,q), so one stencil application is exact
    grid = _rsqz3_grid()
    for iu in (0, 4, 7):
        u = grid.radial_nodes[iu]
        _, a01 = _grid_block(grid, 2, (3, 3, [iu]))
        assert a01[1, 0] == pytest.approx(2.4 * u**3, rel=1e-12)
        assert a01[2, 0] == pytest.approx(0.0, abs=1e-9)


def test_laplacian_power_zero_is_plain_lookup():
    grid = _rsqz3_grid(n_p=3, n_q=3)
    assert _grid_block(grid, 0, (2, 1, [5]))[1][0, 0] == grid.a01_values[2, 1, 5]
    assert _grid_block(grid, 0, (0, 0, [0]))[0][0, 0] == 0.0


def test_laplacian_margin_and_argument_errors():
    grid = _rsqz3_grid(n_p=5, n_q=5)
    with pytest.raises(ValueError, match="insufficient margin"):
        _grid_block(grid, 3, (2, 2, [0]))
    with pytest.raises(ValueError, match="insufficient margin"):
        _grid_block(grid, 1, (0, 2, [0]))


def test_a_block_past_the_grid_is_off_the_lattice():
    # a node in the grid keeps its margin message at every power; one past
    # it, at any power, is off the stored lattice
    grid = _rsqz3_grid(n_p=5, n_q=5)
    with pytest.raises(ValueError, match=re.escape("insufficient margin: order 1 at node (4, 2) of a 5x5 grid")):
        _grid_block(grid, 1, (4, 2, [0]))
    for n in (0, 2):
        with pytest.raises(ValueError, match=re.escape("lattice: past the 5x5 grid")):
            _grid_block(grid, n, (5, 2, [0]))
        with pytest.raises(ValueError, match=re.escape("lattice: past the 5x5 grid")):
            grid.laplacian_block(1e300, grid.q_node(2), grid.radial_nodes[:1], n)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -0.5, 0.0])
def test_radial_scheme_refuses_a_radius_on_no_stored_node(t):
    # NaN and +inf are on no node: neither may return a prefix of the ladder
    grid = _rsqz3_grid(n_p=9, n_q=9, n_u=10)
    with pytest.raises(ValueError, match=re.escape(f"radius {t} is not on the stored radial ladder")):
        grid.radial_scheme(0.4, 0.4, t)
    us, ws = grid.radial_scheme(0.4, 0.4, 1.0)
    assert us.tolist() == grid.radial_nodes[:4].tolist() and ws.size == 4


@pytest.mark.parametrize(
    "x, y, message",
    [
        (np.nan, 0.0, "sphere centre must be finite, got (p, q) = (nan, 0.0)"),
        (0.0, -np.inf, "sphere centre must be finite, got (p, q) = (0.0, -inf)"),
        (0.05, 0.0, "point (0.05, 0.0) is not on the stored (p, q) lattice"),
        (0.3, 0.1, "point (0.3, 0.1) is not on the stored (p, q) lattice: past the 3x3 grid"),
        (1e300, 0.0, "point (1e+300, 0.0) is not on the stored (p, q) lattice: past the 3x3 grid"),
        (0.0, -1.7e308, "point (0.0, -1.7e+308) is not on the stored (p, q) lattice: past the 3x3 grid"),
        (-0.1, 0.2, "point (-0.1, 0.2) is not on the stored (p, q) lattice: past the 3x3 grid"),
    ],
    ids=["nan", "inf", "between-nodes", "past-the-grid", "far-past-the-grid", "overflowing-index", "below-the-grid"],
)
def test_radial_scheme_refuses_a_centre_off_the_stored_lattice(x, y, message):
    # the weights are those of the stored ladder, which holds data at the
    # lattice nodes only; a NaN is named before any rounding, and a centre
    # past the grid is off the lattice, not short of margin, whatever its
    # node index would be (1.7e308 / 0.1 overflows to inf)
    grid = _rsqz3_grid(origin=(0.0, 0.0), n_p=3, n_q=3, du=0.1, n_u=3)
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        grid.radial_scheme(x, y, 0.2)
    assert str(err.value) == message
    for x, y in ((0.0, 0.0), (0.1, 0.2), (0.2, 0.1)):
        us, ws = grid.radial_scheme(x, y, 0.2)
        assert us.tolist() == grid.radial_nodes[:2].tolist() and ws.tolist() == [0.1, 0.05]


# ----- CSV -----


def test_csv_round_trip_is_lossless(tmp_path):
    grid = sample_moments(
        make_phantom("gauss"), (-1.0, 0.5), 0.3, 3, 4, _ladder(0.2, 5)
    )
    path = str(tmp_path / "moments.csv")
    write_moment_csv(grid, path)
    back = read_moment_csv(path)
    assert back.origin == grid.origin
    assert back.h == grid.h
    assert (back.n_p, back.n_q) == (grid.n_p, grid.n_q)
    assert np.array_equal(back.radial_nodes, grid.radial_nodes)
    assert np.array_equal(back.mf_values, grid.mf_values)
    assert np.array_equal(back.a01_values, grid.a01_values)
    # writing the reread grid reproduces the file byte for byte
    path2 = str(tmp_path / "again.csv")
    write_moment_csv(back, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_csv_round_trip_keeps_the_sampled_ladder(tmp_path):
    # on this ladder u0 + du*k misses the sampled du*(k+1) by an ulp at some
    # nodes; the reader takes the stored u column, so the grid-mode slice
    # from the file is the slice from memory
    grid = sample_moments(make_phantom("rsqz3"), (-0.45, -0.45), 0.1, 9, 9, _ladder(1.6 / 16, 16))
    path = str(tmp_path / "moments.csv")
    write_moment_csv(grid, path)
    back = read_moment_csv(path)
    assert back.radial_nodes.tobytes() == grid.radial_nodes.tobytes()
    x, y = grid.p_node(4), grid.q_node(4)
    spec = SliceSpec("y", y, (x, x), (0.3, 1.5), 0.1)
    table = build_tables(4)
    want = reconstruct_slice(spec, 4, "two_data", grid, table, min_abs_z=0.25).values
    got = reconstruct_slice(spec, 4, "two_data", back, table, min_abs_z=0.25).values
    assert got.shape == (1, 13)
    assert got.tobytes() == want.tobytes()


def _per_cell_csv(grid: MomentGrid) -> bytes:
    """The moment CSV as the per-cell `fmt` loop writes it: the reference
    for the one-call writer."""
    nodes = grid.radial_nodes
    du = nodes[1] - nodes[0] if nodes.size > 1 else nodes[0]
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
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n_u", [1, 4], ids=["one-radius", "ladder"])
def test_csv_writer_bytes_equal_the_per_cell_format(tmp_path, n_u):
    # negative origin, -0.0, a subnormal and 1e300 among the values
    n_p, n_q = 3, 5
    rng = np.random.default_rng(7)
    mf = rng.standard_normal((n_p, n_q, n_u))
    a01 = rng.standard_normal((n_p, n_q, n_u)) * 1e-3
    mf[0, 0, 0], mf[1, 2, -1], mf[2, 4, 0] = -0.0, 5e-324, 1e300
    a01[0, 1, 0], a01[2, 3, -1] = -1e300, -2.2250738585072014e-309
    nodes = _ladder(0.1, n_u)
    grid = MomentGrid((-0.7, -1.3), 0.1, n_p, n_q, nodes, mf, a01)
    path = str(tmp_path / "moments.csv")
    write_moment_csv(grid, path)
    with open(path, "rb") as fh:
        assert fh.read() == _per_cell_csv(grid)


_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-309, 1e300, -1e300]
)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6)),
    origin=st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False) | st.just(-0.0)] * 2),
    h=st.floats(1e-6, 1e3),
    du=st.floats(1e-6, 1e3),
    data=st.data(),
)
def test_csv_round_trip_is_lossless_for_drawn_grids(shape, origin, h, du, data):
    # the radii as the CLI builds them, du * (1..n_u); -0.0, subnormals and
    # +-1e300 among the values
    n_p, n_q, n_u = shape
    size = n_p * n_q * n_u
    mf, a01 = (np.array(data.draw(st.lists(_values, min_size=size, max_size=size))).reshape(shape) for _ in "ma")
    grid = MomentGrid(origin, h, n_p, n_q, _ladder(du, n_u), mf, a01)
    with tempfile.TemporaryDirectory() as d:
        first, second = f"{d}/moments.csv", f"{d}/again.csv"
        write_moment_csv(grid, first)
        back = read_moment_csv(first)
        write_moment_csv(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert (back.h, back.n_p, back.n_q) == (grid.h, n_p, n_q)
    # the file stores node coordinates, not the origin: an origin of -0.0
    # reads back as its first node, origin + 0 * h == +0.0, which is the
    # origin the grid stores for either zero
    assert all(type(v) is float for v in grid.origin + back.origin)
    assert np.array(back.origin).tobytes() == np.array(grid.origin).tobytes()
    assert not np.any(np.signbit(grid.origin) & (np.array(grid.origin) == 0.0))
    for node, count in ((MomentGrid.p_node, n_p), (MomentGrid.q_node, n_q)):
        assert np.array([node(back, i) for i in range(count)]).tobytes() == np.array(
            [node(grid, i) for i in range(count)]
        ).tobytes()
    for name in ("radial_nodes", "mf_values", "a01_values"):
        assert getattr(back, name).tobytes() == getattr(grid, name).tobytes(), name


def test_csv_rejects_nonuniform_ladder(tmp_path):
    nodes = np.array([0.1, 0.2, 0.4])
    z = np.zeros((1, 1, 3))
    grid = MomentGrid((0.0, 0.0), 0.1, 1, 1, nodes, z, z)
    with pytest.raises(ValueError, match="uniform"):
        write_moment_csv(grid, str(tmp_path / "bad.csv"))


@pytest.mark.parametrize("u0, du", [(100.0, 0.01), (10.0, 0.001)])
def test_csv_writes_a_uniform_ladder_far_from_zero(tmp_path, u0, du):
    # the writer holds a ladder to the reader's own rule, |u_k - (u0 + du*k)|
    # <= 1e-12 * max(1, |u_last|), so these round-trip: the differences of
    # nodes near 100 round by about 1e-14, more than 1e-12 * du; a step out
    # of line is still refused
    nodes = u0 + du * np.arange(6)
    rng = np.random.default_rng(8)
    mf, a01 = rng.normal(size=(2, 2, 1, 6))
    grid = MomentGrid((0.0, 0.0), 0.1, 2, 1, nodes, mf, a01)
    path = str(tmp_path / "far.csv")
    write_moment_csv(grid, path)
    back = read_moment_csv(path)
    for name in ("radial_nodes", "mf_values", "a01_values"):
        assert getattr(back, name).tobytes() == getattr(grid, name).tobytes(), name
    bent = nodes.copy()
    bent[3] += 1e-3 * du
    with pytest.raises(ValueError, match="uniform"):
        write_moment_csv(MomentGrid((0.0, 0.0), 0.1, 2, 1, bent, mf, a01), str(tmp_path / "bent.csv"))


def test_csv_reader_validates(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("# h=0.1 Np=1 Nq=1 u0=0.1 du=0.1 Nu=2\np,q,u,Mf,a01\n0,0,0.1,1,0\n")
    with pytest.raises(ValueError, match="row count"):
        read_moment_csv(str(path))
    path.write_text("p,q,u,Mf,a01\n0,0,0.1,1,0\n")
    with pytest.raises(ValueError, match="sidecar"):
        read_moment_csv(str(path))
    for sidecar, message in (
        ("Np=2.0 Nq=1", "sidecar Np='2.0' is not a positive integer"),
        ("Np=-2 Nq=-2", "sidecar Np='-2' is not a positive integer"),
    ):
        path.write_text(f"# h=0.1 {sidecar} u0=0.1 du=0.1 Nu=1\np,q,u,Mf,a01\n0,0,0.1,1,0\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_moment_csv(str(path))
    for key in ("h", "u0", "du"):
        sidecar = "h=0.1 Np=1 Nq=1 u0=0.1 du=0.1 Nu=1".replace(f"{key}=0.1", f"{key}=abc")
        path.write_text(f"# {sidecar}\np,q,u,Mf,a01\n0,0,0.1,1,0\n")
        with pytest.raises(ValueError, match=re.escape(f"sidecar {key}='abc' is not a number")):
            read_moment_csv(str(path))


def _written_lines(tmp_path):
    # a 2x2x3 rsqz3 grid: two comment/header lines, then block (ip, iq) on
    # file lines 3 + 3*(2*ip + iq) .. +2
    grid = sample_moments(make_phantom("rsqz3"), (-0.2, 0.4), 0.1, 2, 2, _ladder(0.25, 3))
    path = tmp_path / "moments.csv"
    write_moment_csv(grid, str(path))
    lines = path.read_text().splitlines()
    read_moment_csv(str(path))  # the file as written reads back
    return path, lines


def _block(ip: int, iq: int) -> slice:
    start = 2 + 3 * (2 * ip + iq)
    return slice(start, start + 3)


def test_csv_reader_rejects_rows_out_of_order(tmp_path):
    # blocks (0, 1) and (1, 1) swapped: every value stays, but a01 would
    # land in the wrong cells
    path, lines = _written_lines(tmp_path)
    swapped = list(lines)
    swapped[_block(0, 1)], swapped[_block(1, 1)] = lines[_block(1, 1)], lines[_block(0, 1)]
    path.write_text("\n".join(swapped) + "\n")
    with pytest.raises(ValueError, match="line 6: p, q off the lattice"):
        read_moment_csv(str(path))


def test_csv_reader_rejects_a_later_block_radius(tmp_path):
    path, lines = _written_lines(tmp_path)
    row = lines[_block(1, 0)][1].split(",")
    row[2] = "9.75"
    lines[_block(1, 0).start + 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 10: u differs from the first block"):
        read_moment_csv(str(path))


@pytest.mark.parametrize(
    "sidecar, us, line",
    [("u0=0.2 du=0.1", "0.1,0.2", 3), ("u0=0.1 du=0.1", "0.1,0.3", 4), ("u0=inf du=0.1", "0.1,0.2", 3)],
)
def test_csv_reader_names_the_first_radius_off_the_sidecar_ladder(tmp_path, sidecar, us, line):
    path = tmp_path / "ladder.csv"
    rows = "".join(f"0,0,{u},1,0\n" for u in us.split(","))
    path.write_text(f"# h=0.1 Np=1 Nq=1 {sidecar} Nu=2\np,q,u,Mf,a01\n{rows}")
    why = "radial column disagrees with the sidecar ladder"
    with pytest.raises(ValueError, match=f"moment CSV line {line}: {why}"):
        read_moment_csv(str(path))


def test_csv_reader_rejects_non_finite_values(tmp_path):
    path, lines = _written_lines(tmp_path)
    row = lines[5].split(",")
    row[3] = "nan"
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 6: non-finite value"):
        read_moment_csv(str(path))


def test_csv_reader_names_the_line_of_a_malformed_row(tmp_path):
    path, lines = _written_lines(tmp_path)
    for bad in (lines[6].rsplit(",", 1)[0], lines[6].replace(",", ",x", 1)):
        path.write_text("\n".join(lines[:6] + [bad] + lines[7:]) + "\n")
        with pytest.raises(ValueError, match="line 7: "):
            read_moment_csv(str(path))


def test_csv_reader_rejects_a_file_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# h=0.1 Np=0 Nq=1 u0=0.1 du=0.1 Nu=2\np,q,u,Mf,a01\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_moment_csv(str(path))


def test_csv_reader_counts_comment_and_blank_lines_inside_the_body(tmp_path):
    path, lines = _written_lines(tmp_path)
    row = lines[5].split(",")
    row[4] = "inf"
    lines[5] = ",".join(row)
    # a comment and a blank line before the bad row push it to file line 8
    path.write_text("\n".join(lines[:3] + ["# note", ""] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="line 8: non-finite value"):
        read_moment_csv(str(path))
    lines[5] = lines[5].rsplit(",", 1)[0]
    path.write_text("\n".join(lines[:3] + ["# note", ""] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="line 8: expected 5 fields p,q,u,Mf,a01, got 4"):
        read_moment_csv(str(path))


def test_csv_reader_values_equal_the_per_cell_float_parse(tmp_path):
    # spellings the writer never emits but a hand-made file may hold:
    # padding, signs, -0, subnormals and extremes
    path = tmp_path / "moments.csv"
    body = [
        "-0.1, 0.2 ,0.25,+1.5,-0",
        "-0.1,0.3,0.25,4.9e-324,1e-320",
        "0.0,0.2,0.25,1.7976931348623157e308,-2.2250738585072014e-308",
        "-0.0,0.3,0.25,0.1,3",
    ]
    path.write_text("# h=0.1 Np=2 Nq=2 u0=0.25 du=0.25 Nu=1\np,q,u,Mf,a01\n" + "\n".join(body) + "\n")
    grid = read_moment_csv(str(path))
    want = np.array([[float(c) for c in line.split(",")] for line in body])
    assert grid.mf_values.ravel().tobytes() == want[:, 3].tobytes()
    assert grid.a01_values.ravel().tobytes() == want[:, 4].tobytes()
    assert grid.radial_nodes.tobytes() == want[:1, 2].tobytes()
    assert np.array(grid.origin).tobytes() == want[0, :2].tobytes()
