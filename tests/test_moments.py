"""Moment grids: sampling, stencils, CSV round trips."""

from __future__ import annotations

import re

import numpy as np
import pytest

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
from sphradon.reconstruct import SliceSpec, _GridSource, reconstruct_slice


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
    # one sphere pass per node gives both moments, bit for bit the operators'
    f = make_phantom("gauss")
    nodes = _ladder(0.3, 5)
    grid = sample_moments(f, (-0.3, 0.2), 0.25, 3, 3, nodes, analytic=False, rule=rule)
    for ip in range(3):
        for iq in range(3):
            for iu, u in enumerate(nodes):
                c = SphereCenter(grid.p_node(ip), grid.q_node(iq), float(u))
                assert grid.mf_values[ip, iq, iu] == spherical_mean(f, c, rule)
                assert grid.a01_values[ip, iq, iu] == first_cosine_coefficient(f, c, rule)


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
    # quadrature mode one sphere pass under the rule, bit for bit
    if name == "bare":
        f = ScalarField3D(make_phantom("gauss").evaluate, "bare gauss")
    else:
        f = make_phantom(name)
    rule, nodes = build_rule(16, 32), _ladder(0.35, 4)
    origin, h = (-0.2, 0.15), 0.3
    ga = sample_moments(f, origin, h, 2, 3, nodes, analytic=True, rule=rule)
    gq = sample_moments(f, origin, h, 2, 3, nodes, analytic=False, rule=rule)
    for ip in range(2):
        for iq in range(3):
            p, q = ga.p_node(ip), ga.q_node(iq)
            for iu, u in enumerate(nodes):
                got = (ga.mf_values[ip, iq, iu], ga.a01_values[ip, iq, iu])
                want = f.laplacian_block(p, q, [u], 0, rule)
                assert got == (want[0][0, 0], want[1][0, 0]), (ip, iq, iu)
                got = (gq.mf_values[ip, iq, iu], gq.a01_values[ip, iq, iu])
                assert got == _sphere_moments(f, SphereCenter(p, q, float(u)), rule), (ip, iq, iu)


@pytest.mark.parametrize(
    "origin, h, n_p, nodes, message",
    [
        ((np.nan, 0.0), 0.1, 3, _ladder(0.2, 4), "grid origin must be finite"),
        ((0.0, 0.0), np.inf, 3, _ladder(0.2, 4), "grid spacing h must be positive and finite"),
        ((0.0, 0.0), 0.1, 0, _ladder(0.2, 4), "at least one node per axis"),
        ((0.0, 0.0), 0.1, 3, np.array([0.2, np.nan]), "radial_nodes must be finite"),
        ((0.0, 0.0), 0.1, 3, np.array([0.2, 0.2]), "strictly increasing"),
    ],
    ids=["nan-origin", "inf-h", "no-p-nodes", "nan-radius", "repeated-radius"],
)
def test_sample_moments_checks_the_lattice_before_sampling(origin, h, n_p, nodes, message):
    calls = []

    def evaluate(x, y, z):
        calls.append(np.size(z))
        return np.asarray(z, dtype=float) ** 2

    f = ScalarField3D(evaluate, "counted zsq")
    sample_moments(f, (0.0, 0.0), 0.1, 1, 1, _ladder(0.2, 2))
    assert len(calls) == 2  # one sphere pass per radius of the one centre
    calls.clear()
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_moments(f, origin, h, n_p, 3, nodes)
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


def test_grid_arrays_are_frozen():
    grid = _rsqz3_grid(n_p=3, n_q=3, n_u=2)
    with pytest.raises(ValueError):
        grid.mf_values[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        grid.radial_nodes[0] = 9.0


# ----- stencils -----


def _grid_block(grid, n, at):
    """The grid source's (Mf, a01) block of powers 0..n at node (ip, iq) and
    radial indices iu."""
    ip, iq, iu = at
    src = _GridSource(grid, n)
    return src.laplacian_block(grid.p_node(ip), grid.q_node(iq), grid.radial_nodes[iu], n)


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


def test_csv_rejects_nonuniform_ladder(tmp_path):
    nodes = np.array([0.1, 0.2, 0.4])
    z = np.zeros((1, 1, 3))
    grid = MomentGrid((0.0, 0.0), 0.1, 1, 1, nodes, z, z)
    with pytest.raises(ValueError, match="uniform"):
        write_moment_csv(grid, str(tmp_path / "bad.csv"))


def test_csv_reader_validates(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("# h=0.1 Np=1 Nq=1 u0=0.1 du=0.1 Nu=2\np,q,u,Mf,a01\n0,0,0.1,1,0\n")
    with pytest.raises(ValueError, match="row count"):
        read_moment_csv(str(path))
    path.write_text("p,q,u,Mf,a01\n0,0,0.1,1,0\n")
    with pytest.raises(ValueError, match="sidecar"):
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
