"""Command-line surface: flags, file outputs, exit codes, determinism."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from sphradon import cli
from sphradon.checks import IDENTITIES, ResidualReport


def run(*argv) -> int:
    return cli.main(list(argv))


# ----- coeffs -----


def test_coeffs_writes_both_tables(tmp_path, capsys):
    out = tmp_path / "tables.csv"
    assert run("coeffs", "--max-n", "2", "--out", str(out)) == 0
    poly = tmp_path / "tables.polynomials.csv"
    assert out.exists() and poly.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == "parity,k,two_i,m,value"
    plines = poly.read_text().splitlines()
    assert plines[0] == "parity,n,two_i,m,value"
    assert "odd,2,0,1,105/2" in plines
    assert capsys.readouterr().out.startswith("wrote ")


def test_coeffs_order_zero_polynomials_empty(tmp_path):
    out = tmp_path / "t.csv"
    assert run("coeffs", "--max-n", "0", "--out", str(out)) == 0
    assert (tmp_path / "t.polynomials.csv").read_text() == "parity,n,two_i,m,value\n"


def test_coeffs_rejects_negative_order(tmp_path):
    assert run("coeffs", "--max-n", "-1", "--out", str(tmp_path / "t.csv")) == 1


# ----- forward -----


def _read_rows(path):
    rows = []
    for line in open(path):
        if line.startswith("#") or line[0].isalpha():
            continue
        rows.append([float(v) for v in line.split(",")])
    return np.asarray(rows)


def test_forward_zsq_mean_column(tmp_path):
    out = tmp_path / "zsq.csv"
    assert (
        run(
            "forward", "--phantom", "zsq", "--origin", "-0.2,-0.2", "--h", "0.2",
            "--np", "3", "--nq", "3", "--umax", "1.0", "--nu", "5",
            "--out", str(out), "--analytic",
        )
        == 0
    )
    rows = _read_rows(out)
    assert np.allclose(rows[:, 3], rows[:, 2] ** 2 / 3.0, rtol=0, atol=1e-12)
    assert np.all(rows[:, 4] == 0.0)


def test_forward_const_and_alias(tmp_path):
    out = tmp_path / "c.csv"
    assert (
        run(
            "forward", "--phantom", "const(3)", "--origin", "0,0", "--h", "0.1",
            "--np", "2", "--nq", "2", "--umax", "1", "--nu", "2",
            "--out", str(out), "--analytic",
        )
        == 0
    )
    rows = _read_rows(out)
    assert np.all(rows[:, 3] == 3.0) and np.all(rows[:, 4] == 0.0)

    out2 = tmp_path / "p8.csv"
    assert (
        run(
            "forward", "--phantom", "paper8", "--origin", "0,0", "--h", "0.1",
            "--np", "2", "--nq", "2", "--umax", "1", "--nu", "3",
            "--out", str(out2), "--analytic",
        )
        == 0
    )
    assert np.all(_read_rows(out2)[:, 3] == 0.0)  # the worked example has Mf == 0


def test_forward_is_deterministic(tmp_path):
    args = (
        "forward", "--phantom", "gauss:sx=0.6", "--origin", "-0.1,0.4", "--h", "0.1",
        "--np", "2", "--nq", "2", "--umax", "0.8", "--nu", "4", "--analytic",
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_forward_validation_exit_codes(tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["forward", "--origin", "0,0", "--np", "2", "--nq", "2", "--umax", "1",
            "--nu", "2", "--out", out]
    assert run(*base, "--phantom", "zsq", "--h", "-1") == 1
    assert run(*base, "--phantom", "unknown_thing", "--h", "0.1") == 1
    assert run(*base, "--phantom", "zsq:1,2", "--h", "0.1") == 1  # two bare params
    assert run(*base, "--phantom", "z:3", "--h", "0.1") == 1  # takes none


@pytest.mark.parametrize(
    "flag, value",
    [("--origin", "nan,0"), ("--origin", "0,inf"), ("--h", "inf"), ("--h", "nan"),
     ("--umax", "inf"), ("--umax", "nan")],
)
def test_forward_rejects_non_finite_geometry(tmp_path, capsys, flag, value):
    # each is refused up front, naming the flag: no CSV and no numpy warning
    out = tmp_path / "x.csv"
    geometry = {"--origin": "0,0", "--h": "0.1", "--umax": "1", flag: value}
    argv = ["forward", "--phantom", "zero", "--np", "2", "--nq", "2", "--nu", "2", "--out", str(out)]
    for key, val in geometry.items():
        argv += [key, val]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


# ----- reconstruct -----


def test_reconstruct_zero_phantom_all_zeros(tmp_path):
    out = tmp_path / "zero.csv"
    assert (
        run(
            "reconstruct", "--phantom", "zero", "--order", "2", "--slice", "y=0",
            "--xrange", "0,0.4", "--zrange", "0.5,1.0", "--step", "0.5",
            "--out", str(out),
        )
        == 0
    )
    rows = _read_rows(out)
    assert np.all(rows[:, 3] == 0.0)


def test_reconstruct_slice_and_pgm(tmp_path):
    out, pgm = tmp_path / "s.csv", tmp_path / "s.pgm"
    assert (
        run(
            "reconstruct", "--phantom", "rsqz3", "--order", "2", "--slice", "y=1",
            "--xrange", "-0.4,0.4", "--zrange", "-1,1", "--step", "0.4",
            "--min-abs-z", "0.3", "--out", str(out), "--pgm", str(pgm),
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "# order=2 mode=two-data"
    for line in lines[2:]:
        x, y, z, fr = (float(v) for v in line.split(","))
        if abs(z) < 0.3:
            assert np.isnan(fr)
        else:
            assert fr == pytest.approx((x * x + 1.0) * z**3, abs=1e-9)
    assert pgm.read_bytes().startswith(b"P5\n# linear min-max scaling")


def test_reconstruct_grid_source_round_trip(tmp_path):
    grid = tmp_path / "g.csv"
    assert (
        run(
            "forward", "--phantom", "zsq", "--origin", "-0.2,-0.2", "--h", "0.1",
            "--np", "5", "--nq", "5", "--umax", "1.0", "--nu", "100",
            "--out", str(grid), "--analytic",
        )
        == 0
    )
    out = tmp_path / "r.csv"
    assert (
        run(
            "reconstruct", "--grid", str(grid), "--order", "1", "--slice", "y=0",
            "--xrange", "0,0", "--zrange", "0.5,1.0", "--step", "0.5",
            "--out", str(out),
        )
        == 0
    )
    rows = _read_rows(out)
    assert rows[:, 3] == pytest.approx(rows[:, 2] ** 2, rel=1e-3)


def test_reconstruct_builds_the_table_to_its_order(tmp_path, monkeypatch):
    orders, build = [], cli.build_tables
    monkeypatch.setattr(cli, "build_tables", lambda order_n: orders.append(order_n) or build(order_n))
    out = tmp_path / "r.csv"
    assert (
        run(
            "reconstruct", "--phantom", "gauss", "--order", "2", "--slice", "y=0",
            "--xrange", "0,0", "--zrange", "0.5,1.0", "--step", "0.5",
            "--out", str(out),
        )
        == 0
    )
    assert orders == [2]


def test_reconstruct_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    common = ["--order", "1", "--xrange", "0,1", "--zrange", "0.5,1", "--step", "0.5",
              "--out", out]
    assert run("reconstruct", "--phantom", "zsq", "--slice", "w=1", *common) == 1
    assert run("reconstruct", "--phantom", "zsq", "--slice", "y=", *common) == 1
    assert run("reconstruct", "--slice", "y=0", *common) == 1  # no source
    assert (
        run("reconstruct", "--phantom", "zsq", "--grid", "g.csv", "--slice", "y=0", *common)
        == 1
    )  # both sources
    assert (
        run("reconstruct", "--phantom", "zsq", "--slice", "y=0", "--order", "99",
            "--xrange", "0,1", "--zrange", "0.5,1", "--step", "0.5", "--out", out)
        == 1
    )


@pytest.mark.parametrize(
    "change, flag",
    [
        (("--min-abs-z", "nan"), "--min-abs-z"),
        (("--slice", "y=nan", "--zrange", "0.4,0.6"), "slice value"),
        (("--step", "nan"), "--step"),
    ],
    ids=["min-abs-z", "slice", "step"],
)
def test_reconstruct_rejects_non_finite_geometry(tmp_path, capsys, change, flag):
    argv = {
        "--phantom": "zsq", "--order": "2", "--slice": "y=0", "--xrange": "0,0.2",
        "--zrange": "-0.4,0.4", "--step": "0.2", "--out": str(tmp_path / "r.csv"),
    }
    argv.update(zip(change[::2], change[1::2]))
    assert run("reconstruct", *(tok for pair in argv.items() for tok in pair)) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "phantom, message",
    [
        ("gauss(sx=nan)", "gauss parameter sx must be positive and finite"),
        ("gauss(amp=inf)", "gauss parameter amp must be finite"),
        ("gauss:cy=-inf", "gauss parameter cy must be finite"),
        ("bump(x0=nan)", "bump parameter x0 must be finite"),
        ("bump(sigma=inf)", "bump parameter sigma must be positive and finite"),
        ("bump(zc=inf)", "bump parameter zc must be finite"),
        ("const(nan)", "const parameter value must be finite"),
        ("gauss:amp=1,amp=2", "gauss parameter amp is given twice"),
        ("gauss:1,amp=2", "gauss parameter amp is given twice"),
        ("gauss:amp=abc", "gauss parameter amp must be a number, got 'abc'"),
        ("foo:3", "unknown phantom 'foo'; available: bump, const, gauss, rsqz3, z, zero, zsq"),
    ],
    ids=[
        "gauss-sx", "gauss-amp", "gauss-cy", "bump-x0", "bump-sigma", "bump-zc", "const",
        "repeated-key", "bare-and-named", "non-numeric", "unknown-with-value",
    ],
)
def test_reconstruct_rejects_non_finite_phantom_parameters(tmp_path, capsys, phantom, message):
    # refused when the phantom is built, naming the parameter: no slice
    # file and no numpy warning
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(
            "reconstruct", "--phantom", phantom, "--order", "2", "--slice", "y=0",
            "--xrange", "0,0.2", "--zrange", "0.4,0.6", "--step", "0.2", "--out", str(out),
        )
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_rejects_unknown_phantom_parameter(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = run(
        "reconstruct", "--phantom", "gauss:foo=1", "--order", "2", "--slice", "y=0",
        "--xrange", "0,0.2", "--zrange", "0.4,0.6", "--step", "0.2", "--out", str(out),
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        "sphradon: error: phantom 'gauss' has no parameter 'foo'; "
        "accepted: amp, cx, cy, sx, sy, sz\n"
    )
    assert not out.exists()


def test_reconstruct_prints_library_warning_as_one_line(tmp_path, capsys):
    # zsq is not a half-space phantom (its declared z_support is unbounded):
    # even-mirror warns, then writes the slice from its own (already even) moments
    out = tmp_path / "r.csv"
    rc = run(
        "reconstruct", "--phantom", "zsq", "--mode", "even-mirror", "--order", "2",
        "--slice", "y=0", "--xrange", "0,0.2", "--zrange", "0.4,0.6", "--step", "0.2",
        "--out", str(out),
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "sphradon: warning: phantom 'zsq' may be nonzero for z <= 0 (z_support (-inf, inf)); "
        "using its own moments as already-even data\n"
    )
    assert captured.out.startswith("wrote ")
    assert _read_rows(out)[:, 3] == pytest.approx(_read_rows(out)[:, 2] ** 2, abs=1e-12)


def test_reconstruct_missing_grid_file_is_io_error(tmp_path):
    assert (
        run(
            "reconstruct", "--grid", str(tmp_path / "absent.csv"), "--order", "1",
            "--slice", "y=0", "--xrange", "0,1", "--zrange", "0.5,1",
            "--step", "0.5", "--out", str(tmp_path / "r.csv"),
        )
        == 3
    )


# ----- verify -----


@pytest.fixture
def tiny_lattice(monkeypatch):
    monkeypatch.setattr("sphradon.checks.TEST_LATTICE", ((0.0, 1.0, 1.0),))


def test_verify_passes_and_is_deterministic(tmp_path, tiny_lattice, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("verify", "--seed", "7", "--out", str(a)) == 0
    assert run("verify", "--seed", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out.splitlines()
    assert "0 failures" in out[0]
    # after the summary, one worst-residual line per identity, registry order
    worst = out[1:8]
    assert [line.split()[1] for line in worst] == list(IDENTITIES)
    for line in worst:
        assert re.fullmatch(r"worst \w+ rel/tol=\S+ phantom=.+ point=\(.+\)", line), line
        assert float(line.split("rel/tol=")[1].split()[0]) <= 1.0
    header = a.read_text().splitlines()[0]
    assert header == "identity,p,q,t,n,left,right,abs_residual,rel_residual,pass"


def test_verify_names_the_first_of_tied_worst_points(tmp_path, monkeypatch, capsys):
    # ratios one ulp apart are a tie: the first report in report order is
    # named, not the one that last-bit noise makes larger
    def report(point, rel):
        return ResidualReport("rep_even", point, 2, 1.0, 1.0, 0.0, rel, 1.0, True, {"phantom": "rsqz3"})

    reports = [report((1.0, 1.0, 2.0), 0.5), report((1.0, 0.0, 2.0), np.nextafter(0.5, 1.0))]
    monkeypatch.setattr(cli, "run_all_checks", lambda **_: reports)
    assert run("verify", "--out", str(tmp_path / "v.csv")) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["worst rep_even rel/tol=5.000e-01 phantom=rsqz3 point=(1.0, 1.0, 2.0)"]


def test_verify_rejects_non_finite_fd_step(tmp_path, tiny_lattice, capsys):
    assert run("verify", "--fd-step", "nan", "--out", str(tmp_path / "v.csv")) == 1
    assert "--fd-step" in capsys.readouterr().err
    assert not (tmp_path / "v.csv").exists()


def test_verify_detects_perturbation(tmp_path, tiny_lattice, capsys):
    code = run(
        "verify", "--out", str(tmp_path / "v.csv"),
        "--perturb", "c_even:2,1,2:1.000001",
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL rep_even" in out


def test_verify_malformed_perturbation(tmp_path, capsys):
    assert run("verify", "--out", str(tmp_path / "v.csv"), "--perturb", "junk") == 1
    assert run("verify", "--out", str(tmp_path / "v.csv"), "--perturb", "c_even:9,9,9:2") == 1
    capsys.readouterr()
    # a non-finite factor is one named error line, not a traceback
    for factor in ("inf", "nan"):
        assert run("verify", "--out", str(tmp_path / "v.csv"), "--perturb", f"c_even:1,0,1:{factor}") == 1
        err = capsys.readouterr().err
        assert err.startswith("sphradon: error:") and "factor" in err and factor in err
        assert err.count("\n") == 1
    assert not (tmp_path / "v.csv").exists()


def test_verify_io_error(tiny_lattice):
    assert run("verify", "--out", "/nonexistent_dir/v.csv") == 3


# ----- top level -----


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "coeffs" in capsys.readouterr().out


def test_unknown_subcommand():
    assert run("frobnicate") == 1
