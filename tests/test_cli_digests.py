"""tools/cli_digests.py --against: what moved between two output directories."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)


def _write(d: Path, files: dict) -> str:
    d.mkdir()
    for name, text in files.items():
        (d / name).write_text(text)
    return str(d)


_MOMENTS = "# h=0.1 Np=1 Nq=1 u0=0.1 du=0.1 Nu=2\np,q,u,Mf,a01\n0,0,0.1,{},0.5\n0,0,0.20000000000000001,{},0.25\n"
_VERIFY = "2 checks, 0 failures -> verify.csv\nworst lemma1 rel/tol={} point=(0.0, 0.0, 1.0)\n"


def test_against_counts_moved_cells_and_lines(tmp_path, capsys):
    old = _write(tmp_path / "old", {
        "m.csv": _MOMENTS.format("1.9e-22", "-3e-20"),
        "v.csv": "identity,pass\nlemma1,true\nrep_even,true\n",
        "verify.out": _VERIFY.format("3.333e-01"),
        "s.pgm": "P5 1 1 255\n\x07",
        "same.out": "unchanged\n",
        "gone.err": "",
    })
    new = _write(tmp_path / "new", {
        "m.csv": _MOMENTS.format("0", "-3e-20"),
        "v.csv": "identity,pass\nlemma1,false\nrep_even,true\n",
        "verify.out": _VERIFY.format("3.334e-01"),
        "s.pgm": "P5 1 1 255\n\x08",
        "same.out": "unchanged\n",
    })
    assert cli_digests.main([new, "--against", old]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"gone.err: not in {new}",
        "m.csv: 1 of 10 cells moved, max |delta| 1.9e-22",
        "s.pgm: bytes differ",
        "v.csv: 1 of 4 cells moved, max |delta| 0",
        "verify.out: lines differ",
        "  -worst lemma1 rel/tol=3.333e-01 point=(0.0, 0.0, 1.0)",
        "  +worst lemma1 rel/tol=3.334e-01 point=(0.0, 0.0, 1.0)",
        "1 of 6 files identical",
    ]


def test_against_names_a_moved_header_and_shape(tmp_path, capsys):
    old = _write(tmp_path / "old", {"m.csv": _MOMENTS.format("1", "2")})
    new = _write(tmp_path / "new", {"m.csv": _MOMENTS.format("1", "2").replace("Nu=2", "Nu=1").rsplit("0,0,0.2", 1)[0]})
    assert cli_digests.main([new, "--against", old]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "m.csv: header moved; shape moved: 2 -> 1 rows",
        "0 of 1 files identical",
    ]


def test_against_identical_directories_exits_zero(tmp_path, capsys):
    files = {"m.csv": _MOMENTS.format("1", "2"), "verify.out": _VERIFY.format("1e-3")}
    a, b = _write(tmp_path / "a", files), _write(tmp_path / "b", files)
    assert cli_digests.main([a, "--against", b]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 of 2 files identical"]


def test_a_bad_command_line_prints_the_usage(capsys):
    assert cli_digests.main(["a", "--versus", "b"]) == 1
    assert "usage: python3 tools/cli_digests.py OUTDIR [--against OTHERDIR]" in capsys.readouterr().err


def test_accuracy_names_the_worst_finite_cell(tmp_path):
    # zsq is z^2; the NaN cell (an on-plane point) is skipped
    path = tmp_path / "s.csv"
    path.write_text("# order=2 mode=two-data\nx,y,z,f_rec\n0,0,1,1.5\n0,0,0,nan\n0.5,0,2,4.25\n0,0,-1,1\n")
    assert cli_digests.accuracy(str(path), "zsq") == "s.csv  max |f_rec - f| 0.5 at x,y,z=0,0,1"


def test_every_reconstruct_output_is_checked_against_its_phantom():
    # a grid slice is checked against the phantom its forward command sampled
    outputs = dict(cli_digests._phantom_outputs())
    assert outputs["grid_order2.csv"] == outputs["grid_order4.csv"] == "rsqz3"
    assert outputs["slice_bump_y.csv"] == "bump" and len(outputs) == 8


# max |f_rec - f| of each reconstruct output of the digest list, as
# `cli_digests.accuracy` prints it, against a bound over its measured value
# (in the comment).  The bounds leave room for the bits that move with the
# CPU's BLAS kernel and SIMD path (slice_rsqz3 by up to 1.1e-8), and no
# more.  Two outputs are known defects, bounded so that they get no worse:
# slice_bump_y, whose default radial rule is far from converged at z = 2,
# and grid_order4, whose trapezoid radial rule fails past order 2.
_ACCURACY_BOUNDS = {
    "slice_rsqz3.csv": 1e-7,  # 3.59e-9
    "slice_gauss.csv": 2e-7,  # 7.9e-8
    "slice_gauss8.csv": 2e-9,  # 4.73e-10
    "slice_bump_y.csv": 0.25,  # 0.217, a known defect (max |f| 0.98)
    "slice_bump_z.csv": 5e-3,  # 3.3e-3
    "grid_order2.csv": 4e-2,  # 2.96e-2
    "grid_order4.csv": 1.5,  # 1.29, a known defect (max |f| 0.68)
    "mirror_zsq.csv": 1e-13,  # 3.33e-15
}


def test_reconstruct_outputs_stay_within_their_accuracy_bounds(tmp_path, monkeypatch):
    # the digest list's reconstruct commands, and the forward command whose
    # CSV the grid slices read, in process
    monkeypatch.chdir(tmp_path)
    for name, command in cli_digests.COMMANDS:
        if name == "forward_rsqz3" or command.startswith("reconstruct "):
            assert cli_digests.cli.main(command.split()) == 0, name
    errors = {}
    for path, spec in cli_digests._phantom_outputs():
        line = cli_digests.accuracy(path, spec)
        errors[path] = float(line.split("max |f_rec - f| ")[1].split(" at ")[0])
    assert errors.keys() == _ACCURACY_BOUNDS.keys()
    assert {path: err for path, err in errors.items() if not err <= _ACCURACY_BOUNDS[path]} == {}
