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
