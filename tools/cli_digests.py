"""Run a fixed list of CLI commands and print the sha256 of every output,
or count what moved between two such runs.

    python3 tools/cli_digests.py OUTDIR
    python3 tools/cli_digests.py OUTDIR --against OTHERDIR

Each command runs in process through `sphradon.cli.main`, against the
library in the `src/` of the checkout that holds this script, with OUTDIR
as the working directory, so that its files and its printed paths are the
same for every OUTDIR; its stdout and stderr are kept there too, as
NAME.out and NAME.err.  The script prints one `sha256  file` line per
file in OUTDIR (so give it a fresh one), sorted by name, so two checkouts
give byte-identical outputs exactly when two runs' printouts `diff`
clean.  Below those, after an `accuracy` line, it prints for each
`reconstruct` output of a phantom (named by `--phantom`, or by the
`forward` command that wrote its `--grid`) the largest |f_rec - f| over
its cells, f the phantom's closed form, and the cell where it occurs;
nothing is written to OUTDIR for it, so every file keeps its bytes.  It
exits 1 if any command exits non-zero.

The list: `coeffs` to order 12, both of its exact-rational CSVs;
`forward` by quadrature (rsqz3 21x21x40, bump 5x5x12 and gauss 9x9x20,
one field of each z-parity: -1, 0 and +1; and bump 3x3x12 at radii from
0.05, whose spheres miss its support and then meet it in windows of rings
that change with the radius) and with `--analytic` (gauss 9x9x20, and
bump 3x3x60 at radii from 0.05: the ladder's a01 rows, spheres that miss
the support and bands that end at its bounds);
`reconstruct` of an rsqz3 order-8 61x41 slice,
a gauss order-4 21x15 slice (CSV and PGM) and a gauss order-8 11x13 slice,
which reads the Hermite rows to power 8, bump even-mirror order-8 y-
and z-slices, grid slices at orders 2 and 4 from the quadrature rsqz3 CSV,
a zsq even-mirror order-2 slice, whose library warning is in its stderr;
and `verify --seed 5`.

With `--against OTHERDIR` it runs nothing: it compares the files of two
earlier runs (say OTHERDIR from a parent checkout, OUTDIR from a change)
and prints one line per file that differs.  For a CSV that both hold it
prints how many data cells moved (rows after the header line, text
compared) and the largest |delta| among the moved cells that are numbers
on both sides, and it names a header that moved; for a `.out` file, the
lines that differ, `-` from OTHERDIR and `+` from OUTDIR; for any other
file, that its bytes differ; and it names a file only one directory
holds.  It exits 0 when every file is byte-identical, else 1.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sphradon import cli  # noqa: E402

# name, argv; every path is relative to OUTDIR
COMMANDS = (
    ("coeffs", "coeffs --max-n 12 --out coeffs.csv"),
    ("forward_rsqz3", "forward --phantom rsqz3 --origin -1,-1 --h 0.1 --np 21 --nq 21 "
     "--umax 2 --nu 40 --out forward_rsqz3.csv"),
    ("forward_bump", "forward --phantom bump --origin -0.2,-0.2 --h 0.1 --np 5 --nq 5 "
     "--umax 2.4 --nu 12 --out forward_bump.csv"),
    ("forward_bump_near", "forward --phantom bump --origin -0.1,-0.1 --h 0.1 --np 3 --nq 3 "
     "--umax 0.6 --nu 12 --out forward_bump_near.csv"),
    ("forward_gauss", "forward --phantom gauss --origin -0.4,-0.4 --h 0.1 --np 9 --nq 9 "
     "--umax 1 --nu 20 --out forward_gauss.csv"),
    ("forward_gauss_analytic", "forward --phantom gauss --origin -0.4,-0.4 --h 0.1 --np 9 --nq 9 "
     "--umax 1 --nu 20 --analytic --out forward_gauss_analytic.csv"),
    ("forward_bump_analytic", "forward --phantom bump --origin -0.1,-0.1 --h 0.1 --np 3 --nq 3 "
     "--umax 3 --nu 60 --analytic --out forward_bump_analytic.csv"),
    ("slice_rsqz3", "reconstruct --phantom rsqz3 --order 8 --slice y=0.3 --xrange -3,3 "
     "--zrange -2,2 --step 0.1 --min-abs-z 0.25 --out slice_rsqz3.csv --pgm slice_rsqz3.pgm"),
    ("slice_gauss", "reconstruct --phantom gauss --order 4 --slice y=0.1 --xrange -1,1 "
     "--zrange -0.7,0.7 --step 0.1 --min-abs-z 0.25 --out slice_gauss.csv --pgm slice_gauss.pgm"),
    ("slice_gauss8", "reconstruct --phantom gauss --order 8 --slice y=0.1 --xrange -0.5,0.5 "
     "--zrange -0.6,0.6 --step 0.1 --min-abs-z 0.25 --out slice_gauss8.csv"),
    ("slice_bump_y", "reconstruct --phantom bump --mode even-mirror --order 8 --slice y=0.1 "
     "--xrange -0.5,0.5 --zrange 1,2 --step 0.5 --out slice_bump_y.csv --pgm slice_bump_y.pgm"),
    ("slice_bump_z", "reconstruct --phantom bump --mode even-mirror --order 8 --slice z=1.5 "
     "--xrange -0.5,0.5 --zrange -0.5,0.5 --step 0.5 --out slice_bump_z.csv"),
    ("grid_order2", "reconstruct --grid forward_rsqz3.csv --order 2 --slice y=0 "
     "--xrange -0.5,0.5 --zrange -1,1 --step 0.1 --min-abs-z 0.25 --out grid_order2.csv"),
    ("grid_order4", "reconstruct --grid forward_rsqz3.csv --order 4 --slice y=0.2 "
     "--xrange -0.4,0.4 --zrange -1.5,1.5 --step 0.1 --min-abs-z 0.25 "
     "--out grid_order4.csv --pgm grid_order4.pgm"),
    ("mirror_zsq", "reconstruct --phantom zsq --mode even-mirror --order 2 --slice y=0 "
     "--xrange 0,0.2 --zrange 0.4,0.6 --step 0.2 --out mirror_zsq.csv"),
    ("verify", "verify --seed 5 --out verify.csv"),
)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _sha256(path: str) -> str:
    return hashlib.sha256(_read(path)).hexdigest()


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_moves(new: str, old: str) -> str:
    """What moved from CSV text `old` to `new`: its header, then its data
    cells, counted and with the largest numeric |delta|."""
    new_rows, old_rows = ([line.split(",") for line in text.splitlines()] for text in (new, old))
    # comment lines and the column header come before the first data row
    heads = [
        next((i + 1 for i, row in enumerate(rows) if not row[0].startswith("#")), len(rows))
        for rows in (new_rows, old_rows)
    ]
    notes = [] if new_rows[: heads[0]] == old_rows[: heads[1]] else ["header moved"]
    new_rows, old_rows = new_rows[heads[0]:], old_rows[heads[1]:]
    if [len(row) for row in new_rows] != [len(row) for row in old_rows]:
        return "; ".join(notes + [f"shape moved: {len(old_rows)} -> {len(new_rows)} rows"])
    moved, cells, delta = 0, 0, 0.0
    for new_row, old_row in zip(new_rows, old_rows):
        cells += len(new_row)
        for a, b in zip(new_row, old_row):
            if a != b:
                moved += 1
                x, y = _number(a), _number(b)
                if x is not None and y is not None and math.isfinite(x - y):
                    delta = max(delta, abs(x - y))
    return "; ".join(notes + [f"{moved} of {cells} cells moved, max |delta| {delta:.3g}"])


def compare(outdir: str, otherdir: str) -> int:
    """Print what differs between the files of two runs; 1 if anything does."""
    names = set(os.listdir(outdir)) | set(os.listdir(otherdir))
    differ = 0
    for name in sorted(names):
        paths = [os.path.join(d, name) for d in (outdir, otherdir)]
        missing = [d for d, path in zip((outdir, otherdir), paths) if not os.path.isfile(path)]
        if missing:
            print(f"{name}: not in {missing[0]}")
            differ += 1
            continue
        new, old = (_read(path) for path in paths)
        if new == old:
            continue
        differ += 1
        if name.endswith(".csv"):
            print(f"{name}: {_csv_moves(new.decode(), old.decode())}")
        elif name.endswith(".out"):
            # past the two file-header lines, every line but the @@ hunk marks
            diff = difflib.unified_diff(old.decode().splitlines(), new.decode().splitlines(), n=0, lineterm="")
            print(f"{name}: lines differ")
            for line in list(diff)[2:]:
                if not line.startswith("@@"):
                    print(f"  {line}")
        else:
            print(f"{name}: bytes differ")
    print(f"{len(names) - differ} of {len(names)} files identical")
    return 1 if differ else 0


def _option(args: list[str], flag: str) -> str | None:
    return args[args.index(flag) + 1] if flag in args else None


def _phantom_outputs() -> list[tuple[str, str]]:
    """(CSV, phantom spec) of every `reconstruct` command, its phantom
    given by `--phantom` or by the command whose `--out` is its `--grid`."""
    runs = [command.split() for _, command in COMMANDS]
    wrote = {_option(args, "--out"): _option(args, "--phantom") for args in runs}
    return [
        (_option(args, "--out"), _option(args, "--phantom") or wrote[_option(args, "--grid")])
        for args in runs
        if args[0] == "reconstruct"
    ]


def accuracy(path: str, spec: str) -> str:
    """The largest |f_rec - f| over the finite cells of the x,y,z,f_rec
    CSV at `path`, f the closed form of phantom `spec`, and its cell."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines() if not line.startswith(("#", "x,"))]
    x, y, z, f_rec = np.array(rows, dtype=float).T
    finite = np.isfinite(f_rec)
    err = np.where(finite, np.abs(f_rec - cli._parse_phantom(spec).evaluate(x, y, z)), -np.inf)
    worst = int(np.argmax(err))
    return f"{os.path.basename(path)}  max |f_rec - f| {err[worst]:.3g} at x,y,z={','.join(rows[worst][:3])}"


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--against":
        return compare(argv[0], argv[2])
    if len(argv) != 1:
        print("usage: python3 tools/cli_digests.py OUTDIR [--against OTHERDIR]", file=sys.stderr)
        return 1
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])
    failed = []
    for name, command in COMMANDS:
        with open(name + ".out", "w") as so, open(name + ".err", "w") as se:
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                rc = cli.main(command.split())
        if rc != 0:
            failed.append(f"{name} exited {rc}")
    for name in sorted(os.listdir(".")):
        print(f"{_sha256(name)}  {name}")
    print("accuracy")
    for path, spec in _phantom_outputs():
        print(accuracy(path, spec) if os.path.isfile(path) else f"{path}  not written")
    for line in failed:
        print(f"cli_digests: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
