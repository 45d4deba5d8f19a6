"""Run a fixed list of CLI commands and print the sha256 of every output.

    python3 tools/cli_digests.py OUTDIR

Each command runs in process through `sphradon.cli.main`, against the
library in the `src/` of the checkout that holds this script, with OUTDIR
as the working directory, so that its files and its printed paths are the
same for every OUTDIR; its stdout and stderr are kept there too, as
NAME.out and NAME.err.  The script prints one `sha256  file` line per
file in OUTDIR (so give it a fresh one), sorted by name, so two checkouts
give byte-identical outputs exactly when two runs' printouts `diff`
clean.  It exits 1 if any command exits non-zero.

The list: `forward` by quadrature (rsqz3 21x21x40, bump 5x5x12) and with
`--analytic` (gauss 9x9x20); `reconstruct` of an rsqz3 order-8 61x41 slice
and a gauss order-4 21x15 slice (CSV and PGM), bump even-mirror order-8 y-
and z-slices, grid slices at orders 2 and 4 from the quadrature rsqz3 CSV,
a zsq even-mirror order-2 slice, whose library warning is in its stderr;
and `verify --seed 5`.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sphradon import cli  # noqa: E402

# name, argv; every path is relative to OUTDIR
COMMANDS = (
    ("forward_rsqz3", "forward --phantom rsqz3 --origin -1,-1 --h 0.1 --np 21 --nq 21 "
     "--umax 2 --nu 40 --out forward_rsqz3.csv"),
    ("forward_bump", "forward --phantom bump --origin -0.2,-0.2 --h 0.1 --np 5 --nq 5 "
     "--umax 2.4 --nu 12 --out forward_bump.csv"),
    ("forward_gauss_analytic", "forward --phantom gauss --origin -0.4,-0.4 --h 0.1 --np 9 --nq 9 "
     "--umax 1 --nu 20 --analytic --out forward_gauss_analytic.csv"),
    ("slice_rsqz3", "reconstruct --phantom rsqz3 --order 8 --slice y=0.3 --xrange -3,3 "
     "--zrange -2,2 --step 0.1 --min-abs-z 0.25 --out slice_rsqz3.csv --pgm slice_rsqz3.pgm"),
    ("slice_gauss", "reconstruct --phantom gauss --order 4 --slice y=0.1 --xrange -1,1 "
     "--zrange -0.7,0.7 --step 0.1 --min-abs-z 0.25 --out slice_gauss.csv --pgm slice_gauss.pgm"),
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


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_digests.py OUTDIR", file=sys.stderr)
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
    for line in failed:
        print(f"cli_digests: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
