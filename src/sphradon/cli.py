"""Command-line frontend: coefficient export, sampling, inversion, checks.

Four subcommands over the library, with deterministic byte-identical output
for identical arguments and atomic (write-then-rename) file emission:

    coeffs       exact-rational coefficient and filter-polynomial tables
    forward      sample a phantom's moment data onto a detector grid CSV
    reconstruct  invert analytic or gridded data over a planar slice
    verify       run the full residual-check lattice and write the report

Exit codes: 0 success, 1 usage or invalid configuration, 2 a numerical
check failed its tolerance, 3 I/O failure.

The phantom argument is NAME, NAME:params, or NAME(params); params are
comma-separated key=value pairs (a single bare number binds to the factory's
first parameter, so const:3 is the constant 3); a parameter given twice,
also through a second bare number, or a value that is not a number, is
refused by name.  The name paper8 is kept as an alias of rsqz3 because
published artifacts refer to the worked-example phantom by that label.

A slice in the plane z=V reuses --zrange for the y extent: the flag set is
fixed, and a z-slice has no z extent to spend it on.
"""

from __future__ import annotations

import argparse
import inspect
import io
import os
import re
import sys
import warnings

import numpy as np

from . import fields
from ._io import atomic_write
from .checks import IDENTITIES, run_all_checks, write_residual_csv
from .coeffs import (
    build_tables,
    perturb_entry,
    write_coefficient_csv,
    write_polynomial_csv,
)
from .fields import PHANTOM_NAMES, ScalarField3D, make_phantom
from .moments import read_moment_csv, sample_moments, write_moment_csv
from .reconstruct import (
    SliceSpec,
    reconstruct_slice,
    write_slice_csv,
    write_slice_pgm,
)

__all__ = ["main"]

_TABLE_ORDER = 8
_ALIASES = {"paper8": "rsqz3"}


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # values like -3,3 or -0.2,-0.2 must bind to pair-valued flags
        # rather than being mistaken for option strings
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+(?:,-?\d*\.?\d+)*$")


def _pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A,B, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_phantom(spec: str) -> ScalarField3D:
    m = re.fullmatch(r"([A-Za-z0-9_]+)\((.*)\)", spec)
    if m:
        name, params = m.group(1), m.group(2)
    elif ":" in spec:
        name, params = spec.split(":", 1)
    else:
        name, params = spec, ""
    name = _ALIASES.get(name, name)
    kwargs = {}
    for tok in filter(None, (t.strip() for t in params.split(","))):
        if "=" in tok:
            key, val = (part.strip() for part in tok.split("=", 1))
        else:
            params_of = inspect.signature(fields._phantom_constructor(name)).parameters
            if not params_of:
                raise ValueError(f"phantom {name!r} takes no parameters")
            key, val = next(iter(params_of)), tok
        if key in kwargs:
            raise ValueError(f"{name} parameter {key} is given twice")
        try:
            kwargs[key] = float(val)
        except ValueError:
            raise ValueError(f"{name} parameter {key} must be a number, got {val!r}") from None
    return make_phantom(name, **kwargs)


# ----- subcommands -----


def _cmd_coeffs(args: argparse.Namespace) -> int:
    if args.max_n < 0:
        raise ValueError("--max-n must be >= 0")
    table = build_tables(args.max_n)
    buf = io.StringIO()
    write_coefficient_csv(table, buf)
    atomic_write(args.out, buf.getvalue().encode())
    root, ext = os.path.splitext(args.out)
    poly_path = f"{root}.polynomials{ext or '.csv'}"
    buf = io.StringIO()
    write_polynomial_csv(table, args.max_n, buf)
    atomic_write(poly_path, buf.getvalue().encode())
    print(f"wrote {args.out} and {poly_path}")
    return 0


def _cmd_forward(args: argparse.Namespace) -> int:
    for flag, value in (("--h", args.h), ("--umax", args.umax)):
        if not 0 < value < np.inf:
            raise ValueError(f"{flag} must be positive and finite")
    if not np.all(np.isfinite(args.origin)):
        raise ValueError("--origin must be finite")
    if args.n_p < 1 or args.n_q < 1 or args.n_u < 1:
        raise ValueError("--np, --nq, --nu must be >= 1")
    field = _parse_phantom(args.phantom)
    du = args.umax / args.n_u
    nodes = du * np.arange(1, args.n_u + 1)
    grid = sample_moments(
        field, args.origin, args.h, args.n_p, args.n_q, nodes, analytic=args.analytic
    )
    write_moment_csv(grid, args.out)
    print(f"wrote {args.out}: {args.n_p}x{args.n_q} centers, {args.n_u} radii")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    m = re.fullmatch(r"([yz])=(.+)", args.slice_)
    if not m:
        raise ValueError(f"--slice must look like y=V or z=V, got {args.slice_!r}")
    axis, value = m.group(1), float(m.group(2))
    mode = args.mode.replace("-", "_")
    if not 0 < args.step < np.inf:
        raise ValueError("--step must be positive and finite")
    if not 0 < args.min_abs_z < np.inf:
        raise ValueError("--min-abs-z must be positive and finite")
    if args.order_n < 0 or args.order_n > _TABLE_ORDER:
        raise ValueError(f"--order must be in 0..{_TABLE_ORDER}")
    if args.phantom is not None:
        source = _parse_phantom(args.phantom)
    else:
        source = read_moment_csv(args.grid_path)
    spec = SliceSpec(
        axis=axis,
        value=value,
        xrange=args.xrange,
        other_range=args.zrange,
        step=args.step,
    )
    table = build_tables(args.order_n)
    result = reconstruct_slice(
        spec, args.order_n, mode, source, table, min_abs_z=args.min_abs_z
    )
    write_slice_csv(result, args.out)
    msg = f"wrote {args.out}: {result.values.shape[0]}x{result.values.shape[1]} points"
    if args.pgm:
        write_slice_pgm(result, args.pgm)
        msg += f" (+ {args.pgm})"
    print(msg)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 0 < args.fd_step < np.inf:
        raise ValueError("--fd-step must be positive and finite")
    table = build_tables(_TABLE_ORDER)
    if args.perturb:
        try:
            family, key_text, factor_text = args.perturb.split(":")
            key = tuple(int(v) for v in key_text.split(","))
            if len(key) != 3:
                raise ValueError
            factor = float(factor_text)
        except ValueError:
            raise ValueError(
                f"malformed perturbation {args.perturb!r}; expected FAMILY:K,I,M:FACTOR"
            ) from None
        table = perturb_entry(table, family, key, factor)
    reports = run_all_checks(table=table, fd_step=args.fd_step, seed=args.seed)
    write_residual_csv(reports, args.out)
    failures = [r for r in reports if not r.passed]
    print(f"{len(reports)} checks, {len(failures)} failures -> {args.out}")
    for name in IDENTITIES:
        ratios = [(r.rel_residual / r.tolerance, r) for r in reports if r.identity == name]
        if ratios:
            # the first in report order within a relative 1e-12 of the
            # largest, so last-bit noise cannot choose between symmetric points
            top = max(ratio for ratio, _ in ratios)
            ratio, r = next((pair for pair in ratios if pair[0] >= top * (1 - 1e-12)), ratios[0])
            phantom = r.extras.get("phantom", "?")
            print(f"worst {name} rel/tol={ratio:.3e} phantom={phantom} point={r.point}")
    for r in failures:
        phantom = r.extras.get("phantom", "?")
        print(
            f"FAIL {r.identity} phantom={phantom} point={r.point} n={r.n} "
            f"rel={r.rel_residual:.3e} tol={r.tolerance:g}"
        )
    return 2 if failures else 0


# ----- wiring -----


def _build_parser() -> _Parser:
    parser = _Parser(prog="sphradon", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    c = sub.add_parser("coeffs", help="export exact coefficient tables")
    c.add_argument("--max-n", type=int, required=True, metavar="N")
    c.add_argument("--out", required=True, metavar="PATH")

    f = sub.add_parser("forward", help="sample moment data onto a grid CSV")
    f.add_argument(
        "--phantom",
        required=True,
        metavar="NAME[:params]",
        help=f"one of {', '.join(PHANTOM_NAMES)} (paper8 = rsqz3)",
    )
    f.add_argument("--origin", type=_pair, required=True, metavar="P0,Q0")
    f.add_argument("--h", type=float, required=True)
    f.add_argument("--np", dest="n_p", type=int, required=True, metavar="NP")
    f.add_argument("--nq", dest="n_q", type=int, required=True, metavar="NQ")
    f.add_argument("--umax", type=float, required=True, metavar="U")
    f.add_argument("--nu", dest="n_u", type=int, required=True, metavar="NU")
    f.add_argument("--out", required=True, metavar="PATH")
    f.add_argument("--analytic", action="store_true", help="use analytic moment callbacks")

    r = sub.add_parser("reconstruct", help="invert data over a planar slice")
    src = r.add_mutually_exclusive_group(required=True)
    src.add_argument("--phantom", metavar="NAME[:params]")
    src.add_argument("--grid", dest="grid_path", metavar="PATH")
    r.add_argument("--order", dest="order_n", type=int, required=True, metavar="N")
    r.add_argument("--mode", choices=("two-data", "even-mirror"), default="two-data")
    r.add_argument("--slice", dest="slice_", required=True, metavar="y=V|z=V")
    r.add_argument("--xrange", type=_pair, required=True, metavar="A,B")
    r.add_argument(
        "--zrange",
        type=_pair,
        required=True,
        metavar="A,B",
        help="z extent for y-slices; the y extent for z-slices",
    )
    r.add_argument("--step", type=float, required=True, metavar="S")
    r.add_argument("--min-abs-z", dest="min_abs_z", type=float, default=1e-3, metavar="E")
    r.add_argument("--out", required=True, metavar="PATH")
    r.add_argument("--pgm", metavar="PATH", help="also render an 8-bit PGM image")

    v = sub.add_parser("verify", help="run every residual check, write the CSV report")
    v.add_argument("--fd-step", dest="fd_step", type=float, default=1e-3, metavar="E")
    v.add_argument("--seed", type=int, metavar="S")
    v.add_argument("--out", required=True, metavar="PATH")
    v.add_argument("--perturb", help=argparse.SUPPRESS)

    return parser


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "forward": _cmd_forward,
    "reconstruct": _cmd_reconstruct,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            # a library warning is one line on stderr, like an error
            warnings.showwarning = lambda message, *_: print(
                f"sphradon: warning: {message}", file=sys.stderr
            )
            return _HANDLERS[args.subcommand](args)
    except (ValueError, KeyError) as exc:
        print(f"sphradon: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sphradon: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
