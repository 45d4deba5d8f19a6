"""Spans at the library's public boundaries, recorded from outside it.

A traced run wraps public callables where the calling module looks them up
(`cli.sample_moments`, `reconstruct.laplacian_power`, `polynomials.eval_pqt`,
...) and the callbacks of every phantom the library hands out (through
`dataclasses.replace` on `ScalarField3D`).  Each call becomes a span: name,
start, end, parent span and a size (points evaluated, reports returned,
bytes written).  Spans live in flat arrays and are written out once, when
the run ends.  Only calls inside a recording window (set-up and each
repetition) are recorded, so the benchmark's own output checks leave no
spans.

A name that the library no longer has is skipped: its metrics read as zero
calls.  The untraced run never imports this module's wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import time
from array import array

import numpy as np

SPHERE_PASSES = (
    "forward.spherical_mean",
    "forward.first_cosine_coefficient",
    "forward.harmonic_coefficient",
    "forward.off_plane_mean",
)


def _points(args, kwargs, out):
    return int(np.broadcast(*(np.asarray(a) for a in args[:3])).size)


def _request_points(args, kwargs, out):
    req = args[0] if args else kwargs["req"]
    return len(req.points)


def _count(args, kwargs, out):
    return len(out)


def _file_bytes(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self._ids: dict[str, int] = {}  # span name -> id, in first-use order
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.size = array("q")
        self._stack: list[int] = []
        self.recording = False
        self.windows: list[tuple[int, int]] = []  # [lo, hi) span ranges

    @contextlib.contextmanager
    def window(self):
        """Record the spans of the calls made inside the block."""
        lo = len(self.start)
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            self.windows.append((lo, len(self.start)))

    def wrap(self, fn, name: str, size=None, result=None):
        """fn recorded as span `name`; `size` measures it, `result` maps its value."""
        if getattr(fn, "_traced", False):
            return fn
        nid = self._ids.setdefault(name, len(self._ids))
        clock = time.perf_counter
        start, end, name_ids, parent, sizes, stack = (
            self.start, self.end, self.name, self.parent, self.size, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                out = fn(*args, **kwargs)
                return result(out) if result else out
            idx = len(start)
            name_ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            sizes.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size is not None:
                sizes[idx] = size(args, kwargs, out)
            return result(out) if result else out

        traced._traced = True
        return traced

    def wrap_field(self, f):
        """The phantom with its evaluate and moment callbacks traced."""
        if not dataclasses.is_dataclass(f):
            return f
        present = {fl.name for fl in dataclasses.fields(f)}
        spans = {
            "evaluate": ("fields.evaluate", _points),
            "analytic_moments": ("fields.moments", None),
            "analytic_laplacians": ("fields.laplacians", None),
        }
        changes = {
            attr: self.wrap(getattr(f, attr), name, size)
            for attr, (name, size) in spans.items()
            if attr in present and getattr(f, attr) is not None
        }
        return dataclasses.replace(f, **changes) if changes else f

    def install(self, lib) -> None:
        """Wrap every boundary listed in `boundaries` that `lib` still has."""
        for module_name, attr, name, size, returns_field in boundaries():
            module = lib
            for part in filter(None, module_name.split(".")):
                module = getattr(module, part, None)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                continue
            setattr(module, attr, self.wrap(fn, name, size, self.wrap_field if returns_field else None))

    def _columns(self, lo: int = 0, hi: int | None = None):
        """Copies of the span columns [lo, hi), so recording can go on."""
        hi = len(self.start) if hi is None else hi
        return (
            np.array(self.name[lo:hi], dtype=np.int64),
            np.array(self.parent[lo:hi], dtype=np.int64),
            np.array(self.start[lo:hi], dtype=float),
            np.array(self.end[lo:hi], dtype=float),
            np.array(self.size[lo:hi], dtype=np.int64),
        )

    def save(self, path: str) -> None:
        name, parent, start, end, size = self._columns()
        np.savez_compressed(
            path,
            names=np.array(list(self._ids), dtype=str),
            name=name,
            parent=parent,
            start=start,
            end=end,
            size=size,
            windows=np.array(self.windows, dtype=np.int64).reshape(-1, 2),
        )

    def totals(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name over spans [lo, hi): calls, time, self time, size,
        and the points of evaluate calls made by forward's sphere passes."""
        n = hi - lo
        if n <= 0:
            return {}
        name, parent, start, end, size = self._columns(lo, hi)
        parent = parent - lo
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        passes = [self._ids[p] for p in SPHERE_PASSES if p in self._ids]
        under_pass = np.zeros(n, dtype=bool)
        under_pass[has_parent] = np.isin(name[parent[has_parent]], passes)
        names = list(self._ids)
        out = {}
        for nid in np.unique(name):
            sel = name == nid
            out[names[nid]] = {
                "calls": int(sel.sum()),
                "time": float(dur[sel].sum()),
                "self": float(self_t[sel].sum()),
                "size": int(size[sel].sum()),
                "pass_size": int(size[sel & under_pass].sum()),
            }
        return out


def boundaries():
    """(module path under the package, attribute, span name, size, returns a phantom).

    Each entry is a public callable as one calling module sees it; the
    empty module path is the package namespace the benchmark calls through.
    """
    return [
        ("", "build_tables", "coeffs.build_tables", None, False),
        ("", "make_phantom", "fields.make_phantom", None, True),
        ("", "reconstruct_slice", "reconstruct.reconstruct_slice", None, False),
        ("", "mirror_even_reconstruct", "reconstruct.mirror_even_reconstruct", None, False),
        ("", "run_all_checks", "checks.run_all_checks", _count, False),
        ("cli", "main", "cli.main", None, False),
        ("cli", "build_tables", "coeffs.build_tables", None, False),
        ("cli", "make_phantom", "fields.make_phantom", None, True),
        ("cli", "sample_moments", "moments.sample_moments", None, False),
        ("cli", "write_moment_csv", "moments.write_moment_csv", _file_bytes, False),
        ("cli", "read_moment_csv", "moments.read_moment_csv", None, False),
        ("cli", "reconstruct_slice", "reconstruct.reconstruct_slice", None, False),
        ("cli", "write_slice_csv", "reconstruct.write_slice_csv", None, False),
        ("cli", "write_slice_pgm", "reconstruct.write_slice_pgm", None, False),
        ("cli", "run_all_checks", "checks.run_all_checks", _count, False),
        ("cli", "write_residual_csv", "checks.write_residual_csv", None, False),
        ("moments", "spherical_mean", "forward.spherical_mean", None, False),
        ("moments", "first_cosine_coefficient", "forward.first_cosine_coefficient", None, False),
        ("reconstruct", "reconstruct_point", "reconstruct.reconstruct_point", _request_points, False),
        ("reconstruct", "laplacian_power", "moments.laplacian_power", None, False),
        ("reconstruct", "spherical_mean", "forward.spherical_mean", None, False),
        ("reconstruct", "first_cosine_coefficient", "forward.first_cosine_coefficient", None, False),
        ("checks", "build_tables", "coeffs.build_tables", None, False),
        ("checks", "make_phantom", "fields.make_phantom", None, True),
        ("checks", "build_rule", "quadrature.build_rule", None, False),
        ("checks", "harmonic_coefficient", "forward.harmonic_coefficient", None, False),
        ("checks", "off_plane_mean", "forward.off_plane_mean", None, False),
        ("checks", "spherical_mean", "forward.spherical_mean", None, False),
        ("checks", "first_cosine_coefficient", "forward.first_cosine_coefficient", None, False),
        ("checks", "check_representation_even", "checks.check_representation_even", None, False),
        ("checks", "check_representation_odd", "checks.check_representation_odd", None, False),
        ("checks", "check_lemma1", "checks.check_lemma1", None, False),
        ("checks", "check_ode_residual", "checks.check_ode_residual", None, False),
        ("fields", "build_rule", "quadrature.build_rule", None, False),
        ("fields", "polynomial_field", "fields.polynomial_field", None, True),
        ("forward", "build_rule", "quadrature.build_rule", None, False),
        ("polynomials", "eval_pqt", "polynomials.eval_pqt", None, False),
    ]


def _time(*names):
    return lambda t: sum(t.get(n, {}).get("time", 0.0) for n in names)


def _calls(*names):
    return lambda t: sum(t.get(n, {}).get("calls", 0) for n in names)


def _size(*names):
    return lambda t: sum(t.get(n, {}).get("size", 0) for n in names)


def _self(layer):
    return lambda t: sum((v["self"] for n, v in t.items() if n.startswith(layer + ".")), 0.0)


# per-layer metric -> its value from one window's totals (units: BENCHMARK.json)
LAYER_METRICS = {
    "fields.laplacians_s": _time("fields.laplacians"),
    "fields.laplacians_calls": _calls("fields.laplacians"),
    "fields.moments_s": _time("fields.moments"),
    "fields.moments_calls": _calls("fields.moments"),
    "polynomials.eval_pqt_s": _time("polynomials.eval_pqt"),
    "polynomials.eval_pqt_calls": _calls("polynomials.eval_pqt"),
    "reconstruct.self_s": _self("reconstruct"),
    "reconstruct.points": _size("reconstruct.reconstruct_point"),
    "coeffs.build_tables_s": _time("coeffs.build_tables"),
    "coeffs.build_tables_calls": _calls("coeffs.build_tables"),
    "quadrature.build_rule_s": _time("quadrature.build_rule"),
    "quadrature.build_rule_calls": _calls("quadrature.build_rule"),
    "forward.sphere_pass_s": _time(*SPHERE_PASSES),
    "forward.sphere_pass_calls": _calls(*SPHERE_PASSES),
    "forward.field_points": lambda t: t.get("fields.evaluate", {}).get("pass_size", 0),
    "moments.sample_s": _time("moments.sample_moments"),
    "moments.write_csv_s": _time("moments.write_moment_csv"),
    "moments.csv_bytes": _size("moments.write_moment_csv"),
    "moments.read_csv_s": _time("moments.read_moment_csv"),
    "moments.laplacian_power_s": _time("moments.laplacian_power"),
    "moments.laplacian_power_calls": _calls("moments.laplacian_power"),
    "checks.representation_s": _time(
        "checks.check_representation_even", "checks.check_representation_odd"
    ),
    "checks.lemma1_s": _time("checks.check_lemma1"),
    "checks.ode_s": _time("checks.check_ode_residual"),
    "checks.self_s": _self("checks"),
    "checks.reports": _size("checks.run_all_checks"),
    "cli.self_s": _self("cli"),
    "reconstruct.write_s": _time("reconstruct.write_slice_csv", "reconstruct.write_slice_pgm"),
}
