"""The benchmark's workloads run against the current library.

perfbench/workloads.py calls the library by name (`analytic_moments`,
`analytic_laplacians`, `reconstruct_point`, the CLI, ...).  Each workload
is set up, run once and checked here, so a name the benchmark still uses
cannot disappear unnoticed.  The benchmark file is imported, never edited.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

import sphradon
import sphradon.cli  # noqa: F401  (the benchmark calls lib.cli; the package does not import it)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    """The benchmark's workloads module, compiled from source so that no
    bytecode cache is written next to it."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module


W = _load_workloads()


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_sets_up_runs_and_checks(name, tmp_path):
    wl = W.WORKLOADS[name](sphradon, 1, str(tmp_path))
    wl.setup()
    payload, item_s = wl.run()
    assert item_s >= 0.0
    err = wl.check(payload)
    assert err >= 0.0
