"""Oracle checks: worked residuals, sensitivity, fd convergence, CSV."""

from __future__ import annotations

import dataclasses
from math import factorial, pi

import numpy as np
import pytest

from sphradon import checks, forward
from sphradon.checks import (
    CATALOG_RULES,
    ODE_NAMES,
    check_lemma1,
    check_ode_residual,
    check_representation_even,
    check_representation_odd,
    run_all_checks,
    write_residual_csv,
)
from sphradon.coeffs import build_tables, perturb_entry
from sphradon.fields import ScalarField3D, make_phantom, polynomial_field
from sphradon.forward import SphereCenter, harmonic_coefficient
from sphradon.quadrature import build_rule
from sphradon.reconstruct import ReconstructionRequest, reconstruct_point


# ----- representations -----


def test_rep_even_zsq_worked_value():
    r = check_representation_even(make_phantom("zsq"), 0.2, -0.5, 1.0, 1)
    assert r.left == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert r.rel_residual <= 1e-10
    assert r.passed


def test_rep_even_constant_cancels():
    # (4k+1)c against the i=0 integral; the cancellation is exact up to
    # radial quadrature roundoff
    f = make_phantom("const")
    for k in (1, 2):
        r = check_representation_even(f, 1.0, 1.0, 2.0, k)
        assert abs(r.left) <= 1e-12
        assert r.rel_residual <= 1e-12


def test_rep_even_random_polynomial():
    rng = np.random.default_rng(77)
    poly = {}
    for _ in range(8):
        key = tuple(int(e) for e in rng.integers(0, 3, size=3))
        if sum(key) <= 5:
            poly[key] = round(float(rng.uniform(-1, 1)), 6)
    f = polynomial_field(poly, name="rand")
    for k in (1, 2):
        assert check_representation_even(f, 0.7, -0.3, 1.4, k).rel_residual <= 1e-8
        assert check_representation_odd(f, 0.7, -0.3, 1.4, k).rel_residual <= 1e-8


def test_rep_odd_rsqz3():
    r = check_representation_odd(make_phantom("rsqz3"), 1.0, 3.0, 1.0, 2)
    assert r.rel_residual <= 1e-8


def test_rep_odd_z_is_empty_integral_identity():
    r = check_representation_odd(make_phantom("z"), 0.0, 0.0, 1.0, 1)
    assert r.left == pytest.approx(1.0, rel=1e-12)
    assert r.rel_residual <= 1e-12


def test_rep_odd_even_phantom_vanishes():
    for k in (1, 2):
        r = check_representation_odd(make_phantom("gauss"), 0.5, -0.5, 1.0, k)
        assert abs(r.left) <= 1e-12 and abs(r.right) <= 1e-12
        assert r.rel_residual <= 1e-12


def test_rep_argument_errors():
    f = make_phantom("zsq")
    with pytest.raises(ValueError):
        check_representation_even(f, 0, 0, 1.0, -1)
    with pytest.raises(ValueError):
        check_representation_even(f, 0, 0, 1.0, 99)
    with pytest.raises(ValueError):
        check_representation_odd(f, 0, 0, 1.0, 0)
    bare = ScalarField3D(evaluate=lambda x, y, z: np.asarray(z) ** 2, descriptor="bare")
    with pytest.raises(ValueError, match="Laplacian capability"):
        check_representation_even(bare, 0.0, 0.0, 1.0, 1)


def test_bare_field_is_refused_by_checks_and_reconstructor():
    # a field without a ladder carries no moment data: the checks and the
    # reconstructor ask it through `laplacian_block`, which refuses it at
    # every power, order-0 representations and S_0 included
    f = ScalarField3D(evaluate=make_phantom("bump").evaluate, descriptor="bare bump")

    def refused():
        return pytest.raises(ValueError, match="phantom 'bare bump' has no Laplacian capability")

    p, q, t = 0.1, -0.2, 0.7
    for n in (0, 1, 3):
        with refused():
            f.laplacian_block(p, q, [t], n)
    req = ReconstructionRequest(points=((p, q, t),), order_n=0, mode="two_data", source=f)
    with refused():
        reconstruct_point(req, build_tables(0))
    with refused():
        check_representation_even(f, p, q, t, 0)
    with refused():
        check_representation_odd(f, p, q, t, 1)


def test_rep_detects_perturbed_coefficient():
    # one entry nudged by 1e-6 must light up on a phantom whose exact
    # coefficient vanishes at this order, leaving the perturbation bare
    table = build_tables(8)
    bad = perturb_entry(table, "c_even", (2, 1, 2), 1.0 + 1e-6)
    probe = polynomial_field(
        {(4, 0, 0): 20, (0, 4, 0): 20, (0, 0, 4): -15}, name="quartic probe"
    )
    clean = check_representation_even(probe, 1.0, 1.0, 2.0, 2, table=table)
    dirty = check_representation_even(probe, 1.0, 1.0, 2.0, 2, table=bad)
    assert clean.rel_residual <= 1e-8
    assert dirty.rel_residual >= 1e-3


# ----- lemma -----


def test_lemma_constant_vanishes():
    r = check_lemma1(make_phantom("const"), 0.3, 0.3, 1.0)
    assert abs(r.left) <= 1e-12 and abs(r.right) <= 1e-12
    assert r.rel_residual <= 1e-12


def test_lemma_z_field_small_step():
    # both sides are 3t^2; the residual is pure central-difference
    # truncation h^2, so a 1e-5 step lands under 1e-10
    r = check_lemma1(make_phantom("z"), 0.0, 0.0, 1.0, fd_step=1e-5)
    assert r.left == pytest.approx(3.0, rel=1e-10)
    assert r.rel_residual <= 1e-10
    # the moved-3 variant is a different claim and fails loudly
    assert r.extras["variant_rel_residual"] > 0.5


def test_lemma_rsqz3_budget_and_convergence():
    f = make_phantom("rsqz3")
    r1 = check_lemma1(f, 1.0, 3.0, 1.0, fd_step=1e-3)
    r2 = check_lemma1(f, 1.0, 3.0, 1.0, fd_step=5e-4)
    assert r1.rel_residual <= 1e-5
    assert 3.0 <= r1.rel_residual / r2.rel_residual <= 5.0


@pytest.mark.parametrize("step", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_fd_step_must_be_finite(step):
    f = make_phantom("z")
    with pytest.raises(ValueError, match="fd_step"):
        check_lemma1(f, 0, 0, 1.0, fd_step=step)
    with pytest.raises(ValueError, match="fd_step"):
        check_ode_residual(f, "eq4_14", 0, 0, 1.0, 0, fd_step=step)


def test_lemma_step_validation():
    f = make_phantom("z")
    with pytest.raises(ValueError, match="too coarse"):
        check_lemma1(f, 0, 0, 1.0, fd_step=0.3)
    with pytest.raises(ValueError):
        check_lemma1(f, 0, 0, 1.0, fd_step=0.0)
    # the sphere itself is checked before the step is compared with its radius
    for t in (-1.0, 0.0):
        with pytest.raises(ValueError, match=f"sphere radius must be positive and finite, got t={t}"):
            check_lemma1(f, 0, 0, t)
        with pytest.raises(ValueError, match=f"sphere radius must be positive and finite, got t={t}"):
            check_ode_residual(f, "eq4_14", 0, 0, t, 0)
    with pytest.raises(ValueError, match="sphere centre must be finite"):
        check_lemma1(f, np.nan, 0, 1.0, fd_step=0.3)
    with pytest.raises(ValueError, match="sphere radius must be positive and finite, got t=-1.0"):
        run_all_checks(lattice=[(0.0, 0.0, -1.0)])


# ----- consistency ODEs -----


def test_ode_zero_field_all_identities():
    f = make_phantom("zero")
    for which in ODE_NAMES:
        n0 = 1 if which == "eq4_21" else 0
        r = check_ode_residual(f, which, 0.5, -0.5, 1.0, n0)
        assert r.left == 0.0
        assert r.passed


def test_ode_zsq_worked_value():
    r = check_ode_residual(make_phantom("zsq"), "eq4_21", 0.0, 0.0, 1.0, 1)
    assert r.rel_residual <= 1e-6


def test_ode_rsqz3_worked_value():
    r = check_ode_residual(make_phantom("rsqz3"), "eq4_22", 1.0, 3.0, 1.0, 1)
    assert r.rel_residual <= 1e-5


def test_ode_low_n_conventions():
    # n=0 instances rely on a_{1k} = b_{1k} = 0 for k < 1 and must hold
    f = make_phantom("rsqz3")
    for which in ("eq4_14", "eq4_16", "eq4_22"):
        assert check_ode_residual(f, which, 1.0, -1.0, 1.0, 0).rel_residual <= 1e-5


def test_ode_validation():
    f = make_phantom("zsq")
    with pytest.raises(ValueError, match="unknown identity"):
        check_ode_residual(f, "eq4_99", 0, 0, 1.0, 1)
    with pytest.raises(ValueError, match="n >= 1"):
        check_ode_residual(f, "eq4_21", 0, 0, 1.0, 0)
    with pytest.raises(ValueError, match="n >= 0"):
        check_ode_residual(f, "eq4_14", 0, 0, 1.0, -1)
    with pytest.raises(ValueError, match="too coarse"):
        check_ode_residual(f, "eq4_14", 0, 0, 1.0, 0, fd_step=0.5)


def test_ode_convergence_ratio():
    f = make_phantom("rsqz3")
    r1 = check_ode_residual(f, "eq4_21", 1.0, 1.0, 1.0, 2, fd_step=1e-3)
    r2 = check_ode_residual(f, "eq4_21", 1.0, 1.0, 1.0, 2, fd_step=5e-4)
    assert r1.rel_residual >= 1e-7  # guard: above the quadrature floor
    assert 3.0 <= r1.rel_residual / r2.rel_residual <= 5.0


# ----- suite and CSV -----


def test_run_all_checks_small_lattice(tmp_path):
    reports = run_all_checks(lattice=((0.0, 1.0, 1.0),), seed=5)
    assert all(r.passed for r in reports)
    idents = {r.identity for r in reports}
    assert idents == {"rep_even", "rep_odd", "lemma1", *ODE_NAMES}
    phantoms = {r.extras["phantom"] for r in reports}
    assert len(phantoms) == 9  # catalog of 6 plus 3 seeded polynomials

    path = tmp_path / "residuals.csv"
    write_residual_csv(reports, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "identity,p,q,t,n,left,right,abs_residual,rel_residual,pass"
    assert len(lines) == 1 + len(reports)
    lemma_rows = [ln for ln in lines[1:] if ln.startswith("lemma1,")]
    assert lemma_rows and all(ln.split(",")[4] == "" for ln in lemma_rows)
    assert all(ln.endswith(",true") for ln in lines[1:])


@pytest.mark.parametrize("order", [0, 1])
def test_run_all_checks_refuses_a_table_below_order_2(order):
    # the gate checks the even representation at k = 2, which needs order 2
    with pytest.raises(ValueError, match=f"order >= 2, got order {order}"):
        run_all_checks(table=build_tables(order), lattice=[(1.0, -1.0, 1.0)])


def test_run_all_checks_evaluates_each_sphere_once(monkeypatch):
    # one lattice point needs 17 spheres per catalog phantom: the centre,
    # its 4 transverse and 2 radial neighbours, 8 transverse-and-radial
    # shifts for eq4_22 and 2 off-plane centres for lemma1; the moment
    # ladders evaluate the field on their own, outside this count
    counts = dict.fromkeys((name for name, _ in CATALOG_RULES), 0)

    def counted(name, **params):
        f = make_phantom(name, **params)

        def evaluate(x, y, z):
            counts[name] += 1
            return f.evaluate(x, y, z)

        return dataclasses.replace(f, evaluate=evaluate)

    monkeypatch.setattr(checks, "make_phantom", counted)
    reports = run_all_checks(lattice=((1.0, -1.0, 1.0),))
    assert reports and all(r.passed for r in reports)
    assert all(0 < n <= 20 for n in counts.values()), counts


def test_run_all_checks_projects_each_coefficient_once(monkeypatch):
    # one lattice point, with the seed's three random polynomials: 498
    # projections where one per stencil lookup made 774; on each of the
    # dense gauss (64 x 160) and bump (256 x 64) rules, 81 where 127
    sizes = []
    project = checks._project

    def counted(vals, rule, *args):
        sizes.append(rule.w.size)
        return project(vals, rule, *args)

    monkeypatch.setattr(checks, "_project", counted)
    reports = run_all_checks(seed=1, lattice=((1.0, -1.0, 1.0),))
    assert reports and all(r.passed for r in reports)
    assert len(sizes) == 498
    assert sizes.count(64 * 160) == sizes.count(256 * 64) == 81


def test_stencil_coefficient_equals_harmonic_coefficient():
    # a coefficient read again from the stencil is the stored value, and
    # every one is `harmonic_coefficient` on its shifted sphere bit for bit
    f, rule, h = make_phantom("gauss"), build_rule(24, 48), 1e-3
    s = checks._Spheres(f, 0.3, -0.2, 0.8, rule, h)
    for n, m, kind, shift in ((2, 0, "a", {}), (3, 1, "b", {"dq": -1}), (1, 1, "a", {"dp": 1, "dt": 1})):
        first = s(n, m, kind, **shift)
        assert s(n, m, kind, **shift) == first
        c = SphereCenter(0.3 + shift.get("dp", 0) * h, -0.2 + shift.get("dq", 0) * h, 0.8 + shift.get("dt", 0) * h)
        assert first == harmonic_coefficient(f, c, n, m, kind, rule)


# ----- the stencil of a field with a declared z-support -----

_BUMP_RULE = dict(CATALOG_RULES)["bump"]
# every sphere of the lemma and ODE stencils, two of them off the plane
_STENCIL = [(0, 0, 0, 0)] + [tuple(e if i == axis else 0 for i in range(4)) for axis in range(4) for e in (-1, 1)]


def test_bump_stencil_node_budget(monkeypatch):
    # at (1, -1, 1) on the bump's 256 x 64 rule, 136 of the 256 rings lie
    # below its support z > 0.1: every stencil sphere evaluates its window
    # of 120 rings, at most 128 x 64 nodes, with each sphere's values
    # stored beside their window
    shapes = []
    node_values = forward._node_values

    def counted(f, X, Y, Z):
        shapes.append(Z.shape)
        return node_values(f, X, Y, Z)

    monkeypatch.setattr(forward, "_node_values", counted)
    s = checks._Spheres(make_phantom("bump"), 1.0, -1.0, 1.0, build_rule(*_BUMP_RULE), 1e-3)
    for key in _STENCIL:
        s(0, 0, "a", *key)
        s(2, 1, "b", *key)
    assert len(shapes) == len(_STENCIL) and all(shape[0] <= 128 * 64 for shape in shapes)
    assert shapes[0] == (120 * 64,)
    for key in _STENCIL:
        vals, window = s._values[key]
        assert vals.size == (window.hi - window.lo) * 64 and window.hi == 256


def test_windowed_stencil_agrees_with_every_node():
    # each stencil coefficient sums the same nonzero terms as the stencil of
    # the bump declared unbounded, in another order: within 8 eps of
    # norm * sum |terms|
    f, rule, h = make_phantom("bump"), build_rule(*_BUMP_RULE), 1e-3
    g = dataclasses.replace(f, z_support=(-np.inf, np.inf))
    eps = np.finfo(float).eps
    for point in ((1.0, -1.0, 1.0), (0.0, 0.0, 0.5), (-1.0, 1.0, 2.0)):
        s, plain = checks._Spheres(f, *point, rule, h), checks._Spheres(g, *point, rule, h)
        for key in _STENCIL:
            for n, m, kind in ((0, 0, "a"), (1, 0, "a"), (2, 0, "a"), (1, 1, "a"), (2, 1, "b")):
                got, want = s(n, m, kind, *key), plain(n, m, kind, *key)
                terms = plain._values[key][0] * rule.w
                for row in forward._factor_rows(rule, n, m, kind):
                    terms = terms * row
                norm = (2 * n + 1) / (4 * pi) * (1 if m == 0 else 2 * factorial(n - m) / factorial(n + m))
                assert abs(got - want) <= 8 * eps * norm * float(np.abs(terms).sum()), (point, key, n, m, kind)
