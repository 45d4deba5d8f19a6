"""Oracle checks: worked residuals, sensitivity, fd convergence, CSV."""

from __future__ import annotations

import numpy as np
import pytest

from sphradon.checks import (
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
from sphradon.forward import SphereCenter, first_cosine_coefficient, spherical_mean
from sphradon.reconstruct import _AnalyticSource


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


def test_bare_field_moments_agree_with_reconstructor():
    # without callbacks the checks and the reconstructor ask the same field
    # layer, which makes one sphere pass under the default rule; order-0
    # representations carry the moments unscaled
    f = ScalarField3D(evaluate=make_phantom("bump").evaluate, descriptor="bare bump")
    src = _AnalyticSource(f, 0, None)
    for p, q, t in ((0.1, -0.2, 0.7), (0.5, 0.3, 1.6), (-0.4, 0.0, 2.2)):
        c = SphereCenter(p, q, t)
        want = (spherical_mean(f, c), first_cosine_coefficient(f, c))
        assert want[0] != 0.0 and want[1] != 0.0
        mf, a01 = src.laplacian_block(p, q, [t], 0)
        assert (mf[0, 0], a01[0, 0]) == want
        assert check_representation_even(f, p, q, t, 0).right == want[0]
        assert check_representation_odd(f, p, q, t, 1).right == want[1]


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
