"""Coefficient tables: frozen anchors, structural invariants, filter assembly.

Anchor values were derived by hand-evaluating the recurrences (independently
of the implementation) and cross-checked by exact symbolic closure of the
representation identities; they are frozen here as plain rationals.
"""

import re
from fractions import Fraction as Fr

import numpy as np
import pytest

from sphradon.coeffs import (
    build_tables,
    eval_polynomial,
    perturb_entry,
    polynomial_set,
    write_coefficient_csv,
    write_polynomial_csv,
)

TAB = build_tables(6)

# (family, k, i, m) -> value; keys follow the CoefficientTable layout
ANCHORS = {
    ("c_even", 1, 0, 1): Fr(-15),
    ("s_odd", 0, 1, 1): Fr(3),
    ("c_odd", 1, 0, 1): Fr(-35, 3),
    ("c_odd", 2, 0, 1): Fr(385, 6),
    ("c_odd", 2, 0, 2): Fr(-231, 2),
    ("s_even", 1, 1, 1): Fr(5, 3),
    ("c_odd", 1, 1, 1): Fr(-35, 12),
    ("c_odd", 1, 1, 2): Fr(35, 12),
    ("s_odd", 1, 1, 1): Fr(-21, 2),
    ("s_odd", 1, 1, 2): Fr(35, 2),
    ("c_even", 2, 0, 1): Fr(135, 2),
    ("c_even", 2, 0, 2): Fr(-315, 2),
    ("c_even", 1, 1, 1): Fr(-15, 4),
    ("c_even", 1, 1, 2): Fr(15, 4),
    ("c_even", 2, 1, 1): Fr(135, 8),
    ("c_even", 2, 1, 2): Fr(-225, 4),
    ("c_even", 2, 1, 3): Fr(315, 8),
    ("s_even", 2, 1, 1): Fr(-15, 2),
    ("s_even", 2, 1, 2): Fr(21, 2),
    ("c_odd", 2, 1, 1): Fr(385, 24),
    ("c_odd", 2, 1, 2): Fr(-539, 12),
    ("c_odd", 2, 1, 3): Fr(231, 8),
    ("s_odd", 2, 1, 1): Fr(165, 8),
    ("s_odd", 2, 1, 2): Fr(-385, 4),
    ("s_odd", 2, 1, 3): Fr(693, 8),
    ("c_even", 3, 0, 1): Fr(-1365, 8),
    ("c_even", 3, 0, 2): Fr(4095, 4),
    ("c_even", 3, 0, 3): Fr(-9009, 8),
}


def test_seeds():
    assert TAB.c_even_at(1, 0, 1) == Fr(-15)
    assert TAB.c_even_at(1, 0, 2) == Fr(0)  # out of range, exactly 0
    assert TAB.s_odd_at(0, 1, 1) == Fr(3)


@pytest.mark.parametrize("key", sorted(ANCHORS))
def test_frozen_anchor(key):
    family, k, i, m = key
    got = getattr(TAB, family + "_at")(k, i, m)
    assert got == ANCHORS[key]


def test_out_of_range_is_zero():
    assert TAB.c_odd_at(0, 0, 1) == 0
    assert TAB.c_even_at(2, 3, 1) == 0
    assert TAB.s_even_at(1, 2, 1) == 0
    assert TAB.c_even_at(1, 0, 2) == 0
    assert TAB.s_odd_at(-1, 1, 1) == 0


def test_determinism():
    other = build_tables(6)
    assert dict(other.c_even) == dict(TAB.c_even)
    assert dict(other.c_odd) == dict(TAB.c_odd)
    assert dict(other.s_even) == dict(TAB.s_even)
    assert dict(other.s_odd) == dict(TAB.s_odd)


def test_immutability():
    with pytest.raises(TypeError):
        TAB.c_even[(1, 0, 1)] = Fr(1)  # type: ignore[index]


@pytest.mark.parametrize("order", [0, 1, 6, 12])
def test_range_closure(order):
    table = build_tables(order)
    for (k, i, m) in table.c_even:
        assert 1 <= k <= order and 0 <= i <= k and 1 <= m <= k + i
    for (k, i, m) in table.c_odd:
        assert 1 <= k <= order and 0 <= i <= k and 1 <= m <= k + i
    for (k, i, m) in table.s_even:
        assert 1 <= k <= order and 1 <= i <= k and 1 <= m <= k + i - 1
    for (k, i, m) in table.s_odd:
        assert k <= order
        if k == 0:
            assert (i, m) == (1, 1)  # the seed
        else:
            assert 1 <= i <= k + 1 and 1 <= m <= k + i


def _fraction_recurrence(order_n):
    """The four families by the recurrence of `build_tables`' docstring,
    every entry one `Fraction` expression: the integer build's oracle."""
    c, s = {}, {}
    for N in range(1, 2 * order_n + 2):
        odd = N % 2
        if N >= 2:
            seed = Fr(2 * N - 1, 3 if odd else 1)
            for i in range(N // 2 + 1):
                top = N // 2 + i
                acc = Fr(0)
                for m in range(1, top):
                    prev = c.get((N - 2, i, m), 0)
                    term = (
                        Fr(2 * N - 1, (4 * N - 6) * (top - m)) * prev
                        + Fr(1, 4 * (top - m)) * s.get((N - 1, i, m), 0)
                    )
                    c[(N, i, m)] = (2 * N + 1) * (Fr(1, 2 * N - 3) * prev - term)
                    acc += term
                c[(N, i, top)] = (2 * N + 1) * (acc - (seed if i == 0 else 0))
        pref = Fr(2 * N + 1, N * (N + 1))
        carry = Fr((N - 1) * (N - 2), 2 * N - 3)
        seed = Fr(4 * N - 2, 1 if odd else 3)
        for i in range(1, (N + 1) // 2 + 1):
            top = (N - 1) // 2 + i
            acc = Fr(0)
            for m in range(1, top):
                prev = s.get((N - 2, i, m), 0)
                term = (
                    Fr(1, top - m) * c.get((N - 1, i - 1, m), 0)
                    - Fr((N - 1) * (N - 2) * (2 * N - 1), 2 * (2 * N - 3) * (top - m)) * prev
                )
                s[(N, i, m)] = pref * (carry * prev + term)
                acc += term
            s[(N, i, top)] = pref * ((seed if i == 1 else 0) - acc)

    def family(table, parity):
        return [((N // 2, i, m), v) for (N, i, m), v in table.items() if N % 2 == parity and v]

    return {"c_even": family(c, 0), "c_odd": family(c, 1), "s_even": family(s, 0), "s_odd": family(s, 1)}


@pytest.mark.parametrize("order", range(13))
def test_integer_build_equals_the_fraction_recurrence(order):
    # the same entries as Fractions in lowest terms, in the same key order
    table = build_tables(order)
    for family, want in _fraction_recurrence(order).items():
        got = list(getattr(table, family).items())
        assert got == want, (order, family)
        assert all(type(v) is Fr for _, v in got)


def test_smaller_table_is_a_prefix_of_a_larger_one():
    # the CLI builds its table only up to the requested order
    big = build_tables(12)
    for n in range(12):
        small = build_tables(n)
        for family in ("c_even", "c_odd", "s_even", "s_odd"):
            want = {key: v for key, v in getattr(big, family).items() if key[0] <= n}
            assert dict(getattr(small, family)) == want, (n, family)


# ----- filter polynomials -----


def test_zero_filters_at_order_zero():
    ps = polynomial_set(TAB, 0)
    assert ps.even == ((),)
    assert ps.odd == ((),)


def test_filter_anchors():
    ps = polynomial_set(TAB, 2)
    # odd, i=0: (105/2) t^3 - (231/2) t^5
    assert ps.odd[0] == (0, 0, 0, Fr(105, 2), 0, Fr(-231, 2))
    # odd, i=1: the recurrences give (105/8) t^3 - 42 t^5 + (231/8) t^7
    assert ps.odd[1] == (0, 0, 0, Fr(105, 8), 0, Fr(-42), 0, Fr(231, 8))
    # even, i=0: (105/2) t^2 - (315/2) t^4
    assert ps.even[0] == (0, 0, Fr(105, 2), 0, Fr(-315, 2))
    # even, i=1: (105/8) t^2 - (105/2) t^4 + (315/8) t^6
    assert ps.even[1] == (0, 0, Fr(105, 8), 0, Fr(-105, 2), 0, Fr(315, 8))


def test_degree_property():
    for n in range(1, 7):
        ps = polynomial_set(TAB, n)
        for i in range(n + 1):
            assert len(ps.even[i]) - 1 == 2 * n + 2 * i
            assert ps.even[i][-1] != 0
            assert len(ps.odd[i]) - 1 == 2 * n + 2 * i + 1
            assert ps.odd[i][-1] != 0


def test_unit_argument_telescoping():
    # For i >= 1 the filters vanish at t=1; for i=0 their weighted means are
    # pinned by the constant and linear fields' exact reconstruction.
    for n in range(0, 7):
        ps = polynomial_set(TAB, n)
        for i in range(1, n + 1):
            assert sum(ps.even[i], Fr(0)) == 0
            assert sum(ps.odd[i], Fr(0)) == 0
        int_even = sum(v / (e + 1) for e, v in enumerate(ps.even[0]))
        int_odd = sum(v / (e + 2) for e, v in enumerate(ps.odd[0]))
        assert int_even == 1 - (n + 1) * (2 * n + 1)
        assert int_odd == 1 - Fr((n + 1) * (2 * n + 3), 3)


def test_rejects_order_above_table():
    with pytest.raises(ValueError):
        polynomial_set(TAB, 7)
    with pytest.raises(ValueError):
        polynomial_set(TAB, -1)
    with pytest.raises(ValueError, match="n must be an integer"):
        polynomial_set(TAB, 1.5)


def test_eval_polynomial():
    ps = polynomial_set(TAB, 2)
    assert eval_polynomial(ps.odd[0], 0.0) == 0.0
    assert eval_polynomial(ps.odd[0], 1.0) == pytest.approx(-63.0, abs=1e-12)
    assert eval_polynomial((), 0.5) == 0.0
    got = eval_polynomial(ps.even[0], 0.5)
    assert got == pytest.approx(105 / 2 * 0.25 - 315 / 2 * 0.0625, rel=1e-15)
    with pytest.raises(ValueError):
        eval_polynomial(ps.odd[0], 1.5)
    with pytest.raises(ValueError):
        eval_polynomial(ps.odd[0], -0.1)


def test_build_rejects_negative_order():
    with pytest.raises(ValueError):
        build_tables(-1)
    for order in (2.0, "3"):
        with pytest.raises(ValueError, match="order_n must be an integer"):
            build_tables(order)


@pytest.mark.parametrize("order", [True, False])
def test_a_bool_order_is_refused(order):
    # True and False are Integral, but an order of True read as 1 names
    # the table's order_n True
    with pytest.raises(ValueError, match=re.escape(f"order_n must be an integer >= 0, got {order!r}")):
        build_tables(order)
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 0, got {order!r}")):
        polynomial_set(TAB, order)
    assert polynomial_set(TAB, np.int64(1)).n == 1


def test_perturb_entry():
    tweaked = perturb_entry(TAB, "c_even", (2, 1, 3), 1 + 1e-6)
    assert tweaked.c_even_at(2, 1, 3) != TAB.c_even_at(2, 1, 3)
    assert tweaked.c_even_at(2, 1, 2) == TAB.c_even_at(2, 1, 2)
    assert TAB.c_even_at(2, 1, 3) == Fr(315, 8)  # original untouched
    with pytest.raises(KeyError):
        perturb_entry(TAB, "c_even", (0, 0, 1), 1.1)
    with pytest.raises(ValueError):
        perturb_entry(TAB, "c_mid", (1, 0, 1), 1.1)
    for factor in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="factor must be finite"):
            perturb_entry(TAB, "c_even", (1, 0, 1), factor)


def test_csv_writers(tmp_path):
    import io

    buf = io.StringIO()
    write_coefficient_csv(TAB, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "parity,k,two_i,m,value"
    assert "even,1,0,1,-15" in lines
    assert "odd,1,0,1,-35/3" in lines
    assert "s_odd,0,0,1,3" in lines

    buf = io.StringIO()
    write_polynomial_csv(TAB, 2, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "parity,n,two_i,m,value"
    assert "odd,2,0,1,105/2" in lines
    # the t^7 coefficient of the odd n=2, i=1 filter as the recurrences give it
    assert "odd,2,2,3,231/8" in lines

    buf = io.StringIO()
    write_polynomial_csv(TAB, 0, buf)
    assert buf.getvalue().splitlines() == ["parity,n,two_i,m,value"]


def test_order_12_csv_digests():
    # pins every entry through order 12 (the anchors above stop at order 6):
    # the sha256 of both CSV writers' output for build_tables(12)
    import hashlib
    import io

    table = build_tables(12)
    coeff, poly = io.StringIO(), io.StringIO()
    write_coefficient_csv(table, coeff)
    write_polynomial_csv(table, 12, poly)
    assert hashlib.sha256(coeff.getvalue().encode()).hexdigest() == (
        "7415d2d9c93548f4e7580398f2b3756bac3cb9cc49e3bb8582af269d80c91b5d"
    )
    assert hashlib.sha256(poly.getvalue().encode()).hexdigest() == (
        "41cd234a903750ff002738627647b3e493f3945aaf8413bd8ff1b798277aa272"
    )
