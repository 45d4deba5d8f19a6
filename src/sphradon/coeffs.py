"""Recurrence coefficients and filter polynomials, in exact rational arithmetic.

The series inversion of the two-data spherical transform is driven by two
families of universal (data-independent) coefficients c_m and two auxiliary
families s_m, generated by coupled triangular recurrences.  The c coefficients
assemble into the filter polynomials

    C_even(n, i; t) = sum_{k=i..n} sum_{m=1..k+i} c_m(2k, 2i)   t^(2m),
    C_odd (n, i; t) = sum_{k=i..n} sum_{m=1..k+i} c_m(2k+1, 2i) t^(2m+1),

defined on [0, 1], of degree 2n+2i and 2n+2i+1 respectively, with the
conventions C_even(0,0) = C_odd(0,0) = 0.

Each of the four families is generated by one recurrence over all of its
rows.  The boundary row (i = 0 for c, i = 1 for s) is the general row plus
one constant seed term in its closing entry, since the s and c entries that
row would read lie outside the stored ranges and count as 0; `build_tables`
lists the four seeds.

Everything here is computed with `fractions.Fraction`: the recurrences contain
near-cancelling combinations such as (4k+1)/((8k-2)(k-m)) - 1/(4k-1) whose
floating-point drift would poison the high-order filters, and exactness makes
the tables bitwise reproducible.

A transcription note: the published statement of the recurrence for the odd
family's mixed term carries an unusual sign pattern across its three summands.
It is implemented here exactly as stated; the whole sign structure has been
validated against 29 independently hand-derived anchor values and against
exact symbolic closure of the representation identities on polynomial fields
(see tests).  One published table of example polynomial values disagrees with
the recurrences for a single polynomial (the odd n=2, i=1 filter); the
recurrence output is kept, since it is the value under which the worked
example and the boundary identity C(1) = 0 close exactly.  See README.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isfinite
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "CoefficientTable",
    "PolynomialSet",
    "build_tables",
    "polynomial_set",
    "eval_polynomial",
    "perturb_entry",
    "write_coefficient_csv",
    "write_polynomial_csv",
]

Fr = Fraction

Key = tuple[int, int, int]
Table = Mapping[Key, Fraction]


@dataclass(frozen=True)
class CoefficientTable:
    """The four coefficient families, keyed (k, i, m).

    c_even[(k, i, m)] = c_m(2k,   2i)       for k >= 1, 0 <= i <= k,   1 <= m <= k+i
    c_odd [(k, i, m)] = c_m(2k+1, 2i)       for k >= 1, 0 <= i <= k,   1 <= m <= k+i
    s_even[(k, i, m)] = s_m(2k,   2(i-1))   for k >= 1, 1 <= i <= k,   1 <= m <= k+i-1
    s_odd [(k, i, m)] = s_m(2k+1, 2(i-1))   for k >= 1, 1 <= i <= k+1, 1 <= m <= k+i
                        plus the seed s_1(1, 0) = 3 stored at (0, 1, 1)

    Indices outside these ranges are absent and mean exactly 0; use the *_at
    accessors, which encode that convention.  Instances are immutable.
    """

    order_n: int
    c_even: Table
    c_odd: Table
    s_even: Table
    s_odd: Table

    def c_even_at(self, k: int, i: int, m: int) -> Fraction:
        return self.c_even.get((k, i, m), Fr(0))

    def c_odd_at(self, k: int, i: int, m: int) -> Fraction:
        return self.c_odd.get((k, i, m), Fr(0))

    def s_even_at(self, k: int, i: int, m: int) -> Fraction:
        return self.s_even.get((k, i, m), Fr(0))

    def s_odd_at(self, k: int, i: int, m: int) -> Fraction:
        return self.s_odd.get((k, i, m), Fr(0))

    @cached_property
    def c_dense(self) -> np.ndarray:
        """c_even and c_odd as one read-only float array C[parity, k, i, m]
        of shape (2, n + 1, n + 1, 2n + 1), n = order_n, even parity first;
        each stored entry is float(c), every other entry 0.0.  Converted
        once per table; C[:, :k+1, :k+1, :2k+1] is the table of order k."""
        n = self.order_n
        dense = np.zeros((2, n + 1, n + 1, 2 * n + 1))
        for parity, stored in enumerate((self.c_even, self.c_odd)):
            for key, c in stored.items():
                dense[(parity,) + key] = float(c)
        dense.setflags(write=False)
        return dense


@dataclass(frozen=True)
class PolynomialSet:
    """Filter polynomials for one partial-sum order n.

    even[i] / odd[i] are dense ascending-power coefficient tuples (Fractions,
    index = power of t) for C_even(n, i) and C_odd(n, i), i = 0..n.  The zero
    polynomial is the empty tuple.
    """

    n: int
    even: tuple[tuple[Fraction, ...], ...]
    odd: tuple[tuple[Fraction, ...], ...]


def build_tables(order_n: int) -> CoefficientTable:
    """Generate all coefficients with k <= order_n by the triangular recurrences.

    Two interleaved chains:

      * even family: starting from the empty order-0 row, alternate
        s(2k+1, .) <- {s(2k-1, .), c(2k, .)} and c(2k+2, .) <- {c(2k, .), s(2k+1, .)};
        the seeds s_1(1,0) = 3 and c_1(2,0) = -15 fall out of the first step.
      * odd family: with c(1, .) identically 0, alternate
        s(2k, .) <- {s(2k-2, .), c(2k-1, .)} and c(2k+1, .) <- {c(2k-1, .), s(2k, .)}.

    Each family is one recurrence: every summand serves both its entry and
    the row's closing (top) entry, and the boundary row (i = 1 for s, i = 0
    for c) differs only by a constant seed term in that closing entry:
    pref*(8k+2) for s(2k+1), -(4k+5)(4k+3) for c(2k+2), pref*(8k-2)/3 for
    s(2k) and -(4k+3)(4k+1)/3 for c(2k+1).  Entries outside the stored
    ranges read as exactly 0.  All arithmetic is exact; the recurrences are
    total over the stated ranges (no divisor can vanish there).
    """
    if order_n < 0:
        raise ValueError("order_n must be >= 0")
    ce: dict[Key, Fraction] = {}
    co: dict[Key, Fraction] = {}
    se: dict[Key, Fraction] = {}
    so: dict[Key, Fraction] = {}

    # ----- even family -----
    for k in range(order_n + 1):
        # s_m(2k+1, 2(i-1)), i = 1..k+1
        pref = Fr(4 * k + 3, (2 * k + 2) * (2 * k + 1))
        carry = Fr(2 * k * (2 * k - 1), 4 * k - 1)
        for i in range(1, k + 2):
            acc = Fr(0)
            for m in range(1, k + i):
                prev = so.get((k - 1, i, m), 0)
                term = (
                    Fr(1, k + i - m) * ce.get((k, i - 1, m), 0)
                    - Fr(k * (2 * k - 1) * (4 * k + 1), (4 * k - 1) * (k + i - m)) * prev
                )
                so[(k, i, m)] = pref * (carry * prev + term)
                acc += term
            so[(k, i, k + i)] = pref * ((8 * k + 2 if i == 1 else 0) - acc)
        # c_m(2k+2, 2i), i = 0..k+1, stored at chain index k+1
        if k == order_n:
            break
        for i in range(k + 2):
            acc = Fr(0)
            for m in range(1, k + i + 1):
                prev = ce.get((k, i, m), 0)
                term = (
                    Fr(4 * k + 3, (8 * k + 2) * (k + i - m + 1)) * prev
                    + Fr(1, 4 * (k + i - m + 1)) * so.get((k, i, m), 0)
                )
                ce[(k + 1, i, m)] = (4 * k + 5) * (Fr(1, 4 * k + 1) * prev - term)
                acc += term
            ce[(k + 1, i, k + i + 1)] = (4 * k + 5) * (acc - (4 * k + 3 if i == 0 else 0))

    # ----- odd family -----
    for k in range(1, order_n + 1):
        # s_m(2k, 2(i-1)), i = 1..k
        pref = Fr(4 * k + 1, 2 * k * (2 * k + 1))
        carry = Fr((2 * k - 1) * (2 * k - 2), 4 * k - 3)
        for i in range(1, k + 1):
            acc = Fr(0)
            for m in range(1, k + i - 1):
                prev = se.get((k - 1, i, m), 0)
                term = (
                    Fr(1, k + i - m - 1) * co.get((k - 1, i - 1, m), 0)
                    - Fr((2 * k - 1) * (k - 1) * (4 * k - 1), (4 * k - 3) * (k + i - m - 1)) * prev
                )
                se[(k, i, m)] = pref * (carry * prev + term)
                acc += term
            se[(k, i, k + i - 1)] = pref * ((Fr(8 * k - 2, 3) if i == 1 else 0) - acc)
        # c_m(2k+1, 2i), i = 0..k
        for i in range(k + 1):
            acc = Fr(0)
            for m in range(1, k + i):
                prev = co.get((k - 1, i, m), 0)
                lead = Fr(4 * k + 1, (8 * k - 2) * (k + i - m)) * prev
                mixed = Fr(1, 4 * (k + i - m)) * se.get((k, i, m), 0)
                # sign pattern of the mixed term's three summands as published:
                # the combination under which all anchor oracles close
                co[(k, i, m)] = (4 * k + 3) * (Fr(1, 4 * k - 1) * prev - mixed - lead)
                acc += lead + mixed
            co[(k, i, k + i)] = (4 * k + 3) * (acc - (Fr(4 * k + 1, 3) if i == 0 else 0))

    ce = {key: v for key, v in ce.items() if v}
    co = {key: v for key, v in co.items() if v}
    se = {key: v for key, v in se.items() if v}
    so = {key: v for key, v in so.items() if v}
    return CoefficientTable(
        order_n=order_n,
        c_even=MappingProxyType(ce),
        c_odd=MappingProxyType(co),
        s_even=MappingProxyType(se),
        s_odd=MappingProxyType(so),
    )


def polynomial_set(table: CoefficientTable, n: int) -> PolynomialSet:
    """Assemble the order-n filter polynomials from a coefficient table."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > table.order_n:
        raise ValueError(f"n={n} exceeds table order {table.order_n}")
    even = []
    odd = []
    for i in range(n + 1):
        ev: dict[int, Fraction] = {}
        od: dict[int, Fraction] = {}
        for k in range(i, n + 1):
            for m in range(1, k + i + 1):
                v = table.c_even_at(k, i, m)
                if v:
                    ev[2 * m] = ev.get(2 * m, Fr(0)) + v
                v = table.c_odd_at(k, i, m)
                if v:
                    od[2 * m + 1] = od.get(2 * m + 1, Fr(0)) + v
        even.append(_dense(ev))
        odd.append(_dense(od))
    return PolynomialSet(n=n, even=tuple(even), odd=tuple(odd))


def _dense(sparse: dict[int, Fraction]) -> tuple[Fraction, ...]:
    sparse = {e: v for e, v in sparse.items() if v}
    if not sparse:
        return ()
    deg = max(sparse)
    return tuple(sparse.get(e, Fr(0)) for e in range(deg + 1))


def eval_polynomial(poly: tuple[Fraction, ...], t: float) -> float:
    """Horner evaluation of a dense ascending-power polynomial at t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1], the filters' domain")
    acc = 0.0
    for c in reversed(poly):
        acc = acc * t + float(c)
    return acc


_FAMILIES = ("c_even", "c_odd", "s_even", "s_odd")


def perturb_entry(table: CoefficientTable, family: str, key: Key, factor: float) -> CoefficientTable:
    """Return a copy of the table with one entry multiplied by `factor`.

    Diagnostic tool for sensitivity tests: a healthy verification suite must
    detect a perturbed coefficient.  `family` is one of c_even, c_odd,
    s_even, s_odd; `key` is (k, i, m).
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not isfinite(factor):
        raise ValueError(f"perturbation factor must be finite, got {factor}")
    data = {name: dict(getattr(table, name)) for name in _FAMILIES}
    if key not in data[family]:
        raise KeyError(f"{family}{key} is not a stored entry")
    data[family][key] = data[family][key] * Fraction(factor)
    return CoefficientTable(
        order_n=table.order_n,
        **{name: MappingProxyType(data[name]) for name in _FAMILIES},
    )


def write_coefficient_csv(table: CoefficientTable, stream) -> None:
    """Write all four families: header `parity,k,two_i,m,value`.

    The parity column carries the family tag (even/odd for the c tables,
    s_even/s_odd for the auxiliary ones); two_i is the literal second index
    (2i for c, 2(i-1) for s).  Values are exact rationals, reduced form.
    """
    stream.write("parity,k,two_i,m,value\n")
    for tag, tab, shift in (
        ("even", table.c_even, 0),
        ("odd", table.c_odd, 0),
        ("s_even", table.s_even, 1),
        ("s_odd", table.s_odd, 1),
    ):
        for (k, i, m) in sorted(tab):
            stream.write(f"{tag},{k},{2 * (i - shift)},{m},{tab[(k, i, m)]}\n")


def write_polynomial_csv(table: CoefficientTable, max_n: int, stream) -> None:
    """Write assembled filter coefficients for n = 0..max_n.

    Header `parity,n,two_i,m,value`: the value is the coefficient of t^(2m)
    (parity even) or t^(2m+1) (parity odd) in the order-n, index-2i filter.
    The identically-zero order-0 filters produce no rows by convention.
    """
    stream.write("parity,n,two_i,m,value\n")
    for n in range(max_n + 1):
        ps = polynomial_set(table, n)
        for parity, seq in (("even", ps.even), ("odd", ps.odd)):
            off = 0 if parity == "even" else 1
            for i, poly in enumerate(seq):
                for power, v in enumerate(poly):
                    if v:
                        m = (power - off) // 2
                        stream.write(f"{parity},{n},{2 * i},{m},{v}\n")
