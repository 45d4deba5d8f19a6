"""Recurrence coefficients and filter polynomials, in exact rational arithmetic.

The series inversion of the two-data spherical transform is driven by two
families of universal (data-independent) coefficients c_m and two auxiliary
families s_m, generated by one coupled triangular recurrence.  The c coefficients
assemble into the filter polynomials

    C_even(n, i; t) = sum_{k=i..n} sum_{m=1..k+i} c_m(2k, 2i)   t^(2m),
    C_odd (n, i; t) = sum_{k=i..n} sum_{m=1..k+i} c_m(2k+1, 2i) t^(2m+1),

defined on [0, 1], of degree 2n+2i and 2n+2i+1 respectively, with the
conventions C_even(0,0) = C_odd(0,0) = 0.

The four families are one triangular recurrence in the harmonic degree N:
c(N, .) and s(N, .) are formed from the rows of degree N-1 and N-2, and
stored in the even or odd table by the parity of N.  The boundary row (i = 0
for c, i = 1 for s) is the general row plus one constant seed term in its
closing entry, since the s and c entries that row would read lie outside the
stored ranges and count as 0; `build_tables` states the recurrence and its
seeds.

Everything here is exact rational arithmetic, kept as `fractions.Fraction`
(the tables are built in integers and converted once): the recurrences
contain near-cancelling combinations such as (2N-1)/((4N-6)(top-m)) -
1/(2N-3) whose floating-point drift would poison the high-order filters, and
exactness makes the tables bitwise reproducible.

A transcription note: the published statement of the odd family's mixed
term carries what looks like an unusual sign pattern across its three
summands.  Written in N it is the even family's term with N odd, so one
recurrence covers both; it has been validated against 29 independently
hand-derived anchor values and against exact symbolic closure of the
representation identities on polynomial fields (see tests).

One published table of example polynomial values disagrees with
the recurrences for a single polynomial (the odd n=2, i=1 filter); the
recurrence output is kept, since it is the value under which the worked
example and the boundary identity C(1) = 0 close exactly.  See README.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isfinite, lcm
from numbers import Integral
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
    """Generate all coefficients with k <= order_n by one recurrence in N.

    For N = 1..2n+1, n = order_n, it forms c(N, .) from c(N-2, .) and
    s(N-1, .) when N >= 2 (c(1, .) is identically 0), then s(N, .) from
    s(N-2, .) and c(N-1, .).  Row i of c(N) runs over i = 0..N//2 and
    closes at top = N//2 + i; row i of s(N) runs over i = 1..(N+1)//2 and
    closes at top = (N-1)//2 + i.  For m < top, with c' = c_m(N-2, 2i),
    s' = s_m(N-2, 2(i-1)) and d = top - m,

      c_m(N, 2i)     = (2N+1) (c'/(2N-3) - lead - mixed),
                       lead = (2N-1) c' / ((4N-6) d),  mixed = s_m(N-1, 2i) / (4d),
      s_m(N, 2(i-1)) = pref ((N-1)(N-2)/(2N-3) s' + term),  pref = (2N+1)/(N(N+1)),
                       term = (c_m(N-1, 2(i-1)) - (N-1)(N-2)(2N-1)/(2(2N-3)) s') / d,

    and the closing entries sum the same summands over m < top:
    c_top = (2N+1) (sum(lead + mixed) - seed) and s_top = pref (seed - sum(term)).
    The seed sits only in the boundary row (i = 0 for c, i = 1 for s): 2N-1
    for c and 4N-2 for s, each divided by 3 in the odd family (c at odd N,
    s at even N).  Entries outside the stored ranges read as exactly 0.  c(N)
    goes to c_even or c_odd by the parity of N, s(N) likewise, at k = N//2.
    All arithmetic is exact; the recurrence is total over the stated ranges
    (no divisor can vanish there).  Each row of degree N is formed in
    integers, as numerators over one common denominator (the lcm of its
    inputs' denominators and of 1..top-1, so that every division by d is
    exact), reduced once by their gcd, and made `Fraction`s only at the end.
    """
    if isinstance(order_n, bool) or not (isinstance(order_n, Integral) and order_n >= 0):
        raise ValueError(f"order_n must be an integer >= 0, got {order_n!r}")
    # each row of degree N is (den, {(i, m): num}), every entry num / den
    c: dict[int, tuple[int, dict]] = {}  # c_m(N, 2i) at (i, m) of row N
    s: dict[int, tuple[int, dict]] = {}  # s_m(N, 2(i-1)) at (i, m) of row N
    empty = (1, {})
    for N in range(1, 2 * order_n + 2):
        odd, g = N % 2, 2 * N - 3
        lam = lcm(3, *range(1, N))  # every d = top - m < N, and the seeds' 3
        if N >= 2:
            # c' = c_m(N-2, 2i) = A / L and s_m(N-1, 2i) = B / L: over
            # den = 4 g lam L, lead + mixed has numerator term, c'/(2N-3) 4 lam A
            (dp, prev), (ds, sv) = c.get(N - 2, empty), s[N - 1]
            L, row = lcm(dp, ds), {}
            den = 4 * g * lam * L
            seed = (2 * N - 1) * den // (3 if odd else 1)
            for i in range(N // 2 + 1):
                top = N // 2 + i
                acc = 0
                for m in range(1, top):
                    A, B = prev.get((i, m), 0) * (L // dp), sv.get((i, m), 0) * (L // ds)
                    term = (2 * (2 * N - 1) * A + g * B) * (lam // (top - m))
                    row[(i, m)] = (2 * N + 1) * (4 * lam * A - term)
                    acc += term
                row[(i, top)] = (2 * N + 1) * (acc - (seed if i == 0 else 0))
            c[N] = _reduced(den, row)
        # s' = s_m(N-2, 2(i-1)) = A / L and c_m(N-1, 2(i-1)) = B / L: over
        # 2 g lam L, term has numerator term, carry s' 2 (N-1)(N-2) lam A;
        # pref puts N (N+1) into den
        (dp, prev), (dc, cv) = s.get(N - 2, empty), c.get(N - 1, empty)
        L, row = lcm(dp, dc), {}
        den = N * (N + 1) * 2 * g * lam * L
        seed = (4 * N - 2) * 2 * g * lam * L // (1 if odd else 3)
        for i in range(1, (N + 1) // 2 + 1):
            top = (N - 1) // 2 + i
            acc = 0
            for m in range(1, top):
                A, B = prev.get((i, m), 0) * (L // dp), cv.get((i - 1, m), 0) * (L // dc)
                term = (2 * g * B - (N - 1) * (N - 2) * (2 * N - 1) * A) * (lam // (top - m))
                row[(i, m)] = (2 * N + 1) * (2 * (N - 1) * (N - 2) * lam * A + term)
                acc += term
            row[(i, top)] = (2 * N + 1) * ((seed if i == 1 else 0) - acc)
        s[N] = _reduced(den, row)

    def family(rows: dict[int, tuple[int, dict]], parity: int) -> Table:
        return MappingProxyType(
            {
                (N // 2, i, m): Fraction(v, den)
                for N, (den, row) in rows.items()
                if N % 2 == parity
                for (i, m), v in row.items()
                if v
            }
        )

    return CoefficientTable(
        order_n=order_n,
        c_even=family(c, 0),
        c_odd=family(c, 1),
        s_even=family(s, 0),
        s_odd=family(s, 1),
    )


def _reduced(den: int, row: dict) -> tuple[int, dict]:
    """A row of numerators over den, divided by their common gcd, with a
    positive denominator."""
    g = gcd(den, *row.values()) * (1 if den > 0 else -1)
    return den // g, {key: v // g for key, v in row.items()}


def polynomial_set(table: CoefficientTable, n: int) -> PolynomialSet:
    """Assemble the order-n filter polynomials from a coefficient table."""
    if isinstance(n, bool) or not (isinstance(n, Integral) and n >= 0):
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
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
