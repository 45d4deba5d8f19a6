"""
Exact filter coefficients and their polynomials
===============================================

Everything the inversion series needs besides the data is a table of
rational numbers produced by one triangular recurrence in the degree N.  The
table stays in Fractions end to end, so coefficients of any order are exact,
and the filter polynomials assembled from them can be printed, differenced,
or perturbed without a single rounding step.
"""

from fractions import Fraction

from sphradon import build_tables, eval_polynomial, polynomial_set

table = build_tables(4)

# the three seed values everything grows from
print("seeds:")
print("  c_1(2,0)  =", table.c_even_at(1, 0, 1))
print("  c_2(2,0)  =", table.c_even_at(1, 0, 2))
print("  s_1(1,0)  =", table.s_odd_at(0, 1, 1))
print()

# filter polynomials for the order-2 partial sum; each is a short odd or
# even polynomial in t, printed in ascending powers
ps = polynomial_set(table, 2)
for label, polys in (("even", ps.even), ("odd", ps.odd)):
    for i, poly in enumerate(polys):
        terms = " + ".join(
            f"({c})t^{k}" for k, c in enumerate(poly) if c != 0
        )
        print(f"C_{label}[n=2, i={i}] = {terms or '0'}")
print()

# rational arithmetic means the recurrences can be cross-checked by exact
# identities; for instance the order-2 even filters sum to a polynomial
# whose value at t=1 is a small rational, not a float approximation
total = Fraction(0)
for poly in ps.even:
    for c in poly:
        total += c
print("sum of all order-2 even filter coefficients:", total)

# floats only appear at evaluation time
print("C_odd[n=2, i=0] at t=0.5:", eval_polynomial(ps.odd[0], 0.5))
