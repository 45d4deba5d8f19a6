"""
The two-data transform on a single sphere
=========================================

A field is sampled over spheres whose centers lie on the plane z = 0.  Two
scalars per sphere make up the data: the full spherical mean and the first
cosine coefficient of the restriction.  This script evaluates both for a
simple phantom and shows the pole identity that makes inversion possible at
all: the harmonic expansion of the restriction, summed at the north pole,
converges to the field value directly above the center.
"""

from sphradon import (
    SphereCenter,
    first_cosine_coefficient,
    harmonic_coefficient,
    make_phantom,
    spherical_mean,
)

f = make_phantom("rsqz3")  # f(x,y,z) = (x^2 + y^2) z^3, the worked example
c = SphereCenter(p=1.0, q=3.0, t=1.0)

# the mean of an odd-in-z factor over any plane-centered sphere vanishes,
# so the first data channel carries nothing for this phantom ...
mf = spherical_mean(f, c)
print(f"Mf at (p,q,t)=({c.p},{c.q},{c.t}):   {mf:+.15f}")

# ... and the whole signal sits in the second channel
a01 = first_cosine_coefficient(f, c)
rho2 = c.p**2 + c.q**2
closed_form = 0.6 * rho2 * c.t**3 + (6.0 / 35.0) * c.t**5
print(f"a01 sampled:     {a01:+.15f}")
print(f"a01 closed form: {closed_form:+.15f}")

# partial sums sum_{n<=N} sgn^n a_{0n} of the restriction expansion at the
# pole (p, q, sgn*t) approach f there: only the axisymmetric part survives at
# a pole, where P_n(+-1) = (+-1)^n.  Degree-5 polynomials terminate, so N=5
# is already exact at the north pole
truth = float(f.evaluate(c.p, c.q, c.t))
sgn = 1.0
for n in (1, 3, 5, 7):
    s = sum(sgn**k * harmonic_coefficient(f, c, k) for k in range(n + 1))
    print(f"N={n}: pole sum {s:+.12f}   f at pole = {truth:+.12f}")
