"""Test oracle: the minimal polynomial by linear algebra.

The library takes the minimal polynomial of u in an extension K as the
product of x - c over the Frobenius conjugates c of u
(`fields.minimal_polynomial`).  This oracle finds the first power u^k that
is a base-field combination of 1, u, ..., u^(k-1), one linear solve per
power, and so needs no Frobenius map at all.
"""

from cremona_kit import linalg
from cremona_kit.fields import Poly


def minimal_polynomial_by_solve(K, u):
    base, deg = K.base, K.degree

    def coords(x):
        return list(x) + [base.zero] * (deg - len(x))

    powers = [K.one]
    while True:
        nxt = K.mul(powers[-1], u)
        A = [[coords(p)[i] for p in powers] for i in range(deg)]
        sol = linalg.solve(base, A, coords(nxt))
        if sol is not None:
            return Poly(base, [base.neg(c) for c in sol] + [base.one])
        powers.append(nxt)
