"""Scalar signed tails of the Pareto laws, one value at a time.

A Pareto law here is X = S M - shift, with S = +1 with probability p and
-1 otherwise, and M Pareto(alpha) on [xmin, inf).  Then
P{|X| > x} = P{S M > x + shift} + P{S M < shift - x}, and each branch
below is one case of the sign and of the argument against +/- xmin.  The
library's vectorized tails agree with these to rounding.  It reads only
the law's alpha, xmin, _p and _shift.
"""


def raw_upper(law, y):
    """P{S M > y}."""
    p, q, xmin, a = law._p, 1.0 - law._p, law.xmin, law.alpha
    if y >= xmin:
        return p * (y / xmin) ** -a
    if y > -xmin:
        return p
    return p + q * (1.0 - (abs(y) / xmin) ** -a)


def raw_lower(law, z):
    """P{S M < z}."""
    p, q, xmin, a = law._p, 1.0 - law._p, law.xmin, law.alpha
    if z <= -xmin:
        return q * (abs(z) / xmin) ** -a
    if z < xmin:
        return q
    return q + p * (1.0 - (z / xmin) ** -a)


def abs_tail_reference(law, x):
    """P{|X| > x} for one float x."""
    m = law._shift
    return raw_upper(law, x + m) + raw_lower(law, m - x)
