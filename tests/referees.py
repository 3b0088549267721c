"""Referees shared by several test modules.

These are direct definitions that no production code calls. They import
nothing from seqlab, so they check it from outside.
"""

import math


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic residue symbol (a/p) in {-1, 0, +1} by Euler's criterion."""
    if p < 3 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def euclid_rows(s: int, n: int) -> tuple[int, int, int, int]:
    """Schoolbook extended Euclid on (2^n, s), one division per quotient,
    from the rows (2^n, 0), (s, 1) to the first row (r1, t1) with
    r1 <= |t1|; returns that row and the one before it as (r0, t0, r1, t1)."""
    r0, t0, r1, t1 = 1 << n, 0, s, 1
    while r1 > abs(t1):
        k = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - k * r1, t0 - k * t1
    return r0, t0, r1, t1
