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
