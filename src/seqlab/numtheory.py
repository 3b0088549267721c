"""Exact integer number theory: primality, factorization, orders,
totients and exact base-2 logarithms.

Everything here is deterministic. Primality uses the Miller-Rabin witness
set that is proven exact for all n below 3.3 * 10^24, far beyond
FACTOR_LIMIT, and every factor found by the rho splitter is verified by
exact division, so results are certificate-grade for any accepted input.
"""

import math

from .errors import NotCoprime, TooLarge

# Inputs at or above 2^64 are refused so every accepted value sits well
# inside the proven-deterministic witness range.
FACTOR_LIMIT = 1 << 64

# Deterministic Miller-Rabin witnesses for all n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 10_000


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    if n >= FACTOR_LIMIT:
        raise TooLarge(f"{n} >= 2^64; factorization refused")
    counts: dict[int, int] = {}
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        counts[2] = e
    d = 3
    while d <= _TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            counts[d] = e
        d += 2
    if n > 1 and d * d > n:
        # No factor up to sqrt(n) is left, so n is prime.
        counts[n] = 1
    elif n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            g = _rho_split(m)
            stack.append(g)
            stack.append(m // g)
    return tuple(sorted(counts.items()))


def is_prime(n: int) -> bool:
    """Deterministic primality (exact below FACTOR_LIMIT)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= FACTOR_LIMIT:
        raise TooLarge(f"{n} >= 2^64; primality test refused")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int) -> int:
    """Proper factor of odd composite n by Brent's cycle method.

    The polynomial offset c is swept upward from 1, so the search order is
    fixed and the returned factor is reproducible. Termination for every
    composite follows from gcd reaching a nontrivial value for some c.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def euler_phi(n: int) -> int:
    """Euler totient."""
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def multiplicative_order(a: int, modulus: int) -> int:
    """Least t >= 1 with a^t = 1 (mod modulus); requires gcd(a, modulus) = 1."""
    if modulus <= 1:
        raise ValueError(f"modulus must exceed 1, got {modulus}")
    if math.gcd(a, modulus) != 1:
        raise NotCoprime(f"gcd({a}, {modulus}) != 1")
    # Start from phi(modulus) and strip prime factors while the power stays 1.
    t = euler_phi(modulus)
    for p, _ in factorize(t):
        while t % p == 0 and pow(a, t // p, modulus) == 1:
            t //= p
    return t


def is_two_primitive(q: int) -> bool:
    """True when 2 generates the full unit group mod q (q odd, q >= 3)."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"need odd q >= 3, got {q}")
    return two_generates(q, factorize(q))


def two_generates(q: int, factors: tuple[tuple[int, int], ...]) -> bool:
    """is_two_primitive(q) for odd q >= 3, given factors = factorize(q).

    Two odd primes give two units of order 2, so the units mod q are cyclic
    only for a prime power p^e. For p = 1 or 7 mod 8, 2 is a square mod p,
    so its order mod p divides (p - 1)/2, and it generates neither mod p
    nor mod p^e. Otherwise ord_q(2) divides phi(q), so it equals phi(q)
    exactly when 2^(phi/r) is not 1 for any prime r dividing phi: one
    factorization of phi, and no walk down to the order.
    """
    if len(factors) != 1 or factors[0][0] % 8 in (1, 7):
        return False
    ((p, e),) = factors
    phi = (p - 1) * p ** (e - 1)
    return all(pow(2, phi // r, q) != 1 for r, _ in factorize(phi))


def is_odd_prime_power(q: int) -> tuple[int, int] | None:
    """(p, r) when q = p^r for a single odd prime p, else None."""
    if q < 3 or q % 2 == 0:
        return None
    fac = factorize(q)
    if len(fac) == 1:
        return fac[0]
    return None


def ceil_log2(n: int) -> int:
    """Exact ceiling of log2(n) for n >= 1 (0 for n = 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (n - 1).bit_length()


def int_log2(n: int) -> float:
    """float log2 of a positive integer of any size (math.log2 takes big ints)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.log2(n)
