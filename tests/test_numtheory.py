"""Number-theoretic helpers against brute-force oracles."""

import math
import random

import pytest

from seqlab.errors import NotCoprime, TooLarge
from seqlab.numtheory import (
    ceil_log2,
    euler_phi,
    factorize,
    int_log2,
    is_odd_prime_power,
    is_prime,
    is_two_primitive,
    multiplicative_order,
)

from referees import legendre_symbol


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_factorize_reconstructs():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(2, 10**6)
        fac = factorize(n)
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})
        prod = 1
        for p, e in fac:
            assert trial_division_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
    assert factorize(1) == ()
    assert factorize(2**10) == ((2, 10),)
    assert factorize(3 * 5 * 7) == ((3, 1), (5, 1), (7, 1))


def test_factorize_large_inputs():
    assert factorize(2**61 - 1) == ((2**61 - 1, 1),)
    assert factorize((2**31 - 1) * (2**31 + 11)) == (
        (2**31 - 1, 1),
        (2**31 + 11, 1),
    )
    assert factorize(1000003**2) == ((1000003, 2),)
    assert factorize(2**62) == ((2, 62),)
    with pytest.raises(TooLarge):
        factorize(1 << 64)
    with pytest.raises(TooLarge):
        is_prime((1 << 64) + 13)


def test_is_prime_small_exhaustive():
    for n in range(0, 2000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_selected():
    # Carmichael numbers and large primes exercise the non-trivial path.
    assert not is_prime(561)
    assert not is_prime(1105)
    assert not is_prime(29341)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(10**9 + 7)


def test_euler_phi_brute():
    for n in range(1, 300):
        count = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == count, n


def test_multiplicative_order_brute():
    rng = random.Random(4)
    for _ in range(200):
        q = rng.randrange(3, 500)
        a = rng.randrange(1, q)
        if math.gcd(a, q) != 1:
            with pytest.raises(NotCoprime):
                multiplicative_order(a, q)
            continue
        d = multiplicative_order(a, q)
        assert pow(a, d, q) == 1
        assert all(pow(a, j, q) != 1 for j in range(1, d))


def test_order_divides_phi():
    for q in range(3, 200, 2):
        for a in (2, 3, 5):
            if math.gcd(a, q) != 1:
                continue
            assert euler_phi(q) % multiplicative_order(a, q) == 0


def test_is_two_primitive():
    for q in range(3, 20_000, 2):
        expected = multiplicative_order(2, q) == euler_phi(q)
        assert is_two_primitive(q) == expected, q


def test_is_odd_prime_power():
    for q in range(1, 2000):
        got = is_odd_prime_power(q)
        fac = factorize(q)
        expected = None
        if len(fac) == 1:
            p, e = fac[0]
            if p != 2:
                expected = (p, e)
        assert got == expected, q


def test_legendre_symbol_euler_criterion():
    for p in (3, 5, 7, 11, 13, 101, 997):
        squares = {pow(x, 2, p) for x in range(1, p)}
        for a in range(0, 2 * p):
            s = legendre_symbol(a, p)
            if a % p == 0:
                assert s == 0
            elif a % p in squares:
                assert s == 1
            else:
                assert s == -1


def test_ceil_log2():
    assert ceil_log2(1) == 0
    for n in range(2, 5000):
        c = ceil_log2(n)
        assert 2 ** (c - 1) < n <= 2**c


def test_int_log2_small_and_huge():
    for n in (1, 2, 3, 10, 1023, 1024, 1025):
        assert int_log2(n) == pytest.approx(math.log2(n))
    # math.log2 overflows for ints at or above 2**1024; these must not.
    assert int_log2(2**2000) == pytest.approx(2000.0)
    assert int_log2(3 * 2**1500) == pytest.approx(1500 + math.log2(3))
    assert int_log2(2**5000 - 1) == pytest.approx(5000.0)
