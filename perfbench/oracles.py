"""Reference computations the benchmark checks seqlab's outputs against.

Nothing here imports seqlab: every value is derived from the definitions
(sequence families, the 2-adic minimum, maximum-order complexity, orders,
the Moebius count of primitive words), so a fault in the program cannot
hide behind the same fault in its referee.
"""

from __future__ import annotations

import math


# ---------------------------------------------------------------------------
# sequence families, bit i weighted 2^i


def thue_morse(n: int) -> list[int]:
    return [i.bit_count() & 1 for i in range(n)]


def rudin_shapiro(n: int) -> list[int]:
    # parity of the number of (overlapping) 11 blocks in binary(i)
    return [(i & (i >> 1)).bit_count() & 1 for i in range(n)]


def legendre(p: int, n: int) -> list[int]:
    """Euler's criterion: bit i is 1 when i is a nonzero square mod p."""
    half = (p - 1) // 2
    return [1 if i % p and pow(i, half, p) == 1 else 0 for i in range(n)]


def fcsr(a: int, q: int) -> list[int]:
    """One period of (a * 2^-i mod q) mod 2, whose 2-adic value is -a/q."""
    inv2 = (q + 1) // 2
    out, cur = [], a
    while True:
        out.append(cur & 1)
        cur = cur * inv2 % q
        if cur == a:
            return out


def lfsr_period(taps: tuple[int, ...], seed: tuple[int, ...]) -> list[int]:
    """Output bits over one cycle of the register state."""
    state, out = list(seed), []
    while True:
        out.append(state[0])
        nxt = 0
        for t in taps:
            nxt ^= state[t]
        state = state[1:] + [nxt]
        if state == list(seed):
            return out


def value(bits: list[int]) -> int:
    return sum(b << i for i, b in enumerate(bits))


# ---------------------------------------------------------------------------
# complexity measures by definition


def adic_mu(bits: list[int], n: int) -> int:
    """min over odd q >= 1 of max(|f|, q) with f = q*S (mod 2^n), |f| least.

    Exhaustive over odd q, stopping once q alone reaches the incumbent:
    such a q cannot give a smaller maximum.
    """
    full, half = 1 << n, 1 << (n - 1)
    s = value(bits[:n])
    best = full
    q = 1
    while q < best:
        f = q * s % full
        af = f if f <= half else full - f
        best = min(best, max(af, q))
        q += 2
    return best


def moc(bits: list[int]) -> int:
    """Least m such that every length-m window determines its successor."""
    n = len(bits)
    text = bytes(bits)
    for m in range(n):
        succ: dict[bytes, int] = {}
        if all(succ.setdefault(text[i : i + m], text[i + m]) == text[i + m] for i in range(n - m)):
            return m
    return 0


def moc_periodic(period: list[int]) -> int:
    """The same over the infinite periodic sequence: cyclic windows."""
    t = len(period)
    for m in range(t + 1):
        ext = bytes(period * (m // t + 2))
        succ: dict[bytes, int] = {}
        if all(succ.setdefault(ext[i : i + m], ext[i + m]) == ext[i + m] for i in range(t)):
            return m
    raise AssertionError("cyclic windows of length T are all distinct")


def corr2(bits: list[int]) -> int:
    """max over U >= 1 and 0 <= d1 < d2 with d2 + U <= n of
    |sum_{i<U} (-1)^(s[i+d1] + s[i+d2])|."""
    n = len(bits)
    best = 0
    for d1 in range(n):
        for d2 in range(d1 + 1, n):
            acc = 0
            for i in range(n - d2):
                acc += 1 - 2 * (bits[i + d1] ^ bits[i + d2])
                best = max(best, abs(acc))
    return best


def expansion(bits: list[int], n: int, d_max: int = 16) -> int | None:
    """Least d with a nonzero h(x, y) of total degree <= d and
    h(x, G(x)) = 0 mod x^n, found as a rank deficit over GF(2) of the
    truncated monomials x^i G^j, i + j <= d."""
    mask = (1 << n) - 1
    g = value(bits[:n])
    if g == 0:
        return 0
    powers = [1]
    for _ in range(d_max):
        powers.append(_gf2_mul(powers[-1], g) & mask)
    for d in range(1, d_max + 1):
        vecs = [(powers[j] << i) & mask for j in range(d + 1) for i in range(d + 1 - j)]
        if _gf2_rank(vecs) < len(vecs):
            return d
    return None


def _gf2_mul(a: int, b: int) -> int:
    out = 0
    while a:
        if a & 1:
            out ^= b
        a >>= 1
        b <<= 1
    return out


def _gf2_rank(vecs: list[int]) -> int:
    pivots: dict[int, int] = {}
    for v in vecs:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


# ---------------------------------------------------------------------------
# number theory


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def order2(q: int) -> int:
    """Multiplicative order of 2 mod odd q, by stepping."""
    t, x = 1, 2 % q
    while x != 1:
        x = x * 2 % q
        t += 1
    return t


def totient(q: int) -> int:
    out = q
    for p in factor(q):
        out = out // p * (p - 1)
    return out


def is_ell_modulus(q: int) -> bool:
    """Odd prime power with 2 a primitive root."""
    return q >= 3 and q % 2 == 1 and len(factor(q)) == 1 and order2(q) == totient(q)


def ell_moc(q: int) -> int:
    """Closed form for ell moduli: ceil(log2 q), floor for q in {3, 5, 9}."""
    return q.bit_length() - 1 if q in (3, 5, 9) else ceil_log2(q)


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def primitive_words(t: int) -> int:
    """Words of length t with least period t: sum_{d | t} mu(d) 2^(t/d)."""
    total = 0
    for d in range(1, t + 1):
        if t % d == 0:
            f = factor(d)
            if all(e == 1 for e in f.values()):
                total += (-1) ** len(f) * (1 << (t // d))
    return total


def connection_q(period: list[int]) -> tuple[int, int]:
    """(A, q) with the sequence value -A/q: q = (2^T - 1)/g, A = S/g."""
    modulus = (1 << len(period)) - 1
    s = value(period)
    g = math.gcd(modulus, s)
    return s // g, modulus // g


# ---------------------------------------------------------------------------
# the scan grid


def grid(n_max: int, ratio: float) -> list[int]:
    """Every length 2..64, then geometric steps, always ending at n_max."""
    pts = list(range(2, min(n_max, 64) + 1))
    cur = pts[-1]
    while cur < n_max:
        cur = min(n_max, max(cur + 1, math.ceil(cur * ratio)))
        pts.append(cur)
    return pts
