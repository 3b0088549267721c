"""Linear complexity, windowed correlation of order k, and the algebraic
dependence degree of the generating function (expansion complexity).

Each measure has a per-prefix profile computed in one pass over the word:
Berlekamp-Massey for linear complexity, per-lag running sums for order-2
correlation, and one F2 echelon over the monomial columns x^i y^j, fed one
coefficient row per bit, for expansion complexity. expansion_complexity
at one N reads that profile. correlation2 and correlation_k keep their own
search because they also return the achieving window: the prefix sums of
each lag tuple's sign products give its value, and the least window is
searched only in the tuples that tie the best value. The linear
complexity of a periodic sequence is one polynomial gcd over GF(2).
"""

from __future__ import annotations

from itertools import accumulate, combinations
from operator import mul
from typing import NamedTuple

from .config import oracle_bound
from .errors import BoundExceeded, TooShort
from .seqcore import Profile, Word


def linear_profile(w: Word) -> Profile:
    """Per-prefix linear complexity via incremental Berlekamp-Massey.

    Polynomials are packed into ints (bit i = coefficient of x^i), so each
    step is a couple of word-parallel xors. All-zero prefixes give 0.
    """
    c = 1  # current connection polynomial, c_0 = 1
    b = 1  # copy from before the last length change
    ell = 0
    m = -1  # index of the last length change
    srev = 0  # bit k = s_{n-k}
    values = []
    for n, bit in enumerate(w):
        srev = (srev << 1) | bit
        if (c & srev).bit_count() & 1:
            t = c
            c ^= b << (n - m)
            if 2 * ell <= n:
                ell = n + 1 - ell
                b = t
                m = n
        values.append(ell)
    return Profile(tuple(values))


def linear_complexity_periodic(period: Word) -> int:
    """Linear complexity of the infinite sequence with this period word:
    T - deg gcd(x^T + 1, s(x)) over GF(2), with s(x) = sum s_i x^i over one
    period (Ding, Xiao and Shan, LNCS 561, 1991).

    The generating function is s(x)/(x^T + 1), and its reduced denominator
    has degree L. Any period gives the same value, least or not; the
    all-zero period gives 0. One Euclid on int-packed polynomials (bit i =
    coefficient of x^i), each step a shifted xor.
    """
    t = len(period)
    if t == 0:
        raise TooShort("empty period")
    a, b = (1 << t) | 1, period.value()
    while b:
        da, db = a.bit_length(), b.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return t + 1 - a.bit_length()


class CorrelationWitness(NamedTuple):
    """Achieving window: U terms starting at offsets, value the signed sum."""

    window: int
    offsets: tuple[int, ...]
    value: int


def correlation2(w: Word) -> tuple[int, CorrelationWitness]:
    """Order-2 correlation: max over window length U and offsets d1 < d2 of
    |sum_{i<U} (-1)^(s_{i+d1} + s_{i+d2})|. O(N^2) via per-lag prefix sums."""
    if len(w) < 2:
        raise TooShort(f"need length >= 2, got {len(w)}")
    return _correlation(w, 2)


def correlation2_profile(w: Word) -> Profile:
    """Order-2 correlation of every prefix, 0 at length 1, in one O(N^2) pass.

    Each new bit s_n adds the term (-1)^(s_{n-l} + s_n) to the running sum
    of every lag l <= n. A lag's largest |window sum| is the max minus the
    min of its running sums (both from 0), so each lag keeps those two, and
    the value at a prefix is the running max over lags. Equals
    correlation2(w[:n])[0] for n >= 2.
    """
    bits = w.bits
    acc = [0]  # per lag l, at index l; index 0 unused
    hi = [0]
    lo = [0]
    best = 0
    values = []
    for n, bit in enumerate(bits):
        for lag in range(1, n + 1):
            a = acc[lag] + (-1 if bits[n - lag] ^ bit else 1)
            acc[lag] = a
            if a > hi[lag]:
                hi[lag] = a
            elif a < lo[lag]:
                lo[lag] = a
            else:
                continue
            if hi[lag] - lo[lag] > best:
                best = hi[lag] - lo[lag]
        values.append(best)
        acc.append(0)
        hi.append(0)
        lo.append(0)
    return Profile(tuple(values))


def correlation_k(w: Word, k: int) -> tuple[int, CorrelationWitness]:
    """Order-k correlation over offset tuples d1 < ... < dk.

    Cost grows like N^k; guarded by k <= 4 and the 'corr' length bound
    (default 2048, see SEQLAB_ORACLE_BOUNDS).
    """
    if not 2 <= k <= 4:
        raise BoundExceeded(f"order k must be in [2, 4], got {k}")
    bound = oracle_bound("corr")
    if len(w) > bound:
        raise BoundExceeded(f"len {len(w)} > correlation bound {bound}")
    if len(w) < k:
        raise TooShort(f"need length >= {k}, got {len(w)}")
    return _correlation(w, k)


def _correlation(w: Word, k: int) -> tuple[int, CorrelationWitness]:
    """The value and the witness with the lexicographically least
    (U, d1, lag tuple) among those achieving it.

    With signs s = 1 - 2b, a lag tuple's terms are the products of the
    shifted signs, and its largest |window sum| is the max minus the min of
    their prefix sums, all read at C level. Only the tuples that tie the
    final value can hold the witness, so the least window is searched in
    them alone, after the loop.
    """
    n = len(w)
    signs = [1 - 2 * b for b in w.bits]
    best_val = 0
    ties = []
    for lags in combinations(range(1, n), k - 1):
        prefix = _prefix_sums(signs, lags)
        val = max(prefix) - min(prefix)
        if val > best_val:
            best_val, ties = val, [lags]
        elif val == best_val:
            ties.append(lags)
    best_key = None  # (U, d1, lag tuple)
    best_sign = 1
    for lags in ties:
        # The latest earlier occurrence of pb -+ best_val gives the least U
        # ending at b.
        latest: dict[int, int] = {}
        for b, pb in enumerate(_prefix_sums(signs, lags)):
            for target, sign in ((pb - best_val, 1), (pb + best_val, -1)):
                a = latest.get(target)
                if a is not None:
                    key = (b - a, a, lags)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_sign = sign
            latest[pb] = b
    u, d1, lags = best_key
    offsets = (d1,) + tuple(d1 + lag for lag in lags)
    return best_val, CorrelationWitness(u, offsets, best_sign * best_val)


def _prefix_sums(signs: list[int], lags: tuple[int, ...]) -> list[int]:
    """Prefix sums, from 0, of the terms s_i * s_(i+lag) * ... over the lags,
    for i < len(signs) - max lag, where the shortest shifted list ends."""
    terms = signs
    for lag in lags:
        terms = map(mul, terms, signs[lag:])
    return list(accumulate(terms, initial=0))


def expansion_complexity(w: Word, n: int, d_max: int = 16) -> int | None:
    """Least total degree d of a nonzero h(x, y) with h(x, G(x)) = 0 mod x^n,
    where G is the prefix generating function. Returns None when every
    d <= d_max fails (value exceeds the cap); all-zero prefixes give 0.

    Read from expansion_profile of the length-n prefix.
    """
    if not 1 <= n <= len(w):
        raise ValueError(f"need 1 <= n <= {len(w)}, got {n}")
    if d_max < 1:
        raise ValueError(f"need d_max >= 1, got {d_max}")
    return expansion_profile(w[:n], d_max).at(n)


def expansion_profile(w: Word, d_max: int = 16) -> Profile:
    """expansion_complexity(w, n, d_max) for every n in one pass.

    Column d(d+1)/2 + j stands for the monomial x^(d-j) y^j, so columns run
    by total degree d, then by j. Row n holds coefficient n of x^i G^j for
    every column. That is coefficient n - 1 of x^(i-1) G^j, so row n is row
    n - 1 with each degree block moved up one block, plus coefficient n of
    each G^j in the columns x^0 y^j. Coefficient n of G^j is the parity of
    the product of G^(j-1) with the reversed prefix, as in linear_profile.

    Rows are kept in echelon form keyed by their lowest set column, so the
    rank of any leading block of columns is its number of pivots, and E(n)
    is the degree of the first column that is not a pivot. Once every column
    is a pivot, E is None from then on. All-zero prefixes give 0.

    The rank is at most len(w), so once the (d+1)(d+2)/2 columns of degree
    <= d outnumber the bits, one of them is not a pivot and E <= d at every
    prefix. d_max is cut to the least such d: the pivots among the leading
    columns do not depend on how many columns follow, so the values stay
    the same, and a huge d_max costs nothing.
    """
    if d_max < 1:
        raise ValueError(f"need d_max >= 1, got {d_max}")
    d_cap = 1
    while (d_cap + 1) * (d_cap + 2) // 2 <= len(w):
        d_cap += 1
    d_max = min(d_max, d_cap)
    # (mask, shift) moving degree block d onto block d + 1; block d_max drops.
    blocks = [(((1 << (d + 1)) - 1) << (d * (d + 1) // 2), d + 1) for d in range(d_max)]
    degree = [d for d in range(d_max + 1) for _ in range(d + 1)]
    full = (1 << len(degree)) - 1
    powers = [1] + [0] * d_max  # bit k of powers[j]: coefficient of x^k in G^j
    echelon: dict[int, int] = {}  # lowest set column bit -> row
    pivots = 0
    row = 0
    srev = 0  # bit k = s_{n-k}
    e = 0
    values = []
    for n, bit in enumerate(w.bits):
        srev = (srev << 1) | bit
        fresh = 1 if n == 0 else 0  # G^0 = 1 has coefficient 1 at x^0 only
        for j in range(1, d_max + 1):
            if (powers[j - 1] & srev).bit_count() & 1:
                powers[j] |= 1 << n
                fresh |= 1 << (j * (j + 3) // 2)  # column of x^0 y^j
        for mask, shift in blocks:
            fresh |= (row & mask) << shift
        row = red = fresh
        while red:
            low = red & -red
            other = echelon.get(low)
            if other is None:
                echelon[low] = red
                pivots |= low
                if pivots == full:
                    values.extend([None] * (len(w) - n))
                    return Profile(tuple(values))
                e = degree[(~pivots & (pivots + 1)).bit_length() - 1]
                break
            red ^= other
        values.append(e if srev else 0)
    return Profile(tuple(values))

