"""Linear complexity, windowed correlation of order k, and the algebraic
dependence degree of the generating function (expansion complexity).

Each measure has a per-prefix profile computed in one pass over the word:
Berlekamp-Massey for linear complexity, one walk over every lag at once,
packed into the lanes of a few ints (SWAR; Lamport, CACM 18(8), 1975), for
order-2 correlation, and one F2 echelon over the monomial columns x^i y^j,
fed one coefficient row per bit, for expansion complexity.
expansion_complexity at one N reads that profile. correlation2 reads every
lag at the end of the same walk (correlation2_value only its best), and
correlation_k runs it once per tuple of its first k - 2 lags. The least
window is searched only in the lag tuples that tie the best value. The
linear complexity of a periodic sequence is one polynomial gcd over GF(2).
"""

from __future__ import annotations

from itertools import accumulate, combinations
from operator import mul, xor
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
    |sum_{i<U} (-1)^(s_{i+d1} + s_{i+d2})|. Every lag in one lane-packed walk."""
    if len(w) < 2:
        raise TooShort(f"need length >= 2, got {len(w)}")
    return _correlation(w, 2)


def correlation2_value(w: Word) -> int:
    """correlation2(w)[0] without the witness: the best of one lane-packed
    walk over every lag, with no search for the least window."""
    if len(w) < 2:
        raise TooShort(f"need length >= 2, got {len(w)}")
    return _lag_walk(w.bits, w.bits)[0]


def correlation2_profile(w: Word) -> Profile:
    """Order-2 correlation of every prefix, 0 at length 1: the running best
    of the lane-packed walk over every lag. Equals correlation2(w[:n])[0]
    for n >= 2.
    """
    bits = w.bits
    if not bits:
        return Profile(())
    return Profile((0, *_lag_walk(bits, bits, True)[2]))


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

    For each head of k - 2 lags (none when k = 2), y_i is s_i xor s at the
    head's lags, last its largest lag (0 for none). One _lag_walk of y
    against s[last:] reads every tuple head + (last + e,) at once. Only the
    tuples that tie the final value can hold the witness.
    """
    bits = w.bits
    n = len(bits)
    best_val = 0
    ties = []
    for head in combinations(range(1, n), k - 2):
        last = head[-1] if head else 0
        y = bits[: n - last]
        for lag in head:
            y = bytes(map(xor, y, bits[lag:]))
        top, lags, _ = _lag_walk(y, bits[last:])
        if top < best_val:
            continue
        if top > best_val:
            best_val, ties = top, []
        ties += [head + (last + e,) for e in lags]
    signs = [1 - 2 * b for b in bits]
    u, d1, lags, sign = min(_least_window(signs, lags) for lags in ties)
    offsets = (d1,) + tuple(d1 + lag for lag in lags)
    return best_val, CorrelationWitness(u, offsets, sign * best_val)


def _lag_walk(y: bytes, s: bytes, running: bool = False) -> tuple[int, list[int], list[int]]:
    """For every lag e in [1, len(s)), the largest |window sum| of the terms
    (-1)^(y_j + s_(j+e)) over j + e < len(s), with len(y) >= len(s) - 1: the
    largest over the lags, the lags reaching it, and with running, the
    largest after each end index j + e = 1, ..., len(s) - 1.

    Lane e - 1 of a few ints holds lag e. A lag's value is max - min of its
    prefix sums P from 0, so its lane keeps A = max - P and D = P - min. At
    end index m, r holds y_(m-e) in lane e - 1, and x marks the lanes whose
    term is -1: r, or the live lanes' ones less r when s_m = 1. A -1 term
    raises A and lowers D unless D is 0; a +1 term does the reverse. Lanes
    stay in [0, len(s) - 1], below the guard bit 2^shift, so a lane is at
    least t exactly when adding 2^shift - t sets its guard bit, with no
    carry into the next lane. So the running best rises exactly when some
    lane of A + D reaches best + 1, and the final best is read bit by bit.
    """
    n = len(s)
    shift = (n - 1).bit_length()
    width = shift + 1
    guard = 1 << shift
    low = guard - 1
    r = ones = lows = a = d = best = rest = 0
    running_best = []
    for m in range(1, n):
        r = (r << width) | y[m - 1]
        ones = (ones << width) | 1
        lows = (lows << width) | low
        x, xc = (ones - r, r) if s[m] else (r, ones - r)
        a = a + x - ((a + lows) >> shift & xc)
        d = d + xc - ((d + lows) >> shift & x)
        if running:
            rest = (rest << width) | (low - best)
            if (a + d + rest) >> shift & ones:
                best += 1
                rest -= ones
            running_best.append(best)
    v = a + d
    if not running:
        for bit in reversed(range(shift)):
            if (v + ones * (guard - (best | 1 << bit))) >> shift & ones:
                best |= 1 << bit
    reached = format((v + ones * (guard - best)) >> shift & ones, "b")[::-width]
    return best, [e for e, bit in enumerate(reached, 1) if bit == "1"], running_best


def _least_window(signs: list[int], lags: tuple[int, ...]) -> tuple[int, int, tuple, int]:
    """(U, d1, lags, sign) of the least window, by U then start, whose |sum|
    of the terms s_i * s_(i+lag) * ... is max - min of their prefix sums.

    Such a window runs between a min and a max position of the prefix sums,
    with no extreme position inside, or a part of it would be shorter. So
    the least ones join neighbouring extreme positions, one a min and one a
    max; the sum is positive when the min comes first.
    """
    terms = signs
    for lag in lags:
        terms = map(mul, terms, signs[lag:])
    prefix = list(accumulate(terms, initial=0))
    lo, hi = min(prefix), max(prefix)
    ends = [i for i, p in enumerate(prefix) if p == lo or p == hi]
    return min(
        (b - a, a, lags, 1 if prefix[a] == lo else -1)
        for a, b in zip(ends, ends[1:])
        if prefix[a] != prefix[b]
    )


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

