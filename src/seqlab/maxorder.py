"""Maximum-order complexity: the shortest window length whose successor map
is single-valued over the word, read from one suffix automaton while it
grows. The running value gives the per-prefix profile, and the first
prefix that reaches the final value gives the leftmost conflict as a
two-occurrence witness. A periodic sequence is read from its sorted cyclic
windows instead, with the automaton kept for the periods whose windows tie
even at 60 bits. Plus the number-theoretic shortcuts for carry-register
sequences."""

from __future__ import annotations

import math
from itertools import compress, islice
from operator import eq, xor
from typing import NamedTuple

from .config import oracle_bound
from .errors import NotCoprime, NotEllModulus, OracleBoundExceeded
from .numtheory import (
    FACTOR_LIMIT,
    ceil_log2,
    factorize,
    is_odd_prime_power,
    multiplicative_order,
    two_generates,
)
from .seqcore import PeriodicSequence, Profile, Word


class MocWitness(NamedTuple):
    """The leftmost maximal conflict: equal windows of length M - 1
    starting at i < j whose successor symbols differ, j the least start of
    such a window and i the first occurrence of the window at j."""

    i: int
    j: int
    length: int


class MocResult(NamedTuple):
    m: int
    witness: MocWitness | None


def _running_moc(bits: bytes, period: int | None = None) -> list[int]:
    """M of each prefix of bits, read from one suffix automaton over the
    binary alphabet grown symbol by symbol.

    M is 1 plus the longest string followed by both symbols, and such a
    string is the longest string of its state. A state gains its second
    transition only in the first suffix-link walk, and from then on its
    strings are followed by both symbols, so that is where the running M
    takes max(M, length + 1). A clone copies both transitions only from a
    state already counted with a longer length, so it never raises M.

    With a period T, stop before symbol n once n >= T + M(n), M(n) the
    value of the first n symbols; the list then ends at that prefix, whose
    M is the sequence's. A prefix of length T + M(n) holds every cyclic
    window of length M(n) + 1, their successor map is single-valued since
    the first n symbols hold them all, and M never decreases with the
    prefix length. The stop comes by 2T - 1, as M <= T - 1.
    """
    # One loop with the lists in locals: this runs once per symbol of
    # every word.
    next0, next1, link, length = [-1], [-1], [-1], [0]
    last = m = 0
    stop = len(bits) if period is None else period
    out = []
    for pos, c in enumerate(bits):
        if pos >= stop:
            break
        if c:
            nxt, other = next1, next0
        else:
            nxt, other = next0, next1
        p = last
        cur = last = len(length)
        next0.append(-1)
        next1.append(-1)
        link.append(0)
        length.append(length[p] + 1)
        while p != -1 and nxt[p] == -1:
            nxt[p] = cur
            if other[p] != -1 and length[p] >= m:
                m = length[p] + 1
                if period is not None:
                    stop = period + m
            p = link[p]
        out.append(m)
        if p == -1:
            continue
        q = nxt[p]
        if length[p] + 1 == length[q]:
            link[cur] = q
            continue
        clone = len(length)
        next0.append(next0[q])
        next1.append(next1[q])
        link.append(link[q])
        length.append(length[p] + 1)
        link[q] = link[cur] = clone
        while p != -1 and nxt[p] == q:
            nxt[p] = clone
            p = link[p]
    return out


def moc(w: Word) -> MocResult:
    """Maximum-order complexity of a word, with its leftmost conflict as
    the witness, the one moc_oracle gives.

    m is the least window length whose window -> successor map is single
    valued; equivalently 1 plus the longest string that occurs followed by
    both symbols. Constant words (and the empty word) give 0.

    The witness is read from the profile. Let n be the first length whose
    M is the final m, and j = n - m: the window of m - 1 symbols at j is
    followed by symbol n - 1, the last of that prefix. No window of m - 1
    symbols conflicts before j, or M would reach m at a shorter prefix, so
    every occurrence of the window at j before it is followed by the same
    symbol. Windows of m - 1 symbols do conflict in the first n symbols,
    where M is m, and the window at j is the only one new there, so it is
    followed by the other symbol. So j is the least conflicting start, and
    i = bits.find(window) is its first occurrence, which conflicts with it.
    """
    bits = w.bits
    profile = _running_moc(bits)
    m = profile[-1] if profile else 0
    if m == 0:
        return MocResult(0, None)
    j = profile.index(m) + 1 - m
    return MocResult(m, MocWitness(bits.find(bits[j : j + m - 1]), j, m - 1))


def moc_profile(w: Word) -> Profile:
    """Per-prefix maximum-order complexity: the running M of one automaton
    fed w, so linear in len(w)."""
    return Profile(tuple(_running_moc(w.bits)))


def moc_oracle(w: Word) -> MocResult:
    """Reference implementation: grow m until the successor map is a function.

    Guarded by the 'moc' oracle bound (default 2000); raise it via
    SEQLAB_ORACLE_BOUNDS for long runs.
    """
    n = len(w)
    bound = oracle_bound("moc")
    if n > bound:
        raise OracleBoundExceeded(f"len {n} > moc oracle bound {bound}")
    data = w.bits
    last_conflict = None
    for m in range(n):
        seen: dict[bytes, tuple[int, int]] = {}
        conflict = None
        for i in range(n - m):
            key = data[i : i + m]
            succ = data[i + m]
            prev = seen.get(key)
            if prev is None:
                seen[key] = (succ, i)
            elif prev[0] != succ:
                conflict = MocWitness(prev[1], i, m)
                break
        if conflict is None:
            return MocResult(m, last_conflict)
        last_conflict = conflict
    return MocResult(max(n - 1, 0), last_conflict)


class CosetSet(NamedTuple):
    """Orbit of a unit A under doubling mod q; its size is ord_q(2)."""

    elements: frozenset[int]
    q: int

    @property
    def T(self) -> int:
        return len(self.elements)


def _unit(a: int, q: int) -> int:
    """a mod q, once q is checked odd and a a unit mod q."""
    if q < 1 or q % 2 == 0:
        raise ValueError(f"need odd q >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) != 1")
    return a % q


def _orbit(a: int, q: int) -> list[int]:
    """The doubling orbit of the unit a mod q, from a until the walk
    returns to it; doubling permutes the units, so it always does."""
    a = _unit(a, q)
    orbit = [a]
    cur = a * 2 % q
    while cur != a:
        orbit.append(cur)
        cur = cur * 2 % q
    return orbit


def coset(a: int, q: int) -> CosetSet:
    return CosetSet(frozenset(_orbit(a, q)), q)


def moc_from_coset(a: int, q: int) -> int:
    """Maximum-order complexity of the carry-register sequence for (a, q),
    computed as the least N with the doubling orbit distinct mod 2^N.

    q = 1 (and generally orbit size 1) is the constant sequence: returns 0.

    When 2 is primitive mod q (decided for q below FACTOR_LIMIT), q is a
    prime power p^e and the orbit of any unit is the whole unit group, so it
    is read from a q-byte mask of the units instead of walked. The mask is
    smaller than the phi(q) >= 2q/3 list entries the walk would hold.
    Otherwise the orbit is walked.
    """
    a = _unit(a, q)
    if 3 <= q < FACTOR_LIMIT:
        factors = factorize(q)
        if two_generates(q, factors):
            return _unit_group_width(q, factors[0][0])
    return _orbit_width(_orbit(a, q), q)


def _orbit_width(orbit: list[int], q: int) -> int:
    """Least N with the elements of a doubling orbit mod q distinct mod
    2^N; 0 for an orbit of one element."""
    t = len(orbit)
    if t == 1:
        return 0
    # t distinct residues mod 2^N need 2^N >= t, so narrower widths cannot pass.
    for nbits in range((t - 1).bit_length(), q.bit_length() + 1):
        mask = (1 << nbits) - 1
        if len({u & mask for u in orbit}) == t:
            return nbits
    raise AssertionError("unreachable: orbit elements are distinct below q")


def _unit_group_width(q: int, p: int) -> int:
    """Least N with the units mod q = p^e distinct mod 2^N (p an odd prime).

    Byte u of the mask is 1 when u is a unit: one slice assignment clears
    the multiples of p. Read 2^N bytes at a time as a
    little-endian int, the chunk starting at k * 2^N has bit 8r set when
    k * 2^N + r is a unit, so two units agree mod 2^N exactly when two
    chunks share a set bit. The OR of the chunks before each one finds
    that. As in the walk, widths start at ceil(log2 phi(q)).
    """
    units = bytearray(b"\x01") * q
    units[::p] = bytes(q // p)
    phi = q - q // p
    for nbits in range((phi - 1).bit_length(), q.bit_length() + 1):
        width = 1 << nbits
        seen = 0
        for start in range(0, q, width):
            chunk = int.from_bytes(units[start : start + width], "little")
            if seen & chunk:
                break
            seen |= chunk
        else:
            return nbits
    raise AssertionError("unreachable: one chunk of width >= q is distinct")


def moc_periodic(s: PeriodicSequence) -> int:
    """Maximum-order complexity of a periodic sequence of least period T.

    M is 1 plus the longest common prefix L of two distinct rotations of
    the period (T = 1, the constant sequence, has M = 0):
    - the windows of length k of the sequence are its T cyclic windows, at
      0, ..., T - 1. Two rotations at i and j that agree on exactly their
      first L symbols give, for every k <= L, equal windows of length k at
      i + L - k and j + L - k whose successors differ, so M > L;
    - no two rotations agree on L + 1 symbols, so the cyclic windows of
      length L + 1 are pairwise distinct, their successor map is
      single-valued, and M <= L + 1.
    L is found between neighbours in sorted order. For x <= y <= z,
    lcp(x, z) = min(lcp(x, y), lcp(y, z)): y starts with the prefix that
    x and z share, or it would not sort between them, and y cannot agree
    with both past it, where x and z differ. So the common prefix of any
    two sorted rotations is the least over the neighbouring pairs between
    them, and the longest is that of some neighbouring pair.

    A window of k bits with its first symbol as the high bit sorts as its
    k symbols do, and two windows a != b share k - (a ^ b).bit_length()
    leading symbols. When no two windows are equal, every pair differs
    within k symbols, so the windows sort as the rotations do and this is
    their common prefix exactly; M is k minus the least such bit length,
    plus 1. The windows are K = min(T, 30) bits (one CPython digit), and
    K = T has no ties, as the rotations of a least period are distinct.
    On a tie the tied windows, those equal to a sorted neighbour, widen
    once to min(T, 60) bits from the same list and are sorted again, and a
    period that still ties is fed to the automaton, which stops after its
    first T + M symbols (_running_moc).
    """
    if s.T == 1:
        return 0
    m = _windows_moc(s.word.bits)
    if m is not None:
        return m
    return _running_moc(s.prefix(2 * s.T - 1).bits, s.T)[-1]


# Window width of moc_periodic's first pass: one CPython digit, so each
# window is a one-digit int, the cheapest to build, sort and xor.
_DIGIT_BITS = 30


def _windows_moc(bits: bytes) -> int | None:
    """M of the least period bits (T >= 2) from its sorted cyclic windows
    of min(T, 30) bits, or None when two windows still tie at min(T, 60)
    bits. Two rotations share more than 30 symbols only if their 30-bit
    windows are equal, so on a tie only the windows equal to a sorted
    neighbour are widened and sorted again; any others differ within 30
    symbols, less than the tie's. The windows are freed on return, before
    any automaton is built.
    """
    T = len(bits)
    k = min(T, _DIGIT_BITS)
    mask = (1 << k) - 1
    w = 0
    for c in bits[: k - 1]:
        w = w << 1 | c
    # windows[i] holds symbols i, ..., i + k - 1 (cyclic), symbol i highest.
    windows = [w := (w << 1 | c) & mask for c in bits[k - 1 :] + bits[: k - 1]]
    lcp, ordered = _longest_common_prefix(windows, k)
    if lcp < k:
        return lcp + 1
    # A tie means T > 30. The wider window at i appends the first r symbols
    # of the window at i + 30, read at the index i + 30 - T when that wraps.
    tied = set(compress(ordered, map(eq, ordered, islice(ordered, 1, None))))
    k = min(T, 2 * _DIGIT_BITS)
    r = k - _DIGIT_BITS
    at = compress(range(T), map(tied.__contains__, windows))
    wide = [windows[i] << r | windows[i + _DIGIT_BITS - T] >> (_DIGIT_BITS - r) for i in at]
    lcp, _ = _longest_common_prefix(wide, k)
    return lcp + 1 if lcp < k else None


def _longest_common_prefix(windows, k: int) -> tuple[int, list[int]]:
    """Longest common prefix of two of the k-bit windows (at least two),
    first symbol high, or k when two are equal, read between neighbours
    in sorted order; and the windows sorted."""
    ordered = sorted(windows)
    return k - min(map(xor, ordered, islice(ordered, 1, None))).bit_length(), ordered


# The ell moduli whose M is floor(log2 q) rather than ceil(log2 q).
ELL_FLOOR_MODULI = (3, 5, 9)


def moc_ell_formula(q: int) -> int:
    """Closed form for maximal-period carry-register sequences.

    Requires q to be an odd prime power with 2 primitive. The value is
    floor(log2 q) for q in ELL_FLOOR_MODULI and ceil(log2 q) otherwise.
    """
    _ell_power(q)
    return _ell_value(q)


def _ell_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, once q is checked an odd prime power with 2
    primitive: one factorization of q and one of phi(q)."""
    power = is_odd_prime_power(q)
    if power is None or not two_generates(q, (power,)):
        raise NotEllModulus(f"{q} is not an odd prime power with 2 primitive")
    return power


def _ell_value(q: int) -> int:
    """moc_ell_formula(q) for an ell modulus q."""
    if q in ELL_FLOOR_MODULI:
        return q.bit_length() - 1
    return ceil_log2(q)


def ell_moduli(limit: int) -> list[int]:
    """All odd prime powers q <= limit with 2 a primitive root, ascending."""
    return [q for q, _, _ in _ell_powers(limit)]


def _ell_powers(limit: int) -> list[tuple[int, int, int]]:
    """(q, p, k) with q = p^k for each of ell_moduli(limit), ascending.

    The odd primes come from one sieve, and each prime's powers are tested
    with their factorization known, so only phi(q) is factorized. Reducing
    mod p^k maps the units mod p^(k+1) onto those mod p^k, so once 2 fails
    to generate at p^k it fails at every higher power, and the powers of p
    stop there.
    """
    composite = bytearray(max(limit + 1, 0))
    out = []
    for p in range(3, limit + 1, 2):
        if composite[p]:
            continue
        composite[p * p :: 2 * p] = b"\x01" * len(range(p * p, limit + 1, 2 * p))
        q, k = p, 1
        while q <= limit and two_generates(q, ((p, k),)):
            out.append((q, p, k))
            q, k = q * p, k + 1
    return sorted(out)


def ell_period(q: int) -> int:
    return multiplicative_order(2, q)
