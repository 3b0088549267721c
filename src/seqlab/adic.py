"""2-adic complexity, periodic and aperiodic.

Periodic: the connection integer q of one period (gcd formula); the
complexity is log2(q). Aperiodic: the exact minimum over odd q of
max(|f|, |q|) subject to q * S = f (mod 2^N), where S is the base-2 value
of the length-N prefix. The admissible pairs form a rank-2 lattice, so the
minimum is read from a basis reduced in the sup norm: mu is |u| when uq is
odd and |v| otherwise. The lattice at a length N' lies inside the one at
N < N', so every reader carries one basis from length to length. A jump
over k bits solves the k new congruences on the basis at hand with an
extended Euclid on k-bit rows, the 2-adic form of rational reconstruction,
run as Lehmer's Euclid on long rows and stopped where its two terms
balance; a Gauss reduction with closed-form multipliers, iterated until
the basis is reduced, finishes it. From the empty basis at length 0 the
jump is the extended Euclid on (2^N, S) and one Gauss step. adic_min takes
one jump and adic_minima one per point, each then reading the canonical
tie-broken pair, the least of u, v, u + v and u - v. Where only mu is
wanted, at a strictly increasing list of lengths (adic_mu; adic_profile is
its list 1..N), each run of consecutive lengths is reached by a jump from
the previous run's end (a run from 1 needs none), and then carries the
basis bit by bit with its residues and its two sup norms, updated by shift
and add and kept reduced one step at a time. The index-2 step doubles or
swaps the norms, so only u - v is measured afresh, and each reduction step
tests the one sign of u that can shorten v where its norm is reached. A
single length takes no steps. The basis is rechecked at the run's end. An
exhaustive oracle anchors exactness at small N.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .config import oracle_bound
from .errors import OracleBoundExceeded
from .numtheory import ceil_log2, int_log2
from .seqcore import PeriodicSequence, Profile, RationalRep, Word, prefix_value, reverse_period


class AdicValue(NamedTuple):
    """A complexity value carried as its exact integer argument mu."""

    mu: int

    @property
    def log2(self) -> float:
        return int_log2(self.mu)

    @property
    def ceil(self) -> int:
        """Exact ceil(log2 mu); correct at powers of two."""
        return ceil_log2(self.mu)


class ApproxPair(NamedTuple):
    """Minimizing pair for one prefix length: q odd positive, f the
    absolutely-least achiever (ties broken toward positive f), and
    mu = max(|f|, q) >= 1."""

    f: int
    q: int
    n: int
    mu: int

    @property
    def value(self) -> AdicValue:
        return AdicValue(self.mu)


def _checked_pair(f: int, q: int, n: int, s: int) -> ApproxPair:
    # Recheck admissibility on every return; a failure here is a bug.
    full = 1 << n
    if q <= 0 or q % 2 == 0:
        raise AssertionError(f"bad q = {q}")
    mu = max(abs(f), q)
    # The low n bits by a mask: % by 2^n is a long division in CPython.
    if mu < 1 or (q * s - f) & (full - 1):
        raise AssertionError(f"pair ({f}, {q}) infeasible at N = {n}")
    return ApproxPair(f=f, q=q, n=n, mu=mu)


def connection(s: PeriodicSequence) -> RationalRep:
    """Reduced (A, q) with the sequence's 2-adic value equal to -A/q:
    q = (2^T - 1)/gcd(2^T - 1, S), A = S/gcd, S the period's base-2 value.

    The pair is built without a second gcd: with g = gcd(M, S), a common
    divisor k of M/g and S/g makes k*g a common divisor of M and S, so k*g
    divides g and k = 1."""
    sv = s.word.value()
    modulus = (1 << s.T) - 1
    g = math.gcd(modulus, sv)
    return RationalRep._coprime(sv // g, modulus // g)


def phi2(s: PeriodicSequence) -> AdicValue:
    return AdicValue(connection(s).q)


def phi2_symmetric(s: PeriodicSequence) -> AdicValue:
    """Reversal-invariant variant: the smaller connection integer of the
    sequence and its reversed period. cli._periodic_text applies the same
    rule to connections it already holds."""
    q_fwd = connection(s).q
    q_rev = connection(reverse_period(s)).q
    return AdicValue(min(q_fwd, q_rev))


def _jump(s: int, n: int, k: int, uf: int, uq: int, vf: int, vq: int) -> tuple[int, int, int, int]:
    """A sup-norm reduced basis of L' = {(f, q): f = q*S (mod 2^(n + k))}
    from a reduced basis u, v of L, the same lattice at length n; k >= 1 and
    s is S mod 2^(n + k). From the empty basis (1, 0), (0, 1) at n = 0 it is
    the extended Euclid on (2^k, S) and one Gauss step.

    L' lies inside L with index 2^k. With the residues
    r_w = (w_f - w_q*S)/2^n mod 2^k, a*u + b*v is in L' exactly when
    a*r_u + b*r_v = 0 (mod 2^k). One residue is odd, as the index is 2^k;
    swap u and v so that r_u is odd (no swap when both are). Then x*u + y*v
    is in L' exactly when x = c*y (mod 2^k), c = -r_v/r_u mod 2^k by
    _inverse. From the empty basis r_u = 1, so no inverse is taken and
    c = S. The rows (r, t) of the extended Euclid on
    (2^k, c), from (2^k, 0), (c, 1), all have r = t*c (mod 2^k), and two
    consecutive rows have determinant +-2^k, so any two give the basis
    r0*u + t0*v, r1*u + t1*v of L'. Like Stehle & Zimmermann's binary
    recursive gcd, the jump works from the low-order bits, and its Euclid
    is k bits long, not n + k. It stops where the two terms balance, at the
    first row with r*|u| <= |t|*|v|, read on bit lengths as r*2^sh <= |t|
    with sh = bitlen|u| - bitlen|v|: scaled by 2^sh (t by 2^-sh if sh < 0),
    the rows have the same quotients and stop at r <= |t|. _sup_gauss
    finishes the reduction. The stop does not bear on exactness, only on
    the Gauss steps left: one or two on every jump tried.

    Knuth's Algorithm L (TAOCP vol. 2, 4.5.2; Lehmer 1938): while r1 is
    long, the quotients are found on the leading 62 bits of (r0, r1) and
    kept only while the two bracketing quotients agree, so each is the true
    quotient; the round's 2x2 cofactor matrix then moves both rows at once.
    No round crosses the stopping row. Rows keep r_(i-1)*|t_i| <= 2^k, r
    falls and |t| does not, so the stop, once met, holds at every later
    row. A round starting with r1 >= 2^L has |t0| <= |t1| below 2^(k - L).
    Its cofactors are below 2^62, so it leaves r0 above r1/2^63 >= 2^(L - 63)
    and |t0| below 2^(k - L + 63), which is at most 2^(L - 63 + sh) when
    L >= (k - sh)/2 + 63: then r0*2^sh > |t0|, and r0 is not yet the
    stopping row. (A round that finds no quotient takes one schoolbook step
    and leaves r0 = r1 >= 2^L.) So rounds run while r1 is longer than
    L = max((k - sh)//2 + 70, 1500) bits. The schoolbook loop takes the last
    steps, and all steps on rows of 1500 bits or fewer: there one big-int
    division costs less than a quotient found on the leading bits (measured
    in CPython 3.11), so no round is set up for k <= 1500.
    """
    if n:
        mask = (1 << k) - 1
        ru = ((uf - uq * s) >> n) & mask
        rv = ((vf - vq * s) >> n) & mask
        if not ru & 1:
            uf, uq, ru, vf, vq, rv = vf, vq, rv, uf, uq, ru
        c = (-rv if ru == 1 else -rv * _inverse(ru, k)) & mask
        # max(|f|, |q|) and |f| | |q| have the same bit length.
        sh = ((uf if uf >= 0 else -uf) | (uq if uq >= 0 else -uq)).bit_length() - (
            (vf if vf >= 0 else -vf) | (vq if vq >= 0 else -vq)
        ).bit_length()
    else:
        c, sh = s, 0
    r0, t0, r1, t1 = 1 << k, 0, c, 1
    if k > 1500:
        long_bits = max((k - sh) // 2 + 70, 1500)
        while r1.bit_length() > long_bits:
            h = r0.bit_length() - 62
            x, y = r0 >> h, r1 >> h
            a, b, c, d = 1, 0, 0, 1
            while y + c and y + d:
                q = (x + a) // (y + c)
                if q != (x + b) // (y + d):
                    break
                a, b, c, d, x, y = c, d, a - q * c, b - q * d, y, x - q * y
            if b:
                r0, t0, r1, t1 = a * r0 + b * r1, a * t0 + b * t1, c * r0 + d * r1, c * t0 + d * t1
            else:
                # No quotient fits in the leading bits: one schoolbook step.
                q = r0 // r1
                r0, t0, r1, t1 = r1, t1, r0 - q * r1, t0 - q * t1
    if sh > 0:
        r0, r1 = r0 << sh, r1 << sh
    elif sh:
        t0, t1 = t0 << -sh, t1 << -sh
    while r1 > abs(t1):
        q = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - q * r1, t0 - q * t1
    _checked_rows(n + k, k + abs(sh), r0, t0, r1, t1)
    if sh > 0:
        r0, r1 = r0 >> sh, r1 >> sh
    elif sh:
        t0, t1 = t0 >> -sh, t1 >> -sh
    return _sup_gauss(r0 * uf + t0 * vf, r0 * uq + t0 * vq, r1 * uf + t1 * vf, r1 * uq + t1 * vq)


def _inverse(r: int, k: int) -> int:
    """r^-1 mod 2^k for odd r by Newton's iteration x <- x*(2 - r*x), which
    doubles the number of correct low bits (Brent & Zimmermann, Modern
    Computer Arithmetic, 2010), from x = 3r XOR 2, right in the low five
    bits (Montgomery's seed: r*(3r XOR 2) = 1 mod 32 for odd r).
    pow(r, -1, 2^k) runs an extended Euclid instead."""
    x, bits = (3 * r ^ 2) & 31, 5
    while bits < k:
        bits <<= 1
        m = (1 << bits) - 1
        x = x * (2 - (r & m) * x) & m
    return x & ((1 << k) - 1)


def _checked_rows(n: int, e: int, r0: int, t0: int, r1: int, t1: int) -> None:
    # Recheck the stopping rows of the jump to length n, whose determinant
    # is 2^e as scaled, on every call; a failure here is a bug.
    if not (r0 > abs(t0) and r1 <= abs(t1) and abs(r0 * t1 - r1 * t0) == 1 << e):
        raise AssertionError(f"Euclid rows off the stopping row at N = {n}")


def _sup_gauss(uf: int, uq: int, vf: int, vq: int) -> tuple[int, int, int, int]:
    """Sup-norm Gauss reduction (Kaib & Schnorr) of a lattice basis: returns
    a basis u, v of the same lattice with |u| <= |v| <= |v + k*u| for every
    integer k.

    Each step orders the basis so |u| <= |v| and replaces v by the best
    v - k*u. x -> |v - x*u| is convex and piecewise linear with its kinks at
    vf/uf, vq/uq, (vf - vq)/(uf - uq) and (vf + vq)/(uf + uq), so its least
    value over the integers is at floor or floor + 1 of one of them; ties go
    to the least |vq - k*uq|, compared as two integers, not as a tuple key.
    After a step |v| <= |v + k*u| for every k, so the basis is reduced
    unless v came out shorter than u, and the next step swaps them. |u|
    falls with every further step, so the loop ends. _sup_reduced rechecks
    after every step. This is the closed form of _steps' walk one multiple
    of u at a time, which would take about 2^47 steps on the Euclid rows of
    S = 2^14 at N = 75.
    """
    while True:
        nu = uf if uf >= 0 else -uf
        t = uq if uq >= 0 else -uq
        if t > nu:
            nu = t
        nv = vf if vf >= 0 else -vf
        t = vq if vq >= 0 else -vq
        if t > nv:
            nv = t
        if nu > nv:
            uf, uq, vf, vq = vf, vq, uf, uq
        best = -1
        for num, den in ((vf, uf), (vq, uq), (vf - vq, uf - uq), (vf + vq, uf + uq)):
            if den:
                t = num // den
                for k in (t, t + 1):
                    wf, wq = vf - k * uf, vq - k * uq
                    nw = wf if wf >= 0 else -wf
                    aq = wq if wq >= 0 else -wq
                    if aq > nw:
                        nw = aq
                    if best < 0 or nw < best or (nw == best and aq < best_q):
                        best, best_q, bf, bq = nw, aq, wf, wq
        vf, vq = bf, bq
        if _sup_reduced(uf, uq, vf, vq):
            return uf, uq, vf, vq


def _sup_reduced(uf: int, uq: int, vf: int, vq: int) -> bool:
    """|u| <= |v| <= |v - u|, |v + u|; by convexity of k -> |v + k*u| this
    is |u| <= |v| <= |v + k*u| for every integer k."""
    nu = uf if uf >= 0 else -uf
    t = uq if uq >= 0 else -uq
    if t > nu:
        nu = t
    nv = vf if vf >= 0 else -vf
    t = vq if vq >= 0 else -vq
    if t > nv:
        nv = t
    if nu > nv:
        return False
    for f, q in ((vf - uf, vq - uq), (vf + uf, vq + uq)):
        if (f if f >= 0 else -f) < nv and (q if q >= 0 else -q) < nv:
            return False
    return True


def _canonical_pair(uf: int, uq: int, vf: int, vq: int, n: int, s: int) -> ApproxPair:
    """The canonical pair at length n from a basis (u, v) of
    {(f, q): f = q*S (mod 2^n)} reduced by _sup_gauss: the least
    (mu, q, |f|, f < 0) over the odd-q vectors among u, v, u + v and u - v,
    each first turned to q > 0. Only the last of _sup_gauss's steps, the
    one after which _sup_reduced held, bears on the proof: it kept u and
    gave v the least (|v|, |vq|) over its candidates v - k*u.

    Why the window holds it. Let h(x) = |v + x*u| for real x. As h(k) >= |v|
    at every integer k, h(x) >= |v| - d*|u| with d the distance from x to
    the nearest integer, so w = a*u + b*v has |w| = |b|*h(a/b) >= |v| when
    |b| is 1 or 2 and > 3|v|/2 when |b| >= 3: |u| and |v| are the two
    successive minima. uq != 0: a vector with q = 0 has 2^n | f, so it is
    longer than (S', 1), S' the least residue of S mod 2^n, whose norm is at
    most 2^(n-1).
    - uq odd: mu = |u|. If |v| > |u|, the minimisers are +-u. If |v| = |u|,
      (v, u) is reduced too, so a minimiser has |a|, |b| <= 2. Were |b| = 2,
      then h(a/2) = |u|/2 with a odd, and y = v + (a+1)/2*u, y' = y - u
      would have |y| = |y'| = |y + y'| = |y - y'| = |u|. Per coordinate,
      max(|y_i + y'_i|, |y_i - y'_i|) = |y_i| + |y'_i|, so y and y' would be
      |u| times distinct unit vectors and the lattice |u|*Z^2. Every q
      would be a multiple of |u|, so |u| = 1 as (S, 1) is in the lattice,
      and its determinant would be 1, not 2^n. |a| = 2 is the same with u
      and v swapped.
    - uq even: vq is odd, as (S, 1) is in the span, so odd-q vectors have
      odd b, mu = |v| and the minimisers are +-(v + k*u) with h(k) = h(0).
      h is piecewise linear with slopes +-uf, +-uq. If uf != 0 it is flat
      nowhere, so its least integer value is at one or two consecutive
      integers and k is in {-1, 0, 1}. If uf = 0 (the flats), every
      v + k*u has |f| = |vf|, and the tie rule of the last Gauss step gave v
      the least |q| = |vq + k*uq| over all k, as the integers nearest vq/uq
      are among its candidates; another k with the same |q| has
      |k*uq| = 2|vq| <= |uq|, so k = +-1.
    The argument is needed: minimisers outside the window do occur (114 of
    the 8,190 cases (S, N) with N <= 12), but never the canonical one.
    """
    best = None
    for f, q in ((uf, uq), (vf, vq), (uf + vf, uq + vq), (uf - vf, uq - vq)):
        if q & 1:
            if q < 0:
                f, q = -f, -q
            key = (max(abs(f), q), q, abs(f), f < 0)
            if best is None or key < best[0]:
                best = (key, f, q)
    return _checked_pair(best[1], best[2], n, s)


def adic_min(w: Word, n: int) -> ApproxPair:
    """Exact aperiodic minimum for the length-n prefix of w: one jump from
    the empty basis, then the four-vector readout."""
    if not 1 <= n <= len(w):
        raise ValueError(f"need 1 <= n <= {len(w)}, got {n}")
    s = prefix_value(w, n)
    return _canonical_pair(*_jump(s, 0, n, 1, 0, 0, 1), n, s)


def _check_lengths(w: Word, ns: Sequence[int]) -> list[tuple[int, int]]:
    """The maximal runs a..b of consecutive lengths in ns, in order. Raise
    ValueError unless ns is strictly increasing within [1, len(w)].

    The pass that splits the runs tests the order, so only the end points
    need the range test; a range of step 1 is one run and takes no pass."""
    runs = []
    if isinstance(ns, range) and ns.step == 1:
        if ns:
            runs.append((ns.start, ns.stop - 1))
    elif ns:
        a = prev = ns[0]
        for n in ns[1:]:
            if n <= prev:
                raise ValueError("prefix lengths must be strictly increasing")
            if n != prev + 1:
                runs.append((a, prev))
                a = n
            prev = n
        runs.append((a, prev))
    if runs and not 1 <= runs[0][0] <= runs[-1][1] <= len(w):
        raise ValueError(f"prefix lengths must lie in [1, {len(w)}]")
    return runs


def adic_minima(w: Word, ns: Sequence[int]) -> list[ApproxPair]:
    """Minimizing pairs at several prefix lengths; ns must be strictly
    increasing within [1, len(w)] (ValueError otherwise).

    S is read once at the largest length and masked for each point. Each
    point is a _jump from the basis at the point before (from the empty
    basis at the first), so its Euclid is quadratic in the gap from that
    point, not in n, then a four-vector readout. Where only mu is wanted,
    adic_mu carries the basis bit by bit through each run of consecutive
    lengths instead.
    """
    _check_lengths(w, ns)
    pairs: list[ApproxPair] = []
    m, basis = 0, (1, 0, 0, 1)
    if ns:
        s = prefix_value(w, ns[-1])
        for n in ns:
            sn = s & ((1 << n) - 1)
            basis = _jump(sn, m, n - m, *basis)
            pairs.append(_canonical_pair(*basis, n, sn))
            m = n
    return pairs


def adic_profile(w: Word) -> Profile:
    """mu at every prefix length 1..len(w): adic_mu over 1..len(w), one run
    from the empty word, with no Euclid at all."""
    return Profile(tuple(adic_mu(w, range(1, len(w) + 1))))


def adic_mu(w: Word, ns: Sequence[int]) -> list[int]:
    """mu at each length in ns, which must be strictly increasing within
    [1, len(w)] (ValueError otherwise).

    Each maximal run a..b of consecutive lengths costs one jump and b - a
    steps. The jump to a, _jump, starts from the basis at the previous
    run's end n, or from the empty basis (1, 0), (0, 1) at n = 0 for the
    first run, so its Euclid is a - n bits long; it is rechecked by
    _checked_rows and _sup_reduced. The steps, _steps, start from it with
    the exact residues r = (f - q*S)/2^a of both vectors, which a single
    length (a = b) neither takes nor needs. A run from 1 takes no jump: its
    steps start from the empty basis, with residues 1 and 0. The basis at b
    is rechecked by _check_profile_basis.
    """
    values: list[int] = []
    runs = _check_lengths(w, ns)
    if runs:
        s = prefix_value(w, runs[-1][1])
    n, uf, uq, vf, vq = 0, 1, 0, 0, 1
    for a, b in runs:
        if a > 1:
            uf, uq, vf, vq = _jump(s & ((1 << a) - 1), n, a - n, uf, uq, vf, vq)
            values.append(max(abs(uf), abs(uq)) if uq & 1 else max(abs(vf), abs(vq)))
            n = a
        if b > n:
            sn = s & ((1 << n) - 1)
            ru, rv = (uf - uq * sn) >> n, (vf - vq * sn) >> n
            uf, uq, vf, vq = _steps(w.bits[n:b], uf, uq, ru, vf, vq, rv, values)
        _check_profile_basis(s & ((1 << b) - 1), b, uf, uq, vf, vq)
        n = b
    return values


def _steps(bits: bytes, uf: int, uq: int, ru: int, vf: int, vq: int, rv: int, values: list[int]):
    """Carry a reduced basis u, v of {(f, q): f = q*S (mod 2^n)} with the
    exact residues r = (f - q*S)/2^n of both vectors over the next bits,
    appending mu at each new length; returns the last basis.

    A new bit b costs r -= q*b and a parity test, never a product with S
    (the shift-and-add update of Klapper & Goresky's 2-adic rational
    approximation). The parities pick the index-2 sublattice step, and the
    residues follow the same map. A sup-norm Gauss reduction (Kaib &
    Schnorr) then keeps |u| <= |v| <= |v + k*u| for every integer k, which
    in any norm makes |u| and |v| the two successive minima. If uq is even,
    every odd-q vector has an odd, hence nonzero, v-coefficient and is
    independent of u, so mu = |u| when uq is odd and |v| otherwise. The
    successive minima do not depend on the basis, so neither does mu.

    The sup norms nu = |u| and nv = |v| are carried with the basis, as the
    index-2 step takes 2v or 2u, whose norm doubles, and keeps or reuses
    the other vector: with ru even, u stays and v becomes 2v; with ru odd
    and rv even, u becomes v and v becomes 2u; with both odd, u becomes
    u - v, the one vector measured afresh, and v becomes 2v. A norm is two
    conditional negations and a comparison, cheaper in CPython than calls
    to abs and max.

    The reduction tests one candidate per step. Let c be a coordinate, f or
    q, where |v| is reached: |v_c| = |v| > 0. If |v - s*u| < |v| with
    s = +-1, then |v_c - s*u_c| < |v_c|, which needs s*u_c nonzero and of
    the sign of v_c. So s = sign(u_c*v_c) is the only sign that can shorten
    v, and none can when u_c = 0. On a tie |vf| = |vq| both coordinates must
    shrink, so taking c = f loses nothing; otherwise c is the larger one.
    The candidate is then measured in full: if it is no shorter, v is the
    shortest v + k*u, by convexity of k -> |v + k*u|.
    """
    nu = uf if uf >= 0 else -uf
    t = uq if uq >= 0 else -uq
    if t > nu:
        nu = t
    nv = vf if vf >= 0 else -vf
    t = vq if vq >= 0 else -vq
    if t > nv:
        nv = t
    for bit in bits:
        if bit:
            ru -= uq
            rv -= vq
        if ru & 1:
            if rv & 1:
                uf, uq, ru, vf, vq, nv = uf - vf, uq - vq, (ru - rv) >> 1, vf << 1, vq << 1, nv << 1
                nu = uf if uf >= 0 else -uf
                t = uq if uq >= 0 else -uq
                if t > nu:
                    nu = t
            else:
                uf, uq, ru, nu, vf, vq, rv, nv = vf, vq, rv >> 1, nv, uf << 1, uq << 1, ru, nu << 1
        else:
            if not rv & 1:
                raise AssertionError("index-2 step left both basis vectors inside")
            ru >>= 1
            vf, vq, nv = vf << 1, vq << 1, nv << 1
        if nu > nv:
            uf, uq, ru, nu, vf, vq, rv, nv = vf, vq, rv, nv, uf, uq, ru, nu
        # Sup-norm Gauss reduction: stop if the one candidate v - s*u is no
        # shorter than v; otherwise step v by s*u while that shortens it,
        # and swap if v ends shorter than u. The index-2 step leaves the
        # basis within a factor 2 of reduced, so the steps per bit stay few
        # (three at most on every word tried).
        while True:
            if vf == nv or vf == -nv:
                cu, cv = uf, vf
            else:
                cu, cv = uq, vq
            if not cu:
                break
            if (cu < 0) != (cv < 0):
                sf, sq, sr = -uf, -uq, -ru
            else:
                sf, sq, sr = uf, uq, ru
            wf, wq = vf - sf, vq - sq
            nw = wf if wf >= 0 else -wf
            t = wq if wq >= 0 else -wq
            if t > nw:
                nw = t
            if nw >= nv:
                break
            while True:
                vf, vq, rv, nv = wf, wq, rv - sr, nw
                wf, wq = vf - sf, vq - sq
                nw = wf if wf >= 0 else -wf
                t = wq if wq >= 0 else -wq
                if t > nw:
                    nw = t
                if nw >= nv:
                    break
            if nv >= nu:
                break
            uf, uq, ru, nu, vf, vq, rv, nv = vf, vq, rv, nv, uf, uq, ru, nu
        values.append(nu if uq & 1 else nv)
    return uf, uq, vf, vq


def _check_profile_basis(s: int, n: int, uf: int, uq: int, vf: int, vq: int) -> None:
    # One recheck per run of the basis its last value was read from, s the
    # length-n prefix value: both vectors admissible, determinant 2^n, and
    # reduced. A failure here is a bug.
    f, q, of, oq = (uf, uq, vf, vq) if uq & 1 else (vf, vq, uf, uq)
    if q < 0:
        f, q = -f, -q
    _checked_pair(f, q, n, s)
    if (oq * s - of) & ((1 << n) - 1) or abs(uf * vq - uq * vf) != 1 << n:
        raise AssertionError(f"profile basis does not span the lattice at N = {n}")
    if not _sup_reduced(uf, uq, vf, vq):
        raise AssertionError(f"profile basis not sup-norm reduced at N = {n}")


def adic_oracle(w: Word, n: int) -> ApproxPair:
    """Exhaustive reference: scan every odd q in [1, 2^n) with f the
    absolutely-least residue of q*S (ties toward positive f). Negative q
    is redundant by the symmetry (f, q) <-> (-f, -q).

    Guarded by the 'adic' oracle bound (default n <= 20); raise it via
    SEQLAB_ORACLE_BOUNDS for longer runs.
    """
    if not 1 <= n <= len(w):
        raise ValueError(f"need 1 <= n <= {len(w)}, got {n}")
    bound = oracle_bound("adic")
    if n > bound:
        raise OracleBoundExceeded(f"N = {n} > adic oracle bound {bound}")
    full = 1 << n
    half = full >> 1
    mask = full - 1
    s = prefix_value(w, n) & mask
    two_s = (2 * s) & mask
    best_mu = full
    best_q = 1
    best_f = 0
    q = 1
    f = s
    while q < full:
        fa = f if f <= half else full - f
        m = fa if fa > q else q
        if m < best_mu:
            # q ascends, so the first achiever is the canonical minimum.
            best_mu = m
            best_q = q
            best_f = f if f <= half else f - full
        q += 2
        f = (f + two_s) & mask
    return _checked_pair(best_f, best_q, n, s)
