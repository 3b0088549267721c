"""2-adic complexity, periodic and aperiodic.

Periodic: the connection integer q of one period (gcd formula); the
complexity is log2(q). Aperiodic: the exact minimum over odd q of
max(|f|, |q|) subject to q * S = f (mod 2^N), where S is the base-2 value
of the length-N prefix. The admissible pairs form a rank-2 lattice, so the
minimum is read from a basis reduced in the sup norm: mu is |u| when uq is
odd and |v| otherwise. At one length (adic_min, adic_minima) the basis
comes from an extended Euclid on (2^N, S) stopped at the crossover, the
2-adic form of rational reconstruction, run as Lehmer's Euclid on long
rows; one Gauss reduction with closed-form multipliers finishes it, and the
canonical tie-broken pair is the least of u, v, u + v and u - v. Where only
mu is wanted, at a strictly increasing list of lengths (adic_mu; adic_profile
is its list 1..N), each run of consecutive lengths takes one Euclid and one
Gauss reduction at its first length, or the trivial basis at length 1, and
then carries the basis bit by bit with its residues and its two sup
norms, updated by shift and add and kept reduced one step at a time. The
index-2 step doubles or swaps the norms, so only u - v is measured afresh,
and each reduction step tests the one sign of u that can shorten v where
its norm is reached. A single length takes no steps. The basis is
rechecked at the run's end. An exhaustive oracle anchors exactness at
small N.
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
    s = s.normalized()
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
    q_rev = connection(reverse_period(s.normalized())).q
    return AdicValue(min(q_fwd, q_rev))


def _euclid_rows(s: int, n: int) -> tuple[int, int, int, int]:
    """The rows (r0, t0), (r1, t1) of the extended Euclid on (2^n, s), from
    (2^n, 0), (s, 1), where r first drops to |t| or below: r0 > |t0| and
    r1 <= |t1|.

    Knuth's Algorithm L (TAOCP vol. 2, 4.5.2; Lehmer 1938): while r1 is
    long, the quotients are found on the leading 62 bits of (r0, r1) and
    kept only while the two bracketing quotients agree, so each is the
    true quotient; the round's 2x2 cofactor matrix then moves both rows at
    once. No round crosses the stopping row. Rows keep r_i*|t_(i+1)| <=
    2^n, so a round starting with r1 >= 2^(n//2 + 70) has |t1| below
    2^(n - n//2 - 70); its cofactors are below 2^62, so it leaves r0 above
    2^(n//2 + 7) and |t0| <= |t1| below 2^(n - n//2 - 7). The schoolbook
    loop takes the last steps, and all steps on rows of 1500 bits or
    fewer: there one big-int division costs less than a quotient found on
    the leading bits (measured in CPython 3.11).
    """
    r0, t0, r1, t1 = 1 << n, 0, s, 1
    long_bits = max(n // 2 + 70, 1500)
    while r1.bit_length() > long_bits:
        h = r0.bit_length() - 62
        x, y = r0 >> h, r1 >> h
        a, b, c, d = 1, 0, 0, 1
        while y + c and y + d:
            k = (x + a) // (y + c)
            if k != (x + b) // (y + d):
                break
            a, b, c, d, x, y = c, d, a - k * c, b - k * d, y, x - k * y
        if b:
            r0, t0, r1, t1 = a * r0 + b * r1, a * t0 + b * t1, c * r0 + d * r1, c * t0 + d * t1
        else:
            # No quotient fits in the leading bits: one schoolbook step.
            k = r0 // r1
            r0, t0, r1, t1 = r1, t1, r0 - k * r1, t0 - k * t1
    while r1 > abs(t1):
        k = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - k * r1, t0 - k * t1
    return _checked_rows(n, r0, t0, r1, t1)


def _checked_rows(n: int, r0: int, t0: int, r1: int, t1: int) -> tuple[int, int, int, int]:
    # Recheck the stopping rows on every call; a failure here is a bug.
    if not (r0 > abs(t0) and r1 <= abs(t1) and abs(r0 * t1 - r1 * t0) == 1 << n):
        raise AssertionError(f"Euclid rows off the stopping row at N = {n}")
    return r0, t0, r1, t1


def _sup_gauss(uf: int, uq: int, vf: int, vq: int) -> tuple[int, int, int, int]:
    """Sup-norm Gauss reduction of the two Euclid stopping rows: returns a
    basis u, v of the same lattice with |u| <= |v| <= |v + k*u| for every
    integer k.

    After ordering the rows so |u| <= |v|, one step replaces v by the best
    v - k*u. x -> |v - x*u| is convex and piecewise linear with its kinks at
    vf/uf, vq/uq, (vf - vq)/(uf - uq) and (vf + vq)/(uf + uq), so its least
    value over the integers is at floor or floor + 1 of one of them; ties go
    to the least |vq - k*uq|. One step suffices on these rows: r0 > r1 >= 0
    and t0, t1 differ in sign (or t0 = 0), so no v - k*u is shorter than u
    and Gauss's algorithm would stop after it. The result is rechecked with
    _sup_reduced. This is the closed form of adic_profile's step-at-a-time
    walk, which would take about 2^47 steps on the Euclid rows of S = 2^14
    at N = 75.
    """
    if max(abs(uf), abs(uq)) > max(abs(vf), abs(vq)):
        uf, uq, vf, vq = vf, vq, uf, uq
    best = None
    for num, den in ((vf, uf), (vq, uq), (vf - vq, uf - uq), (vf + vq, uf + uq)):
        if den:
            t = num // den
            for k in (t, t + 1):
                wf, wq = vf - k * uf, vq - k * uq
                key = (max(abs(wf), abs(wq)), abs(wq))
                if best is None or key < best[0]:
                    best = (key, wf, wq)
    _, vf, vq = best
    # Recheck the reduction on every call; a failure here is a bug.
    if not _sup_reduced(uf, uq, vf, vq):
        raise AssertionError("Euclid rows not sup-norm reduced in one step")
    return uf, uq, vf, vq


def _sup_reduced(uf: int, uq: int, vf: int, vq: int) -> bool:
    """|u| <= |v| <= |v - u|, |v + u|; by convexity of k -> |v + k*u| this
    is |u| <= |v| <= |v + k*u| for every integer k."""
    nu, nv = max(abs(uf), abs(uq)), max(abs(vf), abs(vq))
    return nu <= nv <= min(max(abs(vf - uf), abs(vq - uq)), max(abs(vf + uf), abs(vq + uq)))


def _canonical_pair(uf: int, uq: int, vf: int, vq: int, n: int, s: int) -> ApproxPair:
    """The canonical pair at length n from a basis (u, v) of
    {(f, q): f = q*S (mod 2^n)} returned by _sup_gauss: the least
    (mu, q, |f|, f < 0) over the odd-q vectors among u, v, u + v and u - v,
    each first turned to q > 0.

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
      v + k*u has |f| = |vf|, and the tie rule gave v the least
      |q| = |vq + k*uq| over all k, as the integers nearest vq/uq are among
      its candidates; another k with the same |q| has |k*uq| = 2|vq| <= |uq|,
      so k = +-1.
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


def _min_pair(s: int, n: int) -> ApproxPair:
    # The Euclid rows (r, t) all satisfy r = t*S (mod 2^n), and the two
    # stopping rows span the lattice.
    return _canonical_pair(*_sup_gauss(*_euclid_rows(s, n)), n, s)


def adic_min(w: Word, n: int) -> ApproxPair:
    """Exact aperiodic minimum for the length-n prefix of w."""
    if not 1 <= n <= len(w):
        raise ValueError(f"need 1 <= n <= {len(w)}, got {n}")
    return _min_pair(prefix_value(w, n), n)


def _check_lengths(w: Word, ns: Sequence[int]) -> None:
    """Raise ValueError unless ns is strictly increasing within [1, len(w)]."""
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("prefix lengths must be strictly increasing")
    if ns and not 1 <= ns[0] <= ns[-1] <= len(w):
        raise ValueError(f"prefix lengths must lie in [1, {len(w)}]")


def adic_minima(w: Word, ns: list[int]) -> list[ApproxPair]:
    """Minimizing pairs at several prefix lengths; ns must be strictly
    increasing.

    S is read once at the largest length and masked for each point. Each
    point runs its own extended Euclid on (2^n, S), still quadratic in n
    whatever the other points are (a Lehmer round passes over the long
    rows once for about 16 quotients of a random S: 3x faster than one
    division per quotient at n = 10^4, 13x at 3*10^5), then one sup-norm
    reduction and a four-vector readout, which suits sparse grids such as
    a scan's. Dense ns repeat the Euclid at every length; where only mu is
    wanted, adic_profile and the claim checkers carry one basis bit by bit
    through each run of consecutive lengths instead.
    """
    _check_lengths(w, ns)
    if not ns:
        return []
    s = prefix_value(w, ns[-1])
    return [_min_pair(s & ((1 << n) - 1), n) for n in ns]


def adic_profile(w: Word) -> Profile:
    """mu at every prefix length 1..len(w): adic_mu over 1..len(w), one run
    from the empty word, with no Euclid at all."""
    return Profile(tuple(adic_mu(w, range(1, len(w) + 1))))


def adic_mu(w: Word, ns: Sequence[int]) -> list[int]:
    """mu at each length in ns, which must be strictly increasing within
    [1, len(w)] (ValueError otherwise).

    Each maximal run a..b of consecutive lengths costs one jump and b - a
    steps. The jump to a is _euclid_rows plus _sup_gauss (rechecked by
    _checked_rows and _sup_reduced); the steps, _steps, start from it with
    the exact residues r = (f - q*S)/2^a of both vectors, which a single
    length (a = b) neither takes nor needs. A run from 1 starts instead
    from the basis (1, 0), (0, 1) of the empty word, with residues 1 and 0.
    The basis at b is rechecked by _check_profile_basis. So a run of k
    lengths costs one Euclid and k - 1 steps where adic_minima would run k
    Euclids and k readouts.
    """
    _check_lengths(w, ns)
    values: list[int] = []
    if not ns:
        return values
    if ns[-1] - ns[0] == len(ns) - 1:
        runs = [(ns[0], ns[-1])]
    else:
        runs = []
        a = prev = ns[0]
        for n in ns[1:]:
            if n != prev + 1:
                runs.append((a, prev))
                a = n
            prev = n
        runs.append((a, prev))
    s = prefix_value(w, ns[-1])
    for a, b in runs:
        if a == 1:
            # The steps read mu from length 1 on.
            uf, uq, vf, vq = _steps(w.bits[:b], 1, 0, 1, 0, 1, 0, values)
        else:
            sa = s & ((1 << a) - 1)
            uf, uq, vf, vq = _sup_gauss(*_euclid_rows(sa, a))
            values.append(max(abs(uf), abs(uq)) if uq & 1 else max(abs(vf), abs(vq)))
            if b > a:
                ru, rv = (uf - uq * sa) >> a, (vf - vq * sa) >> a
                uf, uq, vf, vq = _steps(w.bits[a:b], uf, uq, ru, vf, vq, rv, values)
        _check_profile_basis(s & ((1 << b) - 1), b, uf, uq, vf, vq)
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
