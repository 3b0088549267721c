"""Mechanical checkers for the library's headline claims.

Each verifier recomputes both sides of one proved relation on concrete
instances and returns a certificate carrying the numbers it saw; failing
certificates always pin down a counterexample. Conjecture scans are
report-grade: their status is informative and never asserted. Everything
here returns data (VerificationReport, ScanReport); cli.py writes it out.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

from . import adic, generators, maxorder, measures, numtheory
from .config import oracle_bound
from .errors import BoundExceeded, InvalidParameter
from .seqcore import PeriodicSequence, Word

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

# Seed for the randomized suites; fixed so reports are reproducible.
SUITE_SEED = 271828


class VerificationReport(NamedTuple):
    """Outcome of one claim checked on one instance.

    evidence holds the recomputed quantities. Logarithms are stored as
    6-digit strings so serialization is byte-stable; exact integers stay
    integers and remain the ground truth.
    """

    claim_id: str
    instance: str
    status: str
    evidence: dict

    def ok(self) -> bool:
        return self.status != FAIL


# ---------------------------------------------------------------------------
# aperiodic relations


def verify_thm1(w: Word, instance: str | None = None) -> VerificationReport:
    """The window complexity never exceeds ceil(log2 mu) + 1, at any prefix.

    The report holds the first failing length, or else the first length of
    least slack ceil(log2 mu) + 1 - M. M is read at every length, mu only at
    the first length of each run of lengths with one value of M, which
    gives the same report: mu is nondecreasing (a pair admissible at N + 1
    is admissible at N), so on such a run the cap ceil(log2 mu) + 1 and the
    slack are least at its first length. The bound fails in the run only if
    it fails there, and no later length of the run has a smaller slack.
    """
    instance = instance or f"word len={len(w)}"
    moc = maxorder.moc_profile(w).values
    starts = _run_starts(moc, 1)
    tight = None
    for n, mu in zip(starts, adic.adic_mu(w, starts)):
        m = moc[n - 1]
        cap = numtheory.ceil_log2(mu) + 1
        if m > cap:
            return VerificationReport(
                "thm1",
                instance,
                FAIL,
                {"N": n, "moc": m, "mu": mu, "bound": cap, "word": w[:n].to01()},
            )
        if tight is None or cap - m < tight[0]:
            tight = (cap - m, n, m, mu)
    if tight is None:
        return VerificationReport("thm1", instance, PASS, {"lengths": 0})
    slack, n, m, mu = tight
    return VerificationReport(
        "thm1",
        instance,
        PASS,
        {"lengths": len(w), "tight_N": n, "tight_moc": m, "tight_mu": mu, "tight_slack": slack},
    )


def _run_starts(moc: tuple[int, ...], start: int) -> list[int]:
    """The first length of each run of lengths n >= start with one value of
    M, moc[n - 1] being M at length n."""
    if start > len(moc):
        return []
    pairs = zip(moc[start - 1 :], moc[start:])
    return [start] + [n for n, (x, y) in enumerate(pairs, start + 1) if x != y]


def verify_cor1(w: Word, instance: str | None = None) -> VerificationReport:
    """2^(ceil(log2 mu) + 1) >= N + 1 - C2 at N = len(w), all quantities exact."""
    instance = instance or f"word len={len(w)}"
    n = len(w)
    bound = oracle_bound("corr")
    if n > bound:
        raise BoundExceeded(f"len = {n} > correlation bound {bound}")
    c2 = measures.correlation2_value(w)
    mu = adic.adic_min(w, n).mu
    cap = numtheory.ceil_log2(mu) + 1
    lhs = 1 << cap
    rhs = n + 1 - c2
    evidence = {"N": n, "c2": c2, "mu": mu, "ceil_log2_mu": cap - 1, "rhs": rhs}
    if lhs >= rhs:
        return VerificationReport("cor1", instance, PASS, evidence)
    evidence["word"] = w.to01()
    return VerificationReport("cor1", instance, FAIL, evidence)


# ---------------------------------------------------------------------------
# periodic relations

# verify_lemma1 refuses periods longer than this. Each period reads mu at
# N = 2T, ..., 2T + 3 as one run of adic.adic_mu: one jump from length 0
# and three steps.
LEMMA1_T_BOUND = 64


def verify_thm2(s: PeriodicSequence, instance: str | None = None) -> VerificationReport:
    """Periodic window complexity is at most ceil(log2 q)."""
    instance = instance or f"period {s.word.to01()}"
    m = maxorder.moc_periodic(s)
    q = adic.connection(s).q
    cap = numtheory.ceil_log2(q)
    evidence = {"T": s.T, "moc": m, "q": q, "ceil_log2_q": cap}
    if m <= cap:
        return VerificationReport("thm2", instance, PASS, evidence)
    return VerificationReport("thm2", instance, FAIL, evidence)


def verify_lemma1(s: PeriodicSequence, instance: str | None = None) -> VerificationReport:
    """The aperiodic minimum stabilizes at q for every N > 2T.

    Checks N in {2T+1, 2T+2, 2T+3} and records mu(2T), which may still fall
    short of q.
    """
    T = s.T
    if T > LEMMA1_T_BOUND:
        raise BoundExceeded(f"T = {T} > lemma1 bound {LEMMA1_T_BOUND}")
    q, mus = _lemma1_mus(s)
    return _lemma1_report(instance or f"period {s.word.to01()}", T, q, mus)


def _lemma1_mus(s: PeriodicSequence) -> tuple[int, list[int]]:
    """q and mu at N = 2T, ..., 2T + 3 of s. The four lengths are one run:
    one jump from length 0 and three steps."""
    n = 2 * s.T
    return adic.connection(s).q, adic.adic_mu(s.prefix(n + 3), [n, n + 1, n + 2, n + 3])


def _lemma1_report(instance: str, T: int, q: int, mus: list[int]) -> VerificationReport:
    evidence = {
        "T": T,
        "q": q,
        "mu_2T": mus[0],
        "mu_after": mus[1:],
        "gap_at_2T": mus[0] < q,
    }
    status = PASS if all(m == q for m in mus[1:]) else FAIL
    return VerificationReport("lemma1", instance, status, evidence)


def _coset_reps(q: int):
    """One coset aH of the units mod q, H = <2>, per pair {aH, -aH}, as
    (orbit, n) by ascending least member a. orbit is [a*h % q for h in H],
    H walked once from 1 by doubling; q must be odd, so that doubling
    permutes the units. n = 1 when q - 1 is in H, so that -aH = aH; else
    -aH = {q - u : u in aH} is another coset, marked with aH and not
    yielded, and n = 2.

    Both sides of the coset characterization are constant on cosets (the
    member sequences are shifts of each other), and agree on aH and -aH:
    u = v (mod 2^N) exactly when q - u = q - v (mod 2^N), so the widths are
    equal, and the carry word of q - a is the complement of that of a, as
    -(q - a)/q = -1 - (-a/q) and -1 - x is the bitwise complement of x,
    which leaves M unchanged. So verifying a covers every coprime A in
    both cosets. A pair fails only as a whole, and its lesser coset comes
    first, so a suite stopping at its first failing coset stops at the same
    a as a walk over every coset.
    """
    # seen[b] is 1 for the non-units, set by one slice per prime of q,
    # and for every unit of a pair already yielded. So the first 0 byte is
    # the least member of a new pair.
    seen = bytearray(q)
    seen[0] = 1
    for p, _ in numtheory.factorize(q):
        seen[::p] = b"\x01" * len(range(0, q, p))
    H = [1]
    b = 2
    while b != 1:
        H.append(b)
        b = b * 2 % q
    n = 1 if q - 1 in H else 2
    a = seen.find(0)
    while a != -1:
        orbit = [a * h % q for h in H]
        for u in orbit:
            seen[u] = seen[q - u] = 1  # q - u is in aH itself when n = 1
        yield orbit, n
        a = seen.find(0, a + 1)


# Largest modulus verify_thm4 takes; thm4_suite runs up to it by default.
THM4_Q_MAX = 1000


def verify_thm4(q: int) -> VerificationReport:
    """Coset distinctness computes the same M as the generated sequence.

    Each coset is walked once: the orbit gives the width and its length
    T = ord_q(2), the least period of the carry-register word. A coset
    whose negation is another coset decides both (see _coset_reps), and the
    pair counts as two. The walks mark every unit once, so units sums to
    phi(q).
    """
    if not 3 <= q <= THM4_Q_MAX or q % 2 == 0:
        raise BoundExceeded(f"need odd 3 <= q <= {THM4_Q_MAX}, got {q}")
    values = set()
    cosets = 0
    units = 0
    for orbit, n in _coset_reps(q):
        cosets += n
        units += n * len(orbit)
        a = orbit[0]
        from_coset = maxorder._orbit_width(orbit, q)
        from_word = maxorder.moc_periodic(_carry_period(a, q, len(orbit)))
        if from_coset != from_word:
            return VerificationReport(
                "thm4",
                f"q={q}",
                FAIL,
                {"q": q, "A": a, "from_coset": from_coset, "from_word": from_word},
            )
        values.add(from_coset)
    return VerificationReport(
        "thm4",
        f"q={q}",
        PASS,
        {
            "q": q,
            "T": len(orbit),
            "units": units,
            "cosets": cosets,
            "value_set": sorted(values),
        },
    )


def _carry_period(a: int, q: int, T: int) -> PeriodicSequence:
    """The carry-register sequence of the unit a mod q, given T = ord_q(2),
    its least period, as the length of a's doubling orbit."""
    return PeriodicSequence(generators._fcsr_prefix(a, q, T))


# Largest modulus verify_thm5 takes; thm5_suite runs up to it by default.
THM5_Q_MAX = 10_000


def verify_thm5(q: int) -> VerificationReport:
    """The closed form for M matches the computed value.

    2 is primitive mod q, so the units form a single coset and A = 1
    represents every admissible sequence.
    """
    if q > THM5_Q_MAX:
        raise BoundExceeded(f"need q <= {THM5_Q_MAX}, got {q}")
    p, k = maxorder._ell_power(q)  # validates the modulus shape
    return _thm5_report(q, p, k)


def _thm5_report(q: int, p: int, k: int) -> VerificationReport:
    """verify_thm5 for an ell modulus q = p^k. With 2 primitive, its
    orbit is the whole unit group: M is read from the unit mask, as
    moc_from_coset(1, q) does, and the period T = ord_q(2) is phi(q)."""
    formula = maxorder._ell_value(q)
    computed = maxorder._unit_group_width(q, p)
    evidence = {
        "q": q,
        "T": (p - 1) * p ** (k - 1),
        "formula": formula,
        "computed": computed,
        "floor_case": q in maxorder.ELL_FLOOR_MODULI,
    }
    status = PASS if formula == computed else FAIL
    return VerificationReport("thm5", f"q={q}", status, evidence)


LEMMA3_EXPECTED = (3, 5, 9)


def lemma3_scan(k_max: int) -> VerificationReport:
    """Scan q = 2^k + 1 for odd prime powers with 2 primitive.

    The only hits must be 3, 5 and 9; prime powers rejected for a
    non-primitive 2 are listed with the order of 2.
    """
    if not 3 <= k_max <= 40:
        raise BoundExceeded(f"need 3 <= k_max <= 40, got {k_max}")
    hits = []
    rejected = []
    for k in range(1, k_max + 1):
        q = (1 << k) + 1
        if numtheory.is_odd_prime_power(q) is None:
            continue
        if numtheory.is_two_primitive(q):
            hits.append(q)
        else:
            rejected.append([q, numtheory.multiplicative_order(2, q)])
    evidence = {"k_max": k_max, "hits": hits, "rejected": rejected}
    status = PASS if tuple(hits) == LEMMA3_EXPECTED else FAIL
    return VerificationReport("lemma3", f"k_max={k_max}", status, evidence)


# The closing example: M = T - 2 does not force a maximal connection integer.
THM6_EXAMPLE = ("00100100", 6, 85)


def verify_thm6(T: int) -> VerificationReport:
    """Every least-period-T word with M = T - 1 has q = 2^T - 1.

    Exhaustive over all least-period-T words, one rotation class at a time
    through its least word; extremal_words counts T words per class. At
    T = 8 the report also rechecks the near-extremal example with M = T - 2
    and q = 85 < 255.

    M is computed only on classes without both 00 and 11 cyclically. A
    least period w with T >= 2 holds both symbols, so 01 and 10 occur; with
    00 and 11 too, its factor count p(2) is 4, so T >= 4. For a circular
    least period p(n) rises strictly until it reaches T, and M is the least
    n with p(n) = T, so p(T - 2) >= T and M <= T - 2.
    """
    row = CLAIM_SUITES["thm6"]
    if not row.minimum <= T <= row.maximum:
        raise BoundExceeded(f"need {row.minimum} <= T <= {row.maximum}, got {T}")
    full = (1 << T) - 1
    extremal = 0
    for w in _class_words(T):
        cyclic = w + w[:1]
        if b"\0\0" in cyclic and b"\1\1" in cyclic:
            continue
        s = PeriodicSequence(Word(w))
        if maxorder.moc_periodic(s) != T - 1:
            continue
        extremal += T
        q = adic.connection(s).q
        if q != full:
            return VerificationReport(
                "thm6",
                f"T={T}",
                FAIL,
                {"T": T, "word": s.word.to01(), "q": q, "expected_q": full},
            )
    evidence: dict = {"T": T, "extremal_words": extremal, "q": full}
    if T == 8:
        word01, want_m, want_q = THM6_EXAMPLE
        s = PeriodicSequence(Word.from01(word01))
        m = maxorder.moc_periodic(s)
        q = adic.connection(s).q
        evidence["example"] = {"word": word01, "moc": m, "q": q}
        if (m, q) != (want_m, want_q):
            return VerificationReport("thm6", f"T={T}", FAIL, evidence)
    return VerificationReport("thm6", f"T={T}", PASS, evidence)


# ---------------------------------------------------------------------------
# reference tables

TABLE1_EXPECTED = (
    (3, 2, 2, 1),
    (9, 6, 4, 3),
    (27, 18, 5, 5),
    (5, 4, 3, 2),
    (625, 500, 10, 10),
    (19, 18, 5, 5),
    (361, 342, 9, 9),
    (6859, 6498, 13, 13),
)

TABLE2_EXPECTED = (
    (51, 8, 6, (4, 5)),
    (63, 6, 6, (3, 4, 5)),
    (65, 12, 7, (4, 6)),
    (93, 10, 7, (4, 5, 6)),
    (217, 15, 8, (5, 6, 7, 8)),
)


def reproduce_table(which: int) -> list[VerificationReport]:
    """Recompute every row of a reference table and diff the expectations.

    Table 1: single-coset moduli, one M per q, flagged when M is the floor.
    Table 2: the set of M values over all coprime A per modulus.
    """
    if which == 1:
        reports = []
        for q, want_t, want_c, want_m in TABLE1_EXPECTED:
            t = maxorder.ell_period(q)
            c = numtheory.ceil_log2(q)
            m = maxorder.moc_periodic(generators.fcsr_word(1, q))
            evidence = {
                "q": q,
                "T": t,
                "ceil_log2_q": c,
                "moc": m,
                "expected": [want_t, want_c, want_m],
                "floor_remark": q in maxorder.ELL_FLOOR_MODULI,
            }
            status = PASS if (t, c, m) == (want_t, want_c, want_m) else FAIL
            reports.append(VerificationReport("table1", f"q={q}", status, evidence))
        return reports
    if which == 2:
        reports = []
        for q, want_t, want_c, want_set in TABLE2_EXPECTED:
            t = numtheory.multiplicative_order(2, q)
            c = numtheory.ceil_log2(q)
            values = sorted(
                {
                    maxorder.moc_periodic(_carry_period(orbit[0], q, len(orbit)))
                    for orbit, _ in _coset_reps(q)
                }
            )
            evidence = {
                "q": q,
                "T": t,
                "ceil_log2_q": c,
                "moc_set": values,
                "expected": [want_t, want_c, list(want_set)],
            }
            status = PASS if (t, c, tuple(values)) == (want_t, want_c, want_set) else FAIL
            reports.append(VerificationReport("table2", f"q={q}", status, evidence))
        return reports
    raise ValueError(f"no table {which}")


# ---------------------------------------------------------------------------
# proved lower bounds at desk scale

# (first valid N, denominator d): M > N/d from that length on.
LOWERBOUND_FAMILIES = {
    "thue-morse": (6, 5),
    "rudin-shapiro": (25, 6),
}

# Longest word the command line's generate and scan build, and the largest
# --nmax of the lowerbound suite. A scan jumps from grid point to grid
# point, each jump a Euclid on the bits since the point before, quadratic in
# that gap: at N = 10^6 the default grid (100 points) takes about 3 s and
# 400 points (ratio about 1.03 at 10^6) about 14 s (2-core container), so
# one run stays within minutes. generate builds words of the same lengths.
MAX_BITS = 1_000_000


def verify_lowerbound(family: str, n_max: int) -> VerificationReport:
    """ceil(log2 mu(N)) >= M(N) - 1 > N/d - 1 for every N in range.

    Exact integer comparisons: the second leg is checked as d*M > N. The
    report holds the first failing N, or else the first N of least margin
    d*M - N, the same as a check at every N would give:
    - the first leg is the thm1 bound, tightest at the first length of each
      run of lengths with one value of M (see verify_thm1), so it first
      fails, if at all, at a run start;
    - on a run from a to b with one M, d*M - N falls as N grows, so the
      least margin is at b and the second leg first fails at max(a, d*M)
      if d*M <= b. Both need M only.
    So mu is read at the run starts before the second leg's first failure,
    and at that failure, for its evidence.
    """
    if family not in LOWERBOUND_FAMILIES:
        raise InvalidParameter(f"no proved bound for {family!r}")
    start, d = LOWERBOUND_FAMILIES[family]
    if n_max < start:
        raise InvalidParameter(f"need n_max >= {start} for {family}, got {n_max}")
    w = generators.materialize(generators.SeqSpec(family), n_max)
    instance = f"{family} {start}<=N<={n_max}"
    moc = maxorder.moc_profile(w).values
    starts = _run_starts(moc, start)
    ns = starts
    min_slack = None
    for i, (a, b) in enumerate(zip(starts, [n - 1 for n in starts[1:]] + [n_max])):
        m = moc[a - 1]
        if d * m <= b:
            ns = starts[:i] + [max(a, d * m)]
            break
        if min_slack is None or d * m - b < min_slack[0]:
            min_slack = (d * m - b, b, m)
    for n, mu in zip(ns, adic.adic_mu(w, ns)):
        m = moc[n - 1]
        if numtheory.ceil_log2(mu) < m - 1 or d * m <= n:
            return VerificationReport(
                "lowerbound",
                instance,
                FAIL,
                {"N": n, "moc": m, "mu": mu, "denominator": d},
            )
    evidence = {
        "denominator": d,
        "n_max": n_max,
        "tight_N": min_slack[1],
        "tight_moc": min_slack[2],
        "tight_margin": min_slack[0],
    }
    return VerificationReport("lowerbound", instance, PASS, evidence)


# ---------------------------------------------------------------------------
# register cross-checks

# Exponent sets t with x^r + sum x^t primitive; r <= 16. Verified at run
# time: the output must come back to the seed after exactly 2^r - 1 steps.
PRIMITIVE_TAPS = {
    1: (0,),
    2: (0, 1),
    3: (0, 1),
    4: (0, 1),
    5: (0, 2),
    6: (0, 1),
    7: (0, 1),
    8: (0, 2, 3, 4),
    9: (0, 4),
    10: (0, 3),
    11: (0, 2),
    12: (0, 1, 4, 6),
    13: (0, 1, 3, 4),
    14: (0, 1, 6, 10),
    15: (0, 1),
    16: (0, 1, 3, 12),
}


def verify_msequence(r: int, taps: tuple[int, ...] | None = None) -> VerificationReport:
    """Maximal-period register output: linear complexity r, connection 2^T - 1.

    r = 1 is reported skipped: the all-ones sequence has q = 1 and the claim
    is about proper registers.
    """
    if not 1 <= r <= 16:
        raise BoundExceeded(f"need 1 <= r <= 16, got {r}")
    if r == 1:
        return VerificationReport(
            "msequence", "r=1", SKIPPED, {"reason": "degenerate register, q = 1"}
        )
    if taps is None:
        taps = PRIMITIVE_TAPS[r]
    T = (1 << r) - 1
    seed = (1,) + (0,) * (r - 1)
    s = generators.lfsr_period(taps, seed)
    instance = f"r={r} taps={'.'.join(str(t) for t in taps)}"
    if s.T != T:
        return VerificationReport(
            "msequence",
            instance,
            FAIL,
            {"r": r, "period": s.T, "expected_period": T},
        )
    L = measures.linear_complexity_periodic(s.word)
    q = adic.connection(s).q
    evidence = {
        "r": r,
        "T": T,
        "linear": L,
        "q_bits": q.bit_length(),
        "q_maximal": q == (1 << T) - 1,
    }
    if r <= 8:
        evidence["q"] = q
    status = PASS if L == r and q == (1 << T) - 1 else FAIL
    return VerificationReport("msequence", instance, status, evidence)


# ---------------------------------------------------------------------------
# suites

def _random_word(rng: random.Random, length: int) -> Word:
    return Word(bytes(rng.getrandbits(1) for _ in range(length)))


def thm1_suite(count: int = 100, length: int = 128, seed: int = SUITE_SEED):
    reports = [
        verify_thm1(generators.thue_morse_word(256), "thue-morse len=256"),
        verify_thm1(Word(bytes(64)), "zero len=64"),
    ]
    rng = random.Random(seed)
    for i in range(count):
        w = _random_word(rng, length)
        reports.append(verify_thm1(w, f"random seed={seed} index={i} len={length}"))
    return reports


def cor1_suite(count: int = 100, length: int = 128, seed: int = SUITE_SEED):
    reports = [
        verify_cor1(
            generators.legendre_word(101, generators.IDENTITY, 101), "legendre p=101 f=n N=101"
        ),
        verify_cor1(Word(bytes([1]) * 64), "ones len=64"),
    ]
    rng = random.Random(seed)
    for i in range(count):
        w = _random_word(rng, length)
        reports.append(verify_cor1(w, f"random seed={seed} index={i} len={length}"))
    return reports


def _least_period_words(T: int):
    """All least-period-exactly-T sequences, by ascending phase value."""
    for v in range(1 << T):
        s = PeriodicSequence(Word([(v >> i) & 1 for i in range(T)]))
        if s.T == T:
            yield s


def _rotation_classes(T: int):
    """One least-period-T sequence per rotation class, by ascending phase
    value: the words of _class_words."""
    for w in _class_words(T):
        yield PeriodicSequence(Word(w))


def _class_words(T: int):
    """The period word, as bytes, of one least-period-T sequence per
    rotation class, by ascending phase value.

    The phase value v (bit i is symbol i) of a class's representative is
    less than the value of every proper rotation; read from symbol T - 1
    down, its word is then a Lyndon word. So the representatives are the
    reversals of the binary Lyndon words of length T, which the
    Fredricksen-Kessler-Maiorana successor (Duval's form; Ruskey, Savage
    and Wang, J. Algorithms 13, 1992) yields in lexicographic order, that
    is by ascending v. A class holds T words, and M and q are constant on
    it: the window set is the same, and a shift multiplies A by 2^-1 mod
    2^T - 1. So a suite that stops at its first failing word stops at the
    same word over these representatives, as the least word of a class
    comes first.
    """
    a = [-1]  # the successor of [-1] is the first word, [0]
    while a:
        a[-1] += 1
        m = len(a)
        if m == T:
            yield bytes(a[::-1])
        while len(a) < T:
            a.append(a[-m])
        while a and a[-1] == 1:
            a.pop()


def thm2_suite(t_max: int):
    """Exhaustive over every period length up to t_max, one report per T.

    Each rotation class is evaluated once through its least word and
    counted T times.
    """
    reports = []
    for T in range(1, t_max + 1):
        words = 0
        tight = None
        failed = None
        for s in _rotation_classes(T):
            words += T
            m = maxorder.moc_periodic(s)
            q = adic.connection(s).q
            cap = numtheory.ceil_log2(q)
            if m > cap:
                failed = VerificationReport(
                    "thm2",
                    f"exhaustive T={T}",
                    FAIL,
                    {"word": s.word.to01(), "moc": m, "q": q, "ceil_log2_q": cap},
                )
                break
            if tight is None or cap - m < tight:
                tight = cap - m
        reports.append(
            failed
            or VerificationReport(
                "thm2",
                f"exhaustive T={T}",
                PASS,
                {"T": T, "words": words, "min_slack": tight},
            )
        )
    return reports


def lemma1_suite(t_max: int):
    """The recorded gap instance first, then exhaustive periods up to t_max.

    Every word is visited: mu(2T) is not constant on a rotation class.
    """
    reports = [verify_lemma1(PeriodicSequence(Word.from01("01001")))]
    for T in range(1, t_max + 1):
        words = 0
        gaps = 0
        failed = None
        for s in _least_period_words(T):
            words += 1
            q, mus = _lemma1_mus(s)
            if any(m != q for m in mus[1:]):
                failed = _lemma1_report(f"exhaustive T={T}", T, q, mus)
                break
            if mus[0] < q:
                gaps += 1
        reports.append(
            failed
            or VerificationReport(
                "lemma1",
                f"exhaustive T={T}",
                PASS,
                {"T": T, "words": words, "gaps_at_2T": gaps},
            )
        )
    return reports


def thm4_suite(q_max: int = THM4_Q_MAX):
    return [verify_thm4(q) for q in range(3, q_max + 1, 2)]


def thm5_suite(q_max: int = THM5_Q_MAX):
    return [_thm5_report(q, p, k) for q, p, k in maxorder._ell_powers(q_max)]


def thm6_suite(t_max: int):
    return [verify_thm6(T) for T in range(2, t_max + 1)]


def msequence_suite(r_max: int = 8):
    return [verify_msequence(r) for r in range(1, r_max + 1)]


def lowerbound_suite(n_max: int):
    return [verify_lowerbound(f, n_max) for f in sorted(LOWERBOUND_FAMILIES)]


class ClaimSuite(NamedTuple):
    """One row of the claim table: a claim's suite and how it is sized.

    A suite with a flag takes one bound: default when none is given, never
    below minimum, the least bound with a meaning (None: the suite checks
    its own), and never above maximum (None: no cap). A suite without a
    flag takes no argument.
    """

    suite: Callable[..., list[VerificationReport]]
    flag: str | None = None
    default: int | None = None
    minimum: int | None = None
    maximum: int | None = None


# Every claim, each declared once, in report order. thm2 evaluates one word
# per rotation class, about 2^T/T per T, and thm6 only the classes without
# both 00 and 11: 1.2 s and 0.23 s at their cap T = 20. lemma1 visits every
# word, so each step of T doubles it: 6 s at its cap 16. lowerbound reads
# mu only where M rises, 18 times per family up to 10^6: 0.014 s at --nmax
# 8000, 0.06 s at 32000 and 6.7 s at its cap 10^6, within a scan's 7 to 9 s
# there. The caps keep one run to seconds. The suites without a flag take
# 0.10 s (thm4) or less. All are medians of five runs on a 2-core
# container. The least bound is the smallest with a meaning: below it an
# exhaustive suite would run on no words and pass.
CLAIM_SUITES = {
    "cor1": ClaimSuite(cor1_suite),
    "lemma1": ClaimSuite(lemma1_suite, "--exhaustive-T", 8, 1, 16),
    "lemma3": ClaimSuite(lambda: [lemma3_scan(30)]),
    "lowerbound": ClaimSuite(lowerbound_suite, "--nmax", 2000, None, MAX_BITS),
    "msequence": ClaimSuite(msequence_suite),
    "thm1": ClaimSuite(thm1_suite),
    "thm2": ClaimSuite(thm2_suite, "--exhaustive-T", 10, 1, 20),
    "thm4": ClaimSuite(thm4_suite),
    "thm5": ClaimSuite(thm5_suite),
    "thm6": ClaimSuite(thm6_suite, "--exhaustive-T", 12, 2, 20),
}


def run_claim(claim: str, bound: int | None = None) -> list[VerificationReport]:
    """One claim's suite at bound, or at its default; the least bound and
    the cap are checked before the suite starts."""
    row = CLAIM_SUITES[claim]
    if row.flag is None:
        return row.suite()
    bound = row.default if bound is None else bound
    if row.minimum is not None and bound < row.minimum:
        raise InvalidParameter(f"{claim}: {row.flag} {bound} is below its minimum {row.minimum}")
    if row.maximum is not None and bound > row.maximum:
        raise BoundExceeded(f"{claim}: {row.flag} {bound} exceeds its maximum {row.maximum}")
    return row.suite(bound)


def run_all() -> list[VerificationReport]:
    """Every registered claim suite at its default, in claim-id order."""
    reports = []
    for claim in sorted(CLAIM_SUITES):
        reports.extend(run_claim(claim))
    return reports


# ---------------------------------------------------------------------------
# conjecture scans


class ScanPoint(NamedTuple):
    n: int
    mu: int
    log2_mu: float
    target: float
    deviation: float
    within: bool


class ScanReport(NamedTuple):
    """Deviation table for one sequence family; status is report-grade."""

    seq: str
    n_max: int
    c: float
    ratio: float
    points: tuple[ScanPoint, ...]
    status: str

    def worst(self) -> ScanPoint:
        return max(self.points, key=lambda p: abs(p.deviation))


def grid_points(n_max: int, ratio: float = 1.3, max_points: int | None = None) -> list[int]:
    """Every length up to 64, then geometric steps, always ending at n_max.

    With max_points, a grid longer than that raises BoundExceeded as soon
    as it passes the cap, before the rest is built.
    """
    if n_max < 2:
        raise InvalidParameter(f"need n_max >= 2, got {n_max}")
    if not (math.isfinite(ratio) and ratio > 1.0):
        raise InvalidParameter(f"need a finite ratio > 1, got {ratio}")
    pts = list(range(2, min(n_max, 64) + 1))
    cur = pts[-1]
    while cur < n_max:
        cur = min(n_max, max(cur + 1, math.ceil(cur * ratio)))
        pts.append(cur)
        if max_points is not None and len(pts) > max_points:
            raise BoundExceeded(f"grid to {n_max} at ratio {ratio} has more than {max_points} points")
    return pts


# The families conjecture_scan reads one period of, to cap the target at
# its periodic complexity: the scanned word is that period repeated. The
# command line bounds the period before the scan starts.
SCAN_PERIOD_FAMILIES = frozenset({"legendre"})


def conjecture_scan(
    spec: generators.SeqSpec, n_max: int, c: float = 8.0, ratio: float = 1.3
) -> ScanReport:
    """Deviation of log2 mu(N) from its conjectured value over a sparse grid.

    The target is N/2, capped at the full periodic complexity for the
    residue family. A grid point is within tolerance when the absolute
    deviation is at most c*log2(N). The constant c is a user knob with an
    arbitrary default; status reports the outcome and asserts nothing.
    """
    if not (math.isfinite(c) and c > 0):
        raise InvalidParameter(f"need a finite c > 0, got {c}")
    grid = grid_points(n_max, ratio)
    cap = None
    if spec.family in SCAN_PERIOD_FAMILIES:
        # One period gives both the cap and the word.
        per = generators.periodic_sequence(spec)
        cap = adic.phi2(per).log2
        w = per.prefix(n_max)
    else:
        w = generators.materialize(spec, n_max)
    points = []
    for n, mu in zip(grid, adic.adic_mu(w, grid)):
        l2 = numtheory.int_log2(mu)
        target = n / 2 if cap is None else min(n / 2, cap)
        dev = l2 - target
        points.append(ScanPoint(n, mu, l2, target, dev, abs(dev) <= c * math.log2(n)))
    status = PASS if all(p.within for p in points) else FAIL
    return ScanReport(spec.text(), n_max, c, ratio, tuple(points), status)
