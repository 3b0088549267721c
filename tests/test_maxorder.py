"""Maximum-order complexity: automaton engine against the window oracle."""

import math
import random
import tracemalloc

import pytest

from referees import coset_orbit, coset_width, ell_moduli_by_trial, moc_two_periods
from seqlab import maxorder, relations
from seqlab.config import oracle_bound
from seqlab.errors import NotEllModulus, OracleBoundExceeded
from seqlab.generators import IDENTITY, fcsr_word, legendre_period, lfsr_period
from seqlab.maxorder import (
    MocResult,
    MocWitness,
    _orbit,
    coset,
    ell_moduli,
    ell_period,
    moc,
    moc_ell_formula,
    moc_from_coset,
    moc_oracle,
    moc_periodic,
    moc_profile,
)
from seqlab.numtheory import euler_phi, is_odd_prime_power, is_prime, is_two_primitive
from seqlab.relations import PRIMITIVE_TAPS, _coset_reps, _rotation_classes
from seqlab.seqcore import PeriodicSequence, Word


def all_words(length):
    for v in range(1 << length):
        yield Word(bytes((v >> i) & 1 for i in range(length)))


def random_word(rng, length):
    return Word(bytes(rng.getrandbits(1) for _ in range(length)))


def test_moc_matches_oracle_exhaustive():
    # The whole result: the value and the leftmost conflict as the witness.
    for length in range(0, 11):
        for w in all_words(length):
            assert moc(w) == moc_oracle(w), w.to01()


def test_moc_matches_oracle_random():
    rng = random.Random(20)
    for _ in range(300):
        w = random_word(rng, rng.randrange(1, 200))
        assert moc(w) == moc_oracle(w), w.to01()


def test_moc_witness_is_valid():
    rng = random.Random(21)
    words = [random_word(rng, rng.randrange(2, 120)) for _ in range(100)]
    words += [Word.from01("0110100110010110"), Word.from01("0010010000100100")]
    for w in words:
        res = moc(w)
        if res.m == 0:
            assert len(w) <= 1
            continue
        wit = res.witness
        L = res.m - 1
        assert wit.length == L
        # Two occurrences of the same length-L window with different successors.
        assert w.bits[wit.i : wit.i + L] == w.bits[wit.j : wit.j + L]
        assert w[wit.i + L] != w[wit.j + L]


def test_moc_known_values():
    assert moc(Word.from01("")).m == 0
    assert moc(Word.from01("0")).m == 0
    assert moc(Word.from01("01")).m == 1
    assert moc(Word.from01("00")).m == 0
    assert moc(Word.from01("00000")).m == 0
    assert moc(Word.from01("0011")).m == 2
    assert moc(Word.from01("0001")).m == 3
    # The leftmost conflict: the 1 at j = 2, followed by 0, is the first
    # window to repeat one with another successor, the 1 at i = 1.
    assert moc(Word.from01("01100")) == MocResult(2, MocWitness(1, 2, 1))
    assert moc_periodic(PeriodicSequence(Word.from01("00100100"))) == 6


def test_moc_profile_matches_prefixes():
    rng = random.Random(22)
    for _ in range(30):
        w = random_word(rng, rng.randrange(1, 80))
        prof = moc_profile(w)
        for n in range(1, len(w) + 1):
            assert prof.at(n) == moc(Word(w.bits[:n])).m


def test_moc_profile_matches_oracle_exhaustive():
    # Each prefix of a word is a shorter word, already refereed by its length.
    oracle = {}
    for length in range(1, 13):
        for w in all_words(length):
            oracle[w.bits] = moc_oracle(w).m
            want = tuple(oracle[w.bits[:n]] for n in range(1, length + 1))
            assert moc_profile(w).values == want, w.to01()


def test_moc_profile_long_constant_and_periodic():
    n = 10**5
    assert moc_profile(Word(bytes(n))).values == (0,) * n
    # 001 repeated: the window 0 is followed by both symbols from N = 3 on.
    assert moc_profile(Word((b"\0\0\1" * n)[:n])).values == (0, 0) + (2,) * (n - 2)


def test_moc_profile_nondecreasing():
    rng = random.Random(23)
    for _ in range(20):
        w = random_word(rng, 150)
        prof = moc_profile(w)
        vals = [prof.at(n) for n in range(1, 151)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_moc_oracle_respects_bound(monkeypatch):
    monkeypatch.setenv("SEQLAB_ORACLE_BOUNDS", "moc=50")
    assert oracle_bound("moc") == 50
    with pytest.raises(OracleBoundExceeded):
        moc_oracle(Word(bytes(60)))
    monkeypatch.delenv("SEQLAB_ORACLE_BOUNDS")
    assert oracle_bound("moc") == 2000


def test_coset_structure():
    c = coset(3, 31)
    assert c.q == 31
    assert c.elements == frozenset({3, 6, 12, 24, 17})
    for x in c.elements:
        assert (2 * x) % 31 in c.elements


def test_orbit_lists_the_set_loop_orbit_in_walk_order():
    for q in range(1, 258, 2):
        for a in range(q):
            if math.gcd(a, q) != 1:
                continue
            orbit = _orbit(a, q)
            assert len(orbit) == len(set(orbit)), (a, q)
            assert set(orbit) == coset_orbit(a, q), (a, q)
            assert orbit[0] == a % q
            assert all(orbit[i + 1] == orbit[i] * 2 % q for i in range(len(orbit) - 1)), (a, q)
            assert coset(a, q).elements == frozenset(orbit)


def test_moc_from_coset_known():
    assert moc_from_coset(3, 31) == 3
    assert moc_from_coset(1, 63) == 5


def test_moc_from_coset_matches_word_route():
    rng = random.Random(24)
    for q in (11, 31, 63, 85, 127, 255, 257):
        for _ in range(4):
            a = rng.randrange(1, q)
            from math import gcd

            if gcd(a, q) != 1:
                continue
            s = fcsr_word(a, q)
            assert moc_from_coset(a, q) == moc_periodic(s), (a, q)


def test_moc_from_coset_matches_width_from_one_referee():
    for q in range(1, 400, 2):
        for a in range(q):
            if math.gcd(a, q) == 1:
                assert moc_from_coset(a, q) == coset_width(a, q), (a, q)
    for q in ell_moduli(10_000):
        assert moc_from_coset(1, q) == coset_width(1, q), q


def test_moc_from_coset_reads_the_unit_mask_only_when_two_is_primitive(monkeypatch):
    masked = []

    def spy(q, p):
        masked.append(q)
        return unit_group_width(q, p)

    unit_group_width = maxorder._unit_group_width
    monkeypatch.setattr(maxorder, "_unit_group_width", spy)
    for q in range(3, 2000, 2):
        moc_from_coset(1, q)
    assert masked == [q for q in range(3, 2000, 2) if ell_period(q) == euler_phi(q)]


def test_moc_from_coset_walks_past_the_factor_limit():
    # 2^65 - 1 cannot be factored here, so the orbit is walked: it is the
    # 65 powers of 2, distinct mod 2^64 and not mod 2^63.
    q = (1 << 65) - 1
    assert moc_from_coset(1, q) == coset_width(1, q) == 64
    assert moc_from_coset(3, q) == coset_width(3, q)


def test_moc_from_coset_allocates_no_mask_when_two_is_not_primitive():
    # 2 has order 61 mod the prime 2^61 - 1, far below phi, so the 61-step
    # walk runs and no q-byte mask is built.
    q = (1 << 61) - 1
    tracemalloc.start()
    try:
        assert moc_from_coset(1, q) == coset_width(1, q) == 60
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_moc_periodic_stabilizes():
    rng = random.Random(25)
    for _ in range(40):
        T = rng.randrange(1, 12)
        s = PeriodicSequence(random_word(rng, T))
        m = moc_periodic(s)
        assert m == moc(s.prefix(2 * s.T)).m
        assert m == moc(s.prefix(3 * s.T + 5)).m


def word_moc(bits):
    return moc(Word(bits)).m


def assert_periodic_matches_referee(s):
    assert moc_periodic(s) == moc_two_periods(s.word.bits, word_moc), s.word


def test_moc_periodic_matches_two_period_referee_exhaustive():
    for T in range(1, 15):
        for w in all_words(T):
            assert_periodic_matches_referee(PeriodicSequence(w))
    for T in (16, 20):
        for s in _rotation_classes(T):
            assert_periodic_matches_referee(s)


def test_moc_periodic_matches_two_period_referee_on_family_periods():
    for q in range(3, 1001, 2):
        for orbit, n in _coset_reps(q):
            for a in (orbit[0], q - orbit[0])[:n]:
                assert_periodic_matches_referee(fcsr_word(a, q))
    for p in (1009, 5483, 20011):
        assert_periodic_matches_referee(legendre_period(p, IDENTITY))
    s = lfsr_period(PRIMITIVE_TAPS[14], (1,) + (0,) * 13)
    assert s.T == 2**14 - 1
    assert_periodic_matches_referee(s)


@pytest.fixture
def staged(monkeypatch):
    """moc_periodic returning (M, stage): 1 when the min(T, 30)-bit windows
    settle M, 2 when the min(T, 60)-bit windows do, 3 when the automaton
    runs (0 for T = 1, which reads no windows)."""
    widths, fed = [], []
    lcp = maxorder._longest_common_prefix
    monkeypatch.setattr(maxorder, "_longest_common_prefix", lambda ws, k: widths.append(k) or lcp(ws, k))
    running = maxorder._running_moc
    monkeypatch.setattr(maxorder, "_running_moc", lambda bits, period=None: fed.append(period) or running(bits, period))

    def run(s):
        widths.clear()
        fed.clear()
        m = moc_periodic(s)
        T = s.T
        assert widths == [min(T, 30), min(T, 60)][: len(widths)] and fed in ([], [T])
        assert not fed or len(widths) == 2
        return m, len(widths) + len(fed)

    return run


def test_moc_periodic_single_one_periods_reach_each_stage(staged):
    for T, stage in ((1, 0), (2, 1), (30, 1), (31, 1), (45, 2), (60, 2), (61, 2), (200, 3)):
        s = PeriodicSequence(Word(bytes(T - 1) + b"\x01"))
        assert staged(s) == (max(T - 1, 0), stage), T
        assert_periodic_matches_referee(s)


def test_moc_periodic_long_ties_match_referee_at_every_stage(staged):
    rng = random.Random(41)
    stages = []
    for _ in range(40):
        T = rng.randrange(31, 3001)
        density = rng.choice((0.5, 0.2, 0.1, 0.03))
        sparse = Word(bytes(int(rng.random() < density) for _ in range(T)))
        block = random_word(rng, rng.randrange(2, 90)).bits
        near = bytearray((block * (T // len(block) + 1))[:T])
        for i in rng.sample(range(T), rng.randrange(1, 3)):
            near[i] ^= 1
        for w in (sparse, Word(bytes(near))):
            s = PeriodicSequence(w)
            m, stage = staged(s)
            assert m == moc_two_periods(s.word.bits, word_moc), (w, stage)
            stages.append(stage)
    assert set(stages) == {1, 2, 3}


def test_moc_periodic_widens_only_the_tied_windows(monkeypatch):
    calls = []
    lcp = maxorder._longest_common_prefix

    def counting(windows, k):
        windows = list(windows)
        calls.append((len(windows), k))
        return lcp(windows, k)

    monkeypatch.setattr(maxorder, "_longest_common_prefix", counting)
    # A 45-symbol block twice in 250: its windows tie at 30 bits, not at 60.
    rng = random.Random(43)
    block = random_word(rng, 45).bits
    s = PeriodicSequence(Word(block + random_word(rng, 100).bits + block + random_word(rng, 60).bits))
    m = moc_periodic(s)
    assert m == moc_two_periods(s.word.bits, word_moc) and 46 <= m <= 60
    assert calls[0] == (250, 30) and calls[1][1] == 60 and 2 <= calls[1][0] <= 40 and len(calls) == 2
    # 0^(T-1)1: its T - 30 zero windows tie at 60 bits too, so the
    # automaton reads M.
    calls.clear()
    s = PeriodicSequence(Word(bytes(199) + b"\x01"))
    assert moc_periodic(s) == moc_two_periods(s.word.bits, word_moc) == 199
    assert calls == [(200, 30), (170, 60)]


def test_moc_periodic_legendre_99991_widens_once(staged):
    s = legendre_period(99991, IDENTITY)
    assert staged(s) == (43, 2)
    assert_periodic_matches_referee(s)


def test_moc_periodic_benchmark_families_never_reach_the_automaton(staged):
    periods = [legendre_period(p, IDENTITY) for p in range(1001, 6000, 2) if is_prime(p)]
    periods.append(legendre_period(20011, IDENTITY))
    moduli = ell_moduli(2999) + [q for q, *_ in relations.TABLE1_EXPECTED]
    periods += [fcsr_word(1, q) for q in moduli]
    periods += [fcsr_word(o[0], q) for q in range(3, 1001, 2) for o, _ in _coset_reps(q)]
    periods += [fcsr_word(o[0], q) for q, *_ in relations.TABLE2_EXPECTED for o, _ in _coset_reps(q)]
    periods.append(lfsr_period(PRIMITIVE_TAPS[14], (1,) + (0,) * 13))
    stages = [staged(s)[1] for s in periods]
    assert set(stages) <= {1, 2} and 2 in stages


def test_ell_moduli_membership():
    mods = ell_moduli(600)
    assert mods == sorted(mods)
    expected = []
    for q in range(3, 601, 2):
        if is_odd_prime_power(q) and is_two_primitive(q):
            expected.append(q)
    assert mods == expected
    assert mods[:10] == [3, 5, 9, 11, 13, 19, 25, 27, 29, 37]


def test_ell_moduli_matches_trial_division_referee():
    expected = ell_moduli_by_trial(10_000)
    assert ell_moduli(10_000) == expected
    for limit in range(-1, 3001):
        assert ell_moduli(limit) == [q for q in expected if q <= limit], limit


def test_ell_period():
    for q in (3, 5, 9, 11, 13, 19, 25, 27):
        assert ell_period(q) == euler_phi(q)
        assert ell_period(q) == fcsr_word(1, q).T
    # Any odd modulus has a well-defined expansion period.
    assert ell_period(7) == 3


def test_moc_ell_formula_matches_word_route():
    for q in ell_moduli(1000):
        assert moc_ell_formula(q) == moc_from_coset(1, q), q
    with pytest.raises(NotEllModulus):
        moc_ell_formula(7)
