"""Linear complexity, correlation, and expansion measures vs oracles."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from referees import (
    correlation2_profile_nested,
    correlation_by_prefix_sums,
    correlation_single_pass,
    expansion_elimination,
    linear_complexity_bm,
)
from seqlab.errors import BoundExceeded, TooShort
from seqlab.generators import (
    IDENTITY,
    fcsr_word,
    legendre_period,
    lfsr_period,
    rudin_shapiro_word,
    thue_morse_word,
    zeckendorf_word,
)
from seqlab.maxorder import moc, moc_profile
from seqlab.numtheory import is_prime
from seqlab.measures import (
    correlation2,
    correlation2_profile,
    correlation2_value,
    correlation_k,
    expansion_complexity,
    expansion_profile,
    linear_complexity_periodic,
    linear_profile,
)
from seqlab.seqcore import PeriodicSequence, Word, prefix_value


def random_word(rng, length):
    return Word(bytes(rng.getrandbits(1) for _ in range(length)))


def all_words(length):
    for v in range(1 << length):
        yield Word(bytes((v >> i) & 1 for i in range(length)))


# Independent linear-complexity oracle: for each candidate order L, decide
# by Gaussian elimination whether some recurrence of that order fits.
def linear_oracle(bits):
    n = len(bits)
    if not any(bits):
        return 0
    for L in range(1, n + 1):
        if L >= n:
            return L
        rows = []
        for i in range(L, n):
            rows.append(([bits[i - j] for j in range(1, L + 1)], bits[i]))
        cols = L
        mat = [row + [rhs] for row, rhs in rows]
        rank_col = 0
        solvable = True
        for col in range(cols):
            piv = next((r for r in range(rank_col, len(mat)) if mat[r][col]), None)
            if piv is None:
                continue
            mat[rank_col], mat[piv] = mat[piv], mat[rank_col]
            for r in range(len(mat)):
                if r != rank_col and mat[r][col]:
                    mat[r] = [a ^ b for a, b in zip(mat[r], mat[rank_col])]
            rank_col += 1
        for r in range(rank_col, len(mat)):
            if mat[r][cols]:
                solvable = False
                break
        if solvable:
            return L
    return n


def test_linear_profile_matches_oracle():
    rng = random.Random(40)
    for _ in range(60):
        n = rng.randrange(1, 36)
        w = random_word(rng, n)
        bits = list(w)
        prof = linear_profile(w)
        for m in range(1, n + 1):
            assert prof.at(m) == linear_oracle(bits[:m]), (w.to01(), m)


def test_linear_profile_jump_rule():
    rng = random.Random(41)
    for _ in range(40):
        w = random_word(rng, 100)
        prof = linear_profile(w)
        prev = 0
        for n in range(1, 101):
            cur = prof.at(n)
            assert cur == prev or cur == n - prev, n
            assert cur >= prev
            prev = cur


def test_linear_profile_known():
    assert linear_profile(Word.from01("0001")).at(4) == 4
    assert linear_profile(Word.from01("1111")).at(4) == 1
    assert linear_profile(Word.from01("00000")).at(5) == 0
    mseq = lfsr_period((0, 1), (1, 0, 0, 0)).prefix(30)
    assert linear_profile(mseq).at(30) == 4


def test_linear_complexity_periodic():
    assert linear_complexity_periodic(Word.from01("000100110101111")) == 4
    assert linear_complexity_periodic(Word.from01("0")) == 0
    assert linear_complexity_periodic(Word.from01("1")) == 1
    ell = fcsr_word(1, 11)
    assert linear_complexity_periodic(ell.word) == 6
    rng = random.Random(42)
    for _ in range(30):
        period = random_word(rng, rng.randrange(1, 16))
        got = linear_complexity_periodic(period)
        s = PeriodicSequence(period)
        assert got == linear_oracle(list(s.prefix(2 * len(period))))


def test_linear_complexity_periodic_matches_bm_on_every_short_period():
    for T in range(1, 13):
        for v in range(1 << T):
            bits = [(v >> i) & 1 for i in range(T)]
            assert linear_complexity_periodic(Word(bits)) == linear_complexity_bm(bits), bits


def test_linear_complexity_periodic_matches_bm_on_random_long_periods():
    rng = random.Random(4000)
    for _ in range(500):
        period = random_word(rng, rng.randrange(1, 4000))
        assert linear_complexity_periodic(period) == linear_complexity_bm(period), period


def test_linear_complexity_periodic_edge_periods():
    for T in (1, 2, 3, 64, 1000, 4095):
        for bits, want in (
            (bytes(T), 0),  # all zeros
            (b"\1" * T, 1),  # all ones: s_{i+1} = s_i
            (b"\1" + bytes(T - 1), T),  # 1 then zeros, the impulse of period T
            (bytes(T - 1) + b"\1", T),  # a single 1 at the end
            (bytes(T // 2) + b"\1" + bytes(T - T // 2 - 1), T),  # a single 1 inside
        ):
            assert linear_complexity_periodic(Word(bits)) == want == linear_complexity_bm(bits), (T, bits[:8])
    with pytest.raises(TooShort):
        linear_complexity_periodic(Word(b""))


def test_linear_complexity_periodic_is_the_same_for_any_period():
    # The formula needs no least period: repeating the word changes nothing.
    rng = random.Random(7)
    for _ in range(50):
        period = random_word(rng, rng.randrange(1, 40))
        want = linear_complexity_periodic(period)
        for k in (2, 3, 5):
            assert linear_complexity_periodic(Word(period.bits * k)) == want


def test_linear_complexity_of_legendre_sequences_closed_form():
    # Ding, Helleseth and Shan (IEEE Trans. Inf. Theory 44, 1998), with bit 1
    # on the nonzero squares and bit 0 at multiples of p.
    closed = {1: lambda p: (p - 1) // 2, 3: lambda p: p, 5: lambda p: p - 1, 7: lambda p: (p + 1) // 2}
    for p in range(3, 3000, 2):
        if is_prime(p):
            period = legendre_period(p, IDENTITY).word
            assert linear_complexity_periodic(period) == closed[p % 8](p), p


def corr_naive(bits, k):
    n = len(bits)
    best = 0
    for u in range(1, n + 1):
        for offsets in combinations(range(n - u + 1), k):
            total = sum(
                -1 if sum(bits[i + d] for d in offsets) % 2 else 1
                for i in range(u)
            )
            best = max(best, abs(total))
    return best


def check_witness(bits, witness):
    total = sum(
        -1 if sum(bits[i + d] for d in witness.offsets) % 2 else 1
        for i in range(witness.window)
    )
    assert total == witness.value
    assert list(witness.offsets) == sorted(set(witness.offsets))
    assert witness.window + max(witness.offsets) <= len(bits)


def test_correlation2_matches_naive():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(2, 22)
        w = random_word(rng, n)
        bits = list(w)
        value, witness = correlation2(w)
        assert value == corr_naive(bits, 2), w.to01()
        check_witness(bits, witness)
        assert abs(witness.value) == value


def test_correlation_k_matches_naive():
    rng = random.Random(44)
    for k in (2, 3, 4):
        for _ in range(12):
            n = rng.randrange(k + 1, 13)
            w = random_word(rng, n)
            bits = list(w)
            value, witness = correlation_k(w, k)
            assert value == corr_naive(bits, k), (w.to01(), k)
            check_witness(bits, witness)
    w = random_word(rng, 10)
    assert correlation_k(w, 2) == correlation2(w)


def assert_matches_single_pass(w, k):
    value, witness = correlation_k(w, k)
    assert (value, witness.window, witness.offsets, witness.value) == correlation_single_pass(
        w.bits, k
    ), (w.to01(), k)


def test_correlation_witness_matches_single_pass_referee():
    # The referee breaks ties as each tied lag tuple comes; the library
    # keeps the tied tuples and breaks ties once at the end. Value and
    # witness must agree.
    for length in range(2, 13):
        for w in all_words(length):
            assert_matches_single_pass(w, 2)
    rng = random.Random(46)
    for _ in range(200):
        assert_matches_single_pass(random_word(rng, rng.randrange(2, 200)), 2)
    for k, exhaustive, longest, count in ((3, 9, 40, 60), (4, 8, 14, 60)):
        for length in range(k, exhaustive + 1):
            for w in all_words(length):
                assert_matches_single_pass(w, k)
        for _ in range(count):
            assert_matches_single_pass(random_word(rng, rng.randrange(k, longest + 1)), k)


def assert_matches_prefix_sums(w, k):
    value, witness = correlation_k(w, k)
    assert (value, witness.window, witness.offsets, witness.value) == correlation_by_prefix_sums(
        w.bits, k
    ), (w.to01(), k)


def test_lane_walk_matches_prefix_sum_referee_exhaustive():
    # Value and witness, k = 2 and 3, on every word of up to 12 bits.
    for k in (2, 3):
        for length in range(k, 13):
            for w in all_words(length):
                assert_matches_prefix_sums(w, k)


def test_lane_walk_matches_prefix_sum_referee_random():
    rng = random.Random(47)
    for k, count in ((2, 60), (3, 30), (4, 6)):
        for _ in range(count):
            assert_matches_prefix_sums(random_word(rng, rng.randrange(k, 65)), k)
        assert_matches_prefix_sums(random_word(rng, 64), k)


def test_correlation2_profile_at_bound_matches_nested_referee():
    # On the constant word every lag reaches its largest value, len - lag,
    # so every lane of the walk reaches its top. Zeros then alternation
    # drive lag 1's sum up by 1023 and then down by 1024.
    rng = random.Random(48)
    for w in (Word(bytes(2048)), Word.from01("0" * 1024 + "01" * 512), random_word(rng, 2048)):
        assert list(correlation2_profile(w)) == correlation2_profile_nested(w.bits)


def test_correlation_frozen_values():
    alternating = Word.from01("01" * 8)
    value, witness = correlation2(alternating)
    assert value == 15
    check_witness(list(alternating), witness)
    constant = Word(bytes([1]) * 10)
    value, witness = correlation_k(constant, 3)
    assert value == 8
    check_witness(list(constant), witness)


def test_correlation2_profile_exhaustive():
    # Every prefix of every word of length 11 covers all words up to 11.
    for v in range(1 << 11):
        w = Word(bytes((v >> i) & 1 for i in range(11)))
        prof = correlation2_profile(w)
        assert prof.at(1) == 0
        for n in range(2, 12):
            assert prof.at(n) == correlation2(w[:n])[0], (w.to01(), n)


def test_correlation2_value_is_correlation2_without_witness():
    words = [w for n in range(2, 13) for w in all_words(n)]
    rng = random.Random(59)
    words += [random_word(rng, 128) for _ in range(200)]
    for w in words:
        assert correlation2_value(w) == correlation2(w)[0], w.to01()
    for short in (Word(b""), Word(b"\x01")):
        with pytest.raises(TooShort):
            correlation2_value(short)


def test_correlation2_profile_random():
    rng = random.Random(45)
    for length in (2, 37, 128, 200, 256):
        w = random_word(rng, length)
        prof = correlation2_profile(w)
        assert list(prof)[1:] == [correlation2(w[:n])[0] for n in range(2, len(w) + 1)]


def test_correlation_order_bounds():
    w = Word.from01("0110")
    for k in (1, 5):
        with pytest.raises(BoundExceeded):
            correlation_k(w, k)


def test_correlation_length_bound(monkeypatch):
    monkeypatch.setenv("SEQLAB_ORACLE_BOUNDS", "corr=16")
    long_word = Word(bytes(20))
    with pytest.raises(BoundExceeded):
        correlation_k(long_word, 2)
    # The pair measure stays available for any length.
    assert correlation2(long_word)[0] == 19


# Expansion oracle: enumerate every nonzero polynomial supported on the
# monomials x^i y^j with i + j <= d and test it against the prefix series.
def expansion_oracle(w, n, d_cap):
    mask = (1 << n) - 1
    g = prefix_value(w, n) & mask
    if g == 0:
        return 0

    def mul(a, b):
        out = 0
        while a:
            low = a & -a
            out ^= b * low
            a &= a - 1
        return out & mask

    for d in range(1, d_cap + 1):
        monos = []
        gj = 1
        for j in range(d + 1):
            for i in range(d - j + 1):
                monos.append((gj << i) & mask)
            gj = mul(gj, g)
        for pick in range(1, 1 << len(monos)):
            acc = 0
            rest = pick
            idx = 0
            while rest:
                if rest & 1:
                    acc ^= monos[idx]
                rest >>= 1
                idx += 1
            if acc == 0:
                return d
    return None


def test_expansion_matches_oracle():
    rng = random.Random(45)
    checked = 0
    for _ in range(60):
        n = rng.randrange(2, 10)
        w = random_word(rng, n)
        fast = expansion_complexity(w, n)
        ref = expansion_oracle(w, n, 4)
        if ref is None:
            assert fast is None or fast > 4
        else:
            assert fast == ref, (w.to01(), n)
            checked += 1
    assert checked >= 40


def test_expansion_known_values():
    assert expansion_complexity(Word(bytes(8)), 8) == 0
    assert expansion_complexity(Word(bytes([1]) * 2), 2) == 1
    assert expansion_complexity(Word(bytes([1]) * 12), 12) == 2
    assert expansion_complexity(thue_morse_word(100), 100) == 5
    assert expansion_complexity(thue_morse_word(100), 100, d_max=3) is None


def test_expansion_linear_bound():
    # For any prefix, the annihilator built from the minimal recurrence
    # keeps E at or below min(L + 1, N + 2 - L); M never exceeds L.
    rng = random.Random(46)
    fixtures = [
        lfsr_period((0, 1), (1, 0, 0, 0)).prefix(30),
        fcsr_word(1, 11).prefix(20),
        fcsr_word(3, 31).prefix(9),
        fcsr_word(173, 255).prefix(15),
        thue_morse_word(60),
    ]
    fixtures += [random_word(rng, rng.randrange(4, 40)) for _ in range(25)]
    for w in fixtures:
        n = len(w)
        L = linear_profile(w).at(n)
        m = moc(w).m
        e = expansion_complexity(w, n)
        assert m <= L
        if e is not None:
            assert e <= min(L + 1, n + 2 - L), (w.to01(), L, e)


def test_expansion_profile_exhaustive():
    # Every prefix of every word of length 11 covers all words up to 11.
    for v in range(1 << 11):
        w = Word(bytes((v >> i) & 1 for i in range(11)))
        prof = expansion_profile(w)
        for n in range(1, 12):
            assert prof.at(n) == expansion_elimination(w.bits, n), (w.to01(), n)


def test_expansion_profile_random_and_families():
    rng = random.Random(47)
    for d_max in (3, 16):
        for length in (1, 2, 17, 64, 150, 153, 154, 250, 400):
            w = random_word(rng, length)
            got = list(expansion_profile(w, d_max))
            assert got == [expansion_elimination(w.bits, n, d_max) for n in range(1, length + 1)], (
                w.to01(),
                d_max,
            )
    for w in (thue_morse_word(600), rudin_shapiro_word(600), zeckendorf_word(600)):
        got = list(expansion_profile(w))
        assert got == [expansion_elimination(w.bits, n) for n in range(1, 601)], w


def test_expansion_d_max_is_cut_where_a_dependence_must_exist():
    # 10 bits: the 10 columns of degree <= 3 may all be pivots, the 15 of
    # degree <= 4 cannot, so every d_max from 4 up gives the same profile.
    # Without the cut, d_max = 10**9 would build ~5*10^17 column entries.
    w = thue_morse_word(10)
    want = list(expansion_profile(w, 4))
    assert want == [expansion_elimination(w.bits, n, 4) for n in range(1, len(w) + 1)]
    for d_max in (5, 100, 10**9):
        assert list(expansion_profile(w, d_max)) == want, d_max
    for w in (thue_morse_word(100), Word(bytes(50))):
        assert expansion_complexity(w, len(w), 10**9) == expansion_complexity(w, len(w)), w
    # A random word's value passes the default cap 16; the elimination at
    # d_max = n always meets its dependence, as the rank is at most n.
    w = random_word(random.Random(49), 300)
    assert expansion_complexity(w, 300) is None
    assert expansion_complexity(w, 300, 10**9) == expansion_elimination(w.bits, 300, 300) == 24


def test_expansion_profile_edges():
    assert list(expansion_profile(Word(b""))) == []
    assert list(expansion_profile(Word(bytes(20)))) == [0] * 20
    for d_max in (0, -3):
        with pytest.raises(ValueError, match="d_max"):
            expansion_profile(Word.from01("01"), d_max)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.integers(1, 16))
def test_expansion_profile_property(bits, d_max):
    w = Word(bytes(bits))
    got = list(expansion_profile(w, d_max))
    assert got == [expansion_elimination(w.bits, n, d_max) for n in range(1, len(w) + 1)]


def test_expansion_profile_linear_bound_and_monotone():
    # E(n) <= min(L(n) + 1, n + 2 - L(n)) at every prefix; None means
    # E > d_max, so the bound must then exceed d_max. E never decreases
    # once a 1 bit has been seen (None counts as above every degree).
    rng = random.Random(48)
    words = [thue_morse_word(2000), rudin_shapiro_word(2000), zeckendorf_word(2000)]
    words += [lfsr_period((0, 1), (1, 0, 0, 0)).prefix(300), fcsr_word(1, 11).prefix(300)]
    words += [random_word(rng, rng.randrange(1, 1000)) for _ in range(20)]
    words += [Word(bytes(k) + bytes([1]) + random_word(rng, 200).bits) for k in (0, 5, 40)]
    for w in words:
        prof = list(expansion_profile(w))
        for n, (e, L) in enumerate(zip(prof, linear_profile(w)), start=1):
            bound = min(L + 1, n + 2 - L)
            assert bound > 16 if e is None else e <= bound, (w, n, e, L)
        ranks = [17 if e is None else e for e in prof[max(w.bits.find(1), 0) :]]
        assert ranks == sorted(ranks), w


def test_moc_at_most_linear_exhaustive():
    # Profiles cover every prefix, so the length-14 words reach every
    # shorter word too.
    for v in range(1 << 14):
        w = Word(bytes((v >> i) & 1 for i in range(14)))
        pairs = zip(moc_profile(w), linear_profile(w))
        assert all(m <= L for m, L in pairs), w.to01()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_moc_at_most_linear_property(bits):
    w = Word(bytes(bits))
    assert all(m <= L for m, L in zip(moc_profile(w), linear_profile(w)))
