"""Sequence family generators against independent oracles."""

import math
import random
import time
import tracemalloc

import pytest

import seqlab.generators as generators
from seqlab.errors import (
    EvenModulus,
    InvalidParameter,
    MissingParameter,
    NegativeValue,
    NotCoprime,
    NotOddPrime,
    TooShort,
    ZeroSeed,
)
from seqlab.generators import (
    FAMILIES,
    IDENTITY,
    PolySpec,
    SeqSpec,
    along_polynomial,
    fcsr_bit,
    fcsr_word,
    legendre_period,
    legendre_word,
    lfsr_period,
    lfsr_word,
    materialize,
    pattern_bit,
    pattern_word,
    periodic_sequence,
    rudin_shapiro_word,
    thue_morse_word,
    zeckendorf_bit,
    zeckendorf_digits,
    zeckendorf_word,
)
from seqlab.numtheory import is_prime, multiplicative_order
from seqlab.seqcore import Word, write_bits

from referees import (
    carry_register_bits,
    legendre_euler_word,
    least_period_by_divisors,
    legendre_symbol,
    lfsr_state_cycle,
    lfsr_walk,
    zeckendorf_per_index,
)


# Run-length oracle: overlapping occurrences of the all-ones block of
# length k in the binary expansion of n, reduced mod 2.
def pattern_oracle(k: int, n: int) -> int:
    count = 0
    run = 0
    while n:
        if n & 1:
            run += 1
            if run >= k:
                count += 1
        else:
            run = 0
        n >>= 1
    return count & 1


def test_pattern_bit_matches_runlength_oracle():
    for k in (1, 2, 3, 4):
        for n in range(0, 1 << 14):
            assert pattern_bit(k, n) == pattern_oracle(k, n), (k, n)


def test_pattern_bit_past_bit_length():
    def and_loop(k, n):
        m = n
        for j in range(1, k):
            m &= n >> j
        return m.bit_count() & 1

    for k in range(1, 13):
        for n in range(4096):
            assert pattern_bit(k, n) == and_loop(k, n), (k, n)
    for n in (0, 1, 4095, 2**64 - 1):
        assert pattern_bit(10**9, n) == 0


def test_pattern_bit_matches_stripping_recursion():
    # Independent recursion: p(n) = p(n >> 1) xor [low k bits all ones].
    for k in (1, 2, 3, 4):
        m = (1 << k) - 1
        p = bytearray(1 << 18)
        for n in range(1, 1 << 18):
            p[n] = p[n >> 1] ^ (1 if (n & m) == m else 0)
        for n in range(0, 1 << 18, 97):
            assert pattern_bit(k, n) == p[n]
        for n in range(0, 4096):
            assert pattern_bit(k, n) == p[n]


def test_thue_morse_frozen_prefix():
    assert thue_morse_word(32).to01() == "01101001100101101001011001101001"
    assert thue_morse_word(64).to01() == pattern_word(1, 64).to01()


def test_rudin_shapiro_frozen_prefix():
    assert rudin_shapiro_word(16).to01() == "0001001000011101"
    assert rudin_shapiro_word(64).to01() == pattern_word(2, 64).to01()


def test_pattern_word_consistent_with_bit():
    for k in range(1, 6):
        for n in (0, 1, 2, 3, 7, 100, 200, 5000):
            w = pattern_word(k, n)
            assert w.bits == bytes(pattern_bit(k, i) for i in range(n)), (k, n)
    assert pattern_word(10**9, 5).to01() == "00000"


def test_pattern_families_build_plain_words_in_bulk(monkeypatch):
    # Plain specs read the bulk prefix; @poly= specs take the per-bit path.
    calls = []
    real = generators.pattern_word
    monkeypatch.setattr(generators, "pattern_word", lambda k, n: calls.append(k) or real(k, n))
    for family, params, k in (("thue-morse", (), 1), ("rudin-shapiro", (), 2), ("pattern", (("k", 3),), 3)):
        spec = SeqSpec(family, params)
        assert materialize(spec, 300).bits == bytes(pattern_bit(k, i) for i in range(300))
        along = materialize(SeqSpec(family, params, PolySpec((0, 0, 1))), 50)
        assert along.bits == bytes(pattern_bit(k, i * i) for i in range(50))
    assert calls == [1, 2, 3]


def test_along_polynomial():
    f = PolySpec((0, 0, 1))
    w = along_polynomial(lambda n: pattern_bit(1, n), f, 50)
    assert list(w) == [pattern_bit(1, i * i) for i in range(50)]
    const = along_polynomial(lambda n: pattern_bit(1, n), PolySpec((3,)), 10)
    assert list(const) == [pattern_bit(1, 3)] * 10
    with pytest.raises(NegativeValue):
        along_polynomial(lambda n: 0, PolySpec((-5, 1)), 3)


def test_polyspec_canonical():
    assert PolySpec((1, 0, 2, 0)).coefficients == (1, 0, 2)
    assert PolySpec((0, 0)).coefficients == (0,)
    assert PolySpec((0, 1)).degree == 1
    assert PolySpec((7, -2, 3))(5) == 7 - 10 + 75
    assert IDENTITY(42) == 42
    with pytest.raises(ValueError):
        PolySpec(())


def fib_upto(n):
    fibs = [1, 2]
    while fibs[-1] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs


def test_zeckendorf_digits_greedy_unique():
    for n in range(0, 3000):
        digits = zeckendorf_digits(n)
        assert sum(digits) == n
        assert list(digits) == sorted(digits, reverse=True)
        fibs = fib_upto(max(digits) if digits else 1)
        idx = [fibs.index(d) for d in digits]
        # Summands are distinct Fibonacci numbers, no two adjacent.
        assert len(set(idx)) == len(idx)
        for a, b in zip(sorted(idx), sorted(idx)[1:]):
            assert b - a >= 2


def test_zeckendorf_bit_is_summand_parity():
    for n in range(0, 3000):
        assert zeckendorf_bit(n) == len(zeckendorf_digits(n)) % 2
    assert [zeckendorf_bit(i) for i in range(16)] == [
        0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0,
    ]
    w = zeckendorf_word(300)
    assert list(w) == [zeckendorf_bit(n) for n in range(300)]


def test_zeckendorf_word_matches_per_index_referee():
    ref = zeckendorf_per_index(20000)
    assert zeckendorf_word(20000).bits == ref
    for n in range(400):
        assert zeckendorf_word(n).bits == ref[:n], n
    # Every block edge of the Fibonacci doubling, F_2 = 1 to F_30 = 832040.
    fibs = [1, 2]
    while len(fibs) < 29:
        fibs.append(fibs[-1] + fibs[-2])
    long = zeckendorf_word(fibs[-1] + 1).bits
    for f in fibs:
        for n in (f - 1, f, f + 1):
            assert zeckendorf_word(n).bits == long[:n], n
        assert long[f - 1 : f + 1] == bytes(map(zeckendorf_bit, range(f - 1, f + 1))), f


def test_legendre_word_character_convention():
    for p in (7, 11, 19):
        w = legendre_word(p, IDENTITY, 2 * p)
        for n in range(2 * p):
            expected = 1 if legendre_symbol(n, p) == 1 else 0
            assert w[n] == expected, (p, n)


def test_legendre_word_tests_primality_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(generators, "is_prime", counting)
    for p, f in ((7, IDENTITY), (19, PolySpec((1, 0, 1))), (101, PolySpec((3, 2, 0, 5)))):
        calls.clear()
        w = legendre_word(p, f, 3 * p)
        assert calls == [p]
        assert list(w) == [1 if legendre_symbol(f(i), p) == 1 else 0 for i in range(3 * p)], (p, f)


LEGENDRE_POLYS = (
    IDENTITY,
    PolySpec((1, 0, 1)),  # n^2 + 1
    PolySpec((-4, 1)),  # n - 4, negative at the start
    PolySpec((3, 2, 0, 5)),  # 5n^3 + 2n + 3
    PolySpec((2,)),  # constant
)


def test_legendre_word_matches_euler_referee_on_both_sides_of_the_table_switch():
    sides = set()
    for p in range(3, 400, 2):
        if not is_prime(p):
            continue
        for f in LEGENDRE_POLYS:
            for n in (0, 1, p - 1, p, p + 1, 3 * p):
                assert list(legendre_word(p, f, n)) == legendre_euler_word(p, f, n), (p, f, n)
                sides.add(p <= generators._SQUARE_TABLE_RATIO * n)
    assert sides == {False, True}
    p = 2**61 - 1
    for f in LEGENDRE_POLYS:
        assert list(legendre_word(p, f, 16)) == legendre_euler_word(p, f, 16), f


def test_legendre_word_huge_prime_short_prefix_allocates_nothing_p_sized():
    p = 2305843009213693951  # 2^61 - 1
    tracemalloc.start()
    try:
        t = time.perf_counter()
        w = legendre_word(p, IDENTITY, 16)
        elapsed = time.perf_counter() - t
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == 16 and w[0] == 0
    assert peak < 1 << 16
    assert elapsed < 0.5


def test_legendre_period():
    s = legendre_period(19, IDENTITY)
    assert s.T == 19
    assert s.word.to01() == legendre_word(19, IDENTITY, 19).to01()
    quad = legendre_period(7, PolySpec((1, 0, 1)))
    assert list(quad.word) == [
        1 if legendre_symbol(n * n + 1, 7) == 1 else 0 for n in range(7)
    ]


def test_fcsr_bit_formula():
    # s_n = (a * 2^-n mod q) mod 2, the 2-adic digit stream of a/q.
    for a, q in [(1, 11), (3, 31), (37, 127), (173, 255)]:
        inv2 = pow(2, -1, q)
        x = a % q
        for n in range(40):
            assert fcsr_bit(a, q, n) == x % 2, (a, q, n)
            x = (x * inv2) % q


def test_fcsr_expansion_identity():
    # The stream is the 2-adic expansion of -a/q: q * S_n + a = 0 mod 2^n.
    for a, q in [(1, 11), (5, 31), (37, 127), (173, 255)]:
        s = fcsr_word(a, q)
        for n in (5, 10, 20, 33):
            val = s.prefix(n).value()
            assert (q * val + a) % (1 << n) == 0, (a, q, n)


def test_fcsr_fixed_periods():
    cases = [
        ((3, 31), "11000", 5),
        ((5, 31), "10100", 5),
        ((37, 127), "1010010", 7),
        ((173, 255), "10110101", 8),
    ]
    for (a, q), bits, T in cases:
        s = fcsr_word(a, q)
        assert s.word.to01() == bits
        assert s.T == T == multiplicative_order(2, q)


def test_ell_prefix_streams_past_the_period():
    for a, q in ((3, 31), (37, 127), (173, 255), (1, 1019)):
        s = fcsr_word(a, q)
        n = 2 * s.T + 3
        spec = SeqSpec("ell", params=(("A", a), ("q", q)))
        assert materialize(spec, n).to01() == s.prefix(n).to01(), (a, q)


def test_fcsr_prefix_matches_register_referee():
    rng = random.Random(37)
    for _ in range(3000):
        q = rng.randrange(3, 10**6, 2)
        a = rng.randrange(1, q)
        if math.gcd(a, q) != 1:
            continue
        n = rng.randrange(0, 400)
        assert list(generators._fcsr_prefix(a, q, n)) == carry_register_bits(a, q, n), (a, q, n)
    for q in range(3, 300, 2):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                s = fcsr_word(a, q)
                assert list(s.word) == carry_register_bits(a, q, s.T), (a, q)


def test_ell_prefix_is_short_work_for_a_huge_modulus():
    q = 1_000_000_007
    spec = SeqSpec("ell", params=(("A", 1), ("q", q)))
    t = time.perf_counter()
    w = materialize(spec, 8)
    long = materialize(spec, 10**6)
    elapsed = time.perf_counter() - t
    assert list(w) == carry_register_bits(1, q, 8)
    assert long[:8] == w and (q * long.value() + 1) % (1 << 10**6) == 0
    assert elapsed < 0.5


def test_fcsr_argument_checks():
    with pytest.raises(EvenModulus):
        fcsr_word(3, 10)
    with pytest.raises(NotCoprime):
        fcsr_word(3, 9)
    with pytest.raises(ValueError):
        fcsr_word(0, 31)
    with pytest.raises(ValueError):
        fcsr_word(31, 31)


def test_lfsr_recurrence_and_seed():
    taps = (0, 1)
    seed = (1, 0, 0, 0)
    w = lfsr_word(taps, seed, 40)
    assert tuple(w)[:4] == seed
    for i in range(40 - 4):
        assert w[i + 4] == w[i] ^ w[i + 1], i
    taps5 = (0, 2)
    seed5 = (1, 1, 0, 1, 0)
    v = lfsr_word(taps5, seed5, 50)
    for i in range(50 - 5):
        assert v[i + 5] == v[i] ^ v[i + 2], i


def test_lfsr_period():
    s = lfsr_period((0, 1), (1, 0, 0, 0))
    assert s.T == 15
    assert s.prefix(30).to01() == lfsr_word((0, 1), (1, 0, 0, 0), 30).to01()
    # x^4 + x^2 + 1 is not primitive; this seed closes after 6 steps.
    assert lfsr_period((0, 2), (1, 0, 0, 0)).T == 6


def test_lfsr_argument_checks():
    with pytest.raises(ZeroSeed):
        lfsr_word((0, 1), (0, 0, 0, 0), 5)
    with pytest.raises(ValueError):
        lfsr_word((0, 4), (1, 0, 0, 0), 5)
    with pytest.raises(InvalidParameter):
        lfsr_period((1, 2), (1, 0, 0))


def _tap_sets(r):
    return [tuple(t for t in range(r) if v >> t & 1) for v in range(1 << r)]


def _seeds(r):
    return [tuple(v >> i & 1 for i in range(r)) for v in range(1, 1 << r)]


def _three_seeds(r):
    return [(1,) + (0,) * (r - 1), (1,) * r, (0, 1) * (r // 2) + (1,) * (r % 2)]


def test_lfsr_word_matches_walk_every_register_to_6():
    # Every tap set (empty and without tap 0 included) and nonzero seed at
    # 4r + 40 bits. The builder's block edges depend on r and the taps
    # alone, so every length up to there (below r included) is checked on
    # every seed up to r = 4 and on three seeds above.
    for r in range(1, 7):
        top = 4 * r + 40
        for taps in _tap_sets(r):
            for seed in _seeds(r):
                ref = lfsr_walk(taps, seed, top)
                lengths = range(top + 1) if r <= 4 or seed in _three_seeds(r) else (top,)
                for n in lengths:
                    assert lfsr_word(taps, seed, n).bits == ref[:n], (taps, seed, n)


def test_lfsr_word_matches_walk_random_registers():
    rng = random.Random(23)
    for _ in range(200):
        r = rng.randrange(1, 17)
        taps = tuple(sorted(rng.sample(range(r), rng.randrange(0, r + 1))))
        seed = tuple(rng.getrandbits(1) for _ in range(r - 1)) + (1,)
        n = rng.randrange(3001)
        assert lfsr_word(taps, seed, n).bits == lfsr_walk(taps, seed, n), (taps, seed, n)


def test_lfsr_period_matches_state_walk():
    # Every tap set with tap 0 up to r = 8: every seed up to r = 5, three
    # seeds above. Non-primitive sets give cycles shorter than 2^r - 1.
    lengths = set()
    for r in range(1, 9):
        seeds = _seeds(r) if r <= 5 else _three_seeds(r)
        for taps in _tap_sets(r):
            if 0 not in taps:
                continue
            for seed in seeds:
                s = lfsr_period(taps, seed)
                assert s.word.bits == lfsr_state_cycle(taps, seed), (taps, seed)
                assert s.T == least_period_by_divisors(s.word.bits), (taps, seed)
                lengths.add((r, s.T))
    assert (8, 255) in lengths and (8, 1) in lengths and (8, 8) in lengths


def test_lfsr_period_short_cycle_of_a_long_register(monkeypatch):
    # s_(i+48) = s_i: the cycle divides 48 and its return lies in the first
    # doubled prefix of 96 bits, far below the 2^48 - 1 + 48 bound. The
    # builder refuses long prefixes here, so a missed return fails at once.
    sizes = []
    extend = generators._register_extend

    def bounded(bits, taps, r, n):
        sizes.append(n)
        assert n <= 1 << 12
        extend(bits, taps, r, n)

    monkeypatch.setattr(generators, "_register_extend", bounded)
    for seed in ((1,) + (0,) * 47, (1, 0) * 24, (1, 1, 0) * 16, (1,) * 48):
        sizes.clear()
        s = lfsr_period((0,), seed)
        assert s.word.bits == lfsr_state_cycle((0,), seed) and 48 % s.T == 0
        assert sizes == [96]


def test_seqspec_validation():
    with pytest.raises(InvalidParameter):
        SeqSpec("nonesuch")
    with pytest.raises(InvalidParameter):
        SeqSpec("ell", poly=IDENTITY)
    with pytest.raises(InvalidParameter):
        SeqSpec("ell", params=(("q", 31), ("q", 33)))
    spec = SeqSpec("ell", params=(("q", 31), ("A", 5)))
    assert spec.params == (("A", 5), ("q", 31))
    assert spec.text() == "ell:A=5,q=31"
    assert spec.param("q") == 31
    assert spec.param("missing", 7) == 7


def test_seqspec_rejects_with_the_library_classes():
    # One validator: a spec raises what the generator itself raises, and
    # every such class is an InvalidParameter and a ValueError.
    cases = [
        (EvenModulus, "ell", (("A", 3), ("q", 10))),
        (NotCoprime, "ell", (("A", 3), ("q", 9))),
        (InvalidParameter, "ell", (("A", 31), ("q", 31))),
        (NotOddPrime, "legendre", (("p", 21),)),
        (InvalidParameter, "legendre", (("f", PolySpec((0, 5))), ("p", 5))),
        (ZeroSeed, "lfsr", (("seed", (0, 0, 0)), ("taps", (0, 1)))),
        (InvalidParameter, "lfsr", (("seed", (1, 0, 0)), ("taps", (0, 5)))),
        (InvalidParameter, "pattern", (("k", 0),)),
        (InvalidParameter, "pattern", (("k", "3"),)),
        (InvalidParameter, "thue-morse", (("k", 2),)),
    ]
    for cls, family, params in cases:
        with pytest.raises(cls) as info:
            SeqSpec(family, params=params)
        assert isinstance(info.value, InvalidParameter) and isinstance(info.value, ValueError)
    for family in ("ell", "pattern", "file"):
        with pytest.raises(MissingParameter):
            SeqSpec(family)
    with pytest.raises(InvalidParameter):
        pattern_bit(0, 5)


def test_materialize_families(tmp_path):
    assert materialize(SeqSpec("zero"), 6).to01() == "000000"
    assert materialize(SeqSpec("ones"), 4).to01() == "1111"
    tm = materialize(SeqSpec("thue-morse"), 32)
    assert tm.to01() == thue_morse_word(32).to01()
    rs = materialize(SeqSpec("pattern", params=(("k", 2),)), 64)
    assert rs.to01() == materialize(SeqSpec("rudin-shapiro"), 64).to01()
    ell = materialize(SeqSpec("ell", params=(("A", 3), ("q", 31))), 12)
    assert ell.to01() == fcsr_word(3, 31).prefix(12).to01()
    poly = SeqSpec("thue-morse", poly=PolySpec((0, 0, 1)))
    assert list(materialize(poly, 20)) == [pattern_bit(1, i * i) for i in range(20)]
    zw = materialize(SeqSpec("zeckendorf"), 50)
    assert zw.to01() == zeckendorf_word(50).to01()
    lw = materialize(
        SeqSpec("lfsr", params=(("taps", (0, 1)), ("seed", (1, 0, 0, 0)))), 20
    )
    assert lw.to01() == lfsr_word((0, 1), (1, 0, 0, 0), 20).to01()

    path = tmp_path / "w.bits"
    write_bits(rudin_shapiro_word(40), path)
    fspec = SeqSpec("file", params=(("path", str(path)),))
    assert materialize(fspec, 40).to01() == rudin_shapiro_word(40).to01()
    with pytest.raises(TooShort):
        materialize(fspec, 41)


def test_materialize_indexed_families_prefix_is_the_bit_path():
    # Plain words come from each family's prefix; @poly= reads bit.
    f = PolySpec((1, 0, 2))
    for family in ("zero", "ones", "zeckendorf", "thue-morse", "rudin-shapiro"):
        bit = FAMILIES[family].bit()
        for n in (0, 1, 2, 3, 100, 1597, 1598, 5000):
            assert materialize(SeqSpec(family), n).bits == bytes(map(bit, range(n))), (family, n)
        along = materialize(SeqSpec(family, poly=f), 300)
        assert along.bits == bytes(bit(f(i)) for i in range(300)), family


def test_periodic_sequence_from_spec():
    assert periodic_sequence(SeqSpec("zero")).word.to01() == "0"
    assert periodic_sequence(SeqSpec("ones")).word.to01() == "1"
    assert periodic_sequence(SeqSpec("legendre", params=(("p", 19),))).T == 19
    ell = periodic_sequence(SeqSpec("ell", params=(("A", 3), ("q", 31))))
    assert ell.word.to01() == "11000"
    lfsr = periodic_sequence(
        SeqSpec("lfsr", params=(("taps", (0, 1)), ("seed", (1, 0, 0, 0))))
    )
    assert lfsr.T == 15
    with pytest.raises(InvalidParameter):
        periodic_sequence(SeqSpec("thue-morse"))
    with pytest.raises(InvalidParameter):
        periodic_sequence(SeqSpec("zeckendorf"))
