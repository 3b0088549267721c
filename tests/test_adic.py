"""2-adic machinery. The jump from one length's reduced basis to a longer
one's against the per-length referee (the schoolbook Euclid from nothing and
one Gauss step); adic_min and adic_minima (jumps and a four-vector readout)
against the exhaustive oracle and against the referee that Lagrange-reduces
and enumerates; adic_profile's carried basis against the referee pushed bit
by bit; periodic connections."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from referees import (
    Lattice,
    adic_steps_both_signs,
    euclid_rows,
    per_length_basis,
    sup_norm,
)

import seqlab.adic as adic
from seqlab.adic import (
    AdicValue,
    ApproxPair,
    adic_min,
    adic_minima,
    adic_oracle,
    adic_profile,
    connection,
    phi2,
    phi2_symmetric,
)
from seqlab.errors import OracleBoundExceeded
from seqlab.generators import SeqSpec, fcsr_word, materialize, pattern_word
from seqlab.relations import conjecture_scan, grid_points
from seqlab.seqcore import (
    PeriodicSequence,
    RationalRep,
    Word,
    least_period,
    prefix_value,
    reverse_period,
)


def all_words(length):
    for v in range(1 << length):
        yield Word(bytes((v >> i) & 1 for i in range(length)))


def random_word(rng, length):
    return Word(bytes(rng.getrandbits(1) for _ in range(length)))


def assert_admissible(w, n, pair):
    assert pair.n == n
    assert pair.q % 2 == 1
    assert pair.mu == max(abs(pair.f), abs(pair.q))
    assert (pair.q * prefix_value(w, n) - pair.f) % (1 << n) == 0


def test_adic_min_matches_oracle_exhaustive():
    for length in range(1, 9):
        for w in all_words(length):
            got = adic_min(w, length)
            ref = adic_oracle(w, length)
            assert got == ref, w.to01()
            assert_admissible(w, length, got)


def test_adic_min_matches_oracle_random():
    rng = random.Random(30)
    for n in (10, 12, 14):
        for _ in range(60):
            w = random_word(rng, n)
            got = adic_min(w, n)
            ref = adic_oracle(w, n)
            assert got == ref, (w.to01(), n)
            assert_admissible(w, n, got)


def test_adic_min_interior_prefix():
    rng = random.Random(31)
    for _ in range(40):
        w = random_word(rng, 20)
        n = rng.randrange(1, 13)
        assert adic_min(w, n) == adic_oracle(w, n)


def test_adic_minima_agrees_with_adic_min():
    rng = random.Random(32)
    w = random_word(rng, 40)
    ns = [3, 7, 8, 15, 24, 40]
    pairs = adic_minima(w, ns)
    assert [p.n for p in pairs] == ns
    for n, p in zip(ns, pairs):
        assert p == adic_min(w, n)
    with pytest.raises(ValueError):
        adic_minima(w, [5, 5])
    with pytest.raises(ValueError):
        adic_minima(w, [7, 3])


def push(lat, bit):
    """Consume one bit: the parity of (f - q*S')/2^n splits the old basis
    into the index-2 sublattice fixed by the new congruence, and a Lagrange
    step re-reduces. Multiplies q by S' on every bit; kept as the referee."""
    n = lat.n
    s2 = lat.s | (bit << n)
    uf, uq, vf, vq = lat.uf, lat.uq, lat.vf, lat.vq
    eu = ((uf - uq * s2) >> n) & 1
    ev = ((vf - vq * s2) >> n) & 1
    if eu:
        if ev:
            uf, uq, vf, vq = uf - vf, uq - vq, 2 * vf, 2 * vq
        else:
            uf, uq, vf, vq = vf, vq, 2 * uf, 2 * uq
    else:
        assert ev, "index-2 step left both basis vectors inside"
        vf, vq = 2 * vf, 2 * vq
    lat.n = n + 1
    lat.s = s2
    lat.reduce(uf, uq, vf, vq)


def pushed_pairs(w):
    """Reference pairs at every prefix from the bit-by-bit lattice."""
    lat = Lattice()
    out = []
    for bit in w:
        push(lat, bit)
        out.append(ApproxPair(*lat.minimize()))
    return out


def referee_pair(s, n):
    return ApproxPair(*Lattice.euclid(s, n).minimize())


def empty_jump(s, n):
    return adic._jump(s, 0, n, 1, 0, 0, 1)


def word_of(s, n):
    return Word(bytes((s >> i) & 1 for i in range(n)))


def test_euclid_matches_pushed_lattice_exhaustive():
    # The prefixes of the words of length 12 are all words up to length
    # 12; the oracle sees each once, as the prefix of its zero extension.
    ns = list(range(1, 13))
    for v, w in enumerate(all_words(12)):
        pairs = adic_minima(w, ns)
        assert pairs == pushed_pairs(w), w.to01()
        for n in ns:
            if v < 1 << n:
                assert pairs[n - 1] == adic_oracle(w, n), (w.to01(), n)


def test_euclid_matches_pushed_lattice_random_long():
    rng = random.Random(36)
    for _ in range(12):
        w = random_word(rng, rng.randrange(1, 3001))
        ref = pushed_pairs(w)
        ns = sorted(rng.sample(range(1, len(w) + 1), min(len(w), 8)))
        assert adic_minima(w, ns) == [ref[n - 1] for n in ns]
        for n in ns[-2:]:
            assert adic_min(w, n) == ref[n - 1]
            uf, uq, vf, vq = empty_jump(prefix_value(w, n), n)
            assert adic._sup_reduced(uf, uq, vf, vq)
            assert abs(uf * vq - uq * vf) == 1 << n


def test_adic_min_matches_referee_exhaustive():
    for n in range(1, 17):
        for s in range(1 << n):
            assert adic_min(word_of(s, n), n) == referee_pair(s, n), (s, n)


def test_adic_min_matches_referee_random_sparse_cosparse_long():
    rng = random.Random(39)
    for i in range(1500):
        n = rng.randrange(1, 3001)
        sparse = 0
        for _ in range(rng.randrange(1, 6)):
            sparse |= 1 << rng.randrange(n)
        s = (rng.getrandbits(n), sparse, ((1 << n) - 1) ^ sparse)[i % 3]
        assert adic_min(word_of(s, n), n) == referee_pair(s, n), (i, n)


def test_adic_min_flat_cases_match_oracle():
    # S = 2^(N-1) and S with at least N/2 trailing zeros, where the reduced
    # u has uf = 0 and x -> |v + x*u| is flat over more than two integers:
    # only the tie rule of the reduction keeps the canonical pair in the
    # readout window there.
    rng = random.Random(40)
    flats = 0
    for n in range(1, 21):
        t = (n + 1) // 2
        highs = range(1 << (n - t)) if n <= 14 else rng.sample(range(1 << (n - t)), 6)
        for s in sorted({1 << (n - 1), *(h << t for h in highs)}):
            w = word_of(s, n)
            assert adic_min(w, n) == adic_oracle(w, n), (s, n)
            uf, uq, vf, vq = empty_jump(s, n)
            h = [max(abs(vf + k * uf), abs(vq + k * uq)) for k in (-1, 0, 1)]
            flats += uf == 0 and h[0] == h[1] == h[2]
    assert flats > 100


@pytest.fixture
def jump_rows(monkeypatch):
    """Jump from the empty basis to (s, n); returns the Euclid stopping rows
    _checked_rows saw (unscaled there, as sh = 0) and the jumped basis."""
    rows = []
    real = adic._checked_rows
    monkeypatch.setattr(adic, "_checked_rows", lambda n, e, *r: rows.append(r) or real(n, e, *r))

    def run(s, n):
        basis = empty_jump(s, n)
        return rows.pop(), basis

    return run


def test_euclid_rows_match_schoolbook_exhaustive(jump_rows):
    # From the empty basis the jump is the Euclid on (2^n, S) stopped at
    # r <= |t| and one Gauss step: the per-length referee exactly.
    for n in range(1, 13):
        for s in range(1 << n):
            assert jump_rows(s, n) == (euclid_rows(s, n), per_length_basis(s, n)), (s, n)


def test_euclid_rows_match_schoolbook_random_long(jump_rows):
    # Lehmer rounds run while r1 is longer than max(n//2 + 70, 1500) bits.
    rng = random.Random(38)
    for _ in range(1000):
        n = rng.randrange(1, 3000)
        s = rng.getrandbits(n)
        assert jump_rows(s, n) == (euclid_rows(s, n), per_length_basis(s, n)), (s, n)


def test_euclid_rows_match_schoolbook_edge_words(jump_rows):
    # Around both handoffs to the schoolbook loop: n//2 + 70 (n near 130 to
    # 260 and 2860) and the 1500-bit floor. Large and failed quotients
    # take the single-step path.
    for n in [*range(128, 262), *range(1490, 1512), *range(2850, 2872)]:
        full = (1 << n) - 1
        alt = full // 3
        for s in (0, 1, 1 << (n - 1), full, alt, alt << 1, full - (1 << (n // 2))):
            s &= full
            assert jump_rows(s, n) == (euclid_rows(s, n), per_length_basis(s, n)), (s, n)


def test_euclid_rows_match_schoolbook_pattern_words(jump_rows):
    for k in (1, 2):
        s = prefix_value(pattern_word(k, 10007), 10007)
        for n in (9973, 10000, 10007):
            part = s & ((1 << n) - 1)
            assert jump_rows(part, n) == (euclid_rows(part, n), per_length_basis(part, n)), (k, n)


def test_euclid_row_guard(monkeypatch):
    # The stopping-row recheck refuses rows one step early or late and a
    # determinant off by a factor 2, and runs on every jump.
    n, s = 20, 12345
    rows = [(1 << n, 0), (s, 1)]
    while rows[-1][0]:
        (r0, t0), (r1, t1) = rows[-2:]
        k = r0 // r1
        rows.append((r0 - k * r1, t0 - k * t1))
    i = rows.index(euclid_rows(s, n)[2:])
    adic._checked_rows(n, n, *rows[i - 1], *rows[i])
    for j in (i - 1, i + 1):
        with pytest.raises(AssertionError):
            adic._checked_rows(n, n, *rows[j - 1], *rows[j])
    with pytest.raises(AssertionError):
        adic._checked_rows(n, n + 1, *rows[i - 1], *rows[i])
    calls = []
    real = adic._checked_rows
    monkeypatch.setattr(adic, "_checked_rows", lambda *args: calls.append(args[0]) or real(*args))
    adic_minima(Word.from01("0100110101110001"), [3, 9, 16])
    assert calls == [3, 9, 16]


def norms(basis):
    return sup_norm(*basis[:2]), sup_norm(*basis[2:])


def test_jump_matches_per_length_referee_every_pair_to_12():
    # Every word up to 12 bits, from the referee's basis at every shorter
    # length a (the empty basis at a = 0) to the word's length b: the same
    # successive minima and the same canonical pair as the referee at b,
    # and from a = 0 the referee's basis itself.
    ref = {(0, 0): (1, 0, 0, 1)}
    for n in range(1, 13):
        for s in range(1 << n):
            ref[s, n] = per_length_basis(s, n)
    for b in range(1, 13):
        for s in range(1 << b):
            want = ref[s, b]
            pair, sizes = adic._canonical_pair(*want, b, s), norms(want)
            assert empty_jump(s, b) == want, (s, b)
            for a in range(1, b):
                got = adic._jump(s, a, b - a, *ref[s & ((1 << a) - 1), a])
                assert norms(got) == sizes, (s, a, b)
                assert adic._canonical_pair(*got, b, s) == pair, (s, a, b)


def record_jumps(monkeypatch):
    """Make every adic._jump from a nonempty basis record its orientation
    (whether u has the odd residue), the sign of sh, recomputed from its
    arguments, and whether it is longer than 1500 bits; returns the set of
    them. As |u| <= |v|, sh <= 0 when u has the odd residue, and sh >= 0
    otherwise."""
    seen = set()
    real = adic._jump

    def jump(s, n, k, uf, uq, vf, vq):
        if n:
            ru = ((uf - uq * s) >> n) & ((1 << k) - 1)
            o, e = ((uf, uq), (vf, vq)) if ru & 1 else ((vf, vq), (uf, uq))
            sh = sup_norm(*o).bit_length() - sup_norm(*e).bit_length()
            seen.add((ru & 1, (sh > 0) - (sh < 0), k > 1500))
        return real(s, n, k, uf, uq, vf, vq)

    monkeypatch.setattr(adic, "_jump", jump)
    return seen


def test_jump_matches_per_length_referee_random_grids(monkeypatch):
    # Seeded random, sparse and cosparse words up to 3000 bits on random
    # grids: both orientations, sh of both signs, and jumps of more than
    # 1500 bits, which take Lehmer rounds, from a nonempty basis.
    seen = record_jumps(monkeypatch)
    rng = random.Random(44)
    for i in range(300):
        n = rng.randrange(2, 3001)
        sparse = 0
        for _ in range(rng.randrange(1, 6)):
            sparse |= 1 << rng.randrange(n)
        s = (rng.getrandbits(n), sparse, ((1 << n) - 1) ^ sparse)[i % 3]
        ns = sorted(rng.sample(range(1, n + 1), min(n, rng.randrange(2, 5))))
        for m, got in zip(ns, adic_minima(word_of(s, n), ns)):
            part = s & ((1 << m) - 1)
            assert got == adic._canonical_pair(*per_length_basis(part, m), m, part), (i, m)
    assert seen >= {(1, -1, False), (0, 1, False), (1, -1, True), (0, 1, True)}


def test_jump_gauss_steps_at_most_two_on_scan_grids(monkeypatch):
    # The stop of the jump's Euclid does not bear on exactness, as any two
    # consecutive rows span the lattice, so a wrong sh would pass every
    # value test; it shows as more Gauss steps. _sup_gauss rechecks with
    # _sup_reduced after each step, so those calls count the steps.
    steps, inside = [], [False]
    gauss, reduced = adic._sup_gauss, adic._sup_reduced

    def counting_gauss(*basis):
        steps.append(0)
        inside[0] = True
        try:
            return gauss(*basis)
        finally:
            inside[0] = False

    def counting_reduced(*basis):
        if inside[0]:
            steps[-1] += 1
        return reduced(*basis)

    monkeypatch.setattr(adic, "_sup_gauss", counting_gauss)
    monkeypatch.setattr(adic, "_sup_reduced", counting_reduced)
    grid = grid_points(20000)
    for family in ("thue-morse", "rudin-shapiro", "zero"):
        w = materialize(SeqSpec(family), 20000)
        adic.adic_mu(w, grid)
        adic_minima(w, grid)
    assert len(steps) > 200 and min(steps) >= 1
    assert max(steps) <= 2, max(steps)


def test_newton_inverse_matches_pow():
    rng = random.Random(45)
    cases = [(r, k) for k in range(1, 12) for r in range(1, 1 << k, 2)]
    cases += [(rng.getrandbits(k) | 1, k) for k in (rng.randrange(12, 3000) for _ in range(500))]
    for r, k in cases:
        assert adic._inverse(r, k) == pow(r, -1, 1 << k), (r, k)


def test_adic_minima_sparse_grids_match_oracle_and_referee():
    # adic_minima jumps from point to point and adic_min from length 0: both
    # against the oracle, the Lagrange referee and the per-length referee.
    rng = random.Random(46)
    for _ in range(150):
        w = random_word(rng, rng.randrange(1, 13))
        ns = sorted(rng.sample(range(1, len(w) + 1), rng.randrange(1, min(len(w), 4) + 1)))
        pairs = adic_minima(w, ns)
        assert pairs == [adic_min(w, n) for n in ns], (w.to01(), ns)
        assert pairs == [adic_oracle(w, n) for n in ns], (w.to01(), ns)
        assert pairs == [referee_pair(prefix_value(w, n), n) for n in ns], (w.to01(), ns)
        for n, pair in zip(ns, pairs):
            s = prefix_value(w, n)
            assert pair == adic._canonical_pair(*per_length_basis(s, n), n, s), (w.to01(), n)


def test_single_lengths_do_not_push(monkeypatch):
    def refuse(w):
        raise AssertionError("adic_profile called")

    monkeypatch.setattr(adic, "adic_profile", refuse)
    w = Word.from01("0100110101110001")
    assert adic_min(w, 16).mu >= 1
    assert [p.n for p in adic_minima(w, [3, 9, 16])] == [3, 9, 16]
    assert conjecture_scan(SeqSpec("thue-morse"), 64).points[-1].n == 64


def test_mu_at_matches_adic_min_exhaustive():
    # Every word up to 12 bits, read at every window a..b of lengths: one
    # length, every length, and all between. A window ending at b reads only
    # the first b bits, so each b-bit word is read once, as the prefix of
    # its zero extension to 12 bits.
    for v, w in enumerate(all_words(12)):
        want = [adic_min(w, n).mu for n in range(1, 13)]
        assert adic.adic_mu(w, range(1, 13)) == want, w.to01()
        for b in range(v.bit_length() or 1, 13):
            for a in range(1, b + 1):
                assert adic.adic_mu(w, list(range(a, b + 1))) == want[a - 1 : b], (w.to01(), a, b)


def test_mu_at_matches_adic_min_random_long():
    rng = random.Random(41)
    for _ in range(300):
        w = random_word(rng, rng.randrange(1, 3001))
        ns = set(rng.sample(range(1, len(w) + 1), min(len(w), 3)))
        for _ in range(2):
            a = rng.randrange(1, len(w) + 1)
            ns.update(range(a, min(a + rng.randrange(1, 6), len(w) + 1)))
        ns = sorted(ns)
        assert adic.adic_mu(w, ns) == [adic_min(w, n).mu for n in ns], (len(w), ns)


def test_mu_at_checks_every_jump_and_every_run(monkeypatch):
    # One Euclid per run not starting at 1, rechecked as rows and as a
    # reduced basis; the basis at each run's end rechecked as a lattice basis.
    # A run of one length other than 1 takes no steps; a run from 1 steps
    # from length 0.
    w = Word.from01("0100110101110001")
    ns = [1, 2, 3, 5, 6, 9, 14, 15, 16]
    want = [adic_min(w, n).mu for n in ns]
    calls = {"rows": [], "reduced": 0, "basis": [], "steps": []}
    rows, reduced, basis, steps = (
        adic._checked_rows, adic._sup_reduced, adic._check_profile_basis, adic._steps
    )

    def count_reduced(*args):
        calls["reduced"] += 1
        return reduced(*args)

    monkeypatch.setattr(adic, "_checked_rows", lambda *a: calls["rows"].append(a[0]) or rows(*a))
    monkeypatch.setattr(adic, "_sup_reduced", count_reduced)
    monkeypatch.setattr(
        adic, "_check_profile_basis", lambda *a: calls["basis"].append(a[1]) or basis(*a)
    )
    monkeypatch.setattr(
        adic, "_steps", lambda bits, *a: calls["steps"].append(len(bits)) or steps(bits, *a)
    )
    assert adic.adic_mu(w, ns) == want
    assert calls == {
        "rows": [5, 9, 14], "reduced": 3 + 4, "basis": [3, 6, 9, 16], "steps": [3, 1, 2]
    }
    ns = [1, 4, 9, 16]
    want = [adic_min(w, n).mu for n in ns]
    calls.update(rows=[], basis=[], steps=[])
    assert adic.adic_mu(w, ns) == want
    assert (calls["rows"], calls["basis"], calls["steps"]) == ([4, 9, 16], [1, 4, 9, 16], [1])


def test_steps_match_referee_every_word_to_14():
    # From the empty basis, every word of every length up to 14: mu at
    # every length and the final basis.
    for length in range(1, 15):
        for v in range(1 << length):
            bits = bytes((v >> i) & 1 for i in range(length))
            got, want = [], []
            out = adic._steps(bits, 1, 0, 1, 0, 1, 0, got)
            assert (got, out) == (want, adic_steps_both_signs(bits, 1, 0, 1, 0, 1, 0, want)), bits


def check_steps_against_referee(monkeypatch):
    """Make every adic._steps call also run the referee from the same basis
    and assert the same values and final basis; returns the list of the
    bit counts of the calls."""
    steps, calls = adic._steps, []

    def both(bits, *basis):
        *start, values = basis
        got, want = [], []
        out = steps(bits, *start, got)
        ref = adic_steps_both_signs(bits, *start, want)
        assert (got, out) == (want, ref), (bytes(bits), start)
        values += got
        calls.append(len(bits))
        return out

    monkeypatch.setattr(adic, "_steps", both)
    return calls


def test_steps_match_referee_after_every_jump(monkeypatch):
    # Runs a..12 that start from a Euclid jump at every a, on every 12-bit
    # word: the basis _sup_gauss hands over, not only the empty one.
    calls = check_steps_against_referee(monkeypatch)
    for w in all_words(12):
        for a in range(1, 12):
            adic.adic_mu(w, range(a, 13))
    assert len(calls) == 11 << 12


def test_steps_match_referee_long_words(monkeypatch):
    calls = check_steps_against_referee(monkeypatch)
    rng = random.Random(43)
    words = [random_word(rng, rng.randrange(1, 3001)) for _ in range(20)]
    words.append(random_word(rng, 20000))
    n = 20000
    words += [
        Word(bytes(n)),
        Word(bytes([1]) * n),
        Word(b"\x01" + bytes(n - 1)),
        materialize(SeqSpec("thue-morse"), n),
        materialize(SeqSpec("rudin-shapiro"), n),
    ]
    for w in words:
        adic_profile(w)
        a = rng.randrange(2, len(w)) if len(w) > 2 else 1
        adic.adic_mu(w, range(a, len(w) + 1))
    assert len(calls) == 2 * len(words)


def test_adic_mu_is_public_and_checks_its_lengths():
    # [1, 3, 2] spans as many lengths as it has items, like a run 1..3.
    import seqlab

    assert seqlab.adic_mu is adic.adic_mu
    w = Word.from01("0100110101")
    assert adic.adic_mu(w, []) == []
    for bad in ([1, 3, 2], [4, 4], [0, 1], [3, 11]):
        with pytest.raises(ValueError):
            adic.adic_mu(w, bad)


def test_check_lengths_splits_runs_in_one_pass():
    # The order test rides on the pass that splits the runs, and a range of
    # step 1 takes no pass; the messages, and which fault a list with both
    # reports, are those of a check of every pair before the range.
    w = Word.from01("0100110101")
    assert adic._check_lengths(w, []) == adic._check_lengths(w, range(3, 3)) == []
    assert adic._check_lengths(w, [1, 2, 3, 5, 6, 9]) == [(1, 3), (5, 6), (9, 9)]
    assert adic._check_lengths(w, range(1, 11)) == [(1, 10)]
    assert adic._check_lengths(w, range(2, 11, 4)) == [(2, 2), (6, 6), (10, 10)]
    increasing = "prefix lengths must be strictly increasing"
    in_range = "prefix lengths must lie in [1, 10]"
    for bad, message in (
        ([4, 4], increasing),
        ([1, 3, 2], increasing),
        ([7, 3], increasing),
        ([0, 0], increasing),
        ([3, 11, 11], increasing),
        (range(5, 0, -1), increasing),
        ([0, 1], in_range),
        ([3, 11], in_range),
        ([11], in_range),
        (range(0, 4), in_range),
        (range(8, 12), in_range),
    ):
        for read in (adic.adic_mu, adic_minima):
            with pytest.raises(ValueError) as raised:
                read(w, bad)
            assert str(raised.value) == message, (bad, read)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=16), st.data())
def test_adic_min_equals_oracle_property(bits, data):
    w = Word(bytes(bits))
    n = data.draw(st.integers(1, len(w)))
    got = adic_min(w, n)
    assert got == adic_oracle(w, n)
    assert_admissible(w, n, got)


def test_adic_profile_matches_min():
    rng = random.Random(33)
    w = random_word(rng, 30)
    prof = adic_profile(w)
    for n in range(1, 31):
        assert prof.at(n) == adic_min(w, n).mu


def test_adic_profile_matches_pushed_lattice_exhaustive():
    # Every prefix of every word of length 12 covers all words up to 12.
    for v, w in enumerate(all_words(12)):
        prof = adic_profile(w)
        assert list(prof) == [p.mu for p in pushed_pairs(w)], w.to01()
        for n in range(1, 13):
            if v < 1 << n:
                assert prof.at(n) == adic_oracle(w, n).mu, (w.to01(), n)


def test_adic_profile_matches_pushed_lattice_random_long():
    rng = random.Random(37)
    for _ in range(12):
        w = random_word(rng, rng.randrange(1, 3001))
        assert list(adic_profile(w)) == [p.mu for p in pushed_pairs(w)], len(w)


def test_adic_profile_structured_words():
    for w in (Word(bytes(3000)), Word(bytes([1]) * 3000), Word(bytes(2999) + b"\x01")):
        assert list(adic_profile(w)) == [p.mu for p in pushed_pairs(w)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=16), st.data())
def test_adic_profile_equals_oracle_property(bits, data):
    w = Word(bytes(bits))
    n = data.draw(st.integers(1, len(w)))
    assert adic_profile(w).at(n) == adic_oracle(w, n).mu


def test_adic_profile_final_basis_check(monkeypatch):
    # The end-of-word recheck runs: a read vector made inadmissible raises.
    real = adic._checked_pair

    def shifted(f, q, n, s):
        return real(f + 1, q, n, s)

    monkeypatch.setattr(adic, "_checked_pair", shifted)
    with pytest.raises(AssertionError):
        adic_profile(Word.from01("0100110101110001"))
    assert len(adic_profile(Word(b""))) == 0


def test_counterexample_period_minima():
    # Period 01001 is the expansion of 18/31; its window minima around
    # twice the period show a gap below the connection size.
    w = PeriodicSequence.from_word(Word.from01("01001")).prefix(13)
    assert prefix_value(w, 10) == 594
    m10 = adic_min(w, 10)
    assert (m10.mu, m10.f, m10.q) == (22, 22, 19)
    assert (19 * 594 - 22) % (1 << 10) == 0
    for n in (11, 12, 13):
        mn = adic_min(w, n)
        assert (mn.mu, mn.f, mn.q) == (31, -18, 31)
    assert adic_oracle(w, 10).mu == 22
    assert adic_oracle(w, 11).mu == 31


def test_connection_known_pairs():
    s = PeriodicSequence.from_word(Word.from01("01001"))
    assert connection(s) == RationalRep(18, 31)
    assert connection(least_period(Word.from01("0"))) == RationalRep(0, 1)
    assert connection(least_period(Word.from01("1"))) == RationalRep(1, 1)
    assert connection(least_period(Word.from01("01"))) == RationalRep(2, 3)
    for a, q in [(3, 31), (5, 31), (37, 127), (173, 255), (1, 11)]:
        assert connection(fcsr_word(a, q)) == RationalRep(a, q)


def test_connection_runs_one_gcd(monkeypatch):
    # connection divides by g = gcd(2^T - 1, S) and builds the pair without
    # a second gcd; the public constructor still refuses a pair with a
    # common factor.
    rng = random.Random(42)
    words = [random_word(rng, rng.randrange(1, 40)) for _ in range(100)]
    periods = [PeriodicSequence.from_word(w) for w in words]
    want = [(r.A, r.q) for r in map(connection, periods)]
    for A, q in want:
        assert RationalRep(A, q) == RationalRep._coprime(A, q)
    calls = []
    gcd = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *a: calls.append(a) or gcd(*a))
    assert [(r.A, r.q) for r in map(connection, periods)] == want
    assert len(calls) == len(periods)
    monkeypatch.undo()
    for A, q in ((3, 9), (0, 3), (5, 15), (9, 9)):
        with pytest.raises(ValueError):
            RationalRep(A, q)
    for A, q in ((1, 2), (-1, 3), (4, 3)):
        with pytest.raises(ValueError):
            RationalRep._coprime(A, q)


def test_connection_identity():
    # The sequence is -A/q 2-adically: q times any prefix plus A vanishes
    # modulo 2 to the prefix length.
    rng = random.Random(34)
    for _ in range(60):
        T = rng.randrange(1, 14)
        s = PeriodicSequence.from_word(random_word(rng, T))
        rep = connection(s)
        assert rep.q % 2 == 1 and rep.q >= 1
        assert 0 <= rep.A <= rep.q
        assert math.gcd(rep.A, rep.q) == 1
        n = 3 * s.T
        assert (rep.q * prefix_value(s.prefix(n), n) + rep.A) % (1 << n) == 0
        # A/q = val/(2^T - 1) as fractions, val the period's value.
        assert rep.A * ((1 << s.T) - 1) == prefix_value(s.prefix(s.T)) * rep.q


def test_phi2_values():
    assert phi2(fcsr_word(5, 31)).log2 == pytest.approx(math.log2(31))
    assert phi2(least_period(Word.from01("0"))).log2 == pytest.approx(0.0)
    assert phi2(least_period(Word.from01("1"))).log2 == pytest.approx(0.0)
    big = fcsr_word(1, 2**61 - 1)
    assert phi2(big).log2 == pytest.approx(61.0)


def test_phi2_symmetric():
    rng = random.Random(35)
    for _ in range(40):
        T = rng.randrange(1, 12)
        s = PeriodicSequence.from_word(random_word(rng, T))
        sym = phi2_symmetric(s).log2
        fwd = phi2(s).log2
        rev = phi2(reverse_period(s)).log2
        assert sym == pytest.approx(min(fwd, rev))
        assert sym <= fwd + 1e-12


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=40), st.data())
def test_phi2_shift_invariant_property(bits, data):
    k = data.draw(st.integers(0, len(bits) - 1))
    s = PeriodicSequence.from_word(Word(bytes(bits)))
    shifted = PeriodicSequence.from_word(Word(bytes(bits[k:] + bits[:k])))
    assert phi2(shifted) == phi2(s)


def test_adic_value():
    assert AdicValue(22).log2 == pytest.approx(math.log2(22))
    assert AdicValue(22).ceil == 5
    assert AdicValue(32).ceil == 5
    assert AdicValue(1).ceil == 0
    assert AdicValue(2**3000).ceil == 3000


def test_adic_oracle_respects_bound(monkeypatch):
    w = Word(bytes(25))
    with pytest.raises(OracleBoundExceeded):
        adic_oracle(w, 25)
    monkeypatch.setenv("SEQLAB_ORACLE_BOUNDS", "adic=25")
    assert adic_oracle(w, 25).mu == 1
