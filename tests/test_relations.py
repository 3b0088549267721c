"""Claim verifiers: pass paths, forced-failure paths, determinism."""

import hashlib
import math
import os
import random

import pytest

import seqlab.relations as relations
from referees import (
    carry_register_bits,
    coset_orbit,
    coset_width,
    least_period_by_divisors,
    lemma1_per_length,
    lowerbound_per_prefix,
    thm1_per_prefix,
    thm2_per_word,
    thm4_per_coset,
    thm6_per_word,
)
from seqlab import adic, cli, generators, maxorder, numtheory
from seqlab.adic import adic_min
from seqlab.cli import _reports_text, _scan_text
from seqlab.errors import BoundExceeded, InvalidParameter, NotEllModulus
from seqlab.generators import SeqSpec, PolySpec, fcsr_word, legendre_period, IDENTITY
from seqlab.maxorder import moc
from seqlab.relations import (
    CLAIM_SUITES,
    CLAIMS,
    conjecture_scan,
    cor1_suite,
    grid_points,
    lemma1_suite,
    lemma3_scan,
    msequence_suite,
    reproduce_table,
    run_all,
    run_claim,
    thm1_suite,
    thm2_suite,
    thm4_suite,
    thm5_suite,
    thm6_suite,
    verify_cor1,
    verify_lemma1,
    verify_lowerbound,
    verify_msequence,
    verify_thm1,
    verify_thm2,
    verify_thm4,
    verify_thm5,
    verify_thm6,
)
from seqlab.maxorder import moc_profile
from seqlab.seqcore import PeriodicSequence, Profile, Word


def random_word(rng, length):
    return Word(bytes(rng.getrandbits(1) for _ in range(length)))


def test_verify_thm1_passes():
    rng = random.Random(50)
    for w in [random_word(rng, 64) for _ in range(10)]:
        rep = verify_thm1(w)
        assert rep.ok(), rep
        assert rep.evidence["tight_slack"] >= 0


def test_thm1_bound_is_not_the_power_form():
    # M <= ceil(log2 mu) + 1 holds with equality here, while mu >= 2^(M-1)
    # would need mu >= 8.
    w = Word.from01("010100")
    assert moc(w).m == 4
    assert adic_min(w, 6).mu == 7
    rep = verify_thm1(w)
    assert rep.ok()
    assert (rep.evidence["tight_moc"], rep.evidence["tight_mu"], rep.evidence["tight_slack"]) == (4, 7, 0)


def test_verify_thm1_fail_path(monkeypatch):
    # Inflate the reported nonlinear order so the bound must break.
    w = Word.from01("0110100110010110")
    monkeypatch.setattr(
        relations.maxorder, "moc_profile", lambda _: Profile(tuple(range(10, 26)))
    )
    rep = verify_thm1(w)
    assert rep.status == "fail"
    assert "word" in rep.evidence and "N" in rep.evidence


def test_verify_cor1_passes():
    rng = random.Random(51)
    for w in [random_word(rng, 48) for _ in range(10)]:
        rep = verify_cor1(w)
        assert rep.ok(), rep


def test_verify_cor1_fail_path(monkeypatch):
    # Deflate the reported rational size; the exact inequality must break.
    from types import SimpleNamespace

    w = Word.from01("01100111")
    monkeypatch.setattr(
        relations.adic, "adic_min", lambda _, n: SimpleNamespace(mu=1)
    )
    rep = verify_cor1(w)
    assert rep.status == "fail"
    assert "word" in rep.evidence


def test_verify_thm2_exhaustive_small():
    for T in range(1, 7):
        for v in range(1 << T):
            w = Word(bytes((v >> i) & 1 for i in range(T)))
            s = PeriodicSequence(w)
            if s.T != T:
                continue
            assert verify_thm2(s).ok()


def test_periodic_measures_read_the_least_period():
    # A sequence built from any period word gives its least period's values:
    # every word up to 12 bits, and (0^40 1)^k, whose windows tie past 60
    # bits. A period trusted as least gave a wrong T or an error here.
    words = [bytes((v >> i) & 1 for i in range(n)) for n in range(1, 13) for v in range(1 << n)]
    words += [(bytes(40) + b"\x01") * k for k in (2, 3)]
    repeated = 0
    for bits in words:
        d = least_period_by_divisors(bits)
        s = PeriodicSequence(Word(bits))
        assert s.T == d and s.word.bits == bits[:d], bits
        if d == len(bits):
            continue
        repeated += 1
        least = PeriodicSequence(Word(bits[:d]))
        assert maxorder.moc_periodic(s) == maxorder.moc_periodic(least), bits
        assert adic.connection(s) == adic.connection(least), bits
        assert adic.phi2_symmetric(s) == adic.phi2_symmetric(least), bits
        assert verify_thm2(s) == verify_thm2(least), bits
        assert verify_lemma1(s) == verify_lemma1(least), bits
    assert repeated == 160
    s = PeriodicSequence(Word((bytes(40) + b"\x01") * 3))
    assert (s.T, maxorder.moc_periodic(s), verify_thm2(s).evidence["T"]) == (41, 40, 41)


def test_verify_lemma1_counterexample_period():
    s = PeriodicSequence(Word.from01("01001"))
    rep = verify_lemma1(s)
    assert rep.ok()
    assert rep.evidence["mu_2T"] == 22
    assert rep.evidence["gap_at_2T"] is True


def test_verify_thm4_and_thm5():
    assert verify_thm4(31).ok()
    assert verify_thm4(9).ok()
    rep = verify_thm5(11)
    assert rep.ok()
    assert verify_thm5(9).evidence["floor_case"] is True
    assert verify_thm5(11).evidence["floor_case"] is False


def test_coset_reps_are_the_least_member_of_each_coset():
    # one coset per negated pair, the lesser one, standing for both
    for q in list(range(3, 258, 2)) + [511, 997, 999]:
        least = {min(coset_orbit(a, q)) for a in range(1, q) if math.gcd(a, q) == 1}
        reps = list(relations._coset_reps(q))
        n = 1 if q - 1 in coset_orbit(1, q) else 2
        assert {k for _, k in reps} == {n}, q
        firsts = [orbit[0] for orbit, _ in reps]
        partners = [min(q - u for u in orbit) for orbit, _ in reps]
        assert firsts == sorted(firsts), q
        if n == 1:
            assert partners == firsts and set(firsts) == least, q
        else:
            assert all(a < b for a, b in zip(firsts, partners)), q
            assert sorted(firsts + partners) == sorted(least), q
        for orbit, _ in reps:
            assert orbit == [orbit[0] * pow(2, k, q) % q for k in range(len(orbit))], q
            assert set(orbit) == coset_orbit(orbit[0], q), q


def _carry_moc(a, q, T):
    return maxorder.moc_periodic(PeriodicSequence(Word(bytes(carry_register_bits(a, q, T)))))


def test_negated_cosets_agree_on_both_sides_of_thm4():
    # The identities the paired walk rests on, on every coset of every odd
    # q <= 1000, each one aH or -aH of a walked orbit: the carry word of
    # q - a is the complement of that of a, and the negated orbit has the
    # same width and M.
    flip = bytes.maketrans(b"\x00\x01", b"\x01\x00")
    for q in range(3, 1001, 2):
        for orbit, _ in relations._coset_reps(q):
            a, T = orbit[0], len(orbit)
            word = generators._fcsr_prefix(a, q, T).bits
            negated = generators._fcsr_prefix(q - a, q, T).bits
            assert negated == word.translate(flip), (q, a)
            width = maxorder._orbit_width(orbit, q)
            assert maxorder._orbit_width([q - u for u in orbit], q) == width, (q, a)
            m = maxorder.moc_periodic(PeriodicSequence(Word(word)))
            assert maxorder.moc_periodic(PeriodicSequence(Word(negated))) == m, (q, a)


def test_thm4_suite_matches_per_coset_referee():
    assert _rows(thm4_suite(1000)) == thm4_per_coset(1000, maxorder._orbit_width, _carry_moc)


def test_thm4_suite_fails_on_the_per_coset_referee_coset(monkeypatch):
    # A fault constant on negated pairs: M + 1 on the carry words with M = 4
    # and q = 127, whose cosets with least members 5 and 7 have width 4.
    real = maxorder.moc_periodic
    monkeypatch.setattr(
        maxorder, "moc_periodic", lambda s: real(s) + (real(s) == 4 and adic.connection(s).q == 127)
    )
    rows = _rows(thm4_suite(151))
    assert rows == thm4_per_coset(151, maxorder._orbit_width, _carry_moc)
    assert [r[1] for r in rows if r[2] == "fail"] == ["q=127"]
    assert rows[62][3] == {"q": 127, "A": 5, "from_coset": 4, "from_word": 5}


def test_thm4_walks_each_coset_once(monkeypatch):
    # T and units come from the walks; the width from each walked orbit.
    for q in range(3, 1001, 2):
        rep = verify_thm4(q)
        assert rep.ok(), q
        assert rep.evidence["T"] == numtheory.multiplicative_order(2, q), q
        assert rep.evidence["units"] == numtheory.euler_phi(q), q
    for q in (9, 51, 63, 217, 341, 999):
        for orbit, _ in relations._coset_reps(q):
            assert maxorder._orbit_width(orbit, q) == coset_width(orbit[0], q)
            assert maxorder.moc_from_coset(orbit[0], q) == coset_width(orbit[0], q)
    for name in ("multiplicative_order", "euler_phi"):
        monkeypatch.setattr(numtheory, name, lambda *_: pytest.fail("per-coset number theory"))
    monkeypatch.setattr(maxorder, "_orbit", lambda *_: pytest.fail("second orbit walk"))
    assert [r.ok() for r in thm4_suite(101)] == [True] * 50


def test_lemma3_scan_hits():
    rep = lemma3_scan(30)
    assert rep.ok()
    assert rep.evidence["hits"] == [3, 5, 9]
    assert rep.evidence["rejected"] == [[17, 8], [257, 16], [65537, 32]]
    from seqlab.errors import BoundExceeded

    with pytest.raises(BoundExceeded):
        lemma3_scan(2)
    with pytest.raises(BoundExceeded):
        lemma3_scan(41)


def test_lemma3_mutation(monkeypatch):
    monkeypatch.setattr(relations, "LEMMA3_EXPECTED", (3, 5, 7))
    assert lemma3_scan(30).status == "fail"


def test_verify_thm6():
    rep = verify_thm6(6)
    assert rep.ok()
    rep8 = verify_thm6(8)
    assert rep8.ok()
    assert rep8.evidence["example"] == {"word": "00100100", "moc": 6, "q": 85}
    assert rep8.evidence["extremal_words"] == 32


def test_thm6_mutation(monkeypatch):
    monkeypatch.setattr(relations, "THM6_EXAMPLE", ("00100100", 6, 87))
    assert verify_thm6(8).status == "fail"


def _moc_of(bits):
    return maxorder.moc_periodic(PeriodicSequence(Word(bytes(bits))))


def _q_of(bits):
    return adic.connection(PeriodicSequence(Word(bytes(bits)))).q


def _rows(reports):
    return [(r.claim_id, r.instance, r.status, r.evidence) for r in reports]


def test_periodic_suites_match_per_word_referee():
    assert _rows(thm2_suite(12)) == thm2_per_word(12, _moc_of, _q_of)
    assert _rows(thm6_suite(14)) == thm6_per_word(14, _moc_of, _q_of)


def test_extremal_classes_never_hold_both_00_and_11():
    # verify_thm6 computes M only on classes without both 00 and 11
    # cyclically: M <= T - 2 on the others. Checked to T = 20 in long mode.
    for T in range(2, (21 if os.environ.get("SEQLAB_LONG") == "1" else 17)):
        both = 0
        for s in relations._rotation_classes(T):
            cyclic = s.word.bits + s.word.bits[:1]
            if b"\0\0" in cyclic and b"\1\1" in cyclic:
                both += 1
                assert maxorder.moc_periodic(s) <= T - 2, s
        assert (both > 0) == (T >= 4), T


def test_periodic_suites_fail_on_the_per_word_referee_word(monkeypatch):
    # A fault constant on rotation classes: M + 2 on the words with q = 51
    # (T = 8, where M is 4 or 5 and ceil(log2 q) = 6) fails thm2 and thm6.
    real = maxorder.moc_periodic
    monkeypatch.setattr(
        maxorder, "moc_periodic", lambda s: real(s) + 2 * (adic.connection(s).q == 51)
    )
    thm2, thm6 = _rows(thm2_suite(12)), _rows(thm6_suite(12))
    assert thm2 == thm2_per_word(12, _moc_of, _q_of)
    assert thm6 == thm6_per_word(12, _moc_of, _q_of)
    assert [r[1] for r in thm2 if r[2] == "fail"] == ["exhaustive T=8"]
    assert [r[1] for r in thm6 if r[2] == "fail"] == ["T=8"]
    assert thm2[7][3]["word"] == thm6[6][3]["word"] == "10100000"


def _moebius(n):
    mu = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def test_rotation_classes_are_least_rotations_counted_by_moebius():
    for T in range(1, 17):
        phases = []
        for s in relations._rotation_classes(T):
            bits = s.word.bits
            rotations = [sum(b << i for i, b in enumerate(bits[k:] + bits[:k])) for k in range(T)]
            assert all(rotations[0] < r for r in rotations[1:]), bits
            phases.append(rotations[0])
        assert phases == sorted(phases)
        least_period_T = sum(_moebius(d) * 2 ** (T // d) for d in range(1, T + 1) if T % d == 0)
        assert len(phases) * T == least_period_T, T


def test_tables_reproduce():
    for which in (1, 2):
        reports = reproduce_table(which)
        assert all(r.ok() for r in reports), reports
    t1 = reproduce_table(1)
    assert len(t1) == 8
    assert [r.instance for r in t1][:3] == ["q=3", "q=9", "q=27"]
    t2 = reproduce_table(2)
    assert len(t2) == 5


def test_table_mutations(monkeypatch):
    rows = list(relations.TABLE1_EXPECTED)
    q, T, c, m = rows[0]
    rows[0] = (q, T, c, m + 1)
    monkeypatch.setattr(relations, "TABLE1_EXPECTED", tuple(rows))
    bad = [r for r in reproduce_table(1) if r.status == "fail"]
    assert len(bad) == 1
    assert bad[0].instance == f"q={q}"
    assert bad[0].evidence["expected"] == [T, c, m + 1]
    assert bad[0].evidence["moc"] == m

    rows2 = list(relations.TABLE2_EXPECTED)
    q2, T2, c2, mset = rows2[0]
    rows2[0] = (q2, T2, c2, mset + (9,))
    monkeypatch.setattr(relations, "TABLE2_EXPECTED", tuple(rows2))
    bad2 = [r for r in reproduce_table(2) if r.status == "fail"]
    assert len(bad2) == 1 and bad2[0].instance == f"q={q2}"


def test_verify_lowerbound():
    assert verify_lowerbound("thue-morse", 300).ok()
    assert verify_lowerbound("rudin-shapiro", 300).ok()
    with pytest.raises(ValueError):
        verify_lowerbound("zeckendorf", 100)
    with pytest.raises(InvalidParameter):
        verify_lowerbound("thue-morse", 3)


def test_verify_msequence():
    rep = verify_msequence(4)
    assert rep.ok()
    assert rep.evidence["linear"] == 4
    assert rep.evidence["q"] == 2**15 - 1
    assert verify_msequence(1).status == "skipped"


def test_verify_msequence_natural_fail():
    # x^4 + x^2 + 1 is reducible, so the register cannot reach full period.
    rep = verify_msequence(4, taps=(0, 2))
    assert rep.status == "fail"
    assert rep.evidence["period"] == 6


def test_suites_all_pass():
    for reports in (
        thm1_suite(count=6, length=48),
        cor1_suite(count=6, length=32),
        thm2_suite(6),
        lemma1_suite(4),
        thm4_suite(51),
        thm5_suite(100),
        thm6_suite(6),
        msequence_suite(5),
    ):
        assert reports
        assert all(r.status in ("pass", "skipped") for r in reports), reports


def test_suite_instances_are_labeled():
    reports = thm1_suite(count=3, length=32)
    randoms = [r for r in reports if r.instance.startswith("random")]
    assert len(randoms) == 3
    assert all("seed=" in r.instance and "index=" in r.instance for r in randoms)


def test_claims_registry_covers_run_all():
    assert sorted(CLAIMS) == [
        "cor1",
        "lemma1",
        "lemma3",
        "lowerbound",
        "msequence",
        "thm1",
        "thm2",
        "thm4",
        "thm5",
        "thm6",
    ]
    reports = run_all()
    seen = {r.claim_id for r in reports}
    assert seen == set(CLAIMS)
    assert all(r.status in ("pass", "skipped") for r in reports)


def test_claim_table_drives_registry_and_caps(monkeypatch):
    assert set(CLAIM_SUITES) == set(CLAIMS)
    sized = {c: (r.flag, r.default, r.maximum) for c, r in CLAIM_SUITES.items() if r.flag}
    assert sized == {
        "lemma1": ("--exhaustive-T", 8, 16),
        "lowerbound": ("--nmax", 2000, 1_000_000),
        "thm2": ("--exhaustive-T", 10, 20),
        "thm6": ("--exhaustive-T", 12, 20),
    }
    calls = []
    monkeypatch.setitem(CLAIMS, "thm2", lambda t: calls.append(t) or [])
    run_claim("thm2")
    run_claim("thm2", 20)
    assert calls == [10, 20]
    with pytest.raises(BoundExceeded):
        run_claim("thm2", 21)
    assert calls == [10, 20]


def test_grid_points_shape():
    pts = grid_points(100)
    assert pts[:5] == [2, 3, 4, 5, 6]
    assert pts[-3:] == [64, 84, 100]
    assert pts == sorted(set(pts))
    assert grid_points(40) == list(range(2, 41))
    big = grid_points(5000)
    assert big[-1] == 5000
    for a, b in zip(big, big[1:]):
        assert b <= max(a + 1, math.ceil(a * 1.3))
    for n_max, ratio in ((1, 1.3), (10, 1.0)):
        with pytest.raises(InvalidParameter):
            grid_points(n_max, ratio)
    with pytest.raises(InvalidParameter):
        conjecture_scan(SeqSpec("thue-morse"), 10, c=0)


def test_conjecture_scan_families():
    rep = conjecture_scan(SeqSpec("thue-morse"), 64)
    assert rep.status == "pass"
    assert all(p.within for p in rep.points)
    assert rep.points[-1].n == 64

    zero = conjecture_scan(SeqSpec("zero"), 200)
    assert zero.status == "fail"
    assert not zero.worst().within

    spec = SeqSpec("legendre", params=(("p", 19),))
    leg = conjecture_scan(spec, 48)
    cap = math.log2(float(2**19 - 1))
    for p in leg.points:
        assert p.target == pytest.approx(min(p.n / 2, cap))
    assert leg.status == "pass"


def test_conjecture_scan_builds_legendre_once(monkeypatch):
    calls = []
    real = relations.generators.legendre_word

    def counting(p, f, n):
        calls.append((p, n))
        return real(p, f, n)

    monkeypatch.setattr(relations.generators, "legendre_word", counting)
    # SHA-256 of each scan's CSV as written before the scan built its word
    # from the period; nmax > p takes the word past one period.
    expected = {
        (("p", 1009),): "54c4696b8ac21de02533a95bb5c020f490f2ec94b91471535353599e876cddca",
        (("f", PolySpec((1, 0, 1))), ("p", 1009)): (
            "a7b13a91b53496b1c3596b6fc8081945e5f8e1f7278283949af267842b6b71d4"
        ),
    }
    for params, digest in expected.items():
        calls.clear()
        text = _scan_text(conjecture_scan(SeqSpec("legendre", params=params), 2500), "csv")
        assert calls == [(1009, 1009)]
        assert hashlib.sha256(text.encode()).hexdigest() == digest, params


def test_scan_target_uncapped_for_ell():
    # Only the quadratic-character family gets the finite-value cap; a
    # short-period register must drift off the n/2 line and fail.
    spec = SeqSpec("ell", params=(("A", 1), ("q", 11)))
    rep = conjecture_scan(spec, 400)
    assert rep.status == "fail"


def test_report_serialization_deterministic():
    reports = thm4_suite(101)
    a = _reports_text(reports, "csv")
    b = _reports_text(thm4_suite(101), "csv")
    assert a == b
    assert a.startswith("# seqlab-report-v1: claim_id,instance,status,evidence")
    ja = _reports_text(reports, "json")
    jb = _reports_text(thm4_suite(101), "json")
    assert ja == jb
    import json

    payload = json.loads(ja)
    assert payload[0]["claim_id"] == "thm4"


def test_scan_serialization_deterministic():
    rep = conjecture_scan(SeqSpec("thue-morse"), 40)
    a = _scan_text(rep, "csv")
    b = _scan_text(conjecture_scan(SeqSpec("thue-morse"), 40), "csv")
    assert a == b
    assert a.startswith("# seqlab-scan-v1: N,mu,log2_mu,target,deviation,within")
    assert "# status=pass" in a
    assert _scan_text(rep, "json") == _scan_text(conjecture_scan(SeqSpec("thue-morse"), 40), "json")


def test_run_all_deterministic():
    a = _reports_text(run_all(), "csv")
    b = _reports_text(run_all(), "csv")
    assert a == b


def _mu_of(bits, n):
    return adic_min(Word(bytes(bits)), n).mu


def test_lemma1_suite_matches_per_length_referee():
    # The suite reads 2T..2T+3 as one run; the referee runs adic_min at
    # each length.
    assert _rows(lemma1_suite(12)) == lemma1_per_length(12, _q_of, _mu_of)


def test_lemma1_suite_reports_a_failing_word_as_verify_lemma1_does(monkeypatch):
    # Words are read without a report each; a failing word's evidence is
    # the one verify_lemma1 gives it, under the suite's instance.
    real = adic.adic_mu
    bad = PeriodicSequence(Word.from01("0111"))

    def broken(w, ns):
        mus = real(w, ns)
        return mus[:1] + [m + 1 for m in mus[1:]] if w == bad.prefix(11) else mus

    monkeypatch.setattr(adic, "adic_mu", broken)
    reports = lemma1_suite(5)
    assert [r.status for r in reports] == ["pass"] * 4 + ["fail", "pass"]
    expected = verify_lemma1(bad)
    assert reports[4] == ("lemma1", "exhaustive T=4", "fail", expected.evidence)
    assert expected.status == "fail"


def test_thm5_suite_matches_the_public_verifier():
    assert thm5_suite(3000) == [verify_thm5(q) for q in maxorder.ell_moduli(3000)]
    for q in (7, 15, 17, 10_007):
        with pytest.raises((NotEllModulus, BoundExceeded)):
            verify_thm5(q)


def test_thm5_factorizes_each_modulus_once(monkeypatch):
    calls = []
    real = numtheory.factorize
    phis = {q: numtheory.euler_phi(q) for q in (11, 27, 9491)}

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(numtheory, "factorize", counting)
    monkeypatch.setattr(maxorder, "factorize", counting)
    for q, phi in phis.items():
        calls.clear()
        assert verify_thm5(q).ok()
        assert calls == [q, phi], q
    # The sieve knows each modulus as p^k, so the suite factorizes no
    # modulus, and phi(p^k) once for each prime power it tests: the ell
    # moduli and, per prime, at most the first power where 2 fails.
    calls.clear()
    moduli = maxorder.ell_moduli(10_000)
    tested = len(calls)
    calls.clear()
    reports = thm5_suite()
    assert len(reports) == len(moduli) == 494
    assert len(calls) == tested <= len(moduli) + sum(map(numtheory.is_prime, range(3, 10_001, 2)))
    assert all(n % 2 == 0 for n in calls)


def _thm1_referee(w, instance=None):
    m, mu = maxorder.moc_profile(w).values, adic.adic_profile(w).values
    return thm1_per_prefix(w.bits, lambda n: m[n - 1], lambda n: mu[n - 1], instance)


def test_thm1_matches_per_prefix_referee_exhaustive():
    # mu is read only where M changes; the report is the one a read at
    # every prefix gives, on every word up to 14 bits.
    for length in range(15):
        for v in range(1 << length):
            w = Word(bytes((v >> i) & 1 for i in range(length)))
            assert _rows([verify_thm1(w)]) == [_thm1_referee(w)], w.to01()


def test_thm1_matches_per_prefix_referee_on_failures(monkeypatch):
    # M raised by 3 from one length on fails the bound at a length that is
    # a run start only by the fault; the referee sees the same profile.
    rng = random.Random(52)
    words = [random_word(rng, rng.randrange(1, 90)) for _ in range(60)]
    real = maxorder.moc_profile
    for k in (1, 5, 20):
        def raised(w):
            return Profile(tuple(m + 3 * (n >= k) for n, m in enumerate(real(w).values, 1)))

        monkeypatch.setattr(maxorder, "moc_profile", raised)
        fails = 0
        for w in words:
            rep = verify_thm1(w)
            assert _rows([rep]) == [_thm1_referee(w)], (k, w.to01())
            fails += rep.status == "fail"
        assert fails > 0, k


def _lowerbound_rows(family, n_max, moc, mu):
    start, d = relations.LOWERBOUND_FAMILIES[family]
    return lowerbound_per_prefix(family, start, d, n_max, lambda n: moc[n - 1], lambda n: mu[n - 1])


def test_lowerbound_matches_per_prefix_referee():
    rng = random.Random(53)
    for family, (start, _) in relations.LOWERBOUND_FAMILIES.items():
        w = generators.materialize(SeqSpec(family), 32000)
        moc, mu = moc_profile(w).values, adic.adic_profile(w).values
        sampled = sorted(rng.sample(range(301, 32001), 8)) + [32000]
        for n_max in [*range(start, 301), *sampled]:
            rep = verify_lowerbound(family, n_max)
            assert _rows([rep]) == [_lowerbound_rows(family, n_max, moc, mu)], (family, n_max)


def test_lowerbound_matches_per_prefix_referee_on_failures(monkeypatch):
    # Smaller denominators fail the d*M > N leg, often between the lengths
    # where M rises, where mu is read for the evidence alone; M raised by
    # 100 from one length on fails the mu leg.
    real = maxorder.moc_profile
    for family, (start, d) in list(relations.LOWERBOUND_FAMILIES.items()):
        w = generators.materialize(SeqSpec(family), 300)
        moc, mu = real(w).values, adic.adic_profile(w).values
        seen = set()
        for d_bad in range(2, d):
            monkeypatch.setitem(relations.LOWERBOUND_FAMILIES, family, (start, d_bad))
            for n_max in range(start, 301):
                rep = verify_lowerbound(family, n_max)
                assert _rows([rep]) == [_lowerbound_rows(family, n_max, moc, mu)], (d_bad, n_max)
                if rep.status == "fail":
                    seen.add(moc[rep.evidence["N"] - 2] == rep.evidence["moc"])
        assert seen == {True, False}, family
        monkeypatch.setitem(relations.LOWERBOUND_FAMILIES, family, (start, d))
        raised = tuple(m + 100 * (n >= 100) for n, m in enumerate(moc, 1))
        monkeypatch.setattr(maxorder, "moc_profile", lambda w: Profile(raised[: len(w)]))
        rep = verify_lowerbound(family, 300)
        assert rep.status == "fail" and rep.evidence["N"] == 100
        assert _rows([rep]) == [_lowerbound_rows(family, 300, raised, mu)]
        monkeypatch.setattr(maxorder, "moc_profile", real)


def test_mu_read_one_length_late_is_caught(monkeypatch):
    # A reader that answers for each length with mu one length later must
    # break the comparisons with the per-length referees.
    rng = random.Random(54)
    words = [random_word(rng, 24) for _ in range(20)]
    thm1_rows = [_thm1_referee(w) for w in words]
    real = adic.adic_mu

    def late(w, ns):
        # One length per call: shifted lengths repeat at the word's end,
        # which adic_mu refuses.
        return [real(w, [min(n + 1, len(w))])[0] for n in ns]

    monkeypatch.setattr(adic, "adic_mu", late)
    assert [row for w in words for row in _rows([verify_thm1(w)])] != thm1_rows
    assert _rows(lemma1_suite(4)) != lemma1_per_length(4, _q_of, _mu_of)


def test_conjecture_scan_head_is_one_euclid(monkeypatch):
    calls = []
    real = adic._checked_rows
    monkeypatch.setattr(adic, "_checked_rows", lambda *args: calls.append(args[0]) or real(*args))
    rep = conjecture_scan(SeqSpec("rudin-shapiro"), 200)
    assert [p.n for p in rep.points] == grid_points(200)
    assert calls == [2, 84, 110, 143, 186, 200]
    w = generators.materialize(SeqSpec("rudin-shapiro"), 200)
    assert [p.mu for p in rep.points] == [adic_min(w, n).mu for n in grid_points(200)]


def test_verify_outputs_pinned():
    # SHA-256 of the verify all CSV and the lemma1 CSV at --exhaustive-T 10,
    # recorded when every claim read mu at every length it names (adic_min
    # per length in lemma1, adic_profile at every prefix in thm1 and
    # lowerbound) and thm4 walked each coset three times.
    expected = {
        None: "9961bfd9617140459acc93e7f3779ca142a110f11b0e7284ad8e8a7c9aafb8ca",
        ("lemma1", 10): "23a4e7fca4dd2568996e2d0dea05f6ae78233e081f97cdaf5d1638614974d6fc",
    }
    for key, digest in expected.items():
        reports = run_all() if key is None else run_claim(*key)
        assert hashlib.sha256(_reports_text(reports, "csv").encode()).hexdigest() == digest, key


def test_lowerbound_cap_is_the_bit_cap():
    assert CLAIM_SUITES["lowerbound"].maximum == cli.MAX_BITS
