"""Acceptance gate: one test per release criterion, run with pytest -v.

Every check here is exact integer arithmetic unless the criterion itself
names a tolerance. Nothing is loosened to pass: a red line in this module
means the build is not releasable.
"""

import math
import os
import random
import time

import pytest

import seqlab.relations as relations
from seqlab.adic import adic_min, adic_oracle, connection
from seqlab.cli import _reports_text, _scan_text
from seqlab.generators import SeqSpec, fcsr_word, lfsr_period, thue_morse_word
from seqlab.maxorder import moc, moc_oracle, moc_periodic
from seqlab.measures import expansion_complexity, linear_profile
from seqlab.numtheory import ceil_log2, is_prime
from seqlab.relations import (
    conjecture_scan,
    lemma1_suite,
    lemma3_scan,
    reproduce_table,
    run_all,
    thm1_suite,
    thm2_suite,
    thm4_suite,
    thm5_suite,
    thm6_suite,
    verify_lowerbound,
)
from seqlab.seqcore import PeriodicSequence, Word, prefix_value

TABLE1_FROZEN = (
    (3, 2, 2, 1),
    (9, 6, 4, 3),
    (27, 18, 5, 5),
    (5, 4, 3, 2),
    (625, 500, 10, 10),
    (19, 18, 5, 5),
    (361, 342, 9, 9),
    (6859, 6498, 13, 13),
)

TABLE2_FROZEN = (
    (51, 8, 6, (4, 5)),
    (63, 6, 6, (3, 4, 5)),
    (65, 12, 7, (4, 6)),
    (93, 10, 7, (4, 5, 6)),
    (217, 15, 8, (5, 6, 7, 8)),
)

FCSR_FROZEN = (
    ((3, 31), "11000", 3),
    ((5, 31), "10100", 4),
    ((37, 127), "1010010", 6),
    ((173, 255), "10110101", 7),
)


def test_criterion_01_table1_exact():
    """All 8 single-coset rows reproduce (T, ceil(log2 q), M) exactly."""
    start = time.time()
    assert relations.TABLE1_EXPECTED == TABLE1_FROZEN
    reports = reproduce_table(1)
    assert len(reports) == 8
    for rep, (q, T, c, m) in zip(reports, TABLE1_FROZEN):
        assert rep.ok(), rep
        assert rep.instance == f"q={q}"
        assert rep.evidence["T"] == T
        assert rep.evidence["ceil_log2_q"] == c
        assert rep.evidence["moc"] == m
        floor_expected = q in (3, 9, 5)
        assert rep.evidence["floor_remark"] is floor_expected
        if floor_expected:
            assert m == c - 1
    assert time.time() - start < 120


def test_criterion_02_table2_exact():
    """The five multi-coset rows reproduce their full M-value sets."""
    start = time.time()
    assert relations.TABLE2_EXPECTED == TABLE2_FROZEN
    reports = reproduce_table(2)
    assert len(reports) == 5
    for rep, (q, T, c, mset) in zip(reports, TABLE2_FROZEN):
        assert rep.ok(), rep
        assert rep.instance == f"q={q}"
        assert tuple(rep.evidence["moc_set"]) == mset
    assert time.time() - start < 60


def test_criterion_03_fcsr_fixtures():
    """The four worked register examples are bit-exact with their M and q."""
    for (a, q), bits, m in FCSR_FROZEN:
        s = fcsr_word(a, q)
        assert s.word.to01() == bits, (a, q)
        assert moc_periodic(s) == m, (a, q)
        rep = connection(s)
        assert (rep.A, rep.q) == (a, q)


def test_criterion_04_counterexample_period():
    """Period 01001: mu(11) = 31 exactly, mu(10) <= 22 via an admissible
    witness, and the exhaustive oracle confirms adic_min at N = 10."""
    w = PeriodicSequence.from_word(Word.from01("01001")).prefix(11)
    m11 = adic_min(w, 11)
    assert m11.mu == 31
    # Witness admissibility: q odd, q * S stays f mod 2^10, size max(|f|,|q|).
    s10 = prefix_value(w, 10)
    f, q = 22, 19
    assert q % 2 == 1
    assert (q * s10 - f) % (1 << 10) == 0
    assert max(abs(f), abs(q)) == 22
    m10 = adic_min(w, 10)
    assert m10.mu <= 22
    oracle10 = adic_oracle(w, 10)
    assert oracle10.mu == 22
    assert m10 == oracle10


def test_criterion_05_oracle_equivalence():
    """Engine vs oracle: exhaustive length 16, and random batteries."""
    for v in range(1 << 16):
        w = Word(bytes((v >> i) & 1 for i in range(16)))
        assert moc(w).m == moc_oracle(w).m, v
    rng = random.Random(271828)
    for _ in range(1000):
        w = Word(bytes(rng.getrandbits(1) for _ in range(500)))
        assert moc(w).m == moc_oracle(w).m, w.to01()
    for n in (8, 12, 16, 18):
        for _ in range(200):
            w = Word(bytes(rng.getrandbits(1) for _ in range(n)))
            assert adic_min(w, n) == adic_oracle(w, n), (w.to01(), n)


def test_criterion_06_theorem_suites():
    """Every proved-claim suite passes at its release bounds, zero failures."""
    suites = {
        "thm1": thm1_suite(count=100, length=128),
        "thm2": thm2_suite(10),
        "lemma1": lemma1_suite(8),
        "thm4": thm4_suite(1000),
        "thm5": thm5_suite(10_000),
        "lemma3": [lemma3_scan(30)],
        "thm6": thm6_suite(12),
    }
    for name, reports in suites.items():
        assert reports, name
        bad = [r for r in reports if r.status == "fail"]
        assert not bad, (name, bad[:2])
    assert any(r.instance == "thue-morse len=256" for r in suites["thm1"])
    assert suites["lemma3"][0].evidence["hits"] == [3, 5, 9]
    t8 = next(r for r in suites["thm6"] if r.instance == "T=8")
    assert t8.evidence["example"] == {"word": "00100100", "moc": 6, "q": 85}


def test_criterion_07_lower_bounds_desk_scale():
    """ceil(log2 mu) >= M - 1 > N/5 - 1 for the parity family from N = 6,
    and the k = 2 bound N/6 from N = 25, both out to N = 2000, exactly."""
    tm = verify_lowerbound("thue-morse", 2000)
    assert tm.ok(), tm
    rs = verify_lowerbound("rudin-shapiro", 2000)
    assert rs.ok(), rs
    assert relations.LOWERBOUND_FAMILIES["thue-morse"] == (6, 5)
    assert relations.LOWERBOUND_FAMILIES["rudin-shapiro"] == (25, 6)
    # Spot-check the chain with raw integers at one point per family.
    from seqlab.adic import adic_profile
    from seqlab.maxorder import moc_profile

    w = thue_morse_word(2000)
    n = 1999
    m = moc_profile(w).at(n)
    mu = adic_profile(w).at(n)
    assert ceil_log2(mu) >= m - 1
    assert 5 * m > n


def test_criterion_08_conjecture_scans():
    """Both parity families track N/2 within 8 log2 N to 5000; the
    quadratic-character family tracks min(N/2, log2(2^p - 1))."""
    for family in ("thue-morse", "rudin-shapiro"):
        rep = conjecture_scan(SeqSpec(family), 5000)
        assert rep.status == "pass", (family, rep.worst())
        assert rep.points[-1].n == 5000
        for p in rep.points:
            assert p.within
            assert abs(p.log2_mu - p.n / 2) <= 8 * math.log2(p.n) + 1e-9
    from seqlab.numtheory import int_log2

    for p in (19, 101, 1999):
        spec = SeqSpec("legendre", params=(("p", p),))
        rep = conjecture_scan(spec, 2 * p + 3)
        assert rep.status == "pass", (p, rep.worst())
        cap = int_log2(2**p - 1)
        for pt in rep.points:
            assert pt.target == pytest.approx(min(pt.n / 2, cap), abs=1e-9)


LONG_MODE = os.environ.get("SEQLAB_LONG") == "1"


@pytest.mark.skipif(
    not LONG_MODE,
    reason="full-range scans (N = 10^6, p < 50000) take about 2 minutes; "
    "set SEQLAB_LONG=1 to opt in, SEQLAB_LONG_NMAX / SEQLAB_LONG_PMAX to trim",
)
def test_criterion_08_long_mode_full_ranges():
    """Opt-in full-range rerun of the conjecture scans."""
    n_max = int(os.environ.get("SEQLAB_LONG_NMAX", "1000000"))
    p_max = int(os.environ.get("SEQLAB_LONG_PMAX", "50000"))
    for family in ("thue-morse", "rudin-shapiro"):
        rep = conjecture_scan(SeqSpec(family), n_max)
        assert rep.status == "pass", (family, rep.worst())
    for p in range(3, p_max, 2):
        if not is_prime(p):
            continue
        rep = conjecture_scan(SeqSpec("legendre", params=(("p", p),)), 2 * p + 3)
        assert rep.status == "pass", (p, rep.worst())


def test_criterion_09_cross_measure_facts():
    """Register fixtures tie the measures together exactly."""
    mseq = lfsr_period((0, 1), (1, 0, 0, 0))
    assert mseq.T == 15
    prefix = mseq.prefix(30)
    assert linear_profile(prefix).at(30) == 4
    assert connection(mseq).q == 2**15 - 1

    ell = fcsr_word(1, 11)
    assert linear_profile(ell.prefix(2 * ell.T)).at(2 * ell.T) == 6 == (11 + 1) // 2

    tm100 = thue_morse_word(100)
    e_tm = expansion_complexity(tm100, 100)
    assert e_tm is not None and e_tm <= 5

    fixtures = [
        prefix,
        ell.prefix(20),
        fcsr_word(3, 31).prefix(9),
        fcsr_word(173, 255).prefix(15),
        tm100,
    ]
    for w in fixtures:
        n = len(w)
        L = linear_profile(w).at(n)
        m = moc(w).m
        e = expansion_complexity(w, n)
        assert m <= L, w.to01()
        assert e is not None
        assert e <= min(L + 1, n + 2 - L), (w.to01(), L, e)


def test_criterion_10_byte_identical_reruns():
    """Two consecutive full verification runs serialize identically."""
    first = run_all()
    second = run_all()
    assert _reports_text(first, "csv") == _reports_text(second, "csv")
    assert _reports_text(first, "json") == _reports_text(second, "json")
    for which in (1, 2):
        assert _reports_text(reproduce_table(which), "csv") == _reports_text(
            reproduce_table(which), "csv"
        )
    scan_a = _scan_text(conjecture_scan(SeqSpec("thue-morse"), 300), "csv")
    scan_b = _scan_text(conjecture_scan(SeqSpec("thue-morse"), 300), "csv")
    assert scan_a == scan_b
