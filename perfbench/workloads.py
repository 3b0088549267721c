"""The four workloads: seqlab CLI invocations built from a seed, each with
the check its output must pass.

Every workload is a fixed list of operations (one round). A run repeats the
round, so each round attempts the same operations and any operation that
fails, fails in every round.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import oracles as ref


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[str], None]


@dataclass
class Workload:
    ops: list[Op]
    # (op index, regex): the self-test adds 1 to the matched number in that
    # op's output and expects the op's check to reject it
    corrupt: tuple[int, str]
    # growth exponent name -> (layer, op label at N, op label at 2N) pairs
    doubling: dict[str, tuple[str, list[tuple[str, str]]]] = field(default_factory=dict)


SMALL_MU = 20  # brute-force 2-adic search up to this length
SMALL_MOC = 24
SMALL_CORR = 16
SMALL_EXPANSION = 48

FAMILY_BITS = {"thue-morse": ref.thue_morse, "rudin-shapiro": ref.rudin_shapiro}
# proved bounds d*M > N from the first N on
LOWER = {"thue-morse": (6, 5), "rudin-shapiro": (25, 6)}


def small_mu(bits: list[int]) -> list[int]:
    return [ref.adic_mu(bits, n) for n in range(1, min(SMALL_MU, len(bits)) + 1)]


def scan(seed: int, out: Path) -> Workload:
    """Thue-Morse and Rudin-Shapiro on a doubling ladder of nmax to 10^4."""
    rng = random.Random(seed)
    base = 1250 + rng.randrange(8)
    c = rng.randrange(12, 21) / 2  # tolerance multiplier 6.0 .. 10.0
    ratio = rng.randrange(120, 141) / 100  # grid ratio 1.20 .. 1.40
    ops = []
    for fam, bits_of in FAMILY_BITS.items():
        bits = bits_of(SMALL_MU)
        for k in range(4):
            n = base << k
            check = functools.partial(
                checks.scan, seq=fam, n_max=n, c=c, ratio=ratio, small_mu=small_mu(bits), lower=LOWER[fam]
            )
            argv = ["scan", "--seq", fam, "--nmax", str(n), "--c", str(c), "--grid-ratio", str(ratio)]
            ops.append(Op(f"{fam}@{n}", argv, check))
    top = [(f"{fam}@{base << 2}", f"{fam}@{base << 3}") for fam in FAMILY_BITS]
    return Workload(ops, (0, r"^16,(\d+),"), {"adic.growth_exp": ("adic", top)})


def _legendre_ops(p: int, with_scan: bool) -> list[Op]:
    bits = ref.legendre(p, p)
    a, q = ref.connection_q(bits)
    q_rev = ref.connection_q(bits[::-1])[1]
    seq = f"legendre:p={p}"
    ops = []
    if with_scan:
        check = functools.partial(
            checks.scan, seq=seq, n_max=p, c=8.0, ratio=1.3, small_mu=small_mu(bits), cap=math.log2(q)
        )
        ops.append(Op(f"scan {seq}", ["scan", "--seq", seq, "--nmax", str(p)], check))
    check = functools.partial(checks.periodic, T=p, A=a, q=q, q_rev=q_rev)
    ops.append(Op(f"periodic {seq}", ["periodic", "--seq", seq], check))
    return ops


def legendre(seed: int, out: Path) -> Workload:
    """One prime from each width-200 stratum of [1000, 6000), scanned to
    N = p and summarized as a periodic sequence; plus p = 20011, whose
    q has more decimal digits than Python will print."""
    rng = random.Random(seed)
    ops = []
    for lo in range(1000, 6000, 200):
        p = rng.choice([x for x in range(lo, lo + 200) if ref.is_prime(x)])
        ops += _legendre_ops(p, with_scan=True)
    ops += _legendre_ops(20011, with_scan=False)
    return Workload(ops, (1, r"^\d+,\d+,(\d+),"))


def write_bits(bits: list[int], path: Path) -> None:
    """The bit-file format: '0'/'1', 64 per line, newline-terminated."""
    text = "".join(map(str, bits))
    path.write_text("".join(text[i : i + 64] + "\n" for i in range(0, len(text), 64)), encoding="ascii")


def profiles(seed: int, out: Path) -> Workload:
    """Per-prefix profiles of structured, random and constant words."""
    rng = random.Random(seed)
    n = 5000
    rand = [rng.getrandbits(1) for _ in range(n)]
    path = out / f"random-{seed}.bits"
    write_bits(rand, path)
    rand_seq = f"file:path={path.as_posix()}"
    default = ["moc", "mu", "log2_mu", "linear"]
    words = [
        ("thue-morse", ref.thue_morse(SMALL_MOC), n),
        ("rudin-shapiro", ref.rudin_shapiro(SMALL_MOC), n),
        ("legendre:p=10007", ref.legendre(10007, SMALL_MOC), n),
        (rand_seq, rand[:SMALL_MOC], n),
        ("zero", [0] * SMALL_MOC, n // 2),
        ("zero", [0] * SMALL_MOC, n),
    ]
    ops = []
    for seq, bits, nmax in words:
        small = {"mu": small_mu(bits), "moc": [ref.moc(bits[:k]) for k in range(1, SMALL_MOC + 1)]}
        check = functools.partial(
            checks.analyze, seq=seq, columns=default, n_max=nmax, small=small,
            zero=seq == "zero", lower=LOWER.get(seq),
        )
        label = f"analyze {'random' if seq == rand_seq else seq}@{nmax}"
        ops.append(Op(label, ["analyze", "--seq", seq, "--nmax", str(nmax)], check))
    corr = [ref.corr2(rand[:k]) for k in range(1, SMALL_CORR + 1)]
    for nmax in (128, 256):
        check = functools.partial(
            checks.analyze, seq=rand_seq, columns=["corr2"], n_max=nmax, small={"corr2": corr}
        )
        argv = ["analyze", "--seq", rand_seq, "--nmax", str(nmax), "--measures", "correlation"]
        ops.append(Op(f"correlation random@{nmax}", argv, check))
    tm = ref.thue_morse(SMALL_EXPANSION)
    expn = [ref.expansion(tm, k) for k in range(1, SMALL_EXPANSION + 1)]
    check = functools.partial(
        checks.analyze, seq="thue-morse", columns=["expansion"], n_max=1000,
        small={"expansion": [math.inf if e is None else e for e in expn]},
    )
    ops.append(Op("expansion thue-morse@1000", ["analyze", "--seq", "thue-morse", "--nmax", "1000",
                                                 "--measures", "expansion"], check))
    return Workload(
        ops,
        (0, r"^1000,\d+,\d+,[\d.]+,(\d+)$"),
        {
            "maxorder.growth_exp": ("maxorder", [(f"analyze zero@{n // 2}", f"analyze zero@{n}")]),
            "measures.correlation_growth_exp": ("measures", [("correlation random@128", "correlation random@256")]),
        },
    )


TABLE1_Q = (3, 9, 27, 5, 625, 19, 361, 6859)
TABLE2_Q = (51, 63, 65, 93, 217)
CLAIMS = {"cor1", "lemma1", "lemma3", "lowerbound", "msequence", "thm1", "thm2", "thm4", "thm5", "thm6"}
# r = 14 m-sequence: x^14 + x^10 + x^6 + x + 1
MSEQ_TAPS = (0, 1, 6, 10)
MSEQ_SEED = (1,) + (0,) * 13


def _exhaustive(claim: str, lo: int, t_max: int) -> list[tuple[str, str]]:
    return [(claim, f"exhaustive T={t}") for t in range(lo, t_max + 1)]


def _table1() -> dict[int, dict]:
    rows = {}
    for q in TABLE1_Q:
        m = ref.moc_periodic(ref.fcsr(1, q))
        if m != ref.ell_moc(q):
            raise AssertionError(f"reference MOC {m} disagrees with the closed form at q={q}")
        rows[q] = {"T": ref.order2(q), "ceil_log2_q": ref.ceil_log2(q), "moc": m, "floor_remark": q in (3, 5, 9)}
    return rows


def _table2() -> dict[int, dict]:
    rows = {}
    for q in TABLE2_Q:
        values = {ref.moc_periodic(ref.fcsr(a, q)) for a in range(1, q) if math.gcd(a, q) == 1}
        rows[q] = {"T": ref.order2(q), "ceil_log2_q": ref.ceil_log2(q), "moc_set": sorted(values)}
    return rows


def verify(seed: int, out: Path) -> Workload:
    """Claim suites, both tables, and a sample of ell moduli below 3000
    (one from each run of four consecutive moduli); plus the r = 14
    m-sequence, whose q = 2^16383 - 1 has more digits than Python will print."""
    rng = random.Random(seed)
    suites = [
        Op("verify all", ["verify", "all"], functools.partial(checks.reports, claims=CLAIMS)),
        Op("verify thm2 T<=14", ["verify", "thm2", "--exhaustive-T", "14"],
           functools.partial(checks.reports, instances=_exhaustive("thm2", 1, 14))),
        Op("verify thm6 T<=14", ["verify", "thm6", "--exhaustive-T", "14"],
           functools.partial(checks.reports, instances=[("thm6", f"T={t}") for t in range(2, 15)])),
        Op("verify lemma1 T<=10", ["verify", "lemma1", "--exhaustive-T", "10"],
           functools.partial(checks.reports, instances=[("lemma1", "period 01001")] + _exhaustive("lemma1", 1, 10))),
        Op("tables 1", ["tables", "--which", "1"], functools.partial(checks.reports, table=_table1())),
        Op("tables 2", ["tables", "--which", "2"], functools.partial(checks.reports, table=_table2())),
    ]
    ops = []
    moduli = [q for q in range(3, 3000, 2) if ref.is_ell_modulus(q)]
    for i in range(0, len(moduli), 4):
        q = rng.choice(moduli[i : i + 4])
        bits = ref.fcsr(1, q)
        check = functools.partial(
            checks.periodic, T=ref.order2(q), A=1, q=q,
            q_rev=ref.connection_q(bits[::-1])[1], M=ref.ell_moc(q),
        )
        ops.append(Op(f"periodic ell:q={q}", ["periodic", "--seq", f"ell:q={q},A=1"], check))
    bits = ref.lfsr_period(MSEQ_TAPS, MSEQ_SEED)
    r = len(MSEQ_SEED)
    if len(bits) != (1 << r) - 1:
        raise AssertionError("the reference register is not maximal-period")
    a, q = ref.connection_q(bits)
    if q != (1 << len(bits)) - 1:
        raise AssertionError("the reference m-sequence has q != 2^T - 1")
    spec = f"lfsr:seed={'.'.join(map(str, MSEQ_SEED))},taps={'.'.join(map(str, MSEQ_TAPS))}"
    check = functools.partial(checks.periodic, T=(1 << r) - 1, A=a, q=q, L=r)
    ops.append(Op("periodic m-sequence r=14", ["periodic", "--seq", spec], check))
    # a group of the short periodic ops before each suite, so that op_p50_s
    # samples the machine at several times in a round, not in one burst
    order = [suites[i] for i in (0, 2, 1, 3, 4, 5)]  # verify all, thm6, thm2, lemma1, tables
    k = -(-len(ops) // len(order))
    ops = [op for i, suite in enumerate(order) for op in (*ops[i * k : (i + 1) * k], suite)]
    return Workload(ops, (ops.index(suites[1]), r'^thm2,exhaustive T=14,.*""words"":(\d+)'))


WORKLOADS = {"scan": scan, "legendre": legendre, "profiles": profiles, "verify": verify}
