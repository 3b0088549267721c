"""Checks of seqlab's CLI outputs against the reference computations in
oracles.py and against properties every correct output must have.

A check takes the text an operation wrote to stdout and raises Wrong at the
first value that is not right. Expected values are computed once, when the
workload is built, so a check costs a parse and a few comparisons.
"""

from __future__ import annotations

import csv
import json
import math
import re

from oracles import ceil_log2, grid, primitive_words


class Wrong(Exception):
    """An output value that contradicts a reference value or a property."""


def need(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def parse_int(text: str) -> int:
    """Decimal integer of any length.

    Python refuses int() on strings above its digit limit (4300 by default);
    the benchmark must not lift that limit, since the program under test runs
    in the same interpreter, so long strings are read in chunks.
    """
    digits = text[1:] if text.startswith("-") else text
    need(digits.isdigit(), f"not an integer: {text[:40]!r}")
    v = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        v = v * 10 ** len(chunk) + int(chunk)
    return -v if text.startswith("-") else v


def close(text: str, want: float, what: str) -> None:
    # values are printed with six decimals
    need(abs(float(text) - want) <= 1e-6, f"{what} = {text}, want {want:.6f}")


def split(text: str, header: str) -> tuple[list[str], list[list[str]]]:
    """Comment lines and CSV rows, after checking the versioned header."""
    lines = text.splitlines()
    need(bool(lines) and lines[0] == header, f"header {lines[:1]}")
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines[1:] if not ln.startswith("#")))
    return comments, rows


# ---------------------------------------------------------------------------
# scan: N,mu,log2_mu,target,deviation,within on the geometric grid


def scan(text, *, seq, n_max, c, ratio, small_mu, cap=None, lower=None):
    """small_mu[n-1] is the brute-force minimum for n <= len(small_mu); cap
    is log2 of the periodic connection integer (Legendre targets); lower is
    (first N, d) of a proved d*M > N bound, checked through M <= ceil(log2 mu) + 1."""
    comments, rows = split(text, "# seqlab-scan-v1: N,mu,log2_mu,target,deviation,within")
    need(comments[0] == f"# seq={seq} n_max={n_max} c={c:.6f} ratio={ratio:.6f}", comments[0])
    need([int(r[0]) for r in rows] == grid(n_max, ratio), "grid points")
    prev, all_within = 1, True
    for r in rows:
        n, mu = int(r[0]), parse_int(r[1])
        at = f"N={n}"
        need(prev <= mu <= max(1, 1 << (n - 1)), f"{at}: mu out of [mu(N-1), 2^(N-1)]")
        prev = mu
        if n <= len(small_mu):
            need(mu == small_mu[n - 1], f"{at}: mu {mu}, brute force {small_mu[n - 1]}")
        if lower and n >= lower[0]:
            need(lower[1] * (ceil_log2(mu) + 1) > n, f"{at}: lower bound {lower}")
        l2 = math.log2(mu)
        target = n / 2 if cap is None else min(n / 2, cap)
        close(r[2], l2, f"{at} log2_mu")
        close(r[3], target, f"{at} target")
        close(r[4], l2 - target, f"{at} deviation")
        slack = c * math.log2(n) - abs(l2 - target)
        if abs(slack) > 1e-9:
            need(r[5] == str(int(slack > 0)), f"{at}: within = {r[5]}")
        all_within &= r[5] == "1"
    need(comments[-1] == f"# status={'pass' if all_within else 'fail'}", comments[-1])


# ---------------------------------------------------------------------------
# analyze: per-prefix profiles


def analyze(text, *, seq, columns, n_max, small, zero=False, lower=None):
    """small maps a column to its reference values for N = 1, 2, ...;
    zero asserts the all-zero word's exact profile."""
    comments, rows = split(text, "# seqlab-analyze-v1: " + ",".join(["N", *columns]))
    need(comments == [f"# seq={seq}"], f"comments {comments}")
    need(len(rows) == n_max, f"{len(rows)} rows")
    # a blank value (expansion above its cap) reads as infinite
    prev = {k: 0 for k in columns}
    for i, r in enumerate(rows):
        n = i + 1
        at = f"N={n}"
        need(int(r[0]) == n, f"row {n} has N={r[0]}")
        row = dict(zip(columns, r[1:]))
        vals = {k: (math.inf if row[k] == "" else parse_int(row[k])) for k in columns if k != "log2_mu"}
        for k, v in vals.items():
            ref = small.get(k)
            if ref is not None and n <= len(ref):
                need(v == ref[n - 1], f"{at}: {k} {v}, reference {ref[n - 1]}")
            if zero:
                need(v == (1 if k == "mu" else 0), f"{at}: {k} {v} on the zero word")
            need(v >= prev[k], f"{at}: {k} fell from {prev[k]} to {v}")
        mu, m, lin = vals.get("mu"), vals.get("moc"), vals.get("linear")
        if mu is not None:
            need(1 <= mu <= max(1, 1 << (n - 1)), f"{at}: mu out of [1, 2^(N-1)]")
            close(row["log2_mu"], math.log2(mu), f"{at} log2_mu")
        if lin is not None:
            need(lin in (prev["linear"], n - prev["linear"]), f"{at}: linear {lin} after {prev['linear']}")
        prev.update(vals)
        if m is not None and lin is not None:
            need(m <= lin, f"{at}: moc {m} > linear {lin}")
        if m is not None and mu is not None:
            need(m <= ceil_log2(mu) + 1, f"{at}: moc {m} > ceil(log2 mu) + 1")
        if m is not None and lower and n >= lower[0]:
            need(lower[1] * m > n, f"{at}: {lower[1]}*moc <= N")


# ---------------------------------------------------------------------------
# periodic: T,A,q,phi2,phi2_symmetric,M,L


def periodic(text, *, T, A, q, q_rev=None, M=None, L=None):
    _, rows = split(text, "# seqlab-periodic-v1: T,A,q,phi2,phi2_symmetric,M,L")
    need(len(rows) == 1, f"{len(rows)} rows")
    r = rows[0]
    m, lin = int(r[5]), int(r[6])
    need(int(r[0]) == T, f"T = {r[0]}, want {T}")
    need(parse_int(r[1]) == A, "A differs from S/gcd(2^T - 1, S)")
    need(parse_int(r[2]) == q, "q differs from (2^T - 1)/gcd(2^T - 1, S)")
    close(r[3], math.log2(q), "phi2")
    if q_rev is not None:
        close(r[4], math.log2(min(q, q_rev)), "phi2_symmetric")
    if M is not None:
        need(m == M, f"M = {m}, want {M}")
    if L is not None:
        need(lin == L, f"L = {lin}, want {L}")
    need(m <= lin and m <= ceil_log2(q), f"M = {m} above L = {lin} or ceil(log2 q)")


# ---------------------------------------------------------------------------
# verify / tables: claim_id,instance,status,evidence


def reports(text, *, instances=None, claims=None, table=None):
    """instances: the exact (claim_id, instance) list; claims: ids that must
    all appear; table: {q: expected evidence subset} for table rows."""
    _, rows = split(text, "# seqlab-report-v1: claim_id,instance,status,evidence")
    if instances is not None:
        need([(r[0], r[1]) for r in rows] == instances, "instance list")
    if claims is not None:
        need(claims <= {r[0] for r in rows}, "missing claims")
    for claim, inst, status, ev in rows:
        at = f"{claim} {inst}"
        need(status in ("pass", "skipped"), f"{at}: {status}")
        ev = json.loads(ev)
        t = re.fullmatch(r"exhaustive T=(\d+)", inst)
        if t and claim in ("thm2", "lemma1"):
            need(ev["words"] == primitive_words(int(t[1])), f"{at}: words {ev['words']}")
        if claim == "thm6":
            need(ev["q"] == (1 << ev["T"]) - 1, f"{at}: q")
        if table is not None:
            want = table[ev["q"]]
            need({k: ev[k] for k in want} == want, f"{at}: {ev}")
    if table is not None:
        need(len(rows) == len(table), f"{len(rows)} table rows")


def corrupt(text: str, pattern: str) -> str:
    """Add 1 to the number that the pattern's first group matches."""
    hit = re.search(pattern, text, re.MULTILINE)
    if hit is None:
        return text
    a, b = hit.span(1)
    return text[:a] + str(int(text[a:b]) + 1) + text[b:]
