"""Command-line front end: generate sequences, compute profiles, run the
claim verifiers and conjecture scans, emit CSV or JSON.

Output is a pure function of the arguments and input files; repeated runs
are byte-identical. Exit codes: 0 all pass or complete, 1 a verifier
failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys

from . import adic, generators, maxorder, measures, numtheory, relations
from .config import oracle_bound
from .errors import BoundExceeded, InvalidParameter, ParseError, SeqLabError
from .generators import PolySpec, SeqSpec
from .seqcore import reverse_period, write_bits

# Cost caps, checked before any work starts; the library itself is uncapped.
# A scan jumps from grid point to grid point, each jump a Euclid on the bits
# since the point before, quadratic in that gap: at N = 10^6 the default grid
# (100 points) takes about 3 s and 400 points (ratio about 1.03 at 10^6)
# about 14 s (2-core container), so one run stays within minutes. generate
# builds words of the same lengths.
MAX_BITS = 1_000_000
MAX_GRID_POINTS = 400
# analyze prints mu, an integer of about N/2 bits, on each of its N rows, so
# its output grows as N^2: 3.8 s, 197 MB peak and 78 MB written at 32000
# (Thue-Morse, 2-core container). Most of that time is the decimal
# conversion of mu, quadratic in its digits: 2.6 s for the 15832 values
# that differ from the one before.
MAX_ANALYZE_BITS = 32_000
# periodic sorts the T cyclic windows of the period for M, the
# maximum-order complexity, and runs gcds on T-bit numbers and
# polynomials, so it grows a little faster than T: legendre at p = 999983
# takes 21 s and 97 MB peak (median of five runs, 18 to 21 s, 2-core
# container), about 2.4 s of it in the windows, 4 s in the two gcds for
# the connections of the period and its reversal, 10 to 12 s in the
# polynomial gcd for L and 3.5 s printing A and q in decimal. A period
# whose 60-bit windows tie still grows the automaton over its first T + M
# bits (at most 2T - 1) after the two sorts: 0^(T-1)1 at T = 10^6 takes
# 6.2 s and 310 MB peak (median of three runs). The family's period bound
# (p, ord_q(2), 2^r - 1) is checked before anything is built.
MAX_PERIOD = 1_000_000

# ---------------------------------------------------------------------------
# sequence spec grammar: NAME(:key=value(,key=value)*)?(@poly=EXPR)?
# Families, their keys and the kinds of their values: generators.FAMILIES.


def _is_digits(s: str) -> bool:
    """True for a nonempty run of ASCII digits. str.isdigit alone also
    accepts superscript and other non-ASCII digits, which int() refuses."""
    return s.isascii() and s.isdigit()


def parse_poly(text: str, pos: int = 0, end: int | None = None) -> PolySpec:
    """Univariate integer polynomial in n, e.g. "n^2" or "n^3+2*n".

    Parses text[pos:end]; a ParseError carries the whole text and the
    position of the fault in it, so a polynomial inside a spec string is
    reported against the spec.
    """
    end = len(text) if end is None else end
    if pos >= end:
        raise ParseError(text, pos, "empty polynomial")
    i = pos
    coeffs: dict[int, int] = {}
    while True:
        sign = 1
        if i < end and text[i] in "+-":
            if text[i] == "-":
                sign = -1
            i += 1
        start = i
        coeff = None
        if i < end and _is_digits(text[i]):
            j = i
            while j < end and _is_digits(text[j]):
                j += 1
            coeff = int(text[i:j])
            i = j
            if i < end and text[i] == "*":
                i += 1
                if i >= end or text[i] != "n":
                    raise ParseError(text, i, "expected n after *")
        exp = 0
        if i < end and text[i] == "n":
            i += 1
            exp = 1
            if i < end and text[i] == "^":
                i += 1
                j = i
                while j < end and _is_digits(text[j]):
                    j += 1
                if j == i:
                    raise ParseError(text, i, "expected exponent digits")
                exp = int(text[i:j])
                i = j
        if coeff is None and exp == 0:
            raise ParseError(text, start, "expected a term")
        coeffs[exp] = coeffs.get(exp, 0) + sign * (1 if coeff is None else coeff)
        if i >= end:
            break
        if text[i] not in "+-":
            raise ParseError(text, i, f"unexpected {text[i]!r}")
    degree = max(coeffs)
    return PolySpec(tuple(coeffs.get(e, 0) for e in range(degree + 1)))


def _parse_value(kind: str | None, key: str, value: str, full: str, pos: int):
    if kind == "poly":
        return parse_poly(full, pos, pos + len(value))
    if kind == "int":
        if not _is_digits(value):
            raise ParseError(full, pos, f"{key} must be a nonnegative integer")
        return int(value)
    if kind == "list":
        parts = value.split(".")
        if not all(_is_digits(part) for part in parts):
            raise ParseError(full, pos, f"{key} must be dot-separated integers")
        return tuple(map(int, parts))
    return value  # a path, or a key the family does not take: SeqSpec rejects it


def parse_seqspec(text: str) -> SeqSpec:
    """Parse and validate a sequence spec string."""
    if not text:
        raise ParseError(text, 0, "empty sequence spec")
    body = text
    poly = None
    at = text.find("@")
    if at != -1:
        if not text[at:].startswith("@poly="):
            raise ParseError(text, at, "expected @poly=")
        body = text[:at]
        poly = parse_poly(text, at + 6)
    colon = body.find(":")
    name = body if colon == -1 else body[:colon]
    family = generators.FAMILIES.get(name)
    if family is None:
        raise ParseError(text, 0, f"unknown family {name!r}")
    params: list[tuple[str, object]] = []
    if colon != -1:
        rest = body[colon + 1 :]
        if not rest:
            raise ParseError(text, colon + 1, "expected key=value")
        pos = colon + 1
        for item in rest.split(","):
            eq = item.find("=")
            if eq <= 0:
                raise ParseError(text, pos, "expected key=value")
            key, value = item[:eq], item[eq + 1 :]
            if not value:
                raise ParseError(text, pos + eq + 1, f"empty value for {key}")
            params.append((key, _parse_value(family.keys.get(key), key, value, text, pos + eq + 1)))
            pos += len(item) + 1
    return SeqSpec(name, tuple(params), poly)


# ---------------------------------------------------------------------------
# output: every verb's CSV and JSON, a pure function of the data

def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv(head: tuple[str, ...], rows, tail: tuple[str, ...] = ()) -> str:
    """The comment lines head, csv.writer's rows, then the comment lines tail."""
    buf = io.StringIO()
    buf.writelines(line + "\n" for line in head)
    csv.writer(buf, lineterminator="\n").writerows(rows)
    buf.writelines(line + "\n" for line in tail)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# analyze

# Measure -> its output columns, in canonical column order.
_MEASURES = {
    "moc": ("moc",),
    "adic": ("mu", "log2_mu"),
    "linear": ("linear",),
    "correlation": ("corr2",),
    "expansion": ("expansion",),
}


def _parse_measures(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(","))
    for name in names:
        if name not in _MEASURES:
            raise InvalidParameter(f"unknown measure {name!r}")
    # canonical column order regardless of how the list was written
    return tuple(m for m in _MEASURES if m in names)


def _analyze_columns(spec: SeqSpec, nmax: int, names: tuple[str, ...]):
    """The column names and, in the same order, each column's values for
    N = 1..nmax: ints, preformatted floats, or None for an empty field."""
    w = generators.materialize(spec, nmax)
    columns = ["N"]
    for name in names:
        columns.extend(_MEASURES[name])
    series: dict[str, tuple | list] = {}
    if "moc" in names:
        series["moc"] = maxorder.moc_profile(w).values
    if "adic" in names:
        mu = series["mu"] = adic.adic_profile(w).values
        # One log2 per run of equal mu, as for every field.
        series["log2_mu"] = list(_fields(mu, text=lambda v: f"{numtheory.int_log2(v):.6f}"))
    if "linear" in names:
        series["linear"] = measures.linear_profile(w).values
    if "correlation" in names:
        bound = oracle_bound("corr")
        if nmax > bound:
            raise BoundExceeded(f"nmax = {nmax} > correlation bound {bound}")
        series["corr2"] = measures.correlation2_profile(w).values
    if "expansion" in names:
        series["expansion"] = measures.expansion_profile(w).values
    return columns, [range(1, nmax + 1), *(series[col] for col in columns[1:])]


def _fields(values, null: str = "", text=str):
    """The field of each value: null for None, text(v) otherwise. A value
    equal to the one before reuses its field, because profiles repeat values
    over runs of prefixes and str of a big int is quadratic in its digits."""
    prev, field = object(), null
    for v in values:
        if v != prev:
            prev, field = v, null if v is None else text(v)
        yield field


def _json_scalar(v) -> str:
    """json.dumps of an int or a str, without the encoder's setup for ints."""
    return json.dumps(v) if isinstance(v, str) else str(v)


def _analyze_text(spec: SeqSpec, nmax: int, names: tuple[str, ...], fmt: str) -> str:
    columns, values = _analyze_columns(spec, nmax, names)
    if fmt == "json":
        # The bytes of _json(payload) on the zipped rows, with each field
        # formatted once per run of equal values as in the CSV.
        fields = zip(*(_fields(v, "null", _json_scalar) for v in values))
        rows = ",".join("[" + ",".join(row) + "]" for row in fields)
        return f'{{"columns":{_json(columns)},"rows":[{rows}],"seq":{_json(spec.text())}}}\n'
    # No field holds a delimiter, quote or newline, and every row starts
    # with N, so none is the lone empty field csv.writer would quote:
    # joining gives csv.writer's bytes. The fields stay lazy, so only the
    # lines are held. The empty last item ends the text with a newline.
    header = [f"# seqlab-analyze-v1: {','.join(columns)}", f"# seq={spec.text()}"]
    rows = map(",".join, zip(*map(_fields, values)))
    return "\n".join(itertools.chain(header, rows, [""]))


# ---------------------------------------------------------------------------
# periodic

def _periodic_text(spec: SeqSpec, fmt: str) -> str:
    s = generators.periodic_sequence(spec)
    # One connection each for the sequence and its reversal: phi2 and
    # phi2_symmetric would rebuild the forward one twice more. The min
    # below is adic.phi2_symmetric's rule.
    rep = adic.connection(s)
    phi = adic.AdicValue(rep.q)
    sym = adic.AdicValue(min(rep.q, adic.connection(reverse_period(s)).q))
    m = maxorder.moc_periodic(s)
    lin = measures.linear_complexity_periodic(s.word)
    columns = ("T", "A", "q", "phi2", "phi2_symmetric", "M", "L")
    row = (s.T, rep.A, rep.q, f"{phi.log2:.6f}", f"{sym.log2:.6f}", m, lin)
    if fmt == "json":
        return _json({"seq": spec.text(), **dict(zip(columns, row))}) + "\n"
    return _csv((f"# seqlab-periodic-v1: {','.join(columns)}",), [row])


# ---------------------------------------------------------------------------
# verify

def _verify_reports(claim: str, t_max: int | None, n_max: int | None):
    given = {"--exhaustive-T": t_max, "--nmax": n_max}
    if claim == "all":
        if t_max is not None or n_max is not None:
            raise InvalidParameter("claim 'all' runs every suite at its defaults")
        return relations.run_all()
    flag = relations.CLAIM_SUITES[claim].flag
    for name, value in given.items():
        if value is not None and name != flag:
            raise InvalidParameter(f"{name} does not apply to {claim}")
    return relations.run_claim(claim, given.get(flag))


def _reports_text(reports: list[relations.VerificationReport], fmt: str) -> str:
    if fmt == "json":
        # a report's fields are its keys
        return _json([r._asdict() for r in reports]) + "\n"
    rows = ([r.claim_id, r.instance, r.status, _json(r.evidence)] for r in reports)
    return _csv(("# seqlab-report-v1: claim_id,instance,status,evidence",), rows)


def _flag_help(flag: str, what: str) -> str:
    rows = [(c, r) for c, r in relations.CLAIM_SUITES.items() if r.flag == flag]
    return f"{what} for " + ", ".join(f"{c} (default {r.default}, max {r.maximum or 'none'})" for c, r in rows)


# ---------------------------------------------------------------------------
# scan

def _scan_text(report: relations.ScanReport, fmt: str) -> str:
    columns = ("N", "mu", "log2_mu", "target", "deviation", "within")
    rows = [
        (p.n, p.mu, f"{p.log2_mu:.6f}", f"{p.target:.6f}", f"{p.deviation:.6f}", p.within)
        for p in report.points
    ]
    c, ratio = f"{report.c:.6f}", f"{report.ratio:.6f}"
    if fmt == "json":
        payload = {"seq": report.seq, "n_max": report.n_max, "c": c, "ratio": ratio, "status": report.status}
        return _json({**payload, "points": [dict(zip(columns, row)) for row in rows]}) + "\n"
    head = (f"# seqlab-scan-v1: {','.join(columns)}", f"# seq={report.seq} n_max={report.n_max} c={c} ratio={ratio}")
    # within is written as 0 or 1, where csv.writer would write False or True
    rows = (row[:5] + (int(row[5]),) for row in rows)
    return _csv(head, rows, (f"# status={report.status}",))


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description="complexity measures, sequence families and claim verifiers",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, seq=False, fmt=True):
        if seq:
            p.add_argument("--seq", required=True, help="sequence spec, e.g. ell:q=31,A=3")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("generate", help="write the first n bits of a sequence")
    add_common(p, seq=True, fmt=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("analyze", help="per-prefix profile of the chosen measures")
    add_common(p, seq=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--measures", default="moc,adic,linear", help="comma list: " + ",".join(_MEASURES))

    p = sub.add_parser("periodic", help="one-line summary of a periodic sequence")
    add_common(p, seq=True)

    p = sub.add_parser("verify", help="run a claim verifier suite")
    p.add_argument("claim", choices=tuple(sorted(relations.CLAIMS)) + ("all",))
    p.add_argument("--exhaustive-T", dest="exhaustive_t", type=int, help=_flag_help("--exhaustive-T", "period bound"))
    p.add_argument("--nmax", type=int, help=_flag_help("--nmax", "length bound"))
    add_common(p)

    p = sub.add_parser("tables", help="recompute a reference table and diff it")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    add_common(p)

    p = sub.add_parser("scan", help="conjecture deviation scan over a sparse grid")
    add_common(p, seq=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--c", type=float, default=8.0, help="tolerance multiplier for c*log2(N)")
    p.add_argument("--grid-ratio", dest="grid_ratio", type=float, default=1.3)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call rather than at import:
    building one costs about a millisecond (a help formatter per argument),
    and parse_args leaves the parser as it found it."""
    return build_parser()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _dispatch(args) -> int:
    if args.verb == "generate":
        if args.n < 0:
            raise InvalidParameter(f"--n must be nonnegative, got {args.n}")
        if args.n > MAX_BITS:
            raise BoundExceeded(f"--n {args.n} exceeds its maximum {MAX_BITS}")
        w = generators.materialize(parse_seqspec(args.seq), args.n)
        write_bits(w, sys.stdout if args.out is None else args.out)
        return 0
    code = 0
    if args.verb == "analyze":
        if args.nmax < 1:
            raise InvalidParameter(f"--nmax must be positive, got {args.nmax}")
        if args.nmax > MAX_ANALYZE_BITS:
            raise BoundExceeded(f"--nmax {args.nmax} exceeds its maximum {MAX_ANALYZE_BITS}")
        names = _parse_measures(args.measures)
        text = _analyze_text(parse_seqspec(args.seq), args.nmax, names, args.format)
    elif args.verb == "periodic":
        spec = parse_seqspec(args.seq)
        bound = generators.period_bound(spec)
        if bound > MAX_PERIOD:
            raise BoundExceeded(f"period up to {bound} exceeds its maximum {MAX_PERIOD}")
        text = _periodic_text(spec, args.format)
    elif args.verb in ("verify", "tables"):
        if args.verb == "verify":
            reports = _verify_reports(args.claim, args.exhaustive_t, args.nmax)
        else:
            reports = relations.reproduce_table(args.which)
        text = _reports_text(reports, args.format)
        code = 0 if all(r.ok() for r in reports) else 1
    elif args.verb == "scan":
        spec = parse_seqspec(args.seq)
        if args.nmax > MAX_BITS:
            raise BoundExceeded(f"--nmax {args.nmax} exceeds its maximum {MAX_BITS}")
        relations.grid_points(args.nmax, args.grid_ratio, MAX_GRID_POINTS)
        report = relations.conjecture_scan(spec, args.nmax, args.c, args.grid_ratio)
        # code stays 0: conjecture scans are report-grade and never fail the run
        text = _scan_text(report, args.format)
    else:
        raise AssertionError(f"unhandled verb {args.verb}")
    _emit(text, args.out)
    return code


def main(argv=None) -> int:
    # Exact integers print at any size while the CLI runs; the caller's
    # limit on int-to-decimal conversions (Python 3.10.7 and later) comes
    # back on every exit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        return _dispatch(args)
    except (SeqLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
