"""Command-line surface: spec grammar, verbs, formats, exit codes."""

import ast
import hashlib
import io
import json
import contextlib
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import seqlab.adic as adic
import seqlab.cli as cli
import seqlab.generators as generators
import seqlab.relations as relations
from seqlab.adic import adic_min
from seqlab.cli import main, parse_poly, parse_seqspec
from seqlab.errors import InvalidParameter, MissingParameter, ParseError
from seqlab.generators import FAMILIES, PolySpec, SeqSpec, fcsr_bit
from seqlab.maxorder import moc_profile
from seqlab.measures import linear_profile
from seqlab.relations import VerificationReport
from seqlab.seqcore import Word, read_bits

from referees import analyze_csv


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def test_parse_poly():
    assert parse_poly("n^2") == PolySpec((0, 0, 1))
    assert parse_poly("2n^2+1") == PolySpec((1, 0, 2))
    assert parse_poly("3*n+1") == PolySpec((1, 3))
    assert parse_poly("-n+5") == PolySpec((5, -1))
    assert parse_poly("7") == PolySpec((7,))
    assert parse_poly("n") == PolySpec((0, 1))
    assert parse_poly("n^3-2n") == PolySpec((0, -2, 0, 1))


def test_parse_poly_errors():
    for bad in ("", "n^", "^2", "n^x", "2n^2++1", "n+"):
        with pytest.raises(ParseError):
            parse_poly(bad)
    try:
        parse_poly("n^")
    except ParseError as exc:
        assert exc.pos == 2


def test_parse_seqspec_families():
    assert parse_seqspec("thue-morse") == SeqSpec("thue-morse")
    assert parse_seqspec("pattern:k=3") == SeqSpec("pattern", params=(("k", 3),))
    spec = parse_seqspec("lfsr:taps=0.1,seed=1.0.0.0")
    assert spec.param("taps") == (0, 1)
    assert spec.param("seed") == (1, 0, 0, 0)
    poly = parse_seqspec("zeckendorf@poly=2n^2+1")
    assert poly.poly == PolySpec((1, 0, 2))
    # Canonical text round-trips through the parser.
    for text in (
        "zero",
        "ones@poly=3n+1",
        "ell:A=5,q=31",
        "legendre:f=n^2+1,p=19",
        "pattern:k=2@poly=n^2",
    ):
        spec = parse_seqspec(text)
        assert parse_seqspec(spec.text()) == spec


def test_parse_seqspec_rejections():
    with pytest.raises(ParseError):
        parse_seqspec("leg endre:p=3")
    with pytest.raises(ParseError):
        parse_seqspec("nonesuch")
    with pytest.raises(InvalidParameter):
        parse_seqspec("thue-morse:k=2")
    with pytest.raises(InvalidParameter):
        parse_seqspec("pattern:k=0")
    with pytest.raises(MissingParameter):
        parse_seqspec("ell:q=31")
    with pytest.raises(InvalidParameter):
        parse_seqspec("ell:A=3,q=10")
    with pytest.raises(InvalidParameter):
        parse_seqspec("ell:A=3,q=9")
    with pytest.raises(InvalidParameter):
        parse_seqspec("legendre:p=21")
    with pytest.raises(InvalidParameter):
        parse_seqspec("legendre:p=5@poly=n")
    with pytest.raises(InvalidParameter):
        parse_seqspec("legendre:f=5n,p=5")
    with pytest.raises(InvalidParameter):
        parse_seqspec("lfsr:taps=0.1,seed=0.0.0")
    with pytest.raises(InvalidParameter):
        parse_seqspec("lfsr:taps=0.5,seed=1.0.0")
    with pytest.raises(MissingParameter):
        parse_seqspec("file")


_POLYS = st.lists(st.integers(-30, 30), min_size=1, max_size=5).map(lambda c: PolySpec(tuple(c)))

# Parameters of each family, by key. Draws may break a family's own checks
# (a composite p, a q not coprime to A); specs() discards those.
_PARAMS = {
    "zero": {},
    "ones": {},
    "thue-morse": {},
    "rudin-shapiro": {},
    "zeckendorf": {},
    "pattern": {"k": st.integers(1, 10**6)},
    "legendre": {"p": st.integers(3, 200), "f": _POLYS},
    "ell": {"q": st.integers(3, 10**4), "A": st.integers(1, 10**4)},
    "lfsr": {
        "taps": st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True).map(tuple),
        "seed": st.lists(st.integers(0, 1), min_size=8, max_size=8).map(tuple),
    },
    "file": {"path": st.text("abcxyz0123456789_./-", min_size=1, max_size=12)},
}


@st.composite
def specs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    params = []
    for key, values in _PARAMS[family].items():
        optional = key in FAMILIES[family].defaults
        if not optional or draw(st.booleans()):
            params.append((key, draw(values)))
    poly = draw(st.none() | _POLYS) if FAMILIES[family].bit is not None else None
    try:
        return SeqSpec(family, tuple(params), poly)
    except InvalidParameter:
        assume(False)


def test_param_strategies_cover_every_family():
    assert {f: set(keys) for f, keys in _PARAMS.items()} == {
        f: set(fam.keys) for f, fam in FAMILIES.items()
    }


@settings(derandomize=True, max_examples=400, deadline=None)
@given(specs())
def test_seqspec_text_round_trip_property(spec):
    text = spec.text()
    again = parse_seqspec(text)
    assert again == spec
    assert again.text() == text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(specs(), st.data())
def test_parse_error_points_at_fault_property(spec, data):
    # Corrupt one place of a valid spec's text; the error must name it.
    # "\u00b2" (superscript two) passes str.isdigit but not int().
    junk = data.draw(st.sampled_from(["x", "\u00b2", "\u0663", " "]))
    family = spec.family
    body, _, suffix = spec.text().partition("@")
    suffix = "@" + suffix if suffix else ""
    items = body[len(family) + 1 :].split(",") if ":" in body else []
    faults = ["family", "suffix", "poly"]
    if items:
        faults += ["value", "empty", "noeq"]
    fault = data.draw(st.sampled_from(faults))
    if fault == "family":
        bad, pos = junk + spec.text(), 0
    elif fault == "suffix":
        bad, pos = body + "@pol=n", len(body)
    elif fault == "poly":
        poly = spec.poly.text() if spec.poly is not None else "n"
        bad = f"{body}@poly={poly}+{junk}"
        pos = len(bad) - 1
    else:
        i = data.draw(st.integers(0, len(items) - 1))
        key = items[i].split("=")[0]
        if fault == "value":
            assume(FAMILIES[family].keys[key] != "path")
            items[i] = key + "=" + junk
        elif fault == "empty":
            items[i] = key + "="
        else:
            items[i] = items[i].replace("=", "", 1)
        head = f"{family}:" + "".join(item + "," for item in items[:i])
        bad = head + ",".join(items[i:]) + suffix
        pos = len(head) + (0 if fault == "noeq" else len(key) + 1)
    with pytest.raises(ParseError) as info:
        parse_seqspec(bad)
    assert (info.value.text, info.value.pos) == (bad, pos), info.value
    assert f"at position {pos} in" in str(info.value)


def test_generate_and_file_roundtrip(tmp_path):
    out = tmp_path / "rs.bits"
    code, stdout, _ = run(["generate", "--seq", "rudin-shapiro", "--n", "100", "--out", str(out)])
    assert code == 0 and stdout == ""
    w = read_bits(out)
    assert len(w) == 100
    code, stdout, _ = run(["generate", "--seq", f"file:path={out}", "--n", "100"])
    assert code == 0
    assert stdout.replace("\n", "") == w.to01()


def test_generate_equivalence():
    c1, o1, _ = run(["generate", "--seq", "pattern:k=2", "--n", "128"])
    c2, o2, _ = run(["generate", "--seq", "rudin-shapiro", "--n", "128"])
    assert c1 == c2 == 0
    assert o1 == o2


def test_analyze_columns_match_library():
    code, out, _ = run(["analyze", "--seq", "thue-morse", "--nmax", "16"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 16
    from seqlab.generators import thue_morse_word
    from seqlab.adic import adic_profile

    w = thue_morse_word(16)
    mprof = moc_profile(w)
    aprof = adic_profile(w)
    lprof = linear_profile(w)
    for row in lines:
        n_s, moc_s, mu_s, log_s, lin_s = row.split(",")
        n = int(n_s)
        assert int(moc_s) == mprof.at(n)
        assert int(mu_s) == aprof.at(n)
        assert int(lin_s) == lprof.at(n)
        assert float(log_s) == pytest.approx(
            0.0 if aprof.at(n) == 1 else __import__("math").log2(aprof.at(n)),
            abs=1e-6,
        )


def test_analyze_json_and_measure_selection():
    code, out, _ = run([
        "analyze", "--seq", "ones", "--nmax", "5",
        "--measures", "correlation,expansion", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["N", "corr2", "expansion"]
    assert payload["seq"] == "ones"
    assert [row[0] for row in payload["rows"]] == [1, 2, 3, 4, 5]
    code, _, err = run(["analyze", "--seq", "ones", "--nmax", "5", "--measures", "entropy"])
    assert code == 2 and "unknown measure" in err


def test_analyze_csv_pinned(tmp_path, monkeypatch):
    # SHA-256 of each CSV as written while adic_profile pushed a Euclidean
    # lattice, corr2 ran correlation2 and expansion ran expansion_complexity
    # on every prefix.
    monkeypatch.chdir(tmp_path)
    rng = random.Random(50)
    (tmp_path / "rand.bits").write_text("".join(str(rng.getrandbits(1)) for _ in range(200)) + "\n")
    (tmp_path / "rand400.bits").write_text("".join(str(rng.getrandbits(1)) for _ in range(400)) + "\n")
    expected = {
        ("--seq", "thue-morse", "--nmax", "3000"): (
            "cd2d5da24e2d520892ed0b691dbe06e14ce9a67146d49d8580c4c7a01c3bd9cf"
        ),
        ("--seq", "file:path=rand.bits", "--nmax", "200", "--measures", "correlation"): (
            "2bb49452940298c8b67aec4c1ad25a95bbb25ed20098c0ceeac95b61e3c39196"
        ),
        ("--seq", "thue-morse", "--nmax", "1000", "--measures", "expansion"): (
            "ba101e3af5a261a378d10e30e3bbf44fd4652fa308862dc87ce4d134fc1dd6ec"
        ),
        ("--seq", "file:path=rand400.bits", "--nmax", "400", "--measures", "expansion"): (
            "46837b4f0b1aff7f68ad6e92e70a54d7aa2e9b67ee374fd6ddf215cf490f00f3"
        ),
    }
    for args, digest in expected.items():
        code, out, _ = run(["analyze", *args])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_analyze_profiles_words_pinned(tmp_path, monkeypatch):
    # SHA-256 of the CSV and the JSON of the default measures on the words
    # of the benchmark's profiles workload (a seeded random word stands for
    # its file word), recorded when log2_mu was formatted at every N and
    # adic_profile's steps measured both norms on every bit.
    monkeypatch.chdir(tmp_path)
    rng = random.Random(61)
    (tmp_path / "rand.bits").write_text("".join(str(rng.getrandbits(1)) for _ in range(5000)) + "\n")
    expected = {
        ("thue-morse", 5000): (
            "0122ba813888e4409e0116adabc62705608d677a10bbe0156db3ccc5cc1ebc78",
            "dd93d2605e161255aed3caa669671ac67f36d9bf17b29609197a358ecf3c550e",
        ),
        ("rudin-shapiro", 5000): (
            "60ea87016386a9a4dcce9b279acad9f5476b882e9f0bc62238fc89c2cefa0d20",
            "988b8d558fd27061eaa97435137caa2a70959bbc9fe112117b1966eefa6600d7",
        ),
        ("legendre:p=10007", 5000): (
            "9a1ac6fa06084c8542b0c04f2be4fc26cdd085c7a7007514772c30b43602a6a1",
            "2bcb4ab80879aefc2a78eac1e2a74f9d1c467a2bfd5e653b630cd8a3746e9caa",
        ),
        ("file:path=rand.bits", 5000): (
            "5f4d6f9f20735c10033d78e8d4bc77cd135a0a7ac96840cc4154553ec70691d8",
            "33d100bf97488919ce2d0ffaf02a97b8a7b26017e6b4d1b60d3da67cc01fb864",
        ),
        ("zero", 2500): (
            "cea5eb461016c4a3b8d5927564ac654ee97faf066d426f0e85e5206c91e85ae8",
            "7362cd6379994cd3541c626091425d222e07b941d9e55e227bf55f8b9b58b4d4",
        ),
        ("zero", 5000): (
            "75cf823c8c322957591f365a808963ed1825d9d1e63549c99c0dcbed436b5888",
            "25793b2f2d4b1591d39edabe4f19bcd5fcc0bff1059f2ac1fba2dd5ad51636cd",
        ),
    }
    for (seq, nmax), digests in expected.items():
        for fmt, digest in zip(("csv", "json"), digests):
            code, out, _ = run(["analyze", "--seq", seq, "--nmax", str(nmax), "--format", fmt])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (seq, nmax, fmt)


def test_analyze_formats_log2_once_per_run_of_mu(monkeypatch):
    calls = []
    log2 = cli.numtheory.int_log2
    monkeypatch.setattr(cli.numtheory, "int_log2", lambda v: calls.append(v) or log2(v))
    code, out, _ = run(["analyze", "--seq", "thue-morse", "--nmax", "2000", "--measures", "adic"])
    assert code == 0
    mu = adic.adic_profile(generators.materialize(SeqSpec("thue-morse"), 2000)).values
    runs = [v for i, v in enumerate(mu) if i == 0 or v != mu[i - 1]]
    assert calls == runs
    assert len(runs) < len(mu) // 2
    assert out.splitlines()[2:] == [f"{n},{v},{log2(v):.6f}" for n, v in enumerate(mu, 1)]


def _analyze_referee_cases(tmp_path):
    """(seq, nmax, measures) for each measure alone and all five together
    on constant, structured and random words, at one bit and at 200; last
    the 400-bit random word of test_analyze_csv_pinned, whose expansion
    column has empty fields. Writes the random words under tmp_path."""
    rng = random.Random(50)
    (tmp_path / "rand.bits").write_text("".join(str(rng.getrandbits(1)) for _ in range(200)) + "\n")
    (tmp_path / "rand400.bits").write_text("".join(str(rng.getrandbits(1)) for _ in range(400)) + "\n")
    for seq in ("zero", "ones", "thue-morse", "file:path=rand.bits"):
        for measures in (*cli._MEASURES, ",".join(cli._MEASURES)):
            for nmax in (1, 200):
                yield seq, nmax, measures
    yield "file:path=rand400.bits", 400, "expansion"


def test_analyze_csv_matches_csv_writer(tmp_path, monkeypatch):
    # The JSON rows are the values analyze formats, so csv.writer on them
    # must give the CSV byte for byte.
    monkeypatch.chdir(tmp_path)
    for seq, nmax, measures in _analyze_referee_cases(tmp_path):
        args = ["analyze", "--seq", seq, "--nmax", str(nmax), "--measures", measures]
        code, out, _ = run(args)
        assert code == 0
        code, text, _ = run([*args, "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert out == analyze_csv(payload["seq"], payload["columns"], payload["rows"]), args
    assert sum(row[1] is None for row in payload["rows"]) == 247


def test_analyze_json_pinned(tmp_path, monkeypatch):
    # SHA-256 of every JSON output of the referee cases in order, recorded
    # when the CSV went through csv.writer on zipped rows.
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for seq, nmax, measures in _analyze_referee_cases(tmp_path):
        code, text, _ = run([
            "analyze", "--seq", seq, "--nmax", str(nmax), "--measures", measures, "--format", "json",
        ])
        assert code == 0
        digest.update(text.encode())
    assert digest.hexdigest() == "a2badca64912a8c1d7b4c07bd1e0d6fab47ab0536f10246edce173b58c4f4ca6"


def test_analyze_json_matches_json_dumps(tmp_path, monkeypatch):
    # The JSON is joined from fields formatted once per run; json.dumps on
    # the payload of zipped rows must give the same bytes, a non-ASCII
    # spec escaped as json.dumps escapes it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "\u00fc.bits").write_text("0110100110010110\n", encoding="ascii")
    cases = [*_analyze_referee_cases(tmp_path), ("file:path=\u00fc.bits", 16, "moc,adic")]
    for seq, nmax, measures in cases:
        spec = parse_seqspec(seq)
        columns, values = cli._analyze_columns(spec, nmax, cli._parse_measures(measures))
        payload = {"seq": spec.text(), "columns": columns, "rows": list(zip(*values))}
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        args = ["analyze", "--seq", seq, "--nmax", str(nmax), "--measures", measures]
        assert run([*args, "--format", "json"]) == (0, expected, ""), args


def test_out_writes_a_non_ascii_spec(tmp_path, monkeypatch):
    # The "# seq=" line echoes the spec, so --out is UTF-8 like the text
    # printed without it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "\u00fc.bits").write_text("0110100110010110\n", encoding="ascii")
    for args in (
        ["analyze", "--seq", "file:path=\u00fc.bits", "--nmax", "4"],
        ["scan", "--seq", "file:path=\u00fc.bits", "--nmax", "16"],
    ):
        code, out, _ = run(args)
        assert code == 0 and "# seq=file:path=\u00fc.bits" in out
        assert run([*args, "--out", "o.csv"]) == (0, "", "")
        assert (tmp_path / "o.csv").read_text(encoding="utf-8") == out


def test_periodic_row():
    code, out, _ = run(["periodic", "--seq", "ell:q=31,A=5"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "# seqlab-periodic-v1: T,A,q,phi2,phi2_symmetric,M,L"
    T, A, q, phi, sym, M, L = row.split(",")
    assert (T, A, q, M, L) == ("5", "5", "31", "4", "4")
    assert phi == sym == "4.954196"


def test_periodic_outputs_pinned():
    # sha256 of the CSV and the JSON summaries, recorded when L came from
    # Berlekamp-Massey over two periods and every Legendre bit from Euler's
    # criterion.
    mseq = "lfsr:seed=1.0.0.0.0.0.0.0.0.0.0.0.0.0,taps=0.1.6.10"  # r = 14
    expected = {
        "legendre:p=1009": (
            "5b138bfd59578694f3aa71b148e754f8307395b92c666969135181aafbba48bf",
            "0735997bb8620c49677a1902e398a6c1645d760685ffa086daef58130d9629a6",
        ),
        "legendre:p=20011": (
            "63c700457443633f0b698c5a58135aa9adeb2eb7001239a58e48866c3f8ebc8e",
            "a2b6e5a56cd046a8b64338e6a2086f9edcc5bfffbb1758de0451b4e5e841368a",
        ),
        "legendre:p=7,f=n^2+1": (
            "b3e1e93fd6d49c8a431596e9f7eabe09ec589f23df27325ce94044682f3bf1b6",
            "49c872207aef04961848adf46c48ec3c97769de81db08b505416b0368c45c3ce",
        ),
        "ell:q=2861,A=1": (
            "0eeb980323e726850be503a506a12f7b52389b6ad2ade2744a8a86c38d4fe585",
            "09dc7ca8e06d673ecf788a4f1199bd3199bb54f66e8c36aa3f43959e1891d8f0",
        ),
        mseq: (
            "a851a8f37c257fb336e843d149c832815b99aa911a0d804698defad3df32e56b",
            "5befe8acaab3ad98fd7984d301ee8d556057dd9bd78a8c7ff63f61811d607cfe",
        ),
    }
    for spec, digests in expected.items():
        for fmt, digest in zip(("csv", "json"), digests):
            code, out, _ = run(["periodic", "--seq", spec, "--format", fmt])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (spec, fmt)


def test_report_and_scan_outputs_pinned():
    # sha256 of the CSV and the JSON, recorded when relations.py wrote
    # reports and scans. mu at N = 30000 of Rudin-Shapiro has over 4300
    # digits, Python's default limit for int-to-decimal conversions.
    expected = {
        ("verify", "all"): (None, "d8257dd9a63047a44de3c5484718c786d9727cf5ae9cd163d953bdc7059f69a2"),
        ("tables", "--which", "1"): (
            "88cbe3ac2984f8dfc068274283c835082d4f24e957a5e67c4c006a022e59257a",
            "2faff3a470d47008608ac69d0f1c42da5a02de836816f1763a7f80560069aba4",
        ),
        ("tables", "--which", "2"): (
            "0d8a0edbd4a05e33ce1e1a6e0a28e15e00ad234c8df8a9523f80bb1cfdb71837",
            "bcc475d0e933e3a29dd8186bf11e810daa23787ad92d6f5d1d6527100019c194",
        ),
        ("scan", "--seq", "thue-morse", "--nmax", "5000"): (
            "657e0f3a140efb88dd846df86ba1a38aa6de99c00343272d3a71474d81fc9495",
            "acf98ea15cd4f5382f76725ec57f3eee330f2817149f8b025b0d99ea50f47ee1",
        ),
        ("scan", "--seq", "rudin-shapiro", "--nmax", "30000"): (
            "89c0393c50a4a40352eebc0556435fd703b989483546c386930b45d5fd4a0e56",
            "63a464dbf3215a1e18d0bd17e2203405d56ae798a53c7ebbcd7a021c165da13a",
        ),
    }
    for args, digests in expected.items():
        for fmt, digest in zip(("csv", "json"), digests):
            if digest is None:  # verify all's CSV: test_verify_outputs_pinned
                continue
            code, out, _ = run([*args, "--format", fmt])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (args, fmt)


def test_cli_alone_writes_outputs():
    # The library returns data; every versioned header and every csv, io or
    # json import in src/seqlab is cli.py's.
    for path in Path(cli.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
        writes = bool(re.search(r"# seqlab-\w+-v1", text)) or bool(imported & {"csv", "io", "json"})
        assert writes == (path.name == "cli.py"), path.name


def test_periodic_builds_one_connection_each_way(monkeypatch):
    # phi2 and phi2_symmetric read the sequence's own connection; only the
    # reversal needs a second one.
    calls = []
    real = adic.connection
    monkeypatch.setattr(adic, "connection", lambda s: calls.append(s.word.to01()) or real(s))
    for spec in ("legendre:p=1009", "ell:q=31,A=5"):
        calls.clear()
        code, _, _ = run(["periodic", "--seq", spec])
        assert code == 0
        assert len(calls) == 2 and calls[1] == calls[0][::-1], spec


def test_periodic_phi2_columns_match_the_library(tmp_path):
    # periodic applies phi2_symmetric's rule to the connections it holds;
    # the columns must stay those of adic.phi2 and adic.phi2_symmetric.
    # The file's period has q = 511 and its reversal q = 73.
    bits = tmp_path / "period.bits"
    bits.write_text("010010011\n")
    reversal_smaller = 0
    for spec in (
        f"file:path={bits}",
        "legendre:p=1009",
        "legendre:p=7,f=n^2+1",
        "ell:q=31,A=5",
        "ell:q=37,A=3",
        "ell:q=2861,A=1",
        "lfsr:taps=0.1.6.10,seed=1.0.0.0.0.0.0.0.0.0.1",
        "lfsr:taps=0.1,seed=0.1",
    ):
        code, out, _ = run(["periodic", "--seq", spec, "--format", "json"])
        assert code == 0
        row = json.loads(out)
        s = generators.periodic_sequence(parse_seqspec(spec))
        assert row["phi2"] == f"{adic.phi2(s).log2:.6f}", spec
        assert row["phi2_symmetric"] == f"{adic.phi2_symmetric(s).log2:.6f}", spec
        reversal_smaller += row["phi2_symmetric"] != row["phi2"]
    assert reversal_smaller


def test_periodic_period_cap_exits_2_before_building(monkeypatch):
    def never(*_):
        raise AssertionError("period built despite a period above the cap")

    for builder in ("periodic_sequence", "legendre_period", "fcsr_word", "lfsr_period"):
        monkeypatch.setattr(generators, builder, never)
    seed20 = ".".join(["1"] + ["0"] * 19)
    for spec, bound in (
        ("legendre:p=1000003", 1000003),
        ("legendre:p=2305843009213693951", 2305843009213693951),
        ("ell:q=1000003,A=1", 1000002),  # 2 is a primitive root mod 1000003
        (f"lfsr:taps=0.3,seed={seed20}", 2**20 - 1),
    ):
        code, out, err = run(["periodic", "--seq", spec])
        assert code == 2 and out == "", spec
        assert err.startswith("error:") and err.count("\n") == 1, spec
        assert f"period up to {bound} exceeds its maximum 1000000" in err, spec
    monkeypatch.undo()
    # The ell bound is the period ord_q(2), not q: 2 has order 1741 mod 1002817.
    code, out, _ = run(["periodic", "--seq", "ell:q=1002817,A=1"])
    assert code == 0 and out.splitlines()[1].startswith("1741,1,1002817,")


def test_periodic_file_is_read_once(tmp_path, monkeypatch):
    # The bit count is what is capped, not the least period: 0101...01
    # has period 2 and is refused as 20,000 bits when the cap is below that.
    path = tmp_path / "period.bits"
    path.write_text("01" * 10_000 + "\n")
    reads = []
    monkeypatch.setattr(generators, "read_bits", lambda source: reads.append(source) or read_bits(source))
    code, out, _ = run(["periodic", "--seq", f"file:path={path}"])
    assert code == 0 and out.splitlines()[1].startswith("2,2,3,") and len(reads) == 1
    reads.clear()
    monkeypatch.setattr(cli, "MAX_PERIOD", 19_999)
    code, out, err = run(["periodic", "--seq", f"file:path={path}"])
    assert (code, out, err) == (2, "", "error: period up to 20000 exceeds its maximum 19999\n")
    assert len(reads) == 1


def test_scan_legendre_period_cap_exits_2_before_building():
    # The scan reads one whole period of p bits, however small --nmax is.
    t = time.perf_counter()
    for fmt in ("csv", "json"):
        code, out, err = run(["scan", "--seq", "legendre:p=1000003", "--nmax", "100", "--format", fmt])
        assert (code, out, err) == (2, "", "error: period up to 1000003 exceeds its maximum 1000000\n")
    assert time.perf_counter() - t < 1.0
    code, out, _ = run(["scan", "--seq", "legendre:p=999983", "--nmax", "100"])
    assert code == 0 and out.startswith("# seqlab-scan-v1:") and "# seq=legendre:p=999983 n_max=100" in out


def test_periodic_legendre():
    code, out, _ = run(["periodic", "--seq", "legendre:p=19", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["T"] == 19
    assert payload["q"] % 2 == 1


def test_verify_exit_codes(monkeypatch):
    code, out, _ = run(["verify", "thm2", "--exhaustive-T", "6"])
    assert code == 0
    assert out.count("thm2,exhaustive T=") == 6

    bad = [VerificationReport("lemma3", "k_max=30", "fail", {"hits": [3]})]
    monkeypatch.setitem(relations.CLAIMS, "lemma3", lambda: bad)
    code, out, _ = run(["verify", "lemma3"])
    assert code == 1
    assert "fail" in out


def test_verify_flag_scoping():
    code, _, err = run(["verify", "all", "--exhaustive-T", "4"])
    assert code == 2 and "defaults" in err
    code, _, err = run(["verify", "thm4", "--exhaustive-T", "4"])
    assert code == 2
    code, _, err = run(["verify", "thm2", "--nmax", "100"])
    assert code == 2
    code, _, _ = run(["verify", "lowerbound", "--nmax", "120"])
    assert code == 0


def test_verify_bounds_above_maximum_exit_before_running(monkeypatch):
    def never(*_):
        raise AssertionError("suite ran despite an out-of-range bound")

    cases = (
        ("thm6", "--exhaustive-T", 21),
        ("thm2", "--exhaustive-T", 21),
        ("lemma1", "--exhaustive-T", 17),
        ("lowerbound", "--nmax", 1_000_001),
    )
    for claim, flag, bound in cases:
        monkeypatch.setitem(relations.CLAIMS, claim, never)
        code, out, err = run(["verify", claim, flag, str(bound)])
        assert code == 2 and out == "", claim
        assert err.startswith("error:") and "maximum" in err, claim


def test_verify_bounds_below_minimum_exit_before_running(monkeypatch):
    # An empty exhaustive suite would pass on a report of nothing.
    def never(*_):
        raise AssertionError("suite ran despite an out-of-range bound")

    cases = (
        ("thm2", 0),
        ("thm6", -3),
        ("thm6", 1),
        ("lemma1", -1),
        ("lemma1", 0),
    )
    for claim, bound in cases:
        monkeypatch.setitem(relations.CLAIMS, claim, never)
        code, out, err = run(["verify", claim, "--exhaustive-T", str(bound)])
        assert code == 2 and out == "" and err.count("\n") == 1, (claim, bound)
        assert err.startswith("error:") and "minimum" in err, (claim, bound)
    monkeypatch.undo()
    for claim, least in (("thm2", 1), ("thm6", 2), ("lemma1", 1)):
        code, out, _ = run(["verify", claim, "--exhaustive-T", str(least)])
        assert code == 0 and out.count(f"{claim},") == len(relations.run_claim(claim, least)) > 0


def test_verify_lowerbound_short_nmax_exits_2():
    code, out, err = run(["verify", "lowerbound", "--nmax", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_unknown_claim():
    code, _, _ = run(["verify", "thm9"])
    assert code == 2


def test_tables():
    code, out, _ = run(["tables", "--which", "1"])
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 8
    assert all(",pass," in row for row in rows)
    code, out, _ = run(["tables", "--which", "2"])
    assert code == 0
    assert len([l for l in out.splitlines() if not l.startswith("#")]) == 5
    code, _, _ = run(["tables", "--which", "3"])
    assert code == 2


def test_scan_output_and_tolerance():
    code, out, _ = run(["scan", "--seq", "thue-morse", "--nmax", "48"])
    assert code == 0
    assert out.splitlines()[0] == "# seqlab-scan-v1: N,mu,log2_mu,target,deviation,within"
    assert "# status=pass" in out
    # Report-grade: a failing scan still exits 0 and prints its status.
    code, out, _ = run(["scan", "--seq", "zero", "--nmax", "200"])
    assert code == 0
    assert "# status=fail" in out
    # A hostile tolerance flips the verdict without touching the exit code.
    code, out, _ = run(["scan", "--seq", "thue-morse", "--nmax", "48", "--c", "0.01"])
    assert code == 0
    assert "# status=fail" in out


def test_scan_bad_arguments_exit_2():
    for extra in (
        ["--nmax", "1"],
        ["--nmax", "48", "--grid-ratio", "1"],
        ["--nmax", "48", "--c", "0"],
        ["--nmax", "48", "--grid-ratio", "nan"],
        ["--nmax", "48", "--grid-ratio", "inf"],
        ["--nmax", "48", "--c", "nan"],
        ["--nmax", "48", "--c", "inf"],
    ):
        code, out, err = run(["scan", "--seq", "thue-morse", *extra])
        assert code == 2 and out == "", extra
        assert err.startswith("error:") and err.count("\n") == 1, extra


def test_scan_and_generate_cost_caps_exit_2():
    # Refused before any word is built or any Euclid runs.
    t = time.perf_counter()
    for args in (
        ["scan", "--seq", "thue-morse", "--nmax", "1000001"],
        ["scan", "--seq", "thue-morse", "--nmax", "1000000", "--grid-ratio", "1.0000001"],
        ["scan", "--seq", "thue-morse", "--nmax", "2000", "--grid-ratio", "1.001"],
        ["generate", "--seq", "thue-morse", "--n", "1000001"],
    ):
        code, out, err = run(args)
        assert code == 2 and out == "", args
        assert err.startswith("error:") and err.count("\n") == 1, args
        assert "exceeds its maximum 1000000" in err or "more than 400 points" in err, args
    assert time.perf_counter() - t < 2.0
    assert run(["scan", "--seq", "thue-morse", "--nmax", "300", "--grid-ratio", "1.0001"])[0] == 0
    assert len(run(["generate", "--seq", "thue-morse", "--n", "1000000"])[1]) > 10**6


def test_analyze_nmax_cap_exits_2_before_building_the_word(monkeypatch):
    def never(*_):
        raise AssertionError("word built despite an out-of-range --nmax")

    monkeypatch.setattr(generators, "materialize", never)
    code, out, err = run(["analyze", "--seq", "thue-morse", "--nmax", "32001"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--nmax 32001 exceeds its maximum 32000" in err


@pytest.fixture
def unlimited_digits():
    """Lift Python's limit on int-to-decimal conversions (4300 digits by
    default) for a test that parses long fields; main restores the caller's
    limit when it returns."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_periodic_prints_integers_of_any_size(unlimited_digits):
    # r = 14 m-sequence, x^14 + x^10 + x^6 + x + 1: q = 2^16383 - 1 has
    # about 4932 decimal digits.
    seed = ".".join(["1"] + ["0"] * 13)
    code, out, _ = run(["periodic", "--seq", f"lfsr:taps=0.1.6.10,seed={seed}"])
    assert code == 0
    T, A, q, phi, sym, M, L = out.splitlines()[1].split(",")
    assert int(T) == 2**14 - 1
    assert int(q) == 2**16383 - 1
    assert int(L) == 14


def test_main_restores_the_int_digit_limit():
    # q of legendre:p=20011 has about 6000 digits, above the default limit;
    # main prints it and hands back the caller's limit, also on exit 2.
    limit = sys.get_int_max_str_digits()
    try:
        for caller in (limit, 5000):
            sys.set_int_max_str_digits(caller)
            code, out, _ = run(["periodic", "--seq", "legendre:p=20011"])
            assert code == 0 and len(out.splitlines()[1].split(",")[2]) > 5000
            assert sys.get_int_max_str_digits() == caller
            for argv in (["scan", "--seq", "thue-morse", "--nmax", "1"], ["verify", "no-such-claim"]):
                assert run(argv)[0] == 2
                assert sys.get_int_max_str_digits() == caller, argv
    finally:
        sys.set_int_max_str_digits(limit)


def test_generate_ell_streams_a_short_prefix():
    # The period of 2 mod 10^9 + 7 is 5 * 10^8 bits; eight bits need none of it.
    q = 1_000_000_007
    t = time.perf_counter()
    code, out, _ = run(["generate", "--seq", f"ell:q={q},A=1", "--n", "8"])
    assert code == 0
    assert time.perf_counter() - t < 5.0
    assert out.strip() == "".join(str(fcsr_bit(1, q, i)) for i in range(8))


def test_outputs_byte_identical():
    for args in (
        ["analyze", "--seq", "rudin-shapiro", "--nmax", "40"],
        ["scan", "--seq", "thue-morse", "--nmax", "64"],
        ["verify", "thm2", "--exhaustive-T", "5"],
        ["tables", "--which", "2"],
        ["periodic", "--seq", "ell:q=31,A=3", "--format", "json"],
    ):
        c1, o1, _ = run(args)
        c2, o2, _ = run(args)
        assert c1 == c2 == 0
        assert o1 == o2, args


def test_error_exit_codes(tmp_path):
    code, _, err = run(["periodic", "--seq", "ell:q=10,A=3"])
    assert code == 2 and err.startswith("error:")
    code, _, err = run(["analyze", "--seq", "thue-morse@poly=n^", "--nmax", "8"])
    assert code == 2 and "position" in err
    code, _, err = run(["generate", "--seq", "pattern:k=²", "--n", "4"])
    assert code == 2 and "position 10" in err
    code, _, err = run(["generate", "--seq", "thue-morse", "--n", "-5"])
    assert code == 2
    code, _, err = run(["analyze", "--seq", "file:path=/nonexistent.bits", "--nmax", "4"])
    assert code == 2
    blank = tmp_path / "blank.bits"
    blank.write_text(" \n\n ")
    code, out, err = run(["periodic", "--seq", f"file:path={blank}"])
    assert code == 2 and out == "" and err == "error: empty word has no period\n"
    accented = tmp_path / "accented.bits"
    accented.write_bytes(b"01\xc3\xa910")
    code, out, err = run(["generate", "--seq", f"file:path={accented}", "--n", "2"])
    assert code == 2 and out == "" and err == "error: illegal byte '\\xc3' at offset 2\n"
    crlf = tmp_path / "crlf.bits"
    crlf.write_bytes(b"0\r\n1x")
    code, out, err = run(["generate", "--seq", f"file:path={crlf}", "--n", "2"])
    assert code == 2 and out == "" and err == "error: illegal byte 'x' at offset 4\n"


def test_python_dash_m_runs_the_cli():
    # The child imports the same seqlab as this process.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for args, code in (
        (["periodic", "--seq", "ell:q=11,A=1", "--format", "json"], 0),
        (["periodic", "--seq", "ell:q=10,A=3"], 2),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "seqlab", *args], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == run(args) and done.returncode == code


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every run pays this import before it does any work.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    code = "import sys, seqlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_main_builds_one_parser_and_answers_as_a_fresh_one(monkeypatch):
    calls = (
        ["periodic", "--seq", "ell:q=1019,A=1"],
        ["verify", "thm5"],
        ["periodic", "--seq", "ell:q=10,A=3"],
        ["verify", "nonesuch"],
        ["periodic", "--seq", "ell:q=1019,A=1", "--format", "json"],
    )
    cli._parser.cache_clear()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    reused = [run(args) for args in calls]
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", build)
    fresh = [run(args) for args in calls]
    assert len(built) == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 2, 0]
    _, out, err = reused[2]
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "invalid choice" in reused[3][2]


def test_oracle_bound_env(monkeypatch):
    monkeypatch.setenv("SEQLAB_ORACLE_BOUNDS", "corr=8")
    code, _, err = run([
        "analyze", "--seq", "thue-morse", "--nmax", "12", "--measures", "correlation",
    ])
    assert code == 2 and "8" in err
    monkeypatch.setenv("SEQLAB_ORACLE_BOUNDS", "corr=64")
    code, _, _ = run([
        "analyze", "--seq", "thue-morse", "--nmax", "12", "--measures", "correlation",
    ])
    assert code == 0
