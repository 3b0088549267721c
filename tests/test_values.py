"""The value types: immutable, compared and hashed by value, with fixed reprs.

The reprs are pinned because the README doctest and error messages print
them. Each case builds its value twice, so equality and hashing are checked
between distinct objects.
"""

import pytest

from seqlab.adic import AdicValue, ApproxPair
from seqlab.errors import InvalidParameter, MissingParameter
from seqlab.generators import Family, PolySpec, SeqSpec
from seqlab.maxorder import CosetSet, MocResult, MocWitness
from seqlab.measures import CorrelationWitness
from seqlab.relations import ClaimSuite, ScanPoint, ScanReport, VerificationReport
from seqlab.seqcore import PeriodicSequence, Profile, RationalRep, Word


def _point():
    return ScanPoint(8, 5, 2.321928, 4.0, -1.678072, True)


# (build, a field name, a value unequal to build(), repr of build(), hashable)
CASES = [
    (lambda: AdicValue(65537), "mu", AdicValue(3), "AdicValue(mu=65537)", True),
    (
        lambda: ApproxPair(f=-38506, q=65537, n=32, mu=65537),
        "q",
        ApproxPair(f=-38506, q=65537, n=33, mu=65537),
        "ApproxPair(f=-38506, q=65537, n=32, mu=65537)",
        True,
    ),
    (lambda: PolySpec((1, 0, 2, 0)), "coefficients", PolySpec((1, 0, 3)), "PolySpec(coefficients=(1, 0, 2))", True),
    (
        lambda: Family({"k": "int"}, bit=len),
        "keys",
        Family({"k": "int"}),
        "Family(keys={'k': 'int'}, defaults={}, check=None, bit=<built-in function len>,"
        " prefix=None, period=None)",
        False,
    ),
    (
        lambda: SeqSpec("ell", (("q", 31), ("A", 5))),
        "params",
        SeqSpec("ell", (("q", 31), ("A", 3))),
        "SeqSpec(family='ell', params=(('A', 5), ('q', 31)), poly=None)",
        True,
    ),
    (
        lambda: SeqSpec("thue-morse", poly=PolySpec((0, 0, 1))),
        "poly",
        SeqSpec("thue-morse"),
        "SeqSpec(family='thue-morse', params=(), poly=PolySpec(coefficients=(0, 0, 1)))",
        True,
    ),
    (lambda: MocWitness(1, 4, 3), "i", MocWitness(0, 4, 3), "MocWitness(i=1, j=4, length=3)", True),
    (
        lambda: MocResult(4, MocWitness(1, 4, 3)),
        "m",
        MocResult(4, None),
        "MocResult(m=4, witness=MocWitness(i=1, j=4, length=3))",
        True,
    ),
    (
        lambda: CosetSet(frozenset({1, 2, 4}), 7),
        "elements",
        CosetSet(frozenset({3, 6, 5}), 7),
        "CosetSet(elements=frozenset({1, 2, 4}), q=7)",
        True,
    ),
    (
        lambda: CorrelationWitness(3, (0, 2), -3),
        "value",
        CorrelationWitness(3, (0, 2), 3),
        "CorrelationWitness(window=3, offsets=(0, 2), value=-3)",
        True,
    ),
    (
        lambda: VerificationReport("thm1", "thue-morse:32", "pass", {"M": 9}),
        "status",
        VerificationReport("thm1", "thue-morse:32", "fail", {"M": 9}),
        "VerificationReport(claim_id='thm1', instance='thue-morse:32', status='pass', evidence={'M': 9})",
        False,
    ),
    (
        lambda: ClaimSuite(len, "--nmax", 2000, None, 10),
        "flag",
        ClaimSuite(len),
        "ClaimSuite(suite=<built-in function len>, flag='--nmax', default=2000, minimum=None, maximum=10)",
        True,
    ),
    (
        _point,
        "within",
        ScanPoint(8, 5, 2.321928, 4.0, -1.678072, False),
        "ScanPoint(n=8, mu=5, log2_mu=2.321928, target=4.0, deviation=-1.678072, within=True)",
        True,
    ),
    (
        lambda: ScanReport("thue-morse", 8, 8.0, 1.3, (_point(),), "pass"),
        "points",
        ScanReport("thue-morse", 8, 8.0, 1.3, (), "pass"),
        "ScanReport(seq='thue-morse', n_max=8, c=8.0, ratio=1.3, points=(ScanPoint(n=8, mu=5,"
        " log2_mu=2.321928, target=4.0, deviation=-1.678072, within=True),), status='pass')",
        True,
    ),
    (
        lambda: PeriodicSequence(Word.from01("011011")),
        "word",
        PeriodicSequence(Word.from01("110")),
        "PeriodicSequence(word=Word('011'))",
        True,
    ),
    (lambda: RationalRep(5, 31), "A", RationalRep(3, 31), "RationalRep(A=5, q=31)", True),
    (lambda: Profile((3, 1, 4)), "values", Profile((3, 1, 5)), "Profile(values=(3, 1, 4))", True),
]


@pytest.mark.parametrize("build, name, other, text, hashable", CASES, ids=[c[3].split("(")[0] for c in CASES])
def test_value_type_contract(build, name, other, text, hashable):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert repr(a) == text
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    old = getattr(a, name)
    for attr in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 0)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) == old and a == b


# (value, field changes): _replace on each value type whose class has its
# own __new__, to a value the constructor changes or refuses
REPLACEMENTS = [
    (PeriodicSequence(Word.from01("011")), {"word": Word.from01("0101")}),
    (PeriodicSequence(Word.from01("011")), {"word": Word(b"")}),
    (RationalRep(3, 31), {"q": 9}),
    (RationalRep(1, 3), {"q": 4}),
    (RationalRep(3, 31), {"A": 5}),
    (PolySpec((1, 2)), {"coefficients": (1, 0, 0)}),
    (PolySpec((1, 2)), {"coefficients": ()}),
    (Family({"k": "int"}), {"keys": None}),
    (SeqSpec("ell", (("q", 31), ("A", 5))), {"params": (("q", 31), ("A", 3))}),
    (SeqSpec("ell", (("q", 31), ("A", 5))), {"params": (("q", 9), ("A", 3))}),
    (SeqSpec("ell", (("q", 31), ("A", 5))), {"family": "nonesuch"}),
    (SeqSpec("thue-morse"), {"poly": PolySpec((0, 0, 1))}),
]


@pytest.mark.parametrize("value, changes", REPLACEMENTS, ids=[f"{type(v).__name__}-{c}" for v, c in REPLACEMENTS])
def test_replace_returns_what_the_constructor_returns(value, changes):
    fields = {**value._asdict(), **changes}
    try:
        want = type(value)(**fields)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            value._replace(**changes)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        got = value._replace(**changes)
        assert type(got) is type(want) and got == want and repr(got) == repr(want)


def test_replace_cases_cover_every_checking_value_type():
    # NamedTuple defines __new__ and _fields on the class it makes; a
    # subclass that checks or fills its fields defines only __new__
    types = {type(build()) for build, *_ in CASES}
    checking = {t for t in types if "__new__" in vars(t) and "_fields" not in vars(t)}
    assert checking == {type(value) for value, _ in REPLACEMENTS}


def test_family_rows_do_not_share_their_dicts():
    one, two = Family(), Family()
    assert one.keys == two.keys == {} and one.keys is not two.keys
    assert one.defaults is not two.defaults


def test_rational_rep_refuses_a_pair_that_is_not_reduced():
    refused = ((3, 9, "gcd(3, 9) != 1"), (1, 4, "q must be odd positive, got 4"), (5, 3, "A = 5 outside [0, 3]"))
    for A, q, message in refused:
        with pytest.raises(ValueError) as exc:
            RationalRep(A, q)
        assert str(exc.value) == message
    assert RationalRep(q=31, A=5) == RationalRep(5, 31)


def test_seqspec_sorts_and_validates_its_params():
    assert SeqSpec("ell", [("q", 31), ("A", 5)]).params == (("A", 5), ("q", 31))
    assert SeqSpec("legendre", (("p", 7),)).param("f") is None
    cases = [
        (InvalidParameter, "unknown family 'nonesuch'", "nonesuch", (), None),
        (InvalidParameter, "family 'ell' does not take a poly suffix", "ell", (), PolySpec((0, 1))),
        (InvalidParameter, "duplicate parameter", "ell", (("q", 31), ("q", 33)), None),
        (InvalidParameter, "family 'ell' does not take k=", "ell", (("A", 5), ("k", 1), ("q", 31)), None),
        (InvalidParameter, "k must be of kind int, got '3'", "pattern", (("k", "3"),), None),
        (InvalidParameter, "f must be of kind poly, got (0, 1)", "legendre", (("f", (0, 1)), ("p", 7)), None),
        (InvalidParameter, "seed must be of kind list, got (1, '0')", "lfsr", (("seed", (1, "0")), ("taps", (0, 1))), None),
        (InvalidParameter, "seed must be of kind list, got [1, 0]", "lfsr", (("seed", [1, 0]), ("taps", (0, 1))), None),
        # the value types are tuples, and these are no lists of indices
        (
            InvalidParameter,
            "taps must be of kind list, got PolySpec(coefficients=(0, 1))",
            "lfsr",
            (("taps", PolySpec((0, 1))), ("seed", (1, 0))),
            None,
        ),
        (
            InvalidParameter,
            "seed must be of kind list, got MocWitness(i=1, j=0, length=1)",
            "lfsr",
            (("seed", MocWitness(1, 0, 1)), ("taps", (0, 2))),
            None,
        ),
        (InvalidParameter, "path must be of kind path, got 7", "file", (("path", 7),), None),
        (MissingParameter, "family 'ell' needs q=", "ell", (), None),
        (MissingParameter, "family 'ell' needs A=", "ell", (("q", 31),), None),
    ]
    for cls, message, family, params, poly in cases:
        with pytest.raises(cls) as exc:
            SeqSpec(family, params, poly)
        assert type(exc.value) is cls and str(exc.value) == message
