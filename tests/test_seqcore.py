"""Core word, periodic-sequence, and profile types."""

import io
import math
import random

import pytest

from referees import least_period_by_divisors
from seqlab.errors import InvalidParameter, MalformedBitFile
from seqlab.seqcore import (
    PeriodicSequence,
    Profile,
    RationalRep,
    Word,
    prefix_value,
    read_bits,
    reverse_period,
    write_bits,
)


def test_word_roundtrip():
    rng = random.Random(10)
    for _ in range(100):
        text = "".join(rng.choice("01") for _ in range(rng.randrange(0, 80)))
        w = Word.from01(text)
        assert w.to01() == text
        assert len(w) == len(text)
        assert list(w) == [int(c) for c in text]


def test_word_value_little_endian():
    assert Word.from01("").value() == 0
    assert Word.from01("1").value() == 1
    assert Word.from01("01").value() == 2
    assert Word.from01("011").value() == 6
    assert Word.from01("0110").value() == 6
    rng = random.Random(11)
    for _ in range(50):
        text = "".join(rng.choice("01") for _ in range(rng.randrange(1, 60)))
        w = Word.from01(text)
        assert w.value() == sum(b << i for i, b in enumerate(w))


def test_prefix_value():
    w = Word.from01("110101")
    for n in range(len(w) + 1):
        assert prefix_value(w, n) == Word(w.bits[:n]).value()
    assert prefix_value(w) == w.value()
    assert prefix_value(w, 100) == w.value()
    with pytest.raises(ValueError):
        prefix_value(w, -1)


def test_word_slicing_and_equality():
    w = Word.from01("10110")
    assert w[1:4].to01() == "011"
    assert w[2] == 1
    assert Word.from01("101") == Word.from01("101")
    assert Word.from01("101") != Word.from01("100")


def test_least_period():
    assert PeriodicSequence(Word.from01("010101")).word.to01() == "01"
    assert PeriodicSequence(Word.from01("0110")).T == 4
    assert PeriodicSequence(Word.from01("111")).word.to01() == "1"
    assert PeriodicSequence(Word.from01("0")).T == 1
    s = PeriodicSequence(Word.from01("001001"))
    assert s.T == 3 and s.word.to01() == "001"
    with pytest.raises(InvalidParameter):
        PeriodicSequence(Word.from01(""))


def test_periods_of_one_sequence_compare_and_hash_equal():
    a, b = PeriodicSequence(Word.from01("0101")), PeriodicSequence(Word.from01("01"))
    assert a == b and hash(a) == hash(b) and repr(a) == "PeriodicSequence(word=Word('01'))"
    assert a != PeriodicSequence(Word.from01("10"))
    assert PeriodicSequence(Word.from01("1"))._replace(word=Word.from01("0101")) == b
    # A word that is its own least period is kept, not copied.
    w = Word.from01("0110")
    assert PeriodicSequence(w).word is w


def test_least_period_divides_and_tiles():
    rng = random.Random(12)
    for _ in range(200):
        T = rng.randrange(1, 30)
        text = "".join(rng.choice("01") for _ in range(T))
        reps = rng.randrange(1, 4)
        s = PeriodicSequence(Word.from01(text * reps))
        assert (T * reps) % s.T == 0
        assert s.prefix(T * reps).to01() == text * reps
        # No proper divisor of the least period tiles the word.
        d = s.T
        for e in range(1, d):
            if d % e == 0:
                assert s.word.bits != s.word.bits[:e] * (d // e)


def test_least_period_matches_divisor_referee():
    for T in range(1, 15):
        for v in range(1 << T):
            bits = bytes((v >> i) & 1 for i in range(T))
            s = PeriodicSequence(Word(bits))
            assert s.T == least_period_by_divisors(bits), bits
            assert s.word.bits == bits[: s.T]
    rng = random.Random(13)
    for _ in range(300):
        d = rng.randrange(1, 200)
        bits = bytes(rng.getrandbits(1) for _ in range(d)) * rng.randrange(1, 40)
        s = PeriodicSequence(Word(bits))
        assert s.T == least_period_by_divisors(bits)
        assert d % s.T == 0


def test_periodic_sequence_access():
    s = PeriodicSequence(Word.from01("01101"))
    assert s.T == 5
    assert s.bit(0) == 0 and s.bit(6) == 1 and s.bit(12) == 1
    assert s.prefix(12).to01() == "011010110101"[:12]


def test_reverse_period():
    s = PeriodicSequence(Word.from01("00101"))
    r = reverse_period(s)
    assert r.word.to01() == "10100"
    assert reverse_period(r).word.to01() == s.word.to01()
    assert r.T == least_period_by_divisors(r.word.bits)


def test_rational_rep_phi2():
    assert RationalRep(18, 31).phi2 == pytest.approx(math.log2(31))
    assert RationalRep(0, 1).phi2 == pytest.approx(0.0)
    assert RationalRep(1, 1).phi2 == pytest.approx(0.0)


def test_profile_one_based():
    p = Profile((3, 1, 4, 1, 5))
    assert p.at(1) == 3
    assert p.at(5) == 5
    with pytest.raises(IndexError):
        p.at(0)
    with pytest.raises(IndexError):
        p.at(6)


def test_bit_file_roundtrip(tmp_path):
    rng = random.Random(13)
    for n in (0, 1, 63, 64, 65, 200):
        text = "".join(rng.choice("01") for _ in range(n))
        path = tmp_path / f"w{n}.bits"
        write_bits(Word.from01(text), path)
        assert read_bits(path).to01() == text
        raw = path.read_text()
        for line in raw.splitlines():
            assert len(line) <= 64


def test_bit_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bits"
    path.write_text("0101x01\n")
    with pytest.raises(MalformedBitFile):
        read_bits(path)


def test_bit_file_rejects_non_ascii_bytes(tmp_path):
    # UTF-8 e-acute, then the Latin-1 no-break space and next-line bytes,
    # which str.isspace accepts: each is refused at its byte offset.
    path = tmp_path / "bad.bits"
    for raw, off in ((b"01\xc3\xa910", 2), (b"0\n1\xa010", 3), (b"011\x85", 3)):
        path.write_bytes(raw)
        with pytest.raises(MalformedBitFile) as exc:
            read_bits(path)
        assert exc.value.offset == off and exc.value.char == chr(raw[off])
        assert str(exc.value) == f"illegal byte '\\x{raw[off]:02x}' at offset {off}"
    for text in ("01\xa010", "01\u200010", "01\u300010"):
        with pytest.raises(MalformedBitFile):
            read_bits(io.StringIO(text))
    path.write_bytes(b" 0\t1\r\n1\x0b0\x0c\n")
    assert read_bits(path).to01() == "0110"


def test_bit_file_offsets_count_bytes(tmp_path):
    # A file is read as bytes: CRLF is two skipped bytes and a lone CR one,
    # so no newline translation moves the offset of a bad byte.
    path = tmp_path / "w.bits"
    for raw, off in ((b"0\r\n1x", 4), (b"0\r1x", 3), (b"0\n1x", 3), (b"01\r\n10\r\n\r\n1\x85", 11)):
        path.write_bytes(raw)
        with pytest.raises(MalformedBitFile) as exc:
            read_bits(path)
        assert exc.value.offset == off and exc.value.char == chr(raw[off])
    path.write_bytes(b"01\r\n10\r1\n")
    assert read_bits(path).to01() == "01101"
    # A text stream is read as it is: offsets count its characters.
    assert read_bits(io.StringIO("01\r\n10\r1\n")).to01() == "01101"
    for text, off in (("0\r\n1x", 4), ("0\n1x", 3)):
        with pytest.raises(MalformedBitFile) as exc:
            read_bits(io.StringIO(text))
        assert exc.value.offset == off
    path.write_bytes(b"0\r\n1x")
    with path.open(encoding="ascii") as stream, pytest.raises(MalformedBitFile) as exc:
        read_bits(stream)
    assert exc.value.offset == 3
