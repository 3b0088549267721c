"""Binary words, periodic sequences held as their least period, measure
profiles, and the bit-file format."""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Union

from .errors import InvalidParameter, MalformedBitFile
from .numtheory import int_log2

_TO01 = bytes.maketrans(b"\x00\x01", b"01")
_FROM01 = bytes.maketrans(b"01", b"\x00\x01")


class Word:
    """Immutable finite binary word, one byte per symbol.

    Supports O(1) indexing, cheap slicing, and direct conversion to the
    base-2 value with bit n weighted 2^n (symbol 0 is the least significant
    bit everywhere in this package).
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Union[bytes, Iterable[int]]):
        data = bits if isinstance(bits, bytes) else bytes(bits)
        if data.count(0) + data.count(1) != len(data):
            bad = next(i for i, b in enumerate(data) if b > 1)
            raise ValueError(f"symbol {data[bad]} at index {bad} is not a bit")
        self._bits = data

    @classmethod
    def from01(cls, text: str) -> "Word":
        return cls(text.encode("ascii").translate(_FROM01))

    @property
    def bits(self) -> bytes:
        return self._bits

    def to01(self) -> str:
        return self._bits.translate(_TO01).decode("ascii")

    def value(self) -> int:
        """Sum of s_n * 2^n over the whole word."""
        if not self._bits:
            return 0
        return int(self.to01()[::-1], 2)

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Word(self._bits[idx])
        return self._bits[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        if len(self._bits) <= 40:
            return f"Word({self.to01()!r})"
        return f"Word({self[:37].to01()!r}..., len={len(self._bits)})"


def prefix_value(w: Word, n: int | None = None) -> int:
    """Value sum s_i * 2^i of the first n symbols (whole word by default)."""
    if n is None or n >= len(w):
        return w.value()
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return w[:n].value()


# typing.NamedTuple refuses a __new__ in the class body, so a type that
# checks or fills its fields subclasses a private tuple of them, and
# _Checked first.
class _Checked:
    """A _make that calls the constructor: namedtuple's _make, which
    _replace calls, skips __new__ and so its checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Period(NamedTuple):
    word: Word


class PeriodicSequence(_Checked, _Period):
    """An infinite periodic binary sequence, held as its least period.

    Built from any nonempty period word w, it keeps the least d >= 1 whose
    rotation maps w to itself, read as the first match of w at offset d in
    two copies of it. The rotations that fix w form a group, so that least d
    divides len(w), and w is its first d symbols repeated. So T is always
    the least period, and two periods of one sequence, such as 0101 and 01,
    compare and hash equal. When w is its own least period, w itself is
    kept.
    """

    __slots__ = ()

    def __new__(cls, word: Word) -> "PeriodicSequence":
        data = word.bits
        if not data:
            raise InvalidParameter("empty word has no period")
        d = (data + data).find(data, 1)
        return super().__new__(cls, word if d == len(data) else word[:d])

    @property
    def T(self) -> int:
        return len(self.word)

    def prefix(self, n: int) -> Word:
        """First n symbols of the infinite sequence."""
        reps = -(-n // len(self.word))
        return Word((self.word.bits * reps)[:n])

    def bit(self, n: int) -> int:
        return self.word[n % len(self.word)]


def reverse_period(s: PeriodicSequence) -> PeriodicSequence:
    """Sequence whose period word is the reversal of s's period word."""
    return PeriodicSequence(Word(s.word.bits[::-1]))


class _Rational(NamedTuple):
    A: int
    q: int


class RationalRep(_Checked, _Rational):
    """Reduced connection pair (A, q): the sequence value equals -A/q 2-adically.

    q is odd and positive, 0 <= A <= q, gcd(A, q) = 1. A = 0 encodes the zero
    sequence (q = 1) and A = q = 1 the all-ones sequence.
    """

    __slots__ = ()

    def __new__(cls, A: int, q: int) -> "RationalRep":
        rep = cls._coprime(A, q)
        if math.gcd(A, q) != 1:
            raise ValueError(f"gcd({A}, {q}) != 1")
        return rep

    @classmethod
    def _coprime(cls, A: int, q: int) -> "RationalRep":
        """A pair its caller has divided by its gcd: the range is checked,
        the gcd is not computed again."""
        rep = tuple.__new__(cls, (A, q))
        rep._check_range()
        return rep

    def _check_range(self) -> None:
        if self.q <= 0 or self.q % 2 == 0:
            raise ValueError(f"q must be odd positive, got {self.q}")
        if not 0 <= self.A <= self.q:
            raise ValueError(f"A = {self.A} outside [0, {self.q}]")

    @property
    def phi2(self) -> float:
        """log2(q), the periodic 2-adic complexity."""
        return int_log2(self.q)


class Profile:
    """Per-prefix measure values; at(N) is the value for the length-N prefix.

    Immutable like the other value types, but a plain class: len() and
    iteration run over values.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash((self.values,))

    def __repr__(self) -> str:
        return f"Profile(values={self.values!r})"

    def at(self, n: int) -> int:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"profile covers N in [1, {len(self.values)}], got {n}")
        return self.values[n - 1]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


Source = Union[str, Path, IO[str]]

# The ASCII whitespace read_bits skips: what str.isspace accepts below 128,
# 0x1c to 0x1f included.
_ASCII_SPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "


def read_bits(source: Source) -> Word:
    """Read a bit file: ASCII '0'/'1' with ASCII whitespace ignored.

    Any other byte raises MalformedBitFile carrying its offset in the text.
    A file is read as bytes and decoded as Latin-1, one character per byte,
    so the offset is the byte offset (no newline translation merges a CRLF)
    and a non-ASCII byte reaches that check instead of failing the decode.
    A text stream is read as it is; its offsets count characters.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_bytes().decode("latin-1")
    if text.isascii():
        data = text.encode("ascii").translate(None, _ASCII_SPACE)
        if data.count(b"0") + data.count(b"1") == len(data):
            return Word(data.translate(_FROM01))
    # Some character is bad: the first one is reported.
    off = next(i for i, ch in enumerate(text) if ch not in "01" and not (ch.isspace() and ch.isascii()))
    raise MalformedBitFile(off, text[off])


def write_bits(w: Word, sink: Source) -> None:
    """Write a word as ASCII bits, 64 per line, newline-terminated."""
    text = w.to01()
    lines = [text[i : i + 64] for i in range(0, len(text), 64)]
    payload = "".join(line + "\n" for line in lines)
    if hasattr(sink, "write"):
        sink.write(payload)
    else:
        Path(sink).write_text(payload, encoding="ascii")
