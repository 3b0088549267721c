"""Generators for the sequence families under study."""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .errors import (
    EvenModulus,
    InvalidParameter,
    MissingParameter,
    NegativeValue,
    NotCoprime,
    NotOddPrime,
    TooShort,
    ZeroSeed,
)
from .numtheory import is_prime, multiplicative_order
from .seqcore import PeriodicSequence, Word, _Checked, read_bits


# typing.NamedTuple refuses a __new__ in the class body, so a type that
# checks or fills its fields subclasses a private tuple of them, and
# seqcore._Checked first.
class _Poly(NamedTuple):
    coefficients: tuple[int, ...]


class PolySpec(_Checked, _Poly):
    """Integer polynomial, constant coefficient first.

    Trailing zero coefficients are trimmed so degree is canonical; the zero
    polynomial is (0,).
    """

    __slots__ = ()

    def __new__(cls, coefficients) -> "PolySpec":
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, n: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc

    def text(self) -> str:
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coefficients[e]
            if c == 0 and self.degree > 0:
                continue
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append("n" if c == 1 else f"{c}*n")
            else:
                parts.append(f"n^{e}" if c == 1 else f"{c}*n^{e}")
        return "+".join(parts).replace("+-", "-") or "0"


IDENTITY = PolySpec((0, 1))


def pattern_bit(k: int, n: int) -> int:
    """Parity of the number of all-ones windows of length k in binary(n).

    Windows may overlap: binary 111 contains two occurrences of 11. k = 1
    gives the parity of the bit count (Thue-Morse), k = 2 the Rudin-Shapiro
    coefficient parity.
    """
    _check_pattern_args(k)
    if n < 0:
        raise NegativeValue(n, n)
    if k > n.bit_length():
        return 0
    m = n
    for j in range(1, k):
        m &= n >> j
    # Each surviving bit marks a position where k consecutive bits are 1.
    return m.bit_count() & 1


def _check_pattern_args(k: int) -> None:
    if k < 1:
        raise InvalidParameter(f"need k >= 1, got {k}")


def pattern_word(k: int, n: int) -> Word:
    """First n bits of pattern_bit(k, .), built by doubling.

    Appending bit 0 to binary(i) adds no window and appending bit 1 adds
    one exactly when the low k - 1 bits of i are all ones, so
    bit(2i) = bit(i) and bit(2i + 1) = bit(i) ^ [i = m mod 2^(k-1)] with
    m = 2^(k-1) - 1. Each doubling is one big-int XOR and two slice
    assignments.
    """
    _check_pattern_args(k)
    if k > max(n - 1, 0).bit_length():
        # No index is k bits long: all zeros, and 2^(k-1) is never built.
        return Word(bytes(max(n, 0)))
    period = 1 << (k - 1)
    cur = b"\0"
    while len(cur) < n:
        size = len(cur)
        marks = bytearray(size)
        marks[period - 1 :: period] = b"\1" * len(range(period - 1, size, period))
        odd = int.from_bytes(cur, "little") ^ int.from_bytes(marks, "little")
        out = bytearray(2 * size)
        out[0::2] = cur
        out[1::2] = odd.to_bytes(size, "little")
        cur = out
    return Word(bytes(cur[:n]))


def thue_morse_word(n: int) -> Word:
    return pattern_word(1, n)


def rudin_shapiro_word(n: int) -> Word:
    return pattern_word(2, n)


def along_polynomial(base_bit: Callable[[int], int], f: PolySpec, n: int) -> Word:
    """Subsequence (base_bit(f(0)), ..., base_bit(f(n-1))); f must stay >= 0."""
    out = bytearray()
    for i in range(n):
        v = f(i)
        if v < 0:
            raise NegativeValue(i, v)
        out.append(base_bit(v))
    return Word(bytes(out))


_FIBS = [1, 2]  # F_2, F_3, ... in the zero-free indexing; grown on demand


def _fibs_upto(n: int) -> list[int]:
    while _FIBS[-1] < n:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS


def zeckendorf_digits(n: int) -> tuple[int, ...]:
    """Greedy Fibonacci expansion of n >= 0: the summands, descending.

    The greedy choice never takes two consecutive Fibonacci numbers, which is
    the defining constraint of the expansion.
    """
    if n < 0:
        raise NegativeValue(n, n)
    fibs = _fibs_upto(n) if n else []
    out = []
    i = len(fibs) - 1
    rest = n
    while rest:
        while fibs[i] > rest:
            i -= 1
        out.append(fibs[i])
        rest -= fibs[i]
        i -= 1  # skip the adjacent summand
    return tuple(out)


def zeckendorf_bit(n: int) -> int:
    """Parity of the Fibonacci digit sum of n."""
    return len(zeckendorf_digits(n)) & 1


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def zeckendorf_word(n: int) -> Word:
    """First n bits of zeckendorf_bit, built by Fibonacci lengths.

    For F_k <= i < F_(k+1) the greedy expansion of i takes F_k and then
    expands i - F_k < F_(k-1) (never F_(k-1), which would give i >= F_(k+1)),
    so bit i is the complement of bit i - F_k. The first F_(k+1) bits are
    therefore the first F_k bits followed by the complement of the first
    F_(k-1): W(F_(k+1)) = W(F_k) + complement(W(F_(k-1))), from W(1) = 0 and
    W(2) = 01.
    """
    prev, cur = b"\0", b"\0\1"
    while len(cur) < n:
        prev, cur = cur, cur + prev.translate(_FLIP)
    return Word(cur[: max(n, 0)])


# legendre_word marks the squares mod p in a p-byte table when p is at most
# this many times n. Building it costs about 70 to 170 ns per unit of p
# (p = 10^3 to 10^7); Euler's criterion costs 1.5 to 2.3 us a bit there
# (27 us at p near 2^61) against about 0.6 us for a table lookup, so the
# table pays for itself up to about p = 10n, and a huge p with a short n
# allocates nothing p-sized.
_SQUARE_TABLE_RATIO = 8


def legendre_word(p: int, f: PolySpec, n: int) -> Word:
    """Bits of the quadratic-residue indicator of f along 0..n-1 mod p.

    Bit i is 1 exactly when f(i) is a nonzero square mod p; multiples of p
    (symbol 0) give bit 0. p is tested for primality once. f(i + p) = f(i)
    mod p, so one period of min(n, p) bits is computed and tiled. Each of
    its bits is a lookup in a table of the squares i^2 mod p, 1 <= i <=
    (p - 1)/2, when p <= _SQUARE_TABLE_RATIO * n, and Euler's criterion
    otherwise.
    """
    _check_legendre_args(p, f)
    m = min(n, p)
    if m <= 0:
        return Word(b"")
    if p <= _SQUARE_TABLE_RATIO * n:
        square = bytearray(p)
        for i in range(1, (p + 1) // 2):
            square[i * i % p] = 1
        if f == IDENTITY:  # the table itself, with no polynomial evaluated per bit
            period = bytes(square[:m])
        else:
            period = bytes([square[f(i) % p] for i in range(m)])
    else:
        e = (p - 1) // 2
        period = bytes([pow(f(i) % p, e, p) == 1 for i in range(m)])
    return Word((period * -(-n // m))[:n])


def _check_legendre_args(p: int, f: PolySpec) -> None:
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    if all(c % p == 0 for c in f.coefficients):
        raise InvalidParameter(f"f vanishes identically mod {p}")


def legendre_period(p: int, f: PolySpec) -> PeriodicSequence:
    """One full period (length p) of the quadratic-residue sequence."""
    return PeriodicSequence(legendre_word(p, f, p))


def fcsr_bit(a: int, q: int, n: int) -> int:
    """Bit n of the carry-register sequence: (a * 2^{-n} mod q) mod 2."""
    _check_fcsr_args(a, q)
    inv = pow(2, -n, q) if n else 1
    return (a * inv % q) & 1


def fcsr_word(a: int, q: int) -> PeriodicSequence:
    """Carry-register sequence with connection integer q and numerator a.

    One least period of s_n = (a * 2^{-n} mod q) mod 2; its length is the
    multiplicative order of 2 mod q. The 2-adic value of the sequence is
    -a/q, so connection() inverts this construction exactly.
    """
    _check_fcsr_args(a, q)
    return PeriodicSequence(_fcsr_prefix(a, q, multiplicative_order(2, q)))


def _fcsr_prefix(a: int, q: int, n: int) -> Word:
    """First n bits of the carry-register sequence, from one 2-adic
    division: the sequence is the 2-adic expansion of -a/q, so its first n
    bits, least significant first, are those of -a * q^-1 mod 2^n."""
    low = -a * pow(q, -1, 1 << n) % (1 << n)
    # bin(low + 2^n) is "0b1" then the n bits, most significant first; read
    # backwards to that prefix, they come least significant first.
    return Word.from01(bin(low | 1 << n)[:2:-1])


def _check_fcsr_args(a: int, q: int) -> None:
    if q < 3 or q % 2 == 0:
        raise EvenModulus(f"need odd q >= 3, got {q}")
    if not 0 < a < q:
        raise InvalidParameter(f"need 0 < a < q, got a = {a}")
    if math.gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) != 1")


def lfsr_word(taps: tuple[int, ...], seed: tuple[int, ...], n: int) -> Word:
    """Linear-feedback sequence s_{i+r} = XOR of s_{i+t} over t in taps.

    r is the seed length; taps are positions in [0, r), any set of them
    (empty taps give zeros after the seed). The first r output bits are the
    seed itself. The rest come in blocks from the recurrence squared j
    times, s_(i + 2^j r) = XOR of s_(i + 2^j t), one XOR of slices each
    (_register_extend).
    """
    _check_lfsr_args(taps, seed)
    bits = bytearray(seed)
    _register_extend(bits, taps, len(seed), n)
    return Word(bytes(bits[: max(n, 0)]))


def _register_extend(bits: bytearray, taps: tuple[int, ...], r: int, n: int) -> None:
    """Extend the register output bits (at least its r seed bits) to n bits.

    Over GF(2) the square of a polynomial doubles every exponent, so the
    recurrence polynomial x^r + sum x^t raised to 2^j gives
    s_(i + 2^j r) = XOR of s_(i + 2^j t) over t in taps, for every i >= 0.
    With L >= 2^j r bits known, bit L + d for d < 2^j (r - max taps) reads
    only bits below L, so that whole block is one XOR of len(taps) slices
    (the 0/1 bytes read as integers, which XOR bytewise). Each block takes
    the largest such 2^j, so it is at least L / 2r bits long.
    """
    step = 1
    while (size := len(bits)) < n:
        while 2 * step * r <= size:
            step *= 2
        block = min(step * (r - max(taps, default=0)), n - size)
        base = size - step * r
        acc = 0
        for t in taps:
            start = base + step * t
            acc ^= int.from_bytes(bits[start : start + block], "little")
        bits += acc.to_bytes(block, "little")


def _check_lfsr_args(taps: tuple[int, ...], seed: tuple[int, ...]) -> None:
    r = len(seed)
    if r == 0:
        raise InvalidParameter("empty seed")
    if any(b not in (0, 1) for b in seed):
        raise InvalidParameter("seed must be bits")
    if not all(0 <= t < r for t in taps):
        raise InvalidParameter(f"taps must lie in [0, {r})")
    if len(set(taps)) != len(taps):
        raise InvalidParameter("duplicate tap")
    if not any(seed):
        raise ZeroSeed("all-zero seed generates the zero sequence")


def lfsr_period(taps: tuple[int, ...], seed: tuple[int, ...]) -> PeriodicSequence:
    """One least period of the register output, found from the state cycle.

    Requires tap 0, so the state map is a bijection and the state cycle
    returns to the seed. The state at step i is the window of r output
    bits at i, so the output period equals the state period: the least
    d >= 1 with the seed window at d, bits.find(bits[:r], 1). It is looked
    for in a prefix that doubles from 2r bits up to 2^r - 1 + r, which
    holds the longest cycle's return, so a short cycle costs a short
    prefix.
    """
    if 0 not in taps:
        raise InvalidParameter("tap 0 is required for a pure state cycle")
    _check_lfsr_args(taps, seed)
    r = len(seed)
    bits = bytearray(seed)
    while (period := bits.find(bits[:r], 1)) < 0:
        assert len(bits) < (1 << r) - 1 + r, "state cycle missed the seed"
        _register_extend(bits, taps, r, min(2 * len(bits), (1 << r) - 1 + r))
    return PeriodicSequence(Word(bytes(bits[:period])))


def _file_prefix(path: str, n: int) -> Word:
    w = read_bits(path)
    if len(w) < n:
        raise TooShort(f"file holds {len(w)} bits, need {n}")
    return w[:n]


def _file_period(path: str) -> tuple[int, Callable[[], PeriodicSequence]]:
    """A file's bit count, the bound on its least period, and the builder
    of that period from the same read."""
    w = read_bits(path)
    return len(w), lambda: PeriodicSequence(w)


class _FamilyFields(NamedTuple):
    keys: dict
    defaults: dict
    check: Callable[..., None] | None
    bit: Callable[..., Callable[[int], int]] | None
    prefix: Callable[..., Word]
    period: Callable[..., tuple[int, Callable[[], PeriodicSequence]]] | None


class Family(_Checked, _FamilyFields):
    """One row of the family table.

    keys maps each parameter to the kind of its value (see _KINDS); every
    key is required but those given in defaults. The callables take the
    parameters as keyword arguments, defaults filled in. check validates
    them, once, when a SeqSpec is built. Every row gives prefix(n, ...),
    the first n bits, which builds every plain word. An indexed family
    also gives bit(...), its bit as a function of the index, used only
    along the polynomial of @poly=, which only indexed families take.
    period(...), for families that have one, gives an upper bound on the
    length of the least period, found without building it, and a function
    that builds the period.
    """

    __slots__ = ()

    def __new__(cls, keys=None, defaults=None, check=None, bit=None, prefix=None, period=None) -> "Family":
        # each row gets its own dicts, never one shared default
        keys = {} if keys is None else keys
        defaults = {} if defaults is None else defaults
        return super().__new__(cls, keys, defaults, check, bit, prefix, period)


def _constant(b: int) -> Family:
    return Family(
        bit=lambda: lambda m: b,
        prefix=lambda n: Word(bytes((b,)) * n),
        period=lambda: (1, lambda: PeriodicSequence(Word([b]))),
    )


# The sequence families, each declared once: the spec grammar, validation,
# materialize and periodic_sequence all read this table.
FAMILIES = {
    "zero": _constant(0),
    "ones": _constant(1),
    "thue-morse": Family(
        bit=lambda: functools.partial(pattern_bit, 1),
        prefix=lambda n: pattern_word(1, n),
    ),
    "pattern": Family(
        {"k": "int"},
        check=_check_pattern_args,
        bit=lambda k: functools.partial(pattern_bit, k),
        prefix=lambda n, k: pattern_word(k, n),
    ),
    "rudin-shapiro": Family(
        bit=lambda: functools.partial(pattern_bit, 2),
        prefix=lambda n: pattern_word(2, n),
    ),
    "zeckendorf": Family(bit=lambda: zeckendorf_bit, prefix=zeckendorf_word),
    "legendre": Family(
        {"p": "int", "f": "poly"},
        {"f": IDENTITY},
        check=_check_legendre_args,
        prefix=lambda n, p, f: legendre_word(p, f, n),
        period=lambda p, f: (p, lambda: legendre_period(p, f)),
    ),
    "ell": Family(
        {"q": "int", "A": "int"},
        check=lambda A, q: _check_fcsr_args(A, q),
        prefix=lambda n, A, q: _fcsr_prefix(A, q, n),
        period=lambda A, q: (multiplicative_order(2, q), lambda: fcsr_word(A, q)),
    ),
    "lfsr": Family(
        {"taps": "list", "seed": "list"},
        check=_check_lfsr_args,
        prefix=lambda n, taps, seed: lfsr_word(taps, seed, n),
        period=lambda taps, seed: ((1 << len(seed)) - 1, lambda: lfsr_period(taps, seed)),
    ),
    "file": Family(
        {"path": "path"},
        prefix=lambda n, path: _file_prefix(path, n),
        period=_file_period,
    ),
}

# Value kinds of spec parameters: the type a value must have. "list" is a
# tuple of ints, dot-separated in spec text.
_KINDS = {"int": int, "list": tuple, "poly": PolySpec, "path": str}


class _SeqFields(NamedTuple):
    family: str
    params: tuple[tuple[str, object], ...]
    poly: PolySpec | None


class SeqSpec(_Checked, _SeqFields):
    """A named sequence family plus its parameters, validated on creation.

    params is a tuple of (key, value) pairs; values are ints, index tuples,
    paths, or PolySpec. poly, when present, selects the subsequence along
    the polynomial's values.
    """

    __slots__ = ()

    def __new__(
        cls, family: str, params: tuple[tuple[str, object], ...] = (), poly: PolySpec | None = None
    ) -> "SeqSpec":
        fam = FAMILIES.get(family)
        if fam is None:
            raise InvalidParameter(f"unknown family {family!r}")
        if poly is not None and fam.bit is None:
            raise InvalidParameter(f"family {family!r} does not take a poly suffix")
        keys = [k for k, _ in params]
        if len(set(keys)) != len(keys):
            raise InvalidParameter("duplicate parameter")
        ordered = tuple(sorted(params))
        for key, value in ordered:
            if key not in fam.keys:
                raise InvalidParameter(f"family {family!r} does not take {key}=")
            kind = fam.keys[key]
            # A list is an exact tuple: the value types are tuples too, and
            # one of ints, such as MocWitness, is no list of indices.
            if not isinstance(value, _KINDS[kind]) or (
                kind == "list" and (type(value) is not tuple or not all(isinstance(b, int) for b in value))
            ):
                raise InvalidParameter(f"{key} must be of kind {kind}, got {value!r}")
        for key in fam.keys:
            if key not in keys and key not in fam.defaults:
                raise MissingParameter(f"family {family!r} needs {key}=")
        spec = super().__new__(cls, family, ordered, poly)
        if fam.check is not None:
            fam.check(**spec._values())
        return spec

    def _values(self) -> dict:
        """Every parameter by name, defaults filled in."""
        return {**FAMILIES[self.family].defaults, **dict(self.params)}

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def text(self) -> str:
        """Canonical spec string; parameters in sorted key order."""
        parts = []
        for k, v in sorted(self.params):
            if isinstance(v, PolySpec):
                parts.append(f"{k}={v.text()}")
            elif isinstance(v, tuple):
                parts.append(f"{k}={'.'.join(str(b) for b in v)}")
            else:
                parts.append(f"{k}={v}")
        out = self.family + (":" + ",".join(parts) if parts else "")
        if self.poly is not None:
            out += f"@poly={self.poly.text()}"
        return out


def materialize(spec: SeqSpec, n: int) -> Word:
    """First n bits of the specified sequence."""
    if n < 0:
        raise InvalidParameter(f"need n >= 0, got {n}")
    fam = FAMILIES[spec.family]
    if spec.poly is None:
        return fam.prefix(n, **spec._values())
    return along_polynomial(fam.bit(**spec._values()), spec.poly, n)


def bounded_period(spec: SeqSpec) -> tuple[int, Callable[[], PeriodicSequence]]:
    """An upper bound on the least period of the specified sequence, found
    without building it (a file is read once, for both), and a function
    that builds the period; only constant, register, residue and file
    families have one."""
    period = FAMILIES[spec.family].period
    if period is None:
        raise InvalidParameter(f"family {spec.family!r} has no finite period")
    return period(**spec._values())


def periodic_sequence(spec: SeqSpec) -> PeriodicSequence:
    """The specified sequence as its least period."""
    return bounded_period(spec)[1]()
