"""Exception types shared across the package."""


class SeqLabError(Exception):
    """Base class for all seqlab errors."""


class InvalidParameter(SeqLabError, ValueError):
    """A parameter has an illegal value."""


class NotCoprime(InvalidParameter):
    """Arguments required to be coprime are not."""


class TooLarge(SeqLabError):
    """Input exceeds the documented exact-arithmetic bound."""


class NotOddPrime(InvalidParameter):
    """Modulus must be an odd prime."""


class NotEllModulus(SeqLabError):
    """Modulus is not an odd prime power with 2 as a primitive root."""


class EvenModulus(InvalidParameter):
    """Connection-style modulus must be odd."""


class ZeroSeed(InvalidParameter):
    """Shift-register seed must not be all zero."""


class NegativeValue(SeqLabError):
    """Index polynomial produced a negative value."""

    def __init__(self, n: int, value: int):
        super().__init__(f"f({n}) = {value} < 0")
        self.n = n
        self.value = value


class MalformedBitFile(SeqLabError):
    """Bit file contains a byte other than '0', '1', or ASCII whitespace."""

    def __init__(self, offset: int, char: str):
        super().__init__(f"illegal byte {ascii(char)} at offset {offset}")
        self.offset = offset
        self.char = char


class TooShort(SeqLabError):
    """Word is shorter than the measure's minimum length."""


class BoundExceeded(SeqLabError):
    """Requested computation exceeds a documented cost bound."""


class OracleBoundExceeded(SeqLabError):
    """Reference-oracle input exceeds its safety bound (see SEQLAB_ORACLE_BOUNDS)."""


class ParseError(SeqLabError):
    """Sequence-spec or polynomial text failed to parse."""

    def __init__(self, text: str, pos: int, reason: str):
        super().__init__(f"{reason} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos
        self.reason = reason


class MissingParameter(SeqLabError):
    """Sequence spec omits a required parameter."""
