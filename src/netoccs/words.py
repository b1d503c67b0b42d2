"""Binary words over {a, b}: the Fibonacci and Thue-Morse generators and
``FactorRef``, the symbolic factor that Thue-Morse factorizations list.

Words are plain Python strings restricted to the letters 'a' and 'b'.
All positions exposed by this package are 1-based and inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

ALPHABET = ("a", "b")

# Longest word the generators build (2^24 letters). The first refused orders
# are fib 37 and tm 26.
MAX_WORD_LEN = 1 << 24

_FLIP = str.maketrans("ab", "ba")


def flip_word(w: str) -> str:
    """Exchange a <-> b letterwise. Length-preserving involution."""
    return w.translate(_FLIP)


def validate_word(w: str) -> str:
    """Reject any character outside the two-letter alphabet."""
    if w.strip("ab"):
        bad = sorted(set(w) - set(ALPHABET))
        raise ValueError(f"word contains letters outside {{a, b}}: {bad}")
    return w


def _check_order(name: str, order: int, max_order: int) -> None:
    if order < 1:
        raise ValueError(f"{name}: order must be >= 1, got {order}")
    if order > max_order:
        raise ValueError(
            f"{name}: order {order} gives a word longer than {MAX_WORD_LEN} letters "
            f"(largest order: {max_order})"
        )


@lru_cache(maxsize=None)
def fib_word(order: int) -> str:
    """Fibonacci word of the given order: 'b', 'a', then each word is the
    previous one followed by the one before it."""
    _check_order("fib_word", order, FIB_MAX_ORDER)
    if order == 1:
        return "b"
    if order == 2:
        return "a"
    return fib_word(order - 1) + fib_word(order - 2)


def fib_length(order: int) -> int:
    """Length of the Fibonacci word of the given order."""
    if order < 1:
        raise ValueError(f"fib_length: order must be >= 1, got {order}")
    a, b = 1, 1  # lengths at orders 1 and 2
    for _ in range(order - 2):
        a, b = b, a + b
    return b if order > 1 else a


def fib_length_ext(order: int) -> int:
    """fib_length extended by the two convention values used in counting
    formulas: order -1 -> 1 and order 0 -> 0."""
    if order == -1:
        return 1
    if order == 0:
        return 0
    return fib_length(order)


@lru_cache(maxsize=None)
def tm_word(order: int) -> str:
    """Thue-Morse word of the given order: 'a', then each word is the
    previous one followed by its flip. Length doubles per order."""
    _check_order("tm_word", order, TM_MAX_ORDER)
    if order == 1:
        return "a"
    prev = tm_word(order - 1)
    return prev + flip_word(prev)


@lru_cache(maxsize=None)
def tm_flip_word(order: int) -> str:
    """Letterwise flip of the Thue-Morse word of the given order."""
    return flip_word(tm_word(order))


def tm_length(order: int) -> int:
    """Length of the Thue-Morse word of the given order: 2**(order-1)."""
    if order < 1:
        raise ValueError(f"tm_length: order must be >= 1, got {order}")
    return 1 << (order - 1)


# Largest orders whose words have at most MAX_WORD_LEN letters.
FIB_MAX_ORDER = max(k for k in range(1, 64) if fib_length(k) <= MAX_WORD_LEN)
TM_MAX_ORDER = max(k for k in range(1, 64) if tm_length(k) <= MAX_WORD_LEN)


def q_word(order: int) -> str:
    """Descending concatenation of Fibonacci words from order-5 down to 2.

    Defined for order >= 7 (the product would be empty or ill-formed below);
    its length is fib_length(order-3) - 2.
    """
    if order < 7:
        raise ValueError(f"q_word: order must be >= 7, got {order}")
    return "".join(fib_word(k) for k in range(order - 5, 1, -1))


def delta(bit: int) -> str:
    """The two-letter closing words: delta(0) = 'ba', delta(1) = 'ab'."""
    if bit == 0:
        return "ba"
    if bit == 1:
        return "ab"
    raise ValueError(f"delta: bit must be 0 or 1, got {bit}")


@dataclass(frozen=True)
class FactorRef:
    """Symbolic reference to a word: a Thue-Morse word, a flipped
    Thue-Morse word, or a literal string.

    kind is one of "TM", "TMflip", "lit"; exactly one of order/text is set.
    """

    kind: str
    order: int | None = None
    text: str | None = None

    def __post_init__(self) -> None:
        if self.kind in ("TM", "TMflip"):
            if self.order is None or self.order < 1 or self.text is not None:
                raise ValueError(f"FactorRef: {self.kind} needs order >= 1 only")
        elif self.kind == "lit":
            if self.text is None or self.order is not None:
                raise ValueError("FactorRef: lit needs text only")
            validate_word(self.text)
        else:
            raise ValueError(f"FactorRef: unknown kind {self.kind!r}")

    def resolve(self) -> str:
        if self.kind == "TM":
            return tm_word(self.order)
        if self.kind == "TMflip":
            return tm_flip_word(self.order)
        return self.text

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "order": self.order, "text": self.text}


def tm_ref(order: int) -> FactorRef:
    return FactorRef("TM", order=order)


def tm_flip_ref(order: int) -> FactorRef:
    return FactorRef("TMflip", order=order)


def lit_ref(text: str) -> FactorRef:
    return FactorRef("lit", text=text)


def read_word_file(path) -> str:
    """Read a one-line word file: ASCII a/b letters, optional trailing newline."""
    with open(path, "r", encoding="ascii") as fh:
        data = fh.read()
    if data.endswith("\n"):
        data = data[:-1]
    if "\n" in data:
        raise ValueError(f"{path}: expected a single line of a/b letters")
    if not data:
        raise ValueError(f"{path}: empty word")
    return validate_word(data)
