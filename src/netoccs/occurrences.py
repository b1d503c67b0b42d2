"""Occurrences in a text: position sets and the recurrence ``Step`` over
them, the occurrence interval, direct scans for all starting positions, the
repeat probe and the net-occurrence predicate.

An occurrence is a 1-based inclusive interval (start, end) of a text. It is a
net occurrence when the covered substring is repeated in the text while both
its one-letter extensions are unique; an extension that would fall off either
end of the text counts as unique.

Inside the package a position set is a bit set, an int with bit p set iff it
holds the 1-based start p; ``bit_positions`` turns one into the increasing
tuple (``PositionSet``) that the public functions return.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PositionSet = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Step:
    """One step of a position-set recurrence: the bit set is the union of
    three pieces (the last may be 0), merged once when the step is built;
    the first two meet exactly in ``overlap``, the third meets neither."""

    pieces: tuple[int, int, int]
    overlap: int = 0
    merged: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        first, second, third = self.pieces
        object.__setattr__(self, "merged", first | second | third)

    def union(self) -> int:
        return self.merged

    def matches(self, scan: int) -> bool:
        """Every clause of the step holds and the union is ``scan``, a
        direct scan of the set."""
        first, second, third = self.pieces
        return self.merged == scan and first & second == self.overlap and not third & (first | second)


@dataclass(frozen=True, order=True, slots=True)
class Occurrence:
    """1-based inclusive interval inside a text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 1 <= self.start <= self.end:
            raise ValueError(f"invalid occurrence ({self.start}, {self.end})")


def find_occurrences(pattern: str, text: str) -> PositionSet:
    """All 1-based starting positions of the pattern in the text, including
    overlapping ones, in increasing order. Direct-scan oracle for arbitrary
    patterns, such as the Fibonacci lemmas' core block."""
    if not pattern:
        raise ValueError("find_occurrences: empty pattern")
    out = []
    pos = text.find(pattern)
    while pos != -1:
        out.append(pos + 1)
        pos = text.find(pattern, pos + 1)
    return tuple(out)


def occurrence_bits(text: str, splits: list[tuple[str, str, str]], keep: set[str]) -> dict[str, int]:
    """Bit sets of the starts of the words in ``keep`` in an ASCII text. A letter's comes from one
    bytes ``translate`` and one ``int(..., 2)``; each split (word, left, right) in turn uses
    occ(left + right) = occ(left) & (occ(right) >> |left|), true of any strings. A set not kept is
    dropped after its last read; a split that does not spell its word raises ValueError."""
    last_read = {part: n for n, split in enumerate(splits) for part in split[1:]}
    raw = text.encode("ascii")[::-1]  # reversed: the last binary digit is the first letter
    letters = {word for word in {*keep, *last_read} if len(word) == 1}
    tables = {x: bytes(48 + (b == ord(x)) for b in range(256)) for x in letters}  # x to "1", others to "0"
    bits = {x: int(raw.translate(table) or b"0", 2) << 1 for x, table in tables.items()}
    for n, (word, left, right) in enumerate(splits):
        if len(word) != len(left) + len(right) or not (word.startswith(left) and word.endswith(right)):
            raise ValueError(f"occurrence_bits: {left!r} + {right!r} does not spell {word!r}")
        bits[word] = bits[left] & bits[right] >> len(left)
        for part in {left, right} - keep:
            if last_read[part] == n:  # no later split reads it
                del bits[part]
    return {word: bits[word] for word in keep}


def runs_of(bits: int, length: int) -> int:
    """The bit set of the p with p, ..., p + length - 1 all in ``bits`` (length >= 1), by doubling."""
    covered = 1
    while 2 * covered <= length:
        bits &= bits >> covered
        covered *= 2
    return bits & bits >> (length - covered)  # one shift covers the rest (0 at a power of 2)


def bit_positions(bits: int) -> PositionSet:
    """The 1-based positions of a bit set, in increasing order."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), np.uint8)
    return tuple(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def occurs_elsewhere(text: str, s0: int, m: int) -> bool:
    """True iff the length-m substring at 0-based start s0 also starts
    elsewhere. ``rfind`` first: it is the faster scan for long needles."""
    sub = text[s0 : s0 + m]
    return text.rfind(sub) != s0 or text.rfind(sub, 0, s0 + m - 1) != -1


def is_net_occurrence(text: str, occ: Occurrence) -> bool:
    """Definition-level check: the covered substring is repeated, and each
    one-letter extension is unique or falls off the text."""
    s0, m, n = occ.start - 1, occ.end - occ.start + 1, len(text)
    if occ.end > n:
        raise ValueError(f"occurrence {occ} out of bounds for text of length {n}")
    if not occurs_elsewhere(text, s0, m):
        return False
    if s0 > 0 and occurs_elsewhere(text, s0 - 1, m + 1):
        return False
    if occ.end < n and occurs_elsewhere(text, s0, m + 1):
        return False
    return True
