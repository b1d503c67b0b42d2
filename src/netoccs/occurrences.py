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


def occurrence_masks(text: str, splits: list[tuple[str, str, str]], keep: set[str]) -> dict[str, np.ndarray]:
    """Start masks of the words in ``keep`` (``masks[w][p]``: w starts in the text at 0-based p).
    Single letters are masked directly; each split (word, left, right) in turn is built from two
    masks already in the table by occ(left + right) = occ(left) ∩ (occ(right) - |left|), which holds
    for any strings. A mask not kept is dropped after the last split that reads it. Raises
    ValueError for a split that does not spell its word."""
    last_read = {part: n for n, split in enumerate(splits) for part in split[1:]}
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    masks = {word: codes == ord(word) for word in {*keep, *last_read} if len(word) == 1}
    for n, (word, left, right) in enumerate(splits):
        if len(word) != len(left) + len(right) or not (word.startswith(left) and word.endswith(right)):
            raise ValueError(f"occurrence_masks: {left!r} + {right!r} does not spell {word!r}")
        span = max(codes.size - len(left), 0)
        masks[word] = np.zeros(codes.size, bool)
        np.logical_and(masks[left][:span], masks[right][len(left) :], out=masks[word][:span])
        for part in {left, right} - keep:
            if last_read[part] == n:  # no later split reads it
                del masks[part]
    return {word: masks[word] for word in keep}


def mask_bits(mask: np.ndarray) -> int:
    """The bit set of a start mask: bit p + 1 is set where ``mask[p]`` is."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little") << 1


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
