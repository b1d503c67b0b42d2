"""Occurrences in a text: position sets and the recurrence ``Step`` over
them, the occurrence interval, a direct scan for all starting positions,
and the net-occurrence predicate.

An occurrence is a 1-based inclusive interval (start, end) of a text. It is a
net occurrence when the covered substring is repeated in the text while both
its one-letter extensions are unique; an extension that would fall off either
end of the text counts as unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

PositionSet = tuple[int, ...]


def shift_positions(positions: PositionSet, d: int) -> PositionSet:
    """Translate every position by d."""
    return tuple(p + d for p in positions)


def merge_positions(*sets: PositionSet) -> PositionSet:
    """Exact set union, returned strictly increasing."""
    out: set[int] = set()
    for s in sets:
        out.update(s)
    return tuple(sorted(out))


def intersect_positions(a: PositionSet, b: PositionSet) -> PositionSet:
    return tuple(sorted(set(a) & set(b)))


class Step(NamedTuple):
    """One step of a position-set recurrence: the set is the union of three
    pieces (the last may be empty), the first two meet exactly in
    ``overlap``, and every other pair of pieces is disjoint."""

    pieces: tuple[PositionSet, PositionSet, PositionSet]
    overlap: PositionSet = ()

    def union(self) -> PositionSet:
        return merge_positions(*self.pieces)

    def matches(self, scan: PositionSet) -> bool:
        """Every clause of the step holds and the union is ``scan``, a
        direct scan of the set."""
        first, second, third = self.pieces
        return (
            self.union() == scan
            and intersect_positions(first, second) == self.overlap
            and not intersect_positions(first, third)
            and not intersect_positions(second, third)
        )


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
    overlapping ones, in increasing order. Direct-scan oracle."""
    if not pattern:
        raise ValueError("find_occurrences: empty pattern")
    out = []
    pos = text.find(pattern)
    while pos != -1:
        out.append(pos + 1)
        pos = text.find(pattern, pos + 1)
    return tuple(out)


def _check_bounds(text: str, occ: Occurrence) -> None:
    if occ.end > len(text):
        raise ValueError(f"occurrence {occ} out of bounds for text of length {len(text)}")


def _is_unique(text: str, sub: str) -> bool:
    # sub is known to occur; unique iff first and last occurrences coincide.
    return text.find(sub) == text.rfind(sub)


def is_net_occurrence(text: str, occ: Occurrence) -> bool:
    """Definition-level check: the covered substring is repeated, and each
    one-letter extension is unique or falls off the text."""
    _check_bounds(text, occ)
    s, e, n = occ.start, occ.end, len(text)
    sub = text[s - 1 : e]
    if _is_unique(text, sub):
        return False
    if s > 1 and not _is_unique(text, text[s - 2 : e]):
        return False
    if e < n and not _is_unique(text, text[s - 1 : e + 1]):
        return False
    return True
