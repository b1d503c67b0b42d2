"""Occurrences in a text: position sets and the recurrence ``Step`` over
them, the occurrence interval, a direct scan for all starting positions,
the repeat probe and the net-occurrence predicate.

An occurrence is a 1-based inclusive interval (start, end) of a text. It is a
net occurrence when the covered substring is repeated in the text while both
its one-letter extensions are unique; an extension that would fall off either
end of the text counts as unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PositionSet = tuple[int, ...]


def shift_positions(positions: PositionSet, d: int) -> PositionSet:
    """Translate every position by d."""
    return tuple(map(d.__add__, positions))


def merge_positions(*sets: PositionSet) -> PositionSet:
    """Exact set union, returned strictly increasing."""
    out: set[int] = set()
    for s in sets:
        out.update(s)
    return tuple(sorted(out))


def intersect_positions(a: PositionSet, b: PositionSet) -> PositionSet:
    return tuple(sorted(set(a) & set(b)))


@dataclass(frozen=True, slots=True)
class Step:
    """One step of a position-set recurrence: the set is the union of three
    pieces (the last may be empty), merged once when the step is built; the
    first two meet exactly in ``overlap``, every other pair is disjoint."""

    pieces: tuple[PositionSet, PositionSet, PositionSet]
    overlap: PositionSet = ()
    merged: PositionSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "merged", merge_positions(*self.pieces))

    def union(self) -> PositionSet:
        return self.merged

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
