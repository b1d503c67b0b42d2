"""Overlapping net occurrence covers (ONOCs) and completeness checking.

An ONOC is a chain of net occurrences that starts at position 1, ends at the
last position, and in which every member starts no later than the previous
member ends. The overlap interval between consecutive members is a bridging
net sub-occurrence (BNSO). Any net occurrence outside the cover must strictly
contain some BNSO extended by one position on each side — so checking every
such bridging super-occurrence proves a cover complete.

This module defines each of those facts once: ``is_onoc`` the cover,
``bnso_set`` the BNSOs, ``widen`` the widened bounds and ``bridging`` the
widened containment. It runs no net-occurrence engine: ``greedy_onoc`` and
``prove_completeness`` take the text's net occurrences from their caller.
The literal route, which enumerates every bridging super-occurrence
rectangle, lives with the tests in ``tests/reference.py`` and shares no
code with this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .occurrences import Occurrence, is_net_occurrence


@dataclass(frozen=True)
class CompletenessReport:
    """Outcome of the three-step completeness check for a cover."""

    cover_valid: bool
    bnsos: tuple[Occurrence, ...]
    offending_supers: tuple[Occurrence, ...]
    oracle_agrees: bool

    def complete(self) -> bool:
        return self.cover_valid and not self.offending_supers and self.oracle_agrees

    def to_json_dict(self) -> dict:
        return {
            "cover_valid": self.cover_valid,
            "bnsos": [[o.start, o.end] for o in self.bnsos],
            "offending_supers": [[o.start, o.end] for o in self.offending_supers],
            "oracle_agrees": self.oracle_agrees,
        }


def is_onoc(text: str, candidate: Sequence[Occurrence]) -> bool:
    """True iff every member is a net occurrence and the chain covers the
    text: first start 1, last end n, each start within the previous member."""
    if not candidate:
        raise ValueError("is_onoc: empty candidate cover")
    n = len(text)
    for occ in candidate:
        if occ.end > n:
            raise ValueError(f"is_onoc: {occ} out of bounds")
    if candidate[0].start != 1 or candidate[-1].end != n:
        return False
    for prev, cur in zip(candidate, candidate[1:]):
        # members strictly ordered (no duplicates), each starting inside the previous one
        if not prev.start < cur.start <= prev.end:
            return False
    return all(is_net_occurrence(text, occ) for occ in candidate)


def bnso_set(members: Sequence[Occurrence]) -> tuple[Occurrence, ...]:
    """The overlap intervals (next.start, current.end) between consecutive
    cover members, in order. Empty for a single-member cover; a gap between
    two members raises ValueError, as the overlap is not an occurrence."""
    return tuple([Occurrence(cur.start, prev.end) for prev, cur in zip(members, members[1:])])


def widen(start, end, n):
    """A BNSO's 1-based bounds widened by one position on each side, clipped
    to the text's n positions. Accepts ints or numpy integer arrays alike."""
    return start - (start > 1), end + (end < n)


def bridging(
    occs: Iterable[Occurrence], bnsos: Sequence[Occurrence], n: int
) -> list[Occurrence]:
    """The occurrences, in the order given, that contain some BNSO widened by
    one position on each side, clipped to the text's n positions."""
    widened = [widen(b.start, b.end, n) for b in bnsos]
    return [occ for occ in occs if any(occ.start <= s and occ.end >= e for s, e in widened)]


def prove_completeness(
    text: str, cover: Sequence[Occurrence], net_occs: Sequence[Occurrence]
) -> CompletenessReport:
    """Validate a cover, find the net occurrences that are bridging
    super-occurrences of its BNSOs, and cross-check the cover against
    ``net_occs``, the text's net occurrences in any order. Invalid covers
    are reported, not raised.

    Keeping the net occurrences that contain a widened BNSO gives the same
    set as enumerating every bridging super-occurrence and testing each,
    without the quadratic candidate scan.
    """
    try:
        valid = is_onoc(text, cover)
    except ValueError:  # empty cover, or a member past the end of the text
        valid = False
    oracle = tuple(sorted(net_occs))
    bnsos = bnso_set(cover) if valid else ()
    return CompletenessReport(
        cover_valid=valid,
        bnsos=bnsos,
        offending_supers=tuple(bridging(oracle, bnsos, len(text))),
        oracle_agrees=tuple(sorted(cover)) == oracle,
    )


def greedy_onoc(text: str, net_occs: Sequence[Occurrence]) -> tuple[Occurrence, ...] | None:
    """Find an ONOC among ``net_occs``, the text's net occurrences in any
    order, or None.

    Net occurrences never nest, so sorting by start also sorts by end; the
    furthest-reaching chain is found greedily and succeeds whenever any
    chain does.
    """
    occs = sorted(net_occs)
    if not occs or occs[0].start != 1:
        return None
    chain = [occs[0]]
    n = len(text)
    idx = 1
    while chain[-1].end < n:
        best = None
        while idx < len(occs) and occs[idx].start <= chain[-1].end:
            best = occs[idx]
            idx += 1
        if best is None:
            return None
        chain.append(best)
    return tuple(chain)
