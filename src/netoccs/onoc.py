"""Overlapping net occurrence covers (ONOCs) and completeness checking.

An ONOC is a chain of net occurrences that starts at position 1, ends at the
last position, and in which every member starts no later than the previous
member ends. The overlap interval between consecutive members is a bridging
net sub-occurrence (BNSO). Any net occurrence outside the cover must strictly
contain some BNSO extended by one position on each side — so checking every
such bridging super-occurrence proves a cover complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .netfreq import net_occurrences_bruteforce
from .occurrences import Occurrence, is_net_occurrence


@dataclass(frozen=True)
class Cover:
    """A claimed ONOC, bound to its text."""

    text: str
    members: tuple[Occurrence, ...]


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


def _members(cover: Cover | Sequence[Occurrence]) -> tuple[Occurrence, ...]:
    if isinstance(cover, Cover):
        return cover.members
    return tuple(cover)


def _chain_ok(text: str, members: tuple[Occurrence, ...]) -> bool:
    if not members:
        return False
    n = len(text)
    if members[0].start != 1 or members[-1].end != n:
        return False
    for prev, cur in zip(members, members[1:]):
        if cur.start <= prev.start:  # members strictly ordered, no duplicates
            return False
        if cur.start > prev.end:
            return False
    return True


def is_onoc(text: str, candidate: Sequence[Occurrence]) -> bool:
    """True iff every member is a net occurrence and the chain covers the
    text: first start 1, last end n, each start within the previous member."""
    members = _members(candidate)
    if not members:
        raise ValueError("is_onoc: empty candidate cover")
    for occ in members:
        if occ.end > len(text):
            raise ValueError(f"is_onoc: {occ} out of bounds")
    if not _chain_ok(text, members):
        return False
    return all(is_net_occurrence(text, occ) for occ in members)


def bnso_set(cover: Cover | Sequence[Occurrence], text: str | None = None) -> tuple[Occurrence, ...]:
    """The overlap intervals (next.start, current.end) between consecutive
    cover members, in order. Empty for a single-member cover."""
    members = _members(cover)
    if isinstance(cover, Cover):
        text = cover.text
    if text is None:
        raise ValueError("bnso_set: text required for validation")
    if not is_onoc(text, members):
        raise ValueError("bnso_set: candidate is not an ONOC of the text")
    return tuple(
        Occurrence(cur.start, prev.end) for prev, cur in zip(members, members[1:])
    )


def enumerate_bridging_supers(text: str, bnso: Occurrence) -> list[Occurrence]:
    """All occurrences strictly containing the interval one position wider
    than the BNSO on each side, clipped to the text boundaries."""
    n = len(text)
    if bnso.end > n:
        raise ValueError(f"enumerate_bridging_supers: {bnso} out of bounds")
    max_start = bnso.start - 1 if bnso.start > 1 else 1
    min_end = bnso.end + 1 if bnso.end < n else n
    return [
        Occurrence(s, e)
        for s in range(1, max_start + 1)
        for e in range(min_end, n + 1)
    ]


def prove_completeness(
    text: str,
    cover: Cover | Sequence[Occurrence],
    net_occs: Sequence[Occurrence] | None = None,
) -> CompletenessReport:
    """Validate a cover, enumerate the bridging super-occurrences of all its
    BNSOs, flag any that are net occurrences, and cross-check against the
    brute-force enumerator. Invalid covers are reported, not raised.

    ``net_occs`` is the text's net occurrences from the brute-force
    enumerator, for a caller that already holds them; without it the
    enumerator is run here.
    """
    members = _members(cover)
    n = len(text)
    in_bounds = bool(members) and all(occ.end <= n for occ in members)
    valid = (
        in_bounds
        and _chain_ok(text, members)
        and all(is_net_occurrence(text, occ) for occ in members)
    )
    if net_occs is None:
        net_occs = [rec.occurrence for rec in net_occurrences_bruteforce(text)]
    oracle = tuple(sorted(net_occs))
    bnsos: tuple[Occurrence, ...] = ()
    offenders: list[Occurrence] = []
    if valid:
        bnsos = tuple(
            Occurrence(cur.start, prev.end) for prev, cur in zip(members, members[1:])
        )
        # Equivalent to enumerating every bridging super-occurrence and
        # keeping the net ones: the enumerator's rectangles intersected with
        # the full net occurrence list give the same set, without the
        # quadratic candidate scan.
        offenders = [
            occ
            for occ in oracle
            if any(
                occ.start <= max(1, b.start - 1) and occ.end >= min(n, b.end + 1)
                for b in bnsos
            )
        ]
    return CompletenessReport(
        cover_valid=valid,
        bnsos=bnsos,
        offending_supers=tuple(offenders),
        oracle_agrees=tuple(sorted(members)) == oracle,
    )


def greedy_onoc(text: str, net_occs: Sequence[Occurrence] | None = None) -> tuple[Occurrence, ...] | None:
    """Find an ONOC among the text's net occurrences, or None.

    Net occurrences never nest, so sorting by start also sorts by end; the
    furthest-reaching chain is found greedily and succeeds whenever any
    chain does.
    """
    if net_occs is None:
        net_occs = [rec.occurrence for rec in net_occurrences_bruteforce(text)]
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
