"""Enumerate net occurrences of a text and compute per-string net frequency.

Two independent enumerators are provided and must agree everywhere:

* ``net_occurrences_bruteforce`` — definition-driven oracle. For each start
  position it finds the largest repeated substring beginning there. One
  candidate per start suffices: a shorter candidate has a repeated right
  extension, so it cannot be a net occurrence, and a longer one is not
  repeated at all. The lengths come from one forward scan of C-speed repeat
  probes, at most 2n probes for a text of length n. A start whose length
  did not grow past the one resumed from the previous start is settled by
  the scan itself: its left extension is the repeated string just found one
  position earlier. Every other candidate, and so every reported record, is
  checked against the definition by ``is_net_occurrence`` (see the
  function's docstring).
* ``net_occurrences_indexed`` — suffix-array route. It computes, for every
  suffix, the maximum common prefix with any other suffix (adjacent maxima of
  the LCP array) and reads the net occurrences off that table without any
  substring scanning. Its suffix array sorts suffix slices for texts of at
  most ``SHORT_TEXT`` letters and uses numpy prefix doubling above that
  (see ``suffix_array``); the LCP array (Kasai) is a linear Python pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .occurrences import Occurrence, is_net_occurrence


@dataclass(frozen=True)
class NetOccurrenceRecord:
    """A net occurrence together with its substring and one-letter context."""

    occurrence: Occurrence
    substring: str
    left: str | None
    right: str | None

    def to_json_dict(self) -> dict:
        return {
            "start": self.occurrence.start,
            "end": self.occurrence.end,
            "string": self.substring,
            "left": self.left,
            "right": self.right,
        }


# Longest text for which ``suffix_array`` sorts slices instead of doubling.
SHORT_TEXT = 256


def _record(text: str, occ: Occurrence) -> NetOccurrenceRecord:
    n = len(text)
    return NetOccurrenceRecord(
        occurrence=occ,
        substring=text[occ.start - 1 : occ.end],
        left=text[occ.start - 2] if occ.start > 1 else None,
        right=text[occ.end] if occ.end < n else None,
    )


def net_occurrences_bruteforce(text: str) -> list[NetOccurrenceRecord]:
    """All net occurrences, checked against the definition, sorted by start.

    A net occurrence starting at s must cover exactly the longest repeated
    substring starting there, so each start yields at most one candidate.

    The longest repeated length R[s] is found by probing whether a substring
    is repeated (its first and last occurrences differ). Dropping the first
    letter of a repeated substring leaves a repeated substring, so
    R[s] >= R[s-1] - 1: each start resumes from R[s-1] - 1 and extends one
    letter at a time. Every probe either extends or ends a start, so the
    scan makes at most 2n probes in total.

    A start s > 1 that does not extend, R[s] = R[s-1] - 1, is rejected
    without further search: the candidate's left extension is the
    length-R[s-1] string at s - 1, which the scan has just proved repeated.
    Every other candidate goes through ``is_net_occurrence``, so each
    reported record is still checked against the definition (three
    ``find``/``rfind`` probes).
    """
    if not text:
        raise ValueError("net_occurrences_bruteforce: empty text")
    n = len(text)
    out = []
    length = 0
    for s0 in range(n):
        resumed = length = max(length - 1, 0)
        while s0 + length < n:
            sub = text[s0 : s0 + length + 1]
            if text.find(sub) == text.rfind(sub):
                break
            length += 1
        if length == resumed:
            # Settled by the scan: either there is no candidate (length 0,
            # always the case at s0 = 0), or the left extension is the
            # repeated length-R[s0-1] string just found at s0 - 1.
            continue
        occ = Occurrence(s0 + 1, s0 + length)
        if is_net_occurrence(text, occ):
            out.append(_record(text, occ))
    return out


def suffix_array(text: str) -> list[int]:
    """Suffix array: the 0-based suffix starts in lexicographic order.

    Texts of at most SHORT_TEXT letters sort their suffix slices, which is
    the definition itself: on tiny texts one C-level sort beats the fixed
    cost of numpy calls, and the slices stay under 33k characters. Longer
    texts use numpy prefix doubling (Manber & Myers), whose memory stays
    linear: each round sorts by (rank of the first k letters, rank of the
    next k) with ``np.lexsort`` and re-ranks, until every rank is distinct.
    """
    n = len(text)
    if n <= SHORT_TEXT:
        return sorted(range(n), key=lambda i: text[i:])
    # Code points and ranks fit in int32. A second key of -1 marks a suffix
    # that ends inside the first k letters, which sorts before any letter.
    rank = np.frombuffer(text.encode("utf-32-le"), np.uint32).astype(np.int32)
    second = np.empty(n, np.int32)
    differs = np.zeros(n, np.int32)
    k = 1
    while True:
        second[: n - k] = rank[k:]
        second[n - k :] = -1
        sa = np.lexsort((second, rank))
        key1, key2 = rank[sa], second[sa]
        differs[1:] = (key1[1:] != key1[:-1]) | (key2[1:] != key2[:-1])
        ranks_sorted = np.cumsum(differs)
        if ranks_sorted[-1] == n - 1:
            return sa.tolist()
        rank[sa] = ranks_sorted
        k <<= 1


def lcp_array(text: str, sa: list[int]) -> list[int]:
    """lcp[r] = longest common prefix of sa[r-1] and sa[r] (lcp[0] = 0)."""
    n = len(text)
    rank = [0] * n
    for r, s in enumerate(sa):
        rank[s] = r
    lcp = [0] * n
    h = 0
    for s in range(n):
        r = rank[s]
        if r == 0:
            h = 0
            continue
        t = sa[r - 1]
        while s + h < n and t + h < n and text[s + h] == text[t + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def repeated_prefix_table(text: str) -> list[int]:
    """For each 0-based start s, the length of the longest prefix of the
    suffix at s that also occurs elsewhere in the text."""
    n = len(text)
    if n == 1:
        return [0]
    sa = suffix_array(text)
    lcp = lcp_array(text, sa)
    table = [0] * n
    for r, s in enumerate(sa):
        best = lcp[r]
        if r + 1 < n and lcp[r + 1] > best:
            best = lcp[r + 1]
        table[s] = best
    return table


def net_occurrences_indexed(text: str) -> list[NetOccurrenceRecord]:
    """Index-based enumerator; must match the brute-force oracle exactly.

    With R[s] the longest repeated-substring length at start s, the net
    occurrences are the (s, s+R[s]-1) with R[s] >= 1 whose left extension is
    unique — i.e. s = 1 or R[s-1] <= R[s], since the left extension is the
    length-(R[s]+1) string starting one position earlier.
    """
    if not text:
        raise ValueError("net_occurrences_indexed: empty text")
    table = repeated_prefix_table(text)
    out = []
    for s0, length in enumerate(table):
        if length == 0:
            continue
        if s0 > 0 and table[s0 - 1] > length:
            continue
        out.append(_record(text, Occurrence(s0 + 1, s0 + length)))
    return out


def net_frequency(text: str, pattern: str) -> int:
    """Number of net occurrences of the pattern; 0 for unique or absent
    strings."""
    if not pattern:
        raise ValueError("net_frequency: empty pattern")
    if pattern not in text:
        return 0
    return sum(1 for rec in net_occurrences_indexed(text) if rec.substring == pattern)
