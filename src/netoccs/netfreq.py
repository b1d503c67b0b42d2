"""Enumerate net occurrences of a text and compute per-string net frequency.

Two independent enumerators are provided and must agree everywhere:

* ``net_occurrences_bruteforce`` — definition-driven oracle. For each start
  position it finds the largest repeated substring beginning there. One
  candidate per start suffices: a shorter candidate has a repeated right
  extension, so it cannot be a net occurrence, and a longer one is not
  repeated at all. The lengths come from one forward scan of C-speed repeat
  probes that gallops, then bisects, from the previous start's length minus
  one: n probes plus a logarithmic number per start that grows, for a text
  of length n. A start whose length did not grow past the one resumed from
  the previous start is settled by the scan itself: its left extension is
  the repeated string just found one position earlier. Every other
  candidate, and so every reported record, is checked against the
  definition by ``is_net_occurrence`` (see the function's docstring).
* ``net_occurrences_indexed`` — suffix-array route, in two steps. First the
  bounds (``_net_bounds``): it computes, for every suffix, the maximum
  common prefix with any other suffix (adjacent maxima of the LCP array)
  and reads the net occurrences' bounds off that table without any
  substring scanning. Texts of at most ``SHORT_TEXT`` letters sort suffix
  slices and take the LCP array from Kasai's linear Python pass. Longer
  texts use numpy throughout: prefix doubling for the suffix array, the LCP
  by binary lifting over the rank arrays of the doubling rounds, and the
  selection of net-occurrence starts (see ``_repeated_prefix``). Then the
  records, one per bound: short texts share one Occurrence per span.
  ``net_frequency`` counts the bounds and builds no record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .occurrences import Occurrence, is_net_occurrence, occurs_elsewhere


@dataclass(frozen=True, slots=True)
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


# Longest text that the indexed engine handles in plain Python (sorted suffix
# slices, Kasai's LCP); longer texts go through numpy.
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

    The longest repeated length R[s] is found by probing whether the prefix
    of a given length at s occurs elsewhere (``occurs_elsewhere``). Dropping
    the first letter of a repeated substring leaves a repeated substring,
    so R[s] >= R[s-1] - 1; dropping the last letter does too, so the
    repeated lengths at s are exactly 0..R[s]. Each start thus gallops from
    R[s-1] - 1 (+1, +2, +4, ..., capped at the end of the text) and bisects
    below the first failed probe: one probe for a start that does not grow
    (none at the cap), at most 2 floor(log2 g) + 2 for one that grows by g.

    A start s > 1 that does not extend, R[s] = R[s-1] - 1, is rejected
    without further search: the candidate's left extension is the
    length-R[s-1] string at s - 1, which the scan has just proved repeated.
    Every other candidate goes through ``is_net_occurrence``, so each
    reported record is still checked against the definition (three
    ``occurs_elsewhere`` probes).
    """
    if not text:
        raise ValueError("net_occurrences_bruteforce: empty text")
    n = len(text)
    out = []
    length = 0
    for s0 in range(n):
        resumed = length = max(length - 1, 0)
        step, bad = 1, n - s0 + 1  # length is repeated (or 0); bad is not, or runs off the end
        while bad - length > 1:
            # Gallop up from the resumed length; after a failure or at the end, bisect.
            mid = resumed + step if resumed + step < bad else (length + bad) // 2
            if occurs_elsewhere(text, s0, mid):
                length, step = mid, step * 2
            else:
                bad = mid
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
    texts use numpy prefix doubling (``_doubling``).
    """
    n = len(text)
    if n <= SHORT_TEXT:
        return sorted(range(n), key=lambda i: text[i:])
    return _doubling(text)[0].tolist()


def _doubling(text: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """Prefix doubling (Manber & Myers): the suffix array and the rank array
    of every round but the last.

    Each round sorts by (rank of the first k letters, rank of the next k),
    packed into one int64 key for ``np.argsort``, and re-ranks, until every
    rank is distinct. Ties need no order, as equal keys get equal ranks.
    The rank array of each round is kept: about log2 of the longest
    repeated length of them (18 at tm 20). ``levels[j][i]`` ranks the first
    2^j letters of the suffix at i (level 0 holds the code points). A suffix
    that ends inside them sorts on the -1 sentinel and keeps a rank of its
    own, so two different suffixes share a rank in ``levels[j]`` exactly
    when both have 2^j letters and these agree. Each level has one extra
    entry, -1 at index n, that matches no suffix. Ranks are stored in the
    narrowest signed dtype that holds them and the sentinel.
    """
    n = len(text)
    codes = np.frombuffer(text.encode("utf-32-le"), np.uint32)
    top = max(n, int(codes.max()))  # no rank or code point exceeds it
    dtype = np.int16 if top < 1 << 15 else np.int32
    rank = np.empty(n + 1, dtype)
    rank[:n] = codes
    rank[n] = -1
    levels = [rank]
    # key = first * base + second; second (-1 past the end) takes top + 2 values
    base = top + 2
    differs = np.zeros(n, dtype)
    k = 1
    while True:
        key = np.multiply(rank[:n], base, dtype=np.int64)
        key[: n - k] += rank[k:n]
        key[n - k :] -= 1
        sa = np.argsort(key)
        sorted_key = key[sa]
        differs[1:] = sorted_key[1:] != sorted_key[:-1]
        ranks_sorted = np.cumsum(differs, dtype=dtype)
        if ranks_sorted[-1] == n - 1:
            return sa, levels
        rank = np.empty(n + 1, dtype)
        rank[sa] = ranks_sorted
        rank[n] = -1
        levels.append(rank)
        k <<= 1


def lcp_array(text: str, sa: list[int]) -> list[int]:
    """lcp[r] = longest common prefix of sa[r-1] and sa[r] (lcp[0] = 0).

    Kasai's linear pass, used for texts of at most SHORT_TEXT letters;
    longer texts derive the LCP from the doubling ranks (``_repeated_prefix``).
    """
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


def _repeated_prefix(text: str) -> np.ndarray:
    """``repeated_prefix_table`` for texts longer than SHORT_TEXT, as an array.

    The LCP of adjacent suffixes comes from the doubling ranks by binary
    lifting: from the top level down, a pair whose common prefix is known to
    be at least h gains 2^j where ``levels[j]`` agrees at the two suffixes h
    letters in. The rank of the last round is distinct everywhere, so the
    LCP stays below 2^len(levels) and the lifting reaches it exactly.
    """
    n = len(text)
    sa, levels = _doubling(text)
    left, right = sa[:-1], sa[1:]
    h = np.zeros(n - 1, np.int64)
    for j in range(len(levels) - 1, -1, -1):
        rank = levels[j]
        np.add(h, 1 << j, out=h, where=rank[left + h] == rank[right + h])
    # by_rank[r] = max(lcp[r], lcp[r + 1]), with lcp[0] = lcp[n] = 0.
    by_rank = np.zeros(n, np.int64)
    by_rank[1:] = h
    by_rank[:-1] = np.maximum(by_rank[:-1], h)
    table = np.empty(n, np.int64)
    table[sa] = by_rank
    return table


def repeated_prefix_table(text: str) -> list[int]:
    """For each 0-based start s, the length of the longest prefix of the
    suffix at s that also occurs elsewhere in the text: the larger LCP of
    its suffix with the two neighbours in the suffix array. Texts of at
    most SHORT_TEXT letters use Kasai's ``lcp_array``; longer ones derive
    the LCP from the doubling ranks in numpy."""
    n = len(text)
    if n > SHORT_TEXT:
        return _repeated_prefix(text).tolist()
    sa = suffix_array(text)
    lcp = lcp_array(text, sa)
    table = [0] * n
    for r, s in enumerate(sa):
        best = lcp[r]
        if r + 1 < n and lcp[r + 1] > best:
            best = lcp[r + 1]
        table[s] = best
    return table


def _net_bounds(text: str) -> Iterable[tuple[int, int]]:
    """The indexed engine's net occurrences as 0-based half-open bounds
    (s0, e), in start order: the text's net occurrences are the
    ``text[s0:e]``.

    With R[s] the longest repeated-substring length at start s, the net
    occurrences are the (s, s+R[s]) with R[s] >= 1 whose left extension is
    unique, i.e. s = 0 or R[s-1] <= R[s], since the left extension is the
    length-(R[s]+1) string starting one position earlier. Above SHORT_TEXT
    letters the selection runs in numpy on ``_repeated_prefix``; at or
    below it, in Python on ``repeated_prefix_table``.
    """
    if len(text) > SHORT_TEXT:
        table = _repeated_prefix(text)
        keep = table > 0
        keep[1:] &= table[:-1] <= table[1:]
        starts = np.flatnonzero(keep)
        return zip(starts.tolist(), (starts + table[starts]).tolist())
    table = repeated_prefix_table(text)
    return [
        (s0, s0 + length)
        for s0, length in enumerate(table)
        if length and (s0 == 0 or table[s0 - 1] <= length)
    ]


# The Occurrence of each span (s0, e) of a text of at most SHORT_TEXT
# letters, keyed by s0 * (SHORT_TEXT + 1) + e. Records are immutable values,
# so every short text shares these; with 0 <= s0 < e <= SHORT_TEXT the dict
# never holds more than 256 * 257 / 2 = 32,896 entries.
_SHARED_OCCURRENCES: dict[int, Occurrence] = {}

# The record's own slot setters: records built here skip the frozen
# dataclass's __init__, which sets each field through object.__setattr__.
_SET_OCCURRENCE = NetOccurrenceRecord.occurrence.__set__
_SET_SUBSTRING = NetOccurrenceRecord.substring.__set__
_SET_LEFT = NetOccurrenceRecord.left.__set__
_SET_RIGHT = NetOccurrenceRecord.right.__set__


def net_occurrences_indexed(text: str) -> list[NetOccurrenceRecord]:
    """Index-based enumerator; must match the brute-force oracle exactly.

    First the net occurrences' bounds (``_net_bounds``), then one record per
    bound. A text of at most SHORT_TEXT letters takes each record's
    ``occurrence`` from a shared table, so the same span gives the same
    Occurrence object in every such text and call; longer texts build fresh
    ones. Each record is filled slot by slot, which gives the same frozen
    value as the constructor.
    """
    if not text:
        raise ValueError("net_occurrences_indexed: empty text")
    n = len(text)
    shared = _SHARED_OCCURRENCES if n <= SHORT_TEXT else None
    new = object.__new__
    records = []
    for s0, e in _net_bounds(text):
        if shared is None:
            occ = Occurrence(s0 + 1, e)
        else:
            key = s0 * (SHORT_TEXT + 1) + e
            occ = shared.get(key)
            if occ is None:
                occ = shared[key] = Occurrence(s0 + 1, e)
        rec = new(NetOccurrenceRecord)
        _SET_OCCURRENCE(rec, occ)
        _SET_SUBSTRING(rec, text[s0:e])
        _SET_LEFT(rec, text[s0 - 1] if s0 else None)
        _SET_RIGHT(rec, text[e] if e < n else None)
        records.append(rec)
    return records


def net_frequency(text: str, pattern: str) -> int:
    """Number of net occurrences of the pattern; 0 for unique or absent
    strings. Counted on the indexed engine's bounds, without records."""
    if not pattern:
        raise ValueError("net_frequency: empty pattern")
    if pattern not in text:
        return 0
    m = len(pattern)
    return sum(1 for s0, e in _net_bounds(text) if e - s0 == m and text.startswith(pattern, s0))
