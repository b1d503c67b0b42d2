"""Enumerate net occurrences of a text and compute per-string net frequency.

Two independent enumerators are provided and must agree everywhere:

* ``net_occurrences_bruteforce`` — definition-driven oracle. For each start
  position it finds the largest repeated substring beginning there. One
  candidate per start suffices: a shorter candidate has a repeated right
  extension, so it cannot be a net occurrence, and a longer one is not
  repeated at all. One forward scan of C-speed repeat probes gallops, then
  bisects, over lengths and over starts. From a start s whose shortest
  unique substring ends at e, a search for the last start that keeps the
  string up to e unique settles a whole run of starts: their lengths fall
  by one from start to start, and each left extension is the repeated
  string one position earlier. The scan resumes just past the run. So the
  probes grow with the number of runs, not with the length: 92 at fib 20
  (6,765 letters) and 327 at tm 14 (8,192). Every candidate the scan
  visits, and so every reported record, is checked against the definition
  by ``is_net_occurrence`` (see the function's docstring).
* ``net_occurrences_indexed`` — suffix-array route. It computes, for every
  suffix, the maximum common prefix with any other suffix (adjacent maxima
  of the LCP array) and reads the net occurrences' bounds off that table
  (``_net_bounds``) without any substring scanning, one record per bound.
  An ASCII text of at most ``SHORT_TEXT`` letters keys each suffix by one
  integer, a byte per letter (``_suffix_keys``): one sort by key gives the
  suffix order, the XOR of adjacent keys each LCP, and one pass goes from
  that table to the records. Every other text, of any length and code
  point, uses numpy throughout: prefix doubling for the suffix order, the
  LCP by binary lifting over the rank arrays of the doubling rounds, and
  the selection of net-occurrence starts (see ``_repeated_prefix``).
  ``net_frequency`` counts the bounds and builds no record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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


# Longest ASCII text that the indexed engine handles on byte-wide suffix keys
# (``_suffix_keys``); other texts use numpy. Per call, random two-letter texts
# (2-vCPU x86_64, Python 3.11.7, numpy 2.4.6): the paths tie at 256 ASCII letters
# (about 190 us); 一/丁 texts take 55, 84, 110, 175 us on numpy at 16, 64, 128,
# 256 letters, where 32-bit suffix keys would take 13, 49, 116, 297.
SHORT_TEXT = 256


def _record(text: str, occ: Occurrence) -> NetOccurrenceRecord:
    n = len(text)
    return NetOccurrenceRecord(
        occurrence=occ,
        substring=text[occ.start - 1 : occ.end],
        left=text[occ.start - 2] if occ.start > 1 else None,
        right=text[occ.end] if occ.end < n else None,
    )


def _gallop(lo: int, hi: int, ok: Callable[[int], bool]) -> int:
    """Largest x in [lo, hi) with ok(x), for an ``ok`` that holds at lo and
    is monotone (true, then false). Probes lo + 1, lo + 2, lo + 4, ... below
    hi, then bisects below the first failure: one probe when the answer is
    lo (none when lo + 1 = hi), at most 2 floor(log2 g) + 2 when it is lo + g.
    """
    good, bad, step = lo, hi, 1
    while bad - good > 1:
        mid = lo + step if lo + step < bad else (good + bad) // 2
        if ok(mid):
            good, step = mid, step * 2
        else:
            bad = mid
    return good


def net_occurrences_bruteforce(text: str) -> list[NetOccurrenceRecord]:
    """All net occurrences, checked against the definition, sorted by start.

    A net occurrence starting at s must cover exactly the longest repeated
    substring starting there, of R[s] letters, so each start yields at most
    one candidate. Both searches below run through ``_gallop`` and probe
    only ``occurs_elsewhere``.

    Over lengths: every prefix of a repeated string is repeated, so the
    repeated lengths at s are exactly 0..R[s]; the search resumes from a
    length already known to be repeated at s.

    Over starts: if s + R[s] = n, every later start t has R[t] = n - t =
    R[t-1] - 1 and the scan ends. Otherwise text[s:e], e = s + R[s] + 1, is
    unique, and so is text[t:e] for every t up to some t* < e: a string
    that contains a unique string is unique. Each t in (s, t*] has
    R[t] = e - 1 - t = R[t-1] - 1, as text[t:e-1] is a suffix of the
    repeated text[s:e-1], and is rejected without a probe: its left
    extension is the repeated length-R[t-1] string at t - 1. If t* = e - 1,
    text[e-1] is a unique letter and the scan resumes at e from length 0.
    Otherwise text[t*+1:e] was just found repeated, so R[t*+1] >= R[t*]:
    the scan resumes at t*+1 from length e - t* - 1, with a candidate there.

    Each visited start costs one probe, plus a logarithmic number per growth
    and per run: on fib 18-22 and tm 12-16, at most 32 * n.bit_length()
    probes for n letters (92 at fib 20, 327 at tm 14), and about two per
    letter on a random binary text. Every visited candidate goes through
    ``is_net_occurrence``, so each reported record is still checked against
    the definition (three ``occurs_elsewhere`` probes).
    """
    if not text:
        raise ValueError("net_occurrences_bruteforce: empty text")
    n = len(text)
    out = []
    s0 = length = 0  # the empty string is repeated at every start
    while True:
        length = _gallop(length, n - s0 + 1, lambda m: occurs_elsewhere(text, s0, m))
        if length:
            occ = Occurrence(s0 + 1, s0 + length)
            if is_net_occurrence(text, occ):
                out.append(_record(text, occ))
        e = s0 + length + 1
        if e > n:
            return out
        last = _gallop(s0, e, lambda t: not occurs_elsewhere(text, t, e - t))
        s0, length = last + 1, e - last - 1


def _suffix_keys(text: str) -> list[int]:
    """One integer per suffix whose order is the suffixes' order, for an
    ASCII text of at most SHORT_TEXT letters.

    Each letter is one byte holding its code point + 1 (1-128), so no digit
    is 0. Key i is the suffix at i left-aligned in n bytes, zero past its
    end. The first byte where two keys differ is where their suffixes
    differ, and a proper prefix has a 0 there against a letter's digit, so
    integer order is suffix order. Two suffixes share their first
    ``(8 * n - (key_a ^ key_b).bit_length()) // 8`` letters.
    """
    n = len(text)
    x = int.from_bytes(text.encode("ascii"), "big") + int.from_bytes(b"\1" * n, "big")
    mask = (1 << 8 * n) - 1
    return [(x << i) & mask for i in range(0, 8 * n, 8)]


def suffix_array(text: str) -> list[int]:
    """Suffix array: the 0-based suffix starts in lexicographic order, by
    numpy prefix doubling (``_doubling``); the engine does not call it."""
    return _doubling(text)[0].tolist() if text else []


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

    Kasai's linear pass, kept as the definitional LCP of a suffix array; the
    engine does not call it.
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
    """``repeated_prefix_table`` off the key path, as an array.

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


def _keyed(text: str) -> bool:
    """The engine's one choice of path: suffix keys, or numpy for the rest."""
    return len(text) <= SHORT_TEXT and text.isascii()


def _keyed_prefix(text: str) -> list[int]:
    """``repeated_prefix_table`` on the key path: one sort of the starts by
    their suffix keys (``_suffix_keys``), and each adjacent LCP from the XOR
    of two keys."""
    n = len(text)
    if not n:
        return []
    keys = _suffix_keys(text)
    sa = sorted(range(n), key=keys.__getitem__)
    width = 8 * n
    table = [0] * n
    s, h = sa[0], 0  # a suffix in order, and its LCP with the one before it
    for t in sa[1:]:
        lcp = (width - (keys[s] ^ keys[t]).bit_length()) // 8
        table[s] = lcp if lcp > h else h
        s, h = t, lcp
    table[s] = h
    return table


def repeated_prefix_table(text: str) -> list[int]:
    """For each 0-based start s, the length of the longest prefix of the
    suffix at s that also occurs elsewhere in the text: the larger LCP of
    its suffix with the two neighbours in the suffix array. An ASCII text
    of at most SHORT_TEXT letters reads it off its suffix keys
    (``_keyed_prefix``), every other text off the numpy doubling ranks
    (``_repeated_prefix``)."""
    return _keyed_prefix(text) if _keyed(text) else _repeated_prefix(text).tolist()


def _net_bounds(text: str) -> Iterable[tuple[int, int]]:
    """The indexed engine's net occurrences as 0-based half-open bounds
    (s0, e), in start order: the text's net occurrences are the
    ``text[s0:e]``.

    With R[s] the longest repeated-substring length at start s, the net
    occurrences are the (s, s+R[s]) with R[s] >= 1 whose left extension is
    unique, i.e. s = 0 or R[s-1] <= R[s], since the left extension is the
    length-(R[s]+1) string starting one position earlier. On the key path
    (``_keyed``) the selection runs lazily in ``_short_bounds``, which
    carries the previous R (0 before the first start): the caller's loop is
    the only pass over R. Every other text selects in numpy on
    ``_repeated_prefix``.
    """
    if _keyed(text):
        return _short_bounds(_keyed_prefix(text))
    table = _repeated_prefix(text)
    keep = table > 0
    keep[1:] &= table[:-1] <= table[1:]
    starts = np.flatnonzero(keep)
    return zip(starts.tolist(), (starts + table[starts]).tolist())


def _short_bounds(table: list[int]) -> Iterator[tuple[int, int]]:
    last = 0
    for s0, length in enumerate(table):
        if length and last <= length:
            yield s0, s0 + length
        last = length


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

    One record per bound of ``_net_bounds``, built as the bound is read
    (on the key path, as it is selected from R). A text of at most
    SHORT_TEXT letters takes each record's ``occurrence`` from a shared
    table, so the same span gives the same Occurrence object in every such
    text and call; longer texts build fresh ones. Each record is filled slot
    by slot, which gives the same frozen value as the constructor.
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
