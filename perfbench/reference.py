"""Reference answers for the benchmark, computed without the package.

The package has two net-occurrence engines: a scan-based oracle
(``str.find``/``rfind`` probes) and a suffix-array index. This module is a
third route that shares neither: a suffix automaton gives the number of
occurrences of any substring, and a net occurrence is read off the
definition with those counts (the covered string occurs at least twice, each
one-letter extension inside the text occurs once).

Records are reduced to digests so that expected answers for the full-size
inputs can be stored in ``expected.json`` and compared cheaply.
"""

from __future__ import annotations

import hashlib
from itertools import product

Record = tuple[int, int, "str | None", "str | None", str]


class SuffixAutomaton:
    """Suffix automaton of a text over {a, b} with occurrence counts."""

    def __init__(self, text: str) -> None:
        link = [-1]
        length = [0]
        nxt = [{}]
        count = [0]
        last = 0
        for ch in text:
            cur = len(length)
            length.append(length[last] + 1)
            link.append(-1)
            nxt.append({})
            count.append(1)
            p = last
            while p != -1 and ch not in nxt[p]:
                nxt[p][ch] = cur
                p = link[p]
            if p == -1:
                link[cur] = 0
            else:
                q = nxt[p][ch]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = len(length)
                    length.append(length[p] + 1)
                    link.append(link[q])
                    nxt.append(dict(nxt[q]))
                    count.append(0)
                    while p != -1 and nxt[p].get(ch) == q:
                        nxt[p][ch] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur
        # A state's occurrence count is the number of prefixes ending in its
        # subtree of suffix links; push counts up from the longest states.
        for state in sorted(range(1, len(length)), key=length.__getitem__, reverse=True):
            count[link[state]] += count[state]
        self.next = nxt
        self.count = count

    def occurrences(self, sub: str) -> int:
        """How often ``sub`` occurs in the text (0 when absent)."""
        state = 0
        for ch in sub:
            state = self.next[state].get(ch)
            if state is None:
                return 0
        return self.count[state]

    def longest_repeated_prefix(self, text: str, start: int) -> int:
        """Largest L such that text[start:start+L] occurs at least twice."""
        state, n, length = 0, len(text), 0
        while start + length < n:
            state = self.next[state].get(text[start + length])
            if state is None or self.count[state] < 2:
                break
            length += 1
        return length


def net_occurrences(text: str) -> list[Record]:
    """Net occurrences as (start, end, left, right, substring), 1-based and
    sorted by start, read off the definition with automaton counts."""
    sam = SuffixAutomaton(text)
    n = len(text)
    out: list[Record] = []
    for s0 in range(n):
        length = sam.longest_repeated_prefix(text, s0)
        if length == 0:
            continue
        e0 = s0 + length  # exclusive end
        if s0 > 0 and sam.occurrences(text[s0 - 1 : e0]) != 1:
            continue
        if e0 < n and sam.occurrences(text[s0 : e0 + 1]) != 1:
            continue
        out.append(
            (
                s0 + 1,
                e0,
                text[s0 - 1] if s0 > 0 else None,
                text[e0] if e0 < n else None,
                text[s0:e0],
            )
        )
    return out


def records_digest(records: list[Record]) -> bytes:
    """Digest of one text's records, sensitive to order and every field."""
    h = hashlib.blake2b(digest_size=16)
    for start, end, left, right, sub in records:
        h.update(f"{start},{end},{left or '-'},{right or '-'},{sub};".encode())
    return h.digest()


def combined_digest(per_text: list[bytes]) -> str:
    """Hex digest over per-text digests in text order."""
    h = hashlib.blake2b(digest_size=16)
    for d in per_text:
        h.update(d)
    return h.hexdigest()


def all_texts(max_len: int) -> list[str]:
    """Every text over {a, b} of length 1..max_len, shortest first, each
    length in lexicographic order."""
    return ["".join(t) for n in range(1, max_len + 1) for t in product("ab", repeat=n)]


def random_text(seed: int, length: int) -> str:
    """The seeded random text of the ``index`` workload: iid uniform letters
    taken from the bits of ``random.Random(seed)``."""
    import random

    bits = random.Random(seed).getrandbits(length)
    return format(bits, f"0{length}b").translate(str.maketrans("01", "ab"))


def has_onoc(text: str, records: list[Record]) -> bool:
    """Whether some chain of net occurrences starts at 1, ends at the last
    position and has each member start inside the previous one."""
    spans = sorted((r[0], r[1]) for r in records)
    if not spans or spans[0][0] != 1:
        return False
    reach = spans[0][1]
    while reach < len(text):
        further = [e for s, e in spans if s <= reach and e > reach]
        if not further:
            return False
        reach = max(further)
    return True


def onoc_counts(max_len: int) -> tuple[int, int]:
    """(texts, texts with an ONOC) over every text of length 1..max_len."""
    texts = all_texts(max_len)
    return len(texts), sum(has_onoc(t, net_occurrences(t)) for t in texts)


def tiny_digest(max_len: int) -> str:
    return combined_digest([records_digest(net_occurrences(t)) for t in all_texts(max_len)])


def random_digest(seed: int, length: int) -> str:
    return combined_digest([records_digest(net_occurrences(random_text(seed, length)))])
