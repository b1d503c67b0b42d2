"""Painfully literal reference implementations used as a second opinion.

Everything here walks the text character by character with no search
shortcuts, so it is only suitable for short inputs. Tests compare the
package's two engines against these routes on small cases; keeping the
routes independent is the point, so do not "optimize" this module.
"""


def occurrences(pattern: str, text: str) -> list[int]:
    m = len(pattern)
    return [
        s
        for s in range(1, len(text) - m + 2)
        if text[s - 1 : s - 1 + m] == pattern
    ]


def net_occurrences(text: str) -> list[tuple[int, int]]:
    n = len(text)
    out = []
    for s in range(1, n + 1):
        for e in range(s, n + 1):
            if len(occurrences(text[s - 1 : e], text)) < 2:
                continue
            if s > 1 and len(occurrences(text[s - 2 : e], text)) != 1:
                continue
            if e < n and len(occurrences(text[s - 1 : e + 1], text)) != 1:
                continue
            out.append((s, e))
    return out


def net_frequency(text: str, pattern: str) -> int:
    return sum(
        1 for s, e in net_occurrences(text) if text[s - 1 : e] == pattern
    )


def enumerate_bridging_supers(text: str, bnso: tuple[int, int]) -> list[tuple[int, int]]:
    """Every interval (s, e) of the text that contains the BNSO (start, end)
    widened by one position on each side, where the widening stops at the
    text's first and last positions."""
    n = len(text)
    start, end = bnso
    left = start - 1 if start > 1 else start
    right = end + 1 if end < n else end
    return [
        (s, e)
        for s in range(1, n + 1)
        for e in range(s, n + 1)
        if s <= left and e >= right
    ]


def bit_set(positions) -> int:
    """The bit set of 1-based positions: bit p is set iff p is among them."""
    out = 0
    for p in positions:
        out |= 1 << p
    return out
