#!/usr/bin/env python3
"""Search short binary texts for covers with an outside net occurrence.

Finds texts whose net occurrences form an overlapping cover plus at least
one extra net occurrence not in the cover — the situation where the
completeness check has real work to do. Used to pick the frozen witness
text in the test suite."""

import argparse
import sys
from itertools import product

from netoccs.netfreq import net_occurrences_bruteforce
from netoccs.onoc import greedy_onoc, prove_completeness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-len", type=int, default=10)
    parser.add_argument("--max-len", type=int, default=14)
    parser.add_argument("--limit", type=int, default=10, help="stop after this many hits")
    args = parser.parse_args()

    hits = 0
    for length in range(args.min_len, args.max_len + 1):
        for tup in product("ab", repeat=length):
            text = "".join(tup)
            occs = [r.occurrence for r in net_occurrences_bruteforce(text)]
            cover = greedy_onoc(text, occs)
            if cover is None or len(occs) == len(cover):
                continue
            report = prove_completeness(text, cover, occs)
            pairs = " ".join(f"({o.start},{o.end})" for o in occs)
            members = " ".join(f"({o.start},{o.end})" for o in cover)
            extra = " ".join(f"({o.start},{o.end})" for o in report.offending_supers)
            print(f"{text}  net: {pairs}  cover: {members}  outside: {extra}")
            hits += 1
            if hits >= args.limit:
                return 0
    if hits == 0:
        print("no witness found in range", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
