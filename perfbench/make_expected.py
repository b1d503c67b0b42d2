"""Recompute expected.json, the stored reference answers for full-size runs.

    python3 perfbench/make_expected.py

Every value comes from reference.py, which shares no code with the package.
Seeds without a stored digest are computed by run.py before timing starts.
"""

from __future__ import annotations

import json
from pathlib import Path

import reference
from run import SIZES

STORED_SEEDS = range(64)


def main() -> None:
    sizes = SIZES["full"]
    onoc_len, tiny_len, length = sizes["onoc_len"], sizes["tiny_len"], sizes["random_len"]
    texts, covers = reference.onoc_counts(onoc_len)
    expected = {
        "onoc": {str(onoc_len): {"texts": texts, "covers": covers}},
        "tiny": {str(tiny_len): reference.tiny_digest(tiny_len)},
        "random": {f"{length}/{seed}": reference.random_digest(seed, length) for seed in STORED_SEEDS},
    }
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
