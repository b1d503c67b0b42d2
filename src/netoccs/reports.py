"""Small shared result types for the claim-checking modules."""

from __future__ import annotations

from dataclasses import dataclass
from os.path import commonprefix
from typing import Any


@dataclass(frozen=True)
class ClaimResult:
    """Pass/fail for one named claim, with an optional witness payload.

    For passing claims the witness may carry supporting data (counts,
    positions); for failing claims it should identify the counterexample.
    """

    passed: bool
    witness: Any = None

    def to_json_dict(self) -> dict:
        return {"pass": self.passed, "witness": self.witness}


def same_word(actual: str, expected: str) -> ClaimResult:
    """Claim that two words are equal; a failure's witness is the 1-based
    first position where they differ (one past the shorter word when it is
    a prefix of the other)."""
    if actual == expected:
        return ClaimResult(True)
    return ClaimResult(False, witness=len(commonprefix((actual, expected))) + 1)
