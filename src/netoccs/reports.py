"""Small shared result types for the claim-checking modules."""

from __future__ import annotations

from dataclasses import dataclass
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
