"""Sweep orchestration.

Runs every per-order checker across a range of orders for the two word
families, and a randomized/exhaustive property suite for the ONOC
containment lemma. Per-order work is independent; set NETOCC_THREADS to a
positive integer to farm orders out to a process pool (report merging
stays deterministic); any other value is refused with ValueError.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

from .fibonacci import (
    check_fib_identities,
    check_fib_lemmas,
    predicted_fib_net_occurrences,
    theta_count,
    theta_set,
    theta_step_ok,
)
from .netfreq import net_occurrences_bruteforce, net_occurrences_indexed
from .occurrences import Occurrence, find_occurrences
from .onoc import bnso_set, bridging, greedy_onoc, prove_completeness
from .reports import ClaimResult
from .thue_morse import (
    ab_counts,
    ab_sets,
    ab_step_ok,
    check_tm_identities,
    factorization_basis_ok,
    factorization_boundary_ok,
    predicted_tm_net_occurrences,
    smallest_factorization,
    validate_smallest_factorization,
)
from .words import fib_word, tm_flip_word, tm_word


@dataclass(frozen=True)
class VerificationReport:
    family: str
    orders: tuple[int, int]
    claims: dict[str, ClaimResult]
    wall_time: float

    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims.values())

    def failed(self) -> dict[str, ClaimResult]:
        return {k: v for k, v in self.claims.items() if not v.passed}

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "orders": list(self.orders),
            "wall_time": self.wall_time,
            "claims": {k: v.to_json_dict() for k, v in self.claims.items()},
        }


def _pairs(occs: Iterable[Occurrence]) -> list[list[int]]:
    return [[o.start, o.end] for o in occs]


def _all_pass(sub_claims: dict[str, ClaimResult]) -> ClaimResult:
    """Fold sub-claims into one claim; the witness names the failing ones."""
    failed = [name for name, claim in sub_claims.items() if not claim.passed]
    return ClaimResult(not failed, witness=failed or None)


def _net_occurrence_claims(word: str, predicted: tuple[Occurrence, ...]) -> dict[str, ClaimResult]:
    """The claims on a word's net occurrences, from one oracle run: they
    match the prediction, the prediction is a complete ONOC, and the
    indexed engine agrees with the oracle."""
    records = net_occurrences_bruteforce(word)
    actual = tuple(r.occurrence for r in records)
    match = actual == predicted
    completeness = prove_completeness(word, predicted, actual)
    indexed = net_occurrences_indexed(word)
    agree = indexed == records
    return {
        "net_occurrences_match_prediction": ClaimResult(
            match, witness=None if match else {"actual": _pairs(actual), "predicted": _pairs(predicted)}
        ),
        "prediction_is_onoc": ClaimResult(completeness.cover_valid),
        "cover_complete": ClaimResult(
            completeness.complete(),
            witness=None if completeness.complete() else completeness.to_json_dict(),
        ),
        "engines_agree": ClaimResult(
            agree,
            witness=None
            if agree
            else {"indexed": _pairs(r.occurrence for r in indexed), "oracle": _pairs(actual)},
        ),
    }


def _fib_order_claims(i: int) -> dict[str, ClaimResult]:
    word = fib_word(i)
    claims: dict[str, ClaimResult] = {}

    set_bad = [
        j
        for j in range(0, i - 3)
        if theta_set(i, j) != find_occurrences(fib_word(i - j), word)
    ]
    claims["theta_sets_match_oracle"] = ClaimResult(not set_bad, witness=set_bad or None)

    step_bad = [j for j in range(0, i - 3) if not theta_step_ok(i, j)]
    claims["theta_step_clauses"] = ClaimResult(not step_bad, witness=step_bad or None)

    count_bad = [
        j
        for j in range(0, i)
        if theta_count(i, j) != len(find_occurrences(fib_word(i - j), word))
    ]
    claims["theta_counts_match_oracle"] = ClaimResult(not count_bad, witness=count_bad or None)

    claims["identities"] = _all_pass(check_fib_identities(i))
    claims["lemmas"] = _all_pass(check_fib_lemmas(i))

    claims.update(_net_occurrence_claims(word, predicted_fib_net_occurrences(i)))
    return claims


def _tm_order_claims(i: int) -> dict[str, ClaimResult]:
    word = tm_word(i)
    claims: dict[str, ClaimResult] = {}

    set_bad = []
    for j in range(0, i - 1):
        sets = ab_sets(i, j)
        if sets.a_set != find_occurrences(tm_word(i - j), word) or sets.b_set != find_occurrences(
            tm_flip_word(i - j), word
        ):
            set_bad.append(j)
    claims["occurrence_sets_match_oracle"] = ClaimResult(not set_bad, witness=set_bad or None)

    step_bad = [j for j in range(2, i - 1) if not ab_step_ok(i, j)]
    claims["recurrence_intersections"] = ClaimResult(not step_bad, witness=step_bad or None)

    a_seq, b_seq = ab_counts(i - 2)
    count_bad = [
        j
        for j in range(0, i - 1)
        if len(ab_sets(i, j).a_set) != a_seq[j] or len(ab_sets(i, j).b_set) != b_seq[j]
    ]
    claims["occurrence_counts_match"] = ClaimResult(not count_bad, witness=count_bad or None)

    # One offset past the recurrence domain the count recurrence and the word
    # disagree; this is a feature of the recurrence, so the sweep asserts the
    # disagreement rather than papering over it.
    oracle_top = len(find_occurrences("a", word))
    recurrence_top = ab_counts(i - 1)[0][i - 1]
    claims["top_offset_documented_deviation"] = ClaimResult(
        oracle_top != recurrence_top,
        witness={"oracle": oracle_top, "recurrence": recurrence_top},
    )

    claims["identities"] = _all_pass(check_tm_identities(i))

    claims.update(_net_occurrence_claims(word, predicted_tm_net_occurrences(i)))

    fac_bad = []
    for j in range(0, i - 1):
        for kind in ("A", "B"):
            if j == 0 and kind == "B":
                continue
            fac = smallest_factorization(i, j, kind)
            if not (
                validate_smallest_factorization(i, j, kind, fac)
                and factorization_basis_ok(fac)
                and factorization_boundary_ok(fac)
            ):
                fac_bad.append([j, kind])
    claims["smallest_factorizations_valid"] = ClaimResult(not fac_bad, witness=fac_bad or None)
    claims["engines_agree"] = claims.pop("engines_agree")  # reported last, after the factorizations
    return claims


def _worker_count() -> int:
    raw = os.environ.get("NETOCC_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"NETOCC_THREADS must be a positive integer, got {raw!r}")
    return workers


def _sweep(fn: Callable[[int], dict[str, ClaimResult]], orders: list[int]) -> dict[str, ClaimResult]:
    workers = _worker_count()
    if workers > 1 and len(orders) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(orders))) as pool:
            per_order = list(pool.map(fn, orders))
    else:
        per_order = [fn(i) for i in orders]
    merged: dict[str, ClaimResult] = {}
    for i, claims in zip(orders, per_order):
        for name, result in claims.items():
            merged[f"order_{i}/{name}"] = result
    return merged


def verify_fibonacci(max_order: int) -> VerificationReport:
    if max_order < 7:
        raise ValueError(f"verify_fibonacci: max_order {max_order} < 7")
    start = time.perf_counter()
    claims = _sweep(_fib_order_claims, list(range(7, max_order + 1)))
    return VerificationReport("Fibonacci", (7, max_order), claims, time.perf_counter() - start)


def verify_thue_morse(max_order: int) -> VerificationReport:
    if max_order < 5:
        raise ValueError(f"verify_thue_morse: max_order {max_order} < 5")
    start = time.perf_counter()
    claims = _sweep(_tm_order_claims, list(range(5, max_order + 1)))
    return VerificationReport("ThueMorse", (5, max_order), claims, time.perf_counter() - start)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the ONOC containment property suite."""

    samples: int
    skipped: int
    violations: tuple[tuple[str, tuple[Occurrence, ...], Occurrence], ...]

    def tested(self) -> int:
        return self.samples - self.skipped

    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "tested": self.tested(),
            "skipped": self.skipped,
            "violations": [
                {"text": text, "cover": _pairs(cover), "occurrence": [occ.start, occ.end]}
                for text, cover, occ in self.violations
            ],
        }


def check_onoc_containment(text: str) -> tuple[tuple[Occurrence, ...], Occurrence | None] | None:
    """Find an ONOC greedily; None when the text has none. Otherwise return
    the cover and the first net occurrence outside it that fails to strictly
    contain any widened BNSO (None when the property holds)."""
    occs = [rec.occurrence for rec in net_occurrences_bruteforce(text)]
    cover = greedy_onoc(text, occs)
    if cover is None:
        return None
    members = set(cover)
    outside = [occ for occ in occs if occ not in members]
    bridged = set(bridging(outside, bnso_set(cover), len(text)))
    return cover, next((occ for occ in outside if occ not in bridged), None)


# Each extra letter doubles an exhaustive sweep: length 18 is 16 times the
# work of the default 14, and 32 (2^33 texts) would never finish.
EXHAUSTIVE_MAX_LEN = 18


def verify_onoc_lemma_random(
    seed: int, samples: int, max_len: int, exhaustive: bool = False
) -> PropertyReport:
    """Check the ONOC containment property on random texts (iid uniform
    letters, lengths uniform on [4, max_len]) or exhaustively on all texts
    of length 1..max_len (samples ignored). Deterministic for a fixed seed.
    max_len is capped at 32 when sampling and at EXHAUSTIVE_MAX_LEN when
    exhaustive; a larger value raises ValueError before any text is built."""
    cap = EXHAUSTIVE_MAX_LEN if exhaustive else 32
    if max_len > cap:
        mode = "exhaustive" if exhaustive else "sampled"
        raise ValueError(f"verify_onoc_lemma_random: {mode} max_len {max_len} > {cap}")
    if exhaustive:
        texts: Iterable[str] = (
            "".join(tup)
            for length in range(1, max_len + 1)
            for tup in product("ab", repeat=length)
        )
    else:
        if samples < 1:
            raise ValueError(f"verify_onoc_lemma_random: samples {samples} < 1")
        if max_len < 4:
            raise ValueError(f"verify_onoc_lemma_random: max_len {max_len} < 4 for sampling")
        rng = random.Random(seed)
        texts = (
            "".join(rng.choice("ab") for _ in range(rng.randint(4, max_len)))
            for _ in range(samples)
        )
    total = 0
    skipped = 0
    violations: list[tuple[str, tuple[Occurrence, ...], Occurrence]] = []
    for text in texts:
        total += 1
        outcome = check_onoc_containment(text)
        if outcome is None:
            skipped += 1
            continue
        cover, offender = outcome
        if offender is not None:
            violations.append((text, cover, offender))
    return PropertyReport(samples=total, skipped=skipped, violations=tuple(violations))
