"""Sweep orchestration.

Runs every per-order checker across a range of orders for the two word
families, one order after another in the calling process, and a
randomized/exhaustive property suite for the ONOC containment lemma.

An order's claims come from one stream per family, ``_fib_claims`` or
``_tm_claims``, as ``(name, ClaimResult)`` pairs in report order. ``_sweep``
times each claim from the previous yield, so shared work counts in the first
claim that needs it: the oracle run in ``net_occurrences_match_prediction``.

The property suite is the third definition-level route, beside the
brute-force oracle and the suffix-array engine: it encodes each text of
length n as an n-bit integer and checks a whole block of texts with numpy
array operations: it reads the net occurrences off the row maxima of a
common-prefix table, and finds the greedy cover and tests the widened
containment directly from their definitions. Only the texts it flags are
re-checked one by one through the oracle.
"""

from __future__ import annotations

import platform
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, Iterator, NamedTuple

import numpy as np

from .fibonacci import (
    check_fib_identities,
    check_fib_lemmas,
    predicted_fib_net_occurrences,
    theta_count,
    theta_scans,
    theta_step_ok,
    theta_steps,
)
from .netfreq import NetOccurrenceRecord, net_occurrences_bruteforce, net_occurrences_indexed
from .occurrences import Occurrence
from .onoc import bnso_set, bridging, greedy_onoc, prove_completeness, widen
from .reports import ClaimResult
from .thue_morse import (
    ab_counts,
    ab_step_ok,
    ab_steps,
    check_tm_identities,
    factorization_basis_ok,
    factorization_boundary_ok,
    predicted_tm_net_occurrences,
    smallest_factorization,
    target_scans,
    validate_smallest_factorization,
)
from .words import fib_word, tm_word


def _versions() -> dict[str, str]:
    from . import __version__  # the package module imports this one

    return {"netoccs": __version__, "python": platform.python_version(), "numpy": np.__version__}


@dataclass(frozen=True)
class VerificationReport:
    """A sweep's claims by ``order_<i>/<name>``, in order, with the order
    range it covered, its total wall time, and the seconds each claim took
    (``claim_wall_times``, keyed like ``claims``) and each order's claims
    took (``order_wall_times``, their sum)."""

    family: str
    orders: tuple[int, int]
    claims: dict[str, ClaimResult]
    wall_time: float
    claim_wall_times: dict[str, float]

    @property
    def order_wall_times(self) -> dict[int, float]:
        """Each order's claim times summed in report order."""
        times: dict[int, float] = {}
        for key, t in self.claim_wall_times.items():
            i = int(key.partition("/")[0].removeprefix("order_"))
            times[i] = times.get(i, 0.0) + t
        return times

    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims.values())

    def failed(self) -> dict[str, ClaimResult]:
        return {k: v for k, v in self.claims.items() if not v.passed}

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "orders": list(self.orders),
            "versions": _versions(),
            "wall_time": self.wall_time,
            "order_wall_times": {str(i): t for i, t in self.order_wall_times.items()},
            "claim_wall_times": self.claim_wall_times,
            "claims": {k: v.to_json_dict() for k, v in self.claims.items()},
        }


def _pairs(occs: Iterable[Occurrence]) -> list[list[int]]:
    return [[o.start, o.end] for o in occs]


def _all_pass(sub_claims: dict[str, ClaimResult]) -> ClaimResult:
    """Fold sub-claims into one claim; the witness maps each failing one to
    its own witness."""
    failed = {name: claim.witness for name, claim in sub_claims.items() if not claim.passed}
    return ClaimResult(not failed, witness=failed or None)


def _offset_table(offsets: Iterable, ok: Callable[..., bool]) -> ClaimResult:
    """One per-order claim over a table of offsets; the witness lists the
    offsets where ``ok`` fails."""
    bad = [j for j in offsets if not ok(j)]
    return ClaimResult(not bad, witness=bad or None)


_Claims = Iterator[tuple[str, ClaimResult]]  # one order's claims, in report order


def _prediction_claims(
    word: str, predicted: tuple[Occurrence, ...]
) -> Generator[tuple[str, ClaimResult], None, list[NetOccurrenceRecord]]:
    """From one oracle run: the word's net occurrences match the prediction,
    which is a complete ONOC. Returns the oracle's records."""
    records = net_occurrences_bruteforce(word)
    actual = tuple(r.occurrence for r in records)
    match = actual == predicted
    yield "net_occurrences_match_prediction", ClaimResult(
        match, witness=None if match else {"actual": _pairs(actual), "predicted": _pairs(predicted)}
    )
    completeness = prove_completeness(word, predicted, actual)
    yield "prediction_is_onoc", ClaimResult(completeness.cover_valid)
    complete = completeness.complete()
    yield "cover_complete", ClaimResult(complete, witness=None if complete else completeness.to_json_dict())
    return records


def _engines_agree(word: str, records: list[NetOccurrenceRecord]) -> tuple[str, ClaimResult]:
    """The indexed engine returns the oracle's ``records``."""
    indexed = net_occurrences_indexed(word)
    agree = indexed == records
    oracle = _pairs(r.occurrence for r in records)
    return "engines_agree", ClaimResult(
        agree, witness=None if agree else {"indexed": _pairs(r.occurrence for r in indexed), "oracle": oracle}
    )


def _fib_claims(i: int) -> _Claims:
    word = fib_word(i)
    scans = theta_scans(i, range(i))
    steps = enumerate(theta_steps(i))
    verdicts = [(step.union() == scans[j], theta_step_ok(i, j, step, scans[j])) for j, step in steps]
    yield "theta_sets_match_oracle", _offset_table(range(i - 3), lambda j: verdicts[j][0])
    yield "theta_step_clauses", _offset_table(range(i - 3), lambda j: verdicts[j][1])
    yield "theta_counts_match_oracle", _offset_table(range(i), lambda j: theta_count(i, j) == scans[j].bit_count())
    yield "identities", _all_pass(check_fib_identities(i))
    yield "lemmas", _all_pass(check_fib_lemmas(i, scans))
    records = yield from _prediction_claims(word, predicted_fib_net_occurrences(i))
    yield _engines_agree(word, records)


def _factorization_ok(i: int, j: int, kind: str, table: dict) -> bool:
    """The (i, j, kind) smallest factorization passes every check against
    ``table``, the order's ``target_scans``."""
    try:
        fac = smallest_factorization(i, j, kind)
    except ValueError:  # (i, j, kind) is in the domain: the construction is at fault
        return False
    valid = validate_smallest_factorization(fac, table)
    return valid and factorization_basis_ok(fac, table) and factorization_boundary_ok(fac)


def _tm_claims(i: int) -> _Claims:
    word = tm_word(i)
    # The order's one table of bit-set scans of tm_word(i-j) and its flip, read
    # by the recurrence steps and the factorizations. One pass over the steps
    # records each offset's three set verdicts (the step clauses only from
    # offset 2, where their claim starts).
    table = target_scans(i, range(i))
    a_seq, b_seq = ab_counts(i - 1)  # one past the recurrence's domain, for the top offset
    verdicts = []
    for j, steps in enumerate(ab_steps(i)):
        sets = tuple(step.union() for step in steps)
        counts = (sets[0].bit_count(), sets[1].bit_count())
        verdicts.append((sets == table[j], j < 2 or ab_step_ok(steps, table[j]), counts == (a_seq[j], b_seq[j])))
    del steps, sets  # the last offset's, before the order's heavier claims run
    yield "occurrence_sets_match_oracle", _offset_table(range(i - 1), lambda j: verdicts[j][0])
    yield "recurrence_intersections", _offset_table(range(2, i - 1), lambda j: verdicts[j][1])
    yield "occurrence_counts_match", _offset_table(range(i - 1), lambda j: verdicts[j][2])
    # One offset past its domain the count recurrence disagrees with the word,
    # by design: the sweep asserts the disagreement rather than hiding it.
    oracle_top = word.count("a")
    recurrence_top = a_seq[i - 1]
    yield "top_offset_documented_deviation", ClaimResult(
        oracle_top != recurrence_top, witness={"oracle": oracle_top, "recurrence": recurrence_top}
    )
    yield "identities", _all_pass(check_tm_identities(i))
    records = yield from _prediction_claims(word, predicted_tm_net_occurrences(i))
    # Kind B at offset 0 is the degenerate empty factorization.
    factorizations = [[j, kind] for j in range(i - 1) for kind in ("A", "B") if j or kind == "A"]
    yield "smallest_factorizations_valid", _offset_table(
        factorizations, lambda jk: _factorization_ok(i, *jk, table)
    )
    del table  # before the indexed engine runs
    yield _engines_agree(word, records)


def _sweep(family: str, claims: Callable[[int], _Claims], first: int, last: int) -> VerificationReport:
    """Run ``claims(i)`` for the orders first..last in turn, timing each claim
    from the previous yield of its order."""
    start = time.perf_counter()
    merged: dict[str, ClaimResult] = {}
    claim_wall_times: dict[str, float] = {}
    for i in range(first, last + 1):
        mark = time.perf_counter()
        for name, result in claims(i):
            key, now = f"order_{i}/{name}", time.perf_counter()
            merged[key], claim_wall_times[key] = result, now - mark
            mark = now
    return VerificationReport(family, (first, last), merged, time.perf_counter() - start, claim_wall_times)


# The largest orders a sweep accepts. On these words the oracle makes a few
# hundred probes per order (0.04-0.06 s at tm 17), so most of the time goes to
# the factorization checks and the indexed engine. Each order costs about
# 1.5x (Fibonacci) or 1.8x (Thue-Morse) the one before. Three runs each, one
# per fresh process on a 2-vCPU x86_64 VM (Python 3.11.7, numpy 2.4.6):
# verify_fibonacci(24) 0.13-0.23 s and verify_thue_morse(17) 0.27-0.29 s, peak
# RSS (VmHWM) 34.7 MB and 38.0 MB.
VERIFY_FIB_MAX_ORDER = 24
VERIFY_TM_MAX_ORDER = 17


def verify_fibonacci(max_order: int) -> VerificationReport:
    if not 7 <= max_order <= VERIFY_FIB_MAX_ORDER:
        raise ValueError(f"verify_fibonacci: max_order {max_order} not in 7..{VERIFY_FIB_MAX_ORDER}")
    return _sweep("Fibonacci", _fib_claims, 7, max_order)


def verify_thue_morse(max_order: int) -> VerificationReport:
    if not 5 <= max_order <= VERIFY_TM_MAX_ORDER:
        raise ValueError(f"verify_thue_morse: max_order {max_order} not in 5..{VERIFY_TM_MAX_ORDER}")
    return _sweep("ThueMorse", _tm_claims, 5, max_order)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the ONOC containment property suite, with its inputs:
    ``requested_samples`` is the sample count asked for, ``samples`` the
    number of texts checked. An exhaustive run draws no sample, so its
    ``seed`` and ``requested_samples`` are None."""

    samples: int
    skipped: int
    violations: tuple[tuple[str, tuple[Occurrence, ...], Occurrence], ...]
    seed: int | None
    max_len: int
    exhaustive: bool
    requested_samples: int | None
    wall_time: float = field(compare=False)

    def tested(self) -> int:
        return self.samples - self.skipped

    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "max_len": self.max_len,
            "exhaustive": self.exhaustive,
            "requested_samples": self.requested_samples,
            "versions": _versions(),
            "wall_time": self.wall_time,
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


# Texts per kernel call. The largest temporaries are the (n, n, block)
# common-prefix table, at a byte per cell, and the (chain, n, block)
# containment test. Peak RSS (VmHWM) of the exhaustive sweep to length 14
# when it ran every text, against 28.9 MB after importing netoccs (2-vCPU
# x86_64 VM, Python 3.11.7, numpy 2.4.6): 29.9 MB in 0.03 s with blocks
# of 512 texts or of 1,024, 30.6-30.7 MB with 2,048, 32.5 MB with 4,096 and
# 41.6 MB with all 16,384 in one call, for no gain in time.
_BLOCK = 1024

_TO_BITS = str.maketrans("ab", "01")
_TO_TEXT = str.maketrans("01", "ab")


class _Batch(NamedTuple):
    """Per-text results of ``_containment_kernel``. Texts run along the last
    axis; p is a 0-based start."""

    net: np.ndarray  # (n, texts) bool: a net occurrence starts at p
    ends: np.ndarray  # (n, texts) 1-based end of the candidate at p
    members: np.ndarray  # (n, texts) bool: a greedy cover member starts at p
    has_cover: np.ndarray  # (texts,) bool: the greedy ONOC exists
    violated: np.ndarray  # (texts,) bool: a net occurrence outside it has no widened BNSO


def _common_prefix_table(codes: np.ndarray, n: int) -> np.ndarray:
    """lcp[p, q, t]: common-prefix length of text t's suffixes at 0-based p
    and q, from the letter bits, row p from row p + 1; lcp[p, p] stays 0."""
    bits = (codes >> np.arange(n - 1, -1, -1, dtype=codes.dtype)[:, None]) & 1
    lcp = (bits[:, None] == bits[None, :]).view(np.int8)  # 1 where the letters agree
    lcp[range(n), range(n)] = 0
    for p in range(n - 2, -1, -1):
        lcp[p, :-1] *= lcp[p + 1, 1:] + 1
    return lcp


def _containment_kernel(codes: np.ndarray, n: int) -> _Batch:
    """Check a block of texts of length n at once, from the definitions.

    A text is its n-bit code: a = 0, b = 1, first letter in the top bit.
    Returns, per text, its net occurrences, the greedy ONOC's members,
    whether that cover exists, and whether some net occurrence outside it
    contains no widened BNSO. This route reads each start's longest repeat
    off one all-pairs common-prefix table, built from the letter bits in
    O(n^2) per text; it shares no code with either net-occurrence engine.
    Texts are the last, contiguous axis of every array, which keeps each
    numpy call one long vector loop.
    """
    cols = np.arange(len(codes), dtype=np.int32)
    pos = np.arange(n, dtype=np.int8)[:, None]
    lcp = _common_prefix_table(codes, n)
    # The substring of length l at p occurs again at each q whose common
    # prefix with p reaches l, so R[p], the maximum of row p, is the longest
    # length repeated at p. The candidate at p has length R[p]: it repeats
    # when R[p] > 0, and its right extension never does. Its left extension,
    # the R[p] + 1 letters at p - 1, repeats iff row p - 1 reaches R[p] + 1,
    # that is iff R[p - 1] > R[p]; at p = 0 it falls off the text.
    longest = lcp.max(axis=1)
    net = longest > 0
    net[1:] &= longest[:-1] <= longest[1:]
    ends = pos + longest  # 1-based end of the candidate at 0-based p

    # Greedy chain, as in greedy_onoc: a net occurrence's successor is the
    # last net occurrence starting within it, and must follow it; a member
    # without one (or reaching the end) is its own successor. The chain holds
    # cells, p * texts + t, so each step is one gather from the raveled table.
    def cell(p: np.ndarray) -> np.ndarray:
        return p.astype(np.int32) * len(codes) + cols

    last_net = np.maximum.accumulate(np.where(net, pos, -1), axis=0)
    after = last_net.ravel()[cell(ends - 1)]
    succ = cell(np.where(net & (ends < n) & (after > pos), after, pos)).ravel()
    chain = [cols]  # each text starts at p = 0
    while not np.array_equal(nxt := succ[chain[-1]], chain[-1]):
        chain.append(nxt)
    steps = np.stack(chain)
    members = np.zeros((n, len(codes)), bool)
    members.ravel()[steps] = net[0]
    has_cover = net[0] & (ends.ravel()[steps[-1]] == n)
    # Each step's widened BNSO marks the net occurrences that contain it.
    start, end = widen(steps[1:] // len(codes) + 1, ends.ravel()[steps[:-1]], n)
    moved = (steps[1:] != steps[:-1])[:, None]
    bridged = (moved & (pos + 1 <= start[:, None]) & (ends >= end[:, None])).any(axis=0)
    violated = (net & ~members & ~bridged).any(axis=0) & has_cover
    return _Batch(net, ends, members, has_cover, violated)


def _code_dtype(n: int) -> np.dtype:
    return np.min_scalar_type((1 << n) - 1)


def _text(code: int, n: int) -> str:
    return format(code, f"0{n}b").translate(_TO_TEXT)


# (n, codes, sample numbers): texts of length n and their places in the run
_Blocks = Iterator[tuple[int, np.ndarray, np.ndarray]]


def _exhaustive_blocks(max_len: int) -> _Blocks:
    """Every text of length 1..max_len that starts with a, numbered in the
    order of ``product("ab", repeat=n)``, one block at a time.

    These are the codes below 2^(n-1). The rest are their complements (a and
    b swapped, code 2^n - 1 - c), which the kernel need not see: every array
    it returns depends only on which positions hold equal letters, so a text
    and its complement get the same results."""
    first = 0
    for n in range(1, max_len + 1):
        half = 1 << (n - 1)
        for lo in range(0, half, _BLOCK):
            hi = min(lo + _BLOCK, half)
            yield n, np.arange(lo, hi, dtype=_code_dtype(n)), np.arange(first + lo, first + hi)
        first += 1 << n


def _sampled_blocks(seed: int, samples: int, max_len: int) -> _Blocks:
    """The seeded random texts, grouped by length, one block at a time."""
    rng = random.Random(seed)
    texts = [
        "".join(rng.choice("ab") for _ in range(rng.randint(4, max_len))) for _ in range(samples)
    ]
    by_length: dict[int, list[int]] = {}
    for i, text in enumerate(texts):
        by_length.setdefault(len(text), []).append(i)
    for n, numbers in sorted(by_length.items()):
        for lo in range(0, len(numbers), _BLOCK):
            block = numbers[lo : lo + _BLOCK]
            codes = [int(texts[i].translate(_TO_BITS), 2) for i in block]
            yield n, np.array(codes, dtype=_code_dtype(n)), np.array(block)


# Each extra letter doubles an exhaustive sweep and adds a little to each
# text's cost; the sweep runs the kernel on half the texts (those that start
# with a). In-process on the VM above, one fresh process per run, three runs
# each: length 14 in 0.018-0.029 s, 16 in 0.07-0.12 s, 18 in 0.35-0.51 s and
# 20 in 1.8-2.5 s, with peak RSS 30.2-30.9 MB (blocks bound the memory). At
# that growth length 22 would take about 10 s, and 32 (2^33 texts) would
# never finish.
EXHAUSTIVE_MAX_LEN = 20
# The sampled mode draws every text before it checks any: on the VM above, at
# max_len 32, 10^4, 10^5 and 10^6 samples took 0.11, 0.90 and 9.3 s and peaked
# at 31.5, 43.9 and 150 MB (one run each), so the cap keeps a run near 10 s.
SAMPLED_MAX_SAMPLES = 1_000_000


def verify_onoc_lemma_random(
    seed: int, samples: int, max_len: int, exhaustive: bool = False
) -> PropertyReport:
    """Check the ONOC containment property on random texts (iid uniform
    letters, lengths uniform on [4, max_len]) or exhaustively on all texts
    of length 1..max_len (seed and samples ignored, and reported as None).
    Deterministic for a fixed seed. max_len must lie in [4, 32] and samples
    in [1, SAMPLED_MAX_SAMPLES] when sampling, and max_len in
    [1, EXHAUSTIVE_MAX_LEN] when exhaustive; any other value raises
    ValueError before any text is built.

    This is the third definition-level route: every text of one length is
    checked as one bit-parallel numpy batch (``_containment_kernel``). Each
    text it flags is re-checked with ``check_onoc_containment``, which
    supplies the reported cover and offender; a flag that the per-text
    route does not confirm raises RuntimeError.

    The exhaustive mode runs the kernel only on the texts that start with a
    (``_exhaustive_blocks``) and counts each result for the text's
    complement too, in ``samples`` and ``skipped``: swapping a and b leaves
    every kernel result unchanged. A flagged text flags its complement, and
    both are re-checked one by one. Violations are reported in the order of
    ``product("ab", repeat=n)``, length by length."""
    started = time.perf_counter()
    cap = EXHAUSTIVE_MAX_LEN if exhaustive else 32
    if max_len > cap:
        mode = "exhaustive" if exhaustive else "sampled"
        raise ValueError(f"verify_onoc_lemma_random: {mode} max_len {max_len} > {cap}")
    if exhaustive:
        if max_len < 1:
            raise ValueError(f"verify_onoc_lemma_random: exhaustive max_len {max_len} < 1")
        blocks = _exhaustive_blocks(max_len)
    else:
        if not 1 <= samples <= SAMPLED_MAX_SAMPLES:
            raise ValueError(f"verify_onoc_lemma_random: samples {samples} not in 1..{SAMPLED_MAX_SAMPLES}")
        if max_len < 4:
            raise ValueError(f"verify_onoc_lemma_random: max_len {max_len} < 4 for sampling")
        blocks = _sampled_blocks(seed, samples, max_len)
    copies = 2 if exhaustive else 1  # an exhaustive block's complements share its results
    total = 0
    skipped = 0
    flagged: list[tuple[int, str]] = []
    for n, codes, numbers in blocks:
        batch = _containment_kernel(codes, n)
        violated = batch.violated
        total += copies * len(codes)
        skipped += copies * (len(codes) - int(np.count_nonzero(batch.has_cover)))
        for number, code in zip(numbers[violated].tolist(), codes[violated].tolist()):
            flagged.append((number, _text(code, n)))
            if exhaustive:
                twin = (1 << n) - 1 - code
                flagged.append((number - code + twin, _text(twin, n)))
    violations = []
    for _, text in sorted(flagged):
        outcome = check_onoc_containment(text)
        if outcome is None or outcome[1] is None:
            raise RuntimeError(
                f"verify_onoc_lemma_random: the batch flags {text!r}, the per-text check does not"
            )
        violations.append((text, *outcome))
    return PropertyReport(
        samples=total,
        skipped=skipped,
        violations=tuple(violations),
        seed=None if exhaustive else seed,
        max_len=max_len,
        exhaustive=exhaustive,
        requested_samples=None if exhaustive else samples,
        wall_time=time.perf_counter() - started,
    )
