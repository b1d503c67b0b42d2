"""Acceptance suite: one test per headline claim, at full desk scale.

Each test sweeps the complete stated range and asserts exact equality
against the independent oracles; there are no tolerances. Expect the
factorization sweep (criterion 8) to fail: the constructions at the
single-letter offset need double-letter literal gap factors, which the
four-word factor alphabet cannot express. See the repository notes for
the analysis; the test states the full claim anyway.
"""

import time
from functools import cache
from itertools import product

from netoccs.fibonacci import (
    predicted_fib_net_occurrences,
    theta_count,
    theta_max_position,
    theta_set,
    theta_step_ok,
    theta_steps,
)
from netoccs.netfreq import net_occurrences_bruteforce, net_occurrences_indexed
from netoccs.occurrences import find_occurrences
from netoccs.thue_morse import (
    ab_counts,
    ab_sets,
    ab_step_ok,
    ab_steps,
    factorization_basis_ok,
    factorization_boundary_ok,
    jacobsthal,
    predicted_tm_net_occurrences,
    repetition_free,
    smallest_factorization,
    target_scans,
    validate_smallest_factorization,
)
from netoccs.verifier import verify_onoc_lemma_random
from netoccs.words import fib_word, flip_word, tm_word

from reference import bit_set

FIB_ORDERS = range(7, 21)
TM_ORDERS = range(5, 15)


@cache
def fib_records(i):
    return tuple(r.occurrence for r in net_occurrences_bruteforce(fib_word(i)))


@cache
def tm_records(i):
    return tuple(r.occurrence for r in net_occurrences_bruteforce(tm_word(i)))


def test_criterion_01_fibonacci_words_have_exactly_three_net_occurrences():
    """Orders 7..20: the oracle finds exactly the three predicted net
    occurrences, in under two minutes for the whole sweep."""
    start = time.perf_counter()
    for i in FIB_ORDERS:
        oracle = fib_records(i)
        assert len(oracle) == 3, i
        assert oracle == predicted_fib_net_occurrences(i), i
    assert time.perf_counter() - start < 120


def test_criterion_02_thue_morse_words_have_exactly_nine_net_occurrences():
    """Orders 5..14: the oracle finds exactly the nine predicted net
    occurrences, in under three minutes for the whole sweep."""
    start = time.perf_counter()
    for i in TM_ORDERS:
        oracle = tm_records(i)
        assert len(oracle) == 9, i
        assert oracle == predicted_tm_net_occurrences(i), i
    assert time.perf_counter() - start < 180


def test_criterion_03_fibonacci_position_set_recurrence_is_exact():
    """Orders 6..20, offsets 0..i-4: the recurrence set equals the scanned
    set, the step pieces are disjoint, and the maximum-element formula
    holds."""
    for i in range(6, 21):
        word = fib_word(i)
        for j, step in zip(range(0, i - 3), theta_steps(i), strict=True):
            positions = theta_set(i, j)
            scanned = find_occurrences(fib_word(i - j), word)
            assert positions == scanned, (i, j)
            assert theta_max_position(i, j) == positions[-1], (i, j)
            if j >= 2:
                assert theta_step_ok(i, j, step, bit_set(scanned)), (i, j)


def test_criterion_04_fibonacci_occurrence_counts_match_all_branches():
    """Orders 2..20, every offset: the closed-form count (all three
    branches) equals the scanned occurrence count."""
    for i in range(2, 21):
        word = fib_word(i)
        for j in range(0, i):
            scanned = len(find_occurrences(fib_word(i - j), word))
            assert theta_count(i, j) == scanned, (i, j)


def test_criterion_05_thue_morse_position_set_recurrences_are_exact():
    """Orders 2..14, offsets 0..i-2: both recurrence sets equal the scanned
    sets and every step's intersection identities hold set-exactly. One
    offset further the count recurrence stops agreeing with the word, and
    that divergence is asserted too (4 vs 5 at order 4)."""
    for i in range(2, 15):
        word = tm_word(i)
        for j, steps in zip(range(0, i - 1), ab_steps(i), strict=True):
            sets = ab_sets(i, j)
            target = tm_word(i - j)
            scanned = find_occurrences(target, word), find_occurrences(flip_word(target), word)
            assert sets.a_set == scanned[0], (i, j)
            assert sets.b_set == scanned[1], (i, j)
            if j >= 2:
                assert ab_step_ok(steps, tuple(map(bit_set, scanned))), (i, j)
    for i in range(3, 15):
        scanned = len(find_occurrences("a", tm_word(i)))
        recurrence = ab_counts(i - 1)[0][i - 1]
        assert scanned != recurrence, i
    assert len(find_occurrences("a", tm_word(4))) == 4
    assert ab_counts(3)[0][3] == 5


def test_criterion_06_occurrence_counts_follow_jacobsthal_numbers():
    """On the order-14 word, the two count sequences match scanned counts
    for all offsets up to 12, and the a-sequence matches the Jacobsthal
    closed form (2^k - (-1)^k)/3 under the one-step index shift the frozen
    values (1,1,3,5,11,21,43,85) force."""
    a_seq, b_seq = ab_counts(12)
    assert a_seq[:8] == (1, 1, 3, 5, 11, 21, 43, 85)
    word = tm_word(14)
    for j in range(0, 13):
        target = tm_word(14 - j)
        assert len(find_occurrences(target, word)) == a_seq[j], j
        assert len(find_occurrences(flip_word(target), word)) == b_seq[j], j
    for k in range(1, 13):
        assert jacobsthal(k) == (2**k - (-1) ** k) // 3
        assert jacobsthal(k) == a_seq[k - 1], k
    for j in range(1, 13):
        assert b_seq[j] == b_seq[j - 1] + a_seq[j - 1]


def test_criterion_07_onoc_containment_property_has_zero_violations():
    """Exhaustively over all binary texts of length at most 14 and over
    1000 seeded random texts of length at most 24: whenever a text has an
    overlapping cover of net occurrences, every net occurrence outside the
    cover strictly contains some widened bridging overlap. Under two
    minutes."""
    start = time.perf_counter()
    exhaustive = verify_onoc_lemma_random(seed=0, samples=0, max_len=14, exhaustive=True)
    assert exhaustive.samples == 2**15 - 2
    assert exhaustive.violations == ()
    sampled = verify_onoc_lemma_random(seed=42, samples=1000, max_len=24)
    assert sampled.samples == 1000
    assert sampled.violations == ()
    assert time.perf_counter() - start < 120


def test_criterion_08_smallest_factorizations_satisfy_all_checks():
    """Orders 2..12, every offset, both kinds: the factorization flattens
    to the host word, places every target occurrence as a whole factor,
    never has two adjacent gap factors, draws factors only from the
    four-word alphabet, and obeys the first/last-factor parity rule.
    (Kind B at offset 0 is skipped: the flipped whole word never occurs,
    so the only factorization is the empty one.)"""
    failures = []
    for i in range(2, 13):
        table = target_scans(i, range(i))
        for j in range(0, i):
            for kind in ("A", "B"):
                if j == 0 and kind == "B":
                    continue
                fac = smallest_factorization(i, j, kind)
                ok = (
                    validate_smallest_factorization(fac, table)
                    and factorization_basis_ok(fac, table)
                    and factorization_boundary_ok(fac)
                )
                if not ok:
                    failures.append((i, j, kind))
    assert not failures, f"factorization checks failed for {failures}"


def test_criterion_09_structural_word_facts_hold():
    """Thue-Morse words up to order 12 are overlap-free and cube-free by
    exhaustive scan; Fibonacci words up to order 20 avoid the blocks aaa
    and bb; each Fibonacci word occurs in its successor only at position 1
    and exactly twice in its own square."""
    for i in range(1, 13):
        assert repetition_free(tm_word(i)) == (True, True), i
    for i in range(1, 21):
        word = fib_word(i)
        assert "aaa" not in word and "bb" not in word, i
        assert find_occurrences(word, word + word) == (1, len(word) + 1), i
    for i in range(3, 21):  # the order-1 word never occurs in the order-2 word
        assert find_occurrences(fib_word(i - 1), fib_word(i)) == (1,), i


def test_criterion_10_indexed_engine_matches_oracle_everywhere():
    """The suffix-array engine returns byte-identical records to the
    brute-force oracle on every sweep order above and on every binary text
    of length at most 14."""
    for i in FIB_ORDERS:
        word = fib_word(i)
        indexed = tuple(r.occurrence for r in net_occurrences_indexed(word))
        assert indexed == fib_records(i), i
        assert net_occurrences_indexed(word) == net_occurrences_bruteforce(word), i
    for i in TM_ORDERS:
        word = tm_word(i)
        indexed = tuple(r.occurrence for r in net_occurrences_indexed(word))
        assert indexed == tm_records(i), i
        assert net_occurrences_indexed(word) == net_occurrences_bruteforce(word), i
    for length in range(1, 15):
        for tup in product("ab", repeat=length):
            text = "".join(tup)
            assert net_occurrences_indexed(text) == net_occurrences_bruteforce(text)
