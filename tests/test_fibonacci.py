"""Tests for the Fibonacci-word occurrence-set recurrence and the
structural facts behind the three-net-occurrence prediction."""

import pytest

from netoccs import fibonacci
from netoccs.fibonacci import (
    check_fib_identities,
    check_fib_lemmas,
    predicted_fib_net_occurrences,
    theta_count,
    theta_max_position,
    theta_scans,
    theta_set,
    theta_step_ok,
    theta_steps,
)
from netoccs.netfreq import net_occurrences_bruteforce
from netoccs.occurrences import Occurrence, find_occurrences
from netoccs.reports import ClaimResult
from netoccs.words import FIB_MAX_ORDER, fib_length, fib_word

from reference import bit_set
from reference import occurrences as ref_occurrences


def oracle_theta(i: int, j: int) -> tuple[int, ...]:
    return tuple(find_occurrences(fib_word(i - j), fib_word(i)))


def test_theta_set_frozen_values():
    assert theta_set(7, 0) == (1,)
    assert theta_set(7, 1) == (1,)
    assert theta_set(7, 2) == (1, 6, 9)
    assert theta_set(7, 3) == (1, 4, 6, 9)
    assert theta_set(10, 4) == oracle_theta(10, 4)


@pytest.mark.parametrize("i", range(3, 25))
def test_theta_scans_are_the_direct_scans(i):
    assert theta_scans(i, range(i)) == {j: bit_set(oracle_theta(i, j)) for j in range(i)}
    assert theta_scans(i, range(i - 1, i)) == {i - 1: bit_set(oracle_theta(i, i - 1))}


def test_theta_scans_domain_errors():
    for i in (-1, 0, 1, 2, FIB_MAX_ORDER + 1):
        with pytest.raises(ValueError):
            theta_scans(i, range(i))
    for offsets in (range(0), range(-1, 1), range(0, 8)):
        with pytest.raises(ValueError):
            theta_scans(7, offsets)


def test_theta_set_domain_errors():
    for i, j in [(5, 0), (6, -1), (6, 3), (7, 4), (10, 7)]:
        with pytest.raises(ValueError):
            theta_set(i, j)


def test_theta_set_refuses_orders_above_the_generator_cap():
    # Positions inside a word the generator refuses to build mean nothing,
    # and the lengths of such words are slow to compute.
    with pytest.raises(ValueError, match=f"{FIB_MAX_ORDER}"):
        theta_set(FIB_MAX_ORDER + 1, 2)
    with pytest.raises(ValueError):
        theta_steps(10**9)


@pytest.mark.parametrize("i", range(6, 13))
def test_theta_set_matches_direct_scan(i):
    for j in range(0, i - 3):
        assert theta_set(i, j) == oracle_theta(i, j)


@pytest.mark.parametrize("i", range(6, 13))
def test_theta_step_structure(i):
    steps = list(theta_steps(i))
    assert len(steps) == i - 3
    for j in range(2, i - 3):
        assert theta_step_ok(i, j, steps[j], bit_set(oracle_theta(i, j)))
        assert not theta_step_ok(i, j, steps[j], bit_set(oracle_theta(i, j)[1:]))  # a scan that misses one
        prev, shifted, rightmost = steps[j].pieces
        if j % 2 == 0:
            assert rightmost == bit_set((theta_max_position(i, j),))
        else:
            assert rightmost == 0
        # parts reassemble the set
        assert prev | shifted | rightmost == bit_set(theta_set(i, j))


@pytest.mark.parametrize("i", range(6, 13))
def test_theta_max_position(i):
    for j in range(0, i - 3):
        assert theta_max_position(i, j) == max(theta_set(i, j))


def test_theta_count_frozen_values():
    assert theta_count(7, 2) == 3
    assert theta_count(7, 6) == 5  # single letters of the order-7 word
    assert theta_count(20, 3) == 4


@pytest.mark.parametrize("i", range(2, 13))
def test_theta_count_all_branches(i):
    text = fib_word(i)
    for j in range(0, i):
        assert theta_count(i, j) == len(ref_occurrences(fib_word(i - j), text))


def test_theta_count_domain_errors():
    for i, j in [(1, 0), (5, 5), (5, -1)]:
        with pytest.raises(ValueError):
            theta_count(i, j)


def test_predicted_net_occurrences_frozen():
    assert predicted_fib_net_occurrences(7) == (
        Occurrence(1, 6),
        Occurrence(6, 11),
        Occurrence(9, 13),
    )
    assert predicted_fib_net_occurrences(8) == (
        Occurrence(1, 11),
        Occurrence(9, 19),
        Occurrence(14, 21),
    )
    with pytest.raises(ValueError):
        predicted_fib_net_occurrences(6)


@pytest.mark.parametrize("i", range(7, 13))
def test_predicted_matches_oracle(i):
    oracle = tuple(r.occurrence for r in net_occurrences_bruteforce(fib_word(i)))
    assert predicted_fib_net_occurrences(i) == oracle
    assert len(oracle) == 3


@pytest.mark.parametrize("i", [6, 7, 10, 12])
def test_fib_identities_pass(i):
    claims = check_fib_identities(i)
    assert all(c.passed for c in claims.values()), {
        k: c.witness for k, c in claims.items() if not c.passed
    }


def test_fib_identities_keys():
    assert set(check_fib_identities(6)) == {"split_mid_copy", "split_double_prefix"}
    assert set(check_fib_identities(7)) == {
        "split_mid_copy",
        "split_double_prefix",
        "tail_pair_forward",
        "tail_pair_reversed",
        "q_length",
    }
    with pytest.raises(ValueError):
        check_fib_identities(5)


def test_failing_identities_carry_their_witnesses(monkeypatch):
    true_q = fibonacci.q_word

    def planted(order):  # one letter too many at order 9
        return true_q(order) + "a" if order == 9 else true_q(order)

    monkeypatch.setattr(fibonacci, "q_word", planted)
    claims = check_fib_identities(9)
    # q_word(9) has 6 letters; delta(0) = "ba" and delta(1) = "ab" follow it
    assert {k: c.witness for k, c in claims.items() if not c.passed} == {
        "tail_pair_forward": 7,
        "tail_pair_reversed": 8,
        "q_length": [7, 6],
    }


def test_extended_block_unique_names_the_repeated_string(monkeypatch):
    monkeypatch.setattr(fibonacci, "_unique_in", lambda text, sub: len(sub) != fib_length(7) - 1)
    claim = check_fib_lemmas(9, theta_scans(9, range(1, 4)))["extended_block_unique"]
    assert claim == ClaimResult(False, witness=["extended_block_prefix"])


LEMMA_KEYS = {
    "square_two_occurrences",
    "previous_only_at_1",
    "second_previous_positions",
    "third_previous_positions",
    "core_block_positions",
    "third_previous_follower",
    "extended_block_unique",
    "prefix_forces_last_letter",
    "core_block_superstrings_unique",
}


@pytest.mark.parametrize("i", [7, 8, 10, 12])
def test_fib_lemmas_pass(i):
    claims = check_fib_lemmas(i, theta_scans(i, range(1, 4)))
    assert set(claims) == LEMMA_KEYS
    assert all(c.passed for c in claims.values()), {
        k: c.witness for k, c in claims.items() if not c.passed
    }


def test_fib_lemmas_domain():
    with pytest.raises(ValueError):
        check_fib_lemmas(6, theta_scans(6, range(1, 4)))


def test_lengths_are_consistent_with_words():
    for i in range(1, 21):
        assert fib_length(i) == len(fib_word(i))
