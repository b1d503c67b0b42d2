import dataclasses
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from netoccs.occurrences import (
    Occurrence,
    Step,
    bit_positions,
    find_occurrences,
    is_net_occurrence,
    mask_bits,
    occurrence_masks,
)
from netoccs.words import fib_word

import reference


def test_position_set_helpers():
    assert mask_bits(np.array([True, False, False, True, True])) == 0b110010
    assert mask_bits(np.zeros(0, bool)) == mask_bits(np.zeros(9, bool)) == 0
    assert bit_positions(0b110010) == (1, 4, 5)
    assert bit_positions(0) == ()
    assert bit_positions(1 << 4000 | 1 << 9) == (9, 4000)


def test_step_refuses_each_clause_on_its_own():
    B = reference.bit_set
    step = Step((B((1, 2)), B((2, 3)), B((4,))), B((2,)))
    assert step.union() == B((1, 2, 3, 4))
    assert step.matches(B((1, 2, 3, 4)))
    assert not step.matches(B((1, 2, 3)))  # the union is not the scan
    assert not step.matches(B((1, 2, 3, 4, 5)))
    assert not Step(step.pieces).matches(B((1, 2, 3, 4)))  # the overlap is wrong
    assert not Step((B((1, 2)), B((2, 3)), B((3,))), B((2,))).matches(B((1, 2, 3)))  # third meets second
    assert not Step((B((1, 2)), B((3,)), B((1,)))).matches(B((1, 2, 3)))  # third meets first
    assert Step((B((1, 2)), B((3,)), 0)).matches(B((1, 2, 3)))  # an empty third piece


def test_occurrence_validation():
    with pytest.raises(ValueError):
        Occurrence(0, 3)
    with pytest.raises(ValueError):
        Occurrence(5, 2)


def test_occurrence_is_a_frozen_ordered_hashable_picklable_value():
    occ = Occurrence(2, 5)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(occ, protocol))
        assert back == occ and hash(back) == hash(occ)
    assert not hasattr(occ, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        occ.start = 1
    assert {occ, Occurrence(2, 5), Occurrence(2, 6)} == {Occurrence(2, 5), Occurrence(2, 6)}
    assert sorted([Occurrence(3, 4), Occurrence(1, 6), Occurrence(1, 2)]) == [
        Occurrence(1, 2),
        Occurrence(1, 6),
        Occurrence(3, 4),
    ]
    assert Occurrence(1, 6) < Occurrence(2, 3) <= Occurrence(2, 3)
    for start, end in ((0, 1), (3, 2)):
        with pytest.raises(ValueError):
            Occurrence(start, end)


def test_find_occurrences_overlapping():
    assert find_occurrences("aa", "aaaa") == (1, 2, 3)
    assert find_occurrences("ab", "abab") == (1, 3)
    assert find_occurrences("ba", "aaaa") == ()
    with pytest.raises(ValueError):
        find_occurrences("", "abab")


@pytest.mark.parametrize(
    "pattern,text",
    [("a", "abaab"), ("ab", "abaababaabaab"), ("aba", "ababababa"), ("b", "b")],
)
def test_find_occurrences_matches_reference(pattern, text):
    assert list(find_occurrences(pattern, text)) == reference.occurrences(pattern, text)


def test_occurrence_masks_match_find_occurrences_on_random_splits():
    # Words of any length, each spelled by two words already in the table,
    # some longer than the text or absent from it.
    rng = random.Random(7)
    for _ in range(200):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(1, 40)))
        words = sorted(set(text))
        splits = []
        for _ in range(rng.randint(1, 12)):
            left, right = rng.choice(words), rng.choice(words)
            splits.append((left + right, left, right))
            words.append(left + right)
        masks = occurrence_masks(text, splits, set(words))
        assert masks.keys() == set(words)
        for word in words:
            assert masks[word].shape == (len(text),)
            assert bit_positions(mask_bits(masks[word])) == find_occurrences(word, text), (text, word)


def test_occurrence_masks_refuse_a_split_that_does_not_spell_its_word():
    for word, left, right in [("ab", "b", "a"), ("aba", "a", "b"), ("ab", "a", "ab"), ("abab", "ab", "ba")]:
        with pytest.raises(ValueError, match="does not spell"):
            occurrence_masks("abab", [("ab", "a", "b"), ("ba", "b", "a"), (word, left, right)], {word})


def test_occurrence_masks_drop_each_mask_after_its_last_read():
    # Building fib_word(28) in fib_word(30) reads every lower order once more
    # after it is built; only a few masks of the text's length are ever held.
    text = fib_word(30)
    splits = [(fib_word(k), fib_word(k - 1), fib_word(k - 2)) for k in range(3, 29)]
    tracemalloc.start()
    try:
        masks = occurrence_masks(text, splits, {fib_word(28), "b"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text)
    assert bit_positions(mask_bits(masks[fib_word(28)])) == find_occurrences(fib_word(28), text)
    assert bit_positions(mask_bits(masks["b"])) == find_occurrences("b", text)


def test_is_net_occurrence_basic():
    # "aa" repeats in "aaaa"; (1,3) and (2,4) are the net occurrences of "aaa"
    assert is_net_occurrence("aaaa", Occurrence(1, 3))
    assert is_net_occurrence("aaaa", Occurrence(2, 4))
    assert not is_net_occurrence("aaaa", Occurrence(1, 4))  # unique whole text
    assert not is_net_occurrence("aaaa", Occurrence(2, 3))  # both extensions repeat
    with pytest.raises(ValueError):
        is_net_occurrence("aaaa", Occurrence(2, 5))


@pytest.mark.parametrize("text", ["abaababaabaab", "abbabaab", "aabbaabb", "ababa"])
def test_is_net_occurrence_matches_reference(text):
    expected = set(reference.net_occurrences(text))
    n = len(text)
    for s in range(1, n + 1):
        for e in range(s, n + 1):
            assert is_net_occurrence(text, Occurrence(s, e)) == ((s, e) in expected)
