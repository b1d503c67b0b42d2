import dataclasses
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from netoccs import fibonacci, occurrences, thue_morse
from netoccs.occurrences import (
    Occurrence,
    Step,
    bit_positions,
    find_occurrences,
    is_net_occurrence,
    occurrence_bits,
    runs_of,
)
from netoccs.words import fib_word

import reference


def test_position_set_helpers():
    assert occurrence_bits("abbaa", [], {"a", "b"}) == {"a": 0b110010, "b": 0b1100}
    assert occurrence_bits("", [], {"a", "b"}) == {"a": 0, "b": 0}
    assert occurrence_bits("bbbbbbbbb", [], {"a", "\u00e9"}) == {"a": 0, "\u00e9": 0}
    with pytest.raises(ValueError):
        occurrence_bits("ab\u00e9", [], {"a"})  # the text is not ASCII
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


def test_runs_of_matches_the_definition():
    rng = random.Random(11)
    for _ in range(300):
        members = {p for p in range(1, 60) if rng.random() < 0.7}
        bits = reference.bit_set(members)
        for length in range(1, 20):
            runs = {p for p in members if all(p + k in members for k in range(length))}
            assert runs_of(bits, length) == reference.bit_set(runs), (sorted(members), length)


def test_occurrence_bits_match_find_occurrences_on_random_splits():
    # Words of any length, each spelled by two words already in the table,
    # some longer than the text or absent from it, over two or three letters.
    rng = random.Random(7)
    for alphabet in ("ab", "abc"):
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            words = sorted(set(text))
            splits = []
            for _ in range(rng.randint(1, 12)):
                left, right = rng.choice(words), rng.choice(words)
                splits.append((left + right, left, right))
                words.append(left + right)
            bits = occurrence_bits(text, splits, set(words))
            assert bits.keys() == set(words)
            for word in words:
                assert bits[word] < 1 << len(text) + 1  # no start past the text
                assert bit_positions(bits[word]) == find_occurrences(word, text), (text, word)


def test_occurrence_bits_edge_cases():
    # a letter absent from the text
    assert occurrence_bits("aaaa", [("ab", "a", "b")], {"ab", "b"}) == {"ab": 0, "b": 0}
    # a word longer than the text, built from words that occur
    splits = [("ab", "a", "b"), ("abab", "ab", "ab")]
    assert occurrence_bits("aba", splits, {"abab", "ab"}) == {"abab": 0, "ab": 0b10}
    # three letters, where "c" is neither "a" nor "b"
    splits = [("ac", "a", "c"), ("cb", "c", "b"), ("acb", "ac", "b")]
    bits = occurrence_bits("acbcbacb", splits, {"acb", "cb", "c"})
    assert {word: bit_positions(b) for word, b in bits.items()} == {
        "acb": (1, 6),
        "cb": (2, 4, 7),
        "c": (2, 4, 7),
    }


def test_occurrence_bits_refuse_a_split_that_does_not_spell_its_word():
    for word, left, right in [("ab", "b", "a"), ("aba", "a", "b"), ("ab", "a", "ab"), ("abab", "ab", "ba")]:
        with pytest.raises(ValueError, match="does not spell"):
            occurrence_bits("abab", [("ab", "a", "b"), ("ba", "b", "a"), (word, left, right)], {word})


def test_occurrence_bits_drop_each_set_after_its_last_read():
    # Building fib_word(28) in fib_word(30) reads every lower order once more
    # after it is built; the peak is the letters' one-byte-per-letter digits,
    # with a few sets of an eighth of the text's length each beside them.
    text = fib_word(30)
    splits = [(fib_word(k), fib_word(k - 1), fib_word(k - 2)) for k in range(3, 29)]
    tracemalloc.start()
    try:
        bits = occurrence_bits(text, splits, {fib_word(28), "b"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)
    assert bit_positions(bits[fib_word(28)]) == find_occurrences(fib_word(28), text)
    assert bit_positions(bits["b"]) == find_occurrences("b", text)


def test_position_sets_have_one_format():
    """Scans and checks hold position sets as int bit sets only: the word
    families hold nothing from numpy, the mask builder and its converter are
    gone, and the Thue-Morse scan table holds ints."""
    from_numpy = [
        (module.__name__, name)
        for module in (fibonacci, thue_morse)
        for name, value in vars(module).items()
        if value is np or (getattr(value, "__module__", None) or "").partition(".")[0] == "numpy"
    ]
    assert from_numpy == []
    assert not {"occurrence_masks", "mask_bits"} & set(vars(occurrences))
    table = thue_morse.target_scans(6, range(6))
    assert all(type(scan) is int for pair in table.values() for scan in pair)


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
