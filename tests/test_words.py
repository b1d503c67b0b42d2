import pytest

from netoccs.words import (
    MAX_WORD_LEN,
    FactorRef,
    delta,
    fib_length,
    fib_length_ext,
    fib_word,
    flip_word,
    lit_ref,
    q_word,
    read_word_file,
    tm_flip_ref,
    tm_length,
    tm_ref,
    tm_word,
    validate_word,
)


def test_fib_word_small_orders():
    assert [fib_word(i) for i in range(1, 6)] == ["b", "a", "ab", "aba", "abaab"]
    assert fib_word(7) == "abaababaabaab"


def test_fib_word_recurrence():
    for i in range(3, 15):
        assert fib_word(i) == fib_word(i - 1) + fib_word(i - 2)
        assert fib_length(i) == len(fib_word(i))


def test_fib_length_ext_conventions():
    assert fib_length_ext(-1) == 1
    assert fib_length_ext(0) == 0
    assert fib_length_ext(5) == fib_length(5) == 5


def test_tm_word_small_orders():
    assert [tm_word(i) for i in range(1, 5)] == ["a", "ab", "abba", "abbabaab"]
    assert tm_word(5) == "abbabaabbaababba"
    for i in range(1, 12):
        assert tm_length(i) == len(tm_word(i)) == 2 ** (i - 1)


def test_flip_word_involution():
    assert flip_word("abba") == "baab"
    for i in range(1, 8):
        w = tm_word(i)
        assert flip_word(flip_word(w)) == w


@pytest.mark.parametrize("bad", [0, -3])
@pytest.mark.parametrize("fn", [fib_word, tm_word, fib_length, tm_length])
def test_generators_reject_bad_orders(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


def test_generators_refuse_words_longer_than_the_cap():
    assert fib_length(36) <= MAX_WORD_LEN < fib_length(37)
    assert tm_length(25) <= MAX_WORD_LEN < tm_length(26)
    # Refused from the order alone: nothing is built, no length is computed.
    for fn, first_refused in ((fib_word, 37), (tm_word, 26)):
        for order in (first_refused, 1500, 10**18):
            with pytest.raises(ValueError, match="longer than"):
                fn(order)


def test_q_word_values():
    assert q_word(7) == "a"
    assert q_word(8) == "aba"
    assert q_word(9) == "abaaba"
    for i in range(7, 16):
        assert len(q_word(i)) == fib_length(i - 3) - 2


def test_q_word_domain():
    with pytest.raises(ValueError):
        q_word(6)


def test_delta():
    assert delta(0) == "ba"
    assert delta(1) == "ab"
    with pytest.raises(ValueError):
        delta(2)


def test_validate_word():
    assert validate_word("abab") == "abab"
    assert validate_word("") == ""
    with pytest.raises(ValueError):
        validate_word("abc")


def test_factor_ref_resolve_and_flip():
    assert tm_ref(3).resolve() == "abba"
    assert tm_flip_ref(3).resolve() == "baab"
    assert lit_ref("bb").resolve() == "bb"
    assert tm_ref(2).to_json_dict() == {"kind": "TM", "order": 2, "text": None}


def test_factor_ref_rejects_bad_combinations():
    with pytest.raises(ValueError):
        FactorRef("TM", order=None)
    with pytest.raises(ValueError):
        FactorRef("lit", order=3)
    with pytest.raises(ValueError):
        FactorRef("lit", text="xyz")
    with pytest.raises(ValueError):
        FactorRef("Word", order=2)


def test_read_word_file_roundtrip(tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("abaab\n")
    assert read_word_file(path) == "abaab"
    path.write_text("abaab")
    assert read_word_file(path) == "abaab"


def test_read_word_file_rejects_junk(tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("ab\nba\n")
    with pytest.raises(ValueError):
        read_word_file(path)
    path.write_text("")
    with pytest.raises(ValueError):
        read_word_file(path)
    path.write_text("abcab\n")
    with pytest.raises(ValueError):
        read_word_file(path)
