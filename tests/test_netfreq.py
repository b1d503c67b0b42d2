import dataclasses
import functools
import hashlib
import json
import pickle
import random
from itertools import product

import pytest

from netoccs import netfreq
from netoccs.netfreq import (
    SHORT_TEXT,
    NetOccurrenceRecord,
    net_frequency,
    net_occurrences_bruteforce,
    net_occurrences_indexed,
    repeated_prefix_table,
    suffix_array,
    lcp_array,
)
from netoccs.occurrences import Occurrence
from netoccs.words import fib_word, tm_word

import reference


def occ_pairs(records):
    return [(r.occurrence.start, r.occurrence.end) for r in records]


_rng = random.Random(20250502)
# Seeded random texts, then the periodic texts whose long repeats make the
# oracle's carried repeat length rise and fall the most.
LONG_TEXTS = [
    "".join(_rng.choice("ab") for _ in range(_rng.randint(1, 2000))) for _ in range(12)
] + ["a" * 500, "ab" * 250, "aab" * 200]

# Texts on both sides of SHORT_TEXT, the longest ASCII text that the indexed
# engine reads off suffix keys (longer ones take numpy), keyed by test id.
_BOUNDARY_LENGTHS = (SHORT_TEXT - 1, SHORT_TEXT, SHORT_TEXT + 1, 3000)
SA_TEXTS = {
    **{f"random-{n}": "".join(_rng.choice("ab") for _ in range(n)) for n in _BOUNDARY_LENGTHS},
    **{f"{unit}-{n}": (unit * n)[:n] for unit in ("a", "ab", "aab") for n in _BOUNDARY_LENGTHS},
    **{f"fib-{i}": fib_word(i) for i in range(12, 17)},
    **{f"tm-{i}": tm_word(i) for i in range(9, 13)},
}
# Wider alphabets, and letters whose code points need 32-bit ranks.
_rng_letters = random.Random(20261018)
SA_TEXTS.update(
    {
        f"{alphabet}-{n}": "".join(_rng_letters.choice(alphabet) for _ in range(n))
        for alphabet in ("abc", "abcd", "\u4e00\U0001f600")
        for n in _BOUNDARY_LENGTHS
    }
)

# Texts at the edges of the engine's two paths: on the suffix keys, the zero
# code point (its key digit is 1, never the 0 that ends a suffix) and "\x7f"
# (its digit 128 fills the byte); on numpy, the largest code point, ASCII
# mixed with astral letters, and one non-ASCII letter at the end of an ASCII
# text (which sends a short text to numpy).
_KEY_LETTERS = ("\0", "a", "\U0001f600", "\U0010ffff")
_rng_keys = random.Random(20261020)
KEY_EDGE_TEXTS = {
    "zeros-3": "\0\0\0",
    "a-zero-4": "a\0a\0",
    "max-a-max": "\U0010ffffa\U0010ffff",
    **{
        f"{name}-{n}": "".join(_rng_keys.choice(letters) for _ in range(n))
        for n in range(1, 21)
        for name, letters in (("mixed", _KEY_LETTERS), ("zero-max", ("\0", "\U0010ffff")))
    },
    f"mixed-{SHORT_TEXT - 1}": "".join(_rng_keys.choice(_KEY_LETTERS) for _ in range(SHORT_TEXT - 1)),
    f"zero-max-{SHORT_TEXT}": "".join(_rng_keys.choice(("\0", "\U0010ffff")) for _ in range(SHORT_TEXT)),
    f"zeros-{SHORT_TEXT}": "\0" * SHORT_TEXT,
    f"mixed-{SHORT_TEXT + 1}": "".join(_rng_keys.choice(_KEY_LETTERS) for _ in range(SHORT_TEXT + 1)),
}
_ASCII_KEY_LETTERS = ("\0", "a", "\x7f")
_rng_ascii = random.Random(20261021)
KEY_EDGE_TEXTS.update(
    {
        **{f"dels-{n}": "\x7f" * n for n in (1, 2, 3, 20, SHORT_TEXT)},
        **{
            f"ascii-{n}": "".join(_rng_ascii.choice(_ASCII_KEY_LETTERS) for _ in range(n))
            for n in (*range(1, 21), SHORT_TEXT - 1, SHORT_TEXT, SHORT_TEXT + 1)
        },
        **{
            f"ascii-then-{ord(last):x}": "".join(_rng_ascii.choice(_ASCII_KEY_LETTERS) for _ in range(19)) + last
            for last in ("\x80", "\U0010ffff")
        },
    }
)
SA_TEXTS.update(KEY_EDGE_TEXTS)


def _all_short_texts(max_len):
    for length in range(1, max_len + 1):
        for letters in product("ab", repeat=length):
            yield "".join(letters)


def assert_lcp_definitional(text, sa):
    lcp = lcp_array(text, sa)
    assert lcp[0] == 0
    for r in range(1, len(text)):
        x, y = text[sa[r - 1] :], text[sa[r] :]
        common = 0
        while common < min(len(x), len(y)) and x[common] == y[common]:
            common += 1
        assert lcp[r] == common


def test_fib7_net_occurrences():
    records = net_occurrences_bruteforce(fib_word(7))
    assert occ_pairs(records) == [(1, 6), (6, 11), (9, 13)]
    assert [r.substring for r in records] == ["abaaba", "abaaba", "abaab"]
    assert records[0].left is None and records[0].right == "b"
    assert records[2].left == "a" and records[2].right is None


def test_tm5_net_occurrences():
    records = net_occurrences_bruteforce(tm_word(5))
    assert occ_pairs(records) == [
        (1, 4), (3, 5), (4, 6), (5, 8), (7, 10), (9, 12), (11, 13), (12, 14), (13, 16),
    ]


def test_aaaa_net_occurrences():
    assert occ_pairs(net_occurrences_bruteforce("aaaa")) == [(1, 3), (2, 4)]


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        net_occurrences_bruteforce("")
    with pytest.raises(ValueError):
        net_occurrences_indexed("")
    # The index helpers take the empty text and return empty tables.
    assert suffix_array("") == [] and repeated_prefix_table("") == []


def test_record_json_shape():
    rec = net_occurrences_bruteforce(fib_word(7))[0]
    assert rec.to_json_dict() == {
        "start": 1,
        "end": 6,
        "string": "abaaba",
        "left": None,
        "right": "b",
    }


@pytest.mark.parametrize(
    "text",
    [
        "a",
        "ab",
        "aaaa",
        "abab",
        "abaabab",
        "abbabaab",
        "aabbaabbaabb",
        fib_word(8),
        tm_word(5),
    ],
)
def test_three_routes_agree(text):
    oracle = net_occurrences_bruteforce(text)
    indexed = net_occurrences_indexed(text)
    assert oracle == indexed
    assert occ_pairs(oracle) == reference.net_occurrences(text)


def test_oracle_matches_literal_reference_on_all_short_texts():
    for text in _all_short_texts(10):
        assert occ_pairs(net_occurrences_bruteforce(text)) == reference.net_occurrences(text), text


@pytest.mark.parametrize("text", LONG_TEXTS, ids=lambda t: f"{t[:3]}..{len(t)}")
def test_oracle_matches_indexed_on_long_texts(text):
    assert net_occurrences_bruteforce(text) == net_occurrences_indexed(text)


# Texts over three and four letters: the oracle's reasoning never uses the
# alphabet, so the literal comparison should not be confined to "ab".
_rng_wide = random.Random(20251018)
WIDE_TEXTS = [
    "".join(_rng_wide.choice(alphabet) for _ in range(_rng_wide.randint(1, 40)))
    for alphabet in ("abc", "abcd")
    for _ in range(250)
]


def test_oracle_matches_literal_reference_beyond_binary():
    for text in WIDE_TEXTS:
        assert occ_pairs(net_occurrences_bruteforce(text)) == reference.net_occurrences(text), text


_rng_verified = random.Random(20251019)
VERIFIED_TEXTS = (
    [fib_word(i) for i in range(7, 17)]
    + [tm_word(i) for i in range(5, 12)]
    + list(_all_short_texts(10))
    + [
        "".join(_rng_verified.choice(alphabet) for _ in range(_rng_verified.randint(1, 300)))
        for alphabet in ("ab", "abc")
        for _ in range(40)
    ]
)


def test_oracle_verifies_exactly_the_records_it_reports(monkeypatch):
    # The scan settles every start whose repeated length did not grow; what
    # reaches is_net_occurrence is always a net occurrence, once each.
    verdicts = []
    original = netfreq.is_net_occurrence

    def counting(text, occ):
        verdict = original(text, occ)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(netfreq, "is_net_occurrence", counting)
    for text in VERIFIED_TEXTS:
        verdicts.clear()
        records = net_occurrences_bruteforce(text)
        assert verdicts == [True] * len(records), text
        assert records == net_occurrences_indexed(text), text


PAPER_WORDS = {
    **{f"fib-{i}": fib_word(i) for i in range(5, 23)},
    **{f"tm-{i}": tm_word(i) for i in range(3, 17)},
}


def _oracle_probes(text, monkeypatch):
    probes = []
    original = netfreq.occurs_elsewhere

    def counting(host, s0, m):
        probes.append(m)
        return original(host, s0, m)

    monkeypatch.setattr(netfreq, "occurs_elsewhere", counting)
    net_occurrences_bruteforce(text)
    return len(probes)


@pytest.mark.parametrize("name", ["fib-18", "fib-20", "tm-12", "tm-14"])
def test_oracle_makes_at_most_one_probe_per_letter_on_the_paper_words(name, monkeypatch):
    # The repeated length grows at only 3 (Fibonacci) or 9 (Thue-Morse)
    # starts, so galloping there keeps the count below one probe per
    # letter; extending one letter at a time makes 1.6-1.75 per letter.
    assert 0 < _oracle_probes(PAPER_WORDS[name], monkeypatch) <= len(PAPER_WORDS[name])


@pytest.mark.parametrize("name", ["fib-18", "fib-20", "fib-22", "tm-12", "tm-14", "tm-16"])
def test_oracle_probes_logarithmically_on_the_paper_words(name, monkeypatch):
    # Each run of starts whose repeated length does not grow is settled by
    # one galloping search, so the probes grow with the number of runs, not
    # with the length; a length search at every start makes 0.6-0.8 per letter.
    text = PAPER_WORDS[name]
    assert 0 < _oracle_probes(text, monkeypatch) <= 32 * len(text).bit_length()


def test_oracle_matches_indexed_on_all_ternary_texts():
    texts = ["".join(letters) for length in range(1, 8) for letters in product("abc", repeat=length)]
    assert len(texts) == 3279
    for text in texts:
        assert net_occurrences_bruteforce(text) == net_occurrences_indexed(text), text


@pytest.mark.parametrize("unit", ["a", "ab", "aab"])
def test_oracle_matches_indexed_where_settled_starts_end_on_a_unique_letter(unit):
    # From each start of the first half the shortest unique substring ends
    # on the "c", so the run of settled starts reaches it (t* = e - 1) and
    # the search resumes from length 0 just past it.
    for k in range(51):
        text = unit * k + "c" + unit * k
        assert net_occurrences_bruteforce(text) == net_occurrences_indexed(text), k


@pytest.mark.parametrize("unit", ["a", "ab", "aab"])
def test_oracle_matches_indexed_where_repeats_run_to_the_end(unit):
    # Every start past the first period repeats up to the end of the text,
    # so the search is capped there, on both sides of each power of two.
    for k in range(1, 601):
        text = unit * k
        assert net_occurrences_bruteforce(text) == net_occurrences_indexed(text), k


@pytest.mark.parametrize("name", PAPER_WORDS)
def test_oracle_matches_indexed_on_the_paper_words(name):
    text = PAPER_WORDS[name]
    assert net_occurrences_bruteforce(text) == net_occurrences_indexed(text)


def _capped_text(rng):
    # A random three-letter head, then a periodic run to the end of the
    # text, so that the search reaches the end from many starts.
    head = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
    period = "".join(rng.choice("abc") for _ in range(rng.randint(1, 5)))
    return head + (period * 40)[: rng.randint(1, 40)]


_rng_capped = random.Random(20261019)
CAPPED_TEXTS = [_capped_text(_rng_capped) for _ in range(300)]


def test_oracle_matches_literal_reference_where_repeats_run_to_the_end():
    for text in CAPPED_TEXTS:
        assert occ_pairs(net_occurrences_bruteforce(text)) == reference.net_occurrences(text), text


def test_net_frequency_examples():
    f7 = fib_word(7)
    assert net_frequency(f7, "abaaba") == 2
    assert net_frequency(f7, "abaab") == 1
    assert net_frequency(f7, "bb") == 0  # absent
    assert net_frequency(f7, f7) == 0  # unique
    with pytest.raises(ValueError):
        net_frequency(f7, "")


def test_net_frequency_matches_literal_reference_on_all_short_texts(monkeypatch):
    # The reference recomputes a text's net occurrences for every pattern;
    # remember them per text so the sweep stays quick.
    monkeypatch.setattr(reference, "net_occurrences", functools.cache(reference.net_occurrences))
    for text in _all_short_texts(10):
        n = len(text)
        for pattern in {text[s:e] for s in range(n) for e in range(s + 1, n + 1)}:
            assert net_frequency(text, pattern) == reference.net_frequency(text, pattern), (text, pattern)


@pytest.mark.parametrize("text", ["abaababaabaab", "abbabaabbaababba", "aaaabaaa"])
def test_net_frequency_sums_to_record_count(text):
    records = net_occurrences_bruteforce(text)
    distinct = {r.substring for r in records}
    assert sum(net_frequency(text, s) for s in distinct) == len(records)


def assert_never_nest(text):
    # Sorted by start, the net occurrences also have strictly increasing
    # ends, so none lies inside another; greedy_onoc relies on this.
    occs = sorted(r.occurrence for r in net_occurrences_bruteforce(text))
    for prev, cur in zip(occs, occs[1:]):
        assert prev.start < cur.start and prev.end < cur.end, (text, prev, cur)


@pytest.mark.parametrize(
    "text",
    [fib_word(7), tm_word(5), "aaaa", "abbaabba"]
    + [pytest.param(fib_word(i), id=f"fib-{i}") for i in range(8, 15)]
    + [pytest.param(tm_word(i), id=f"tm-{i}") for i in range(6, 11)],
)
def test_records_never_nest(text):
    assert_never_nest(text)


def test_records_never_nest_on_every_text_to_length_12():
    for text in _all_short_texts(12):
        assert_never_nest(text)


def test_suffix_array_small():
    # "banana" in a/b letters: suffixes of "abaab" sorted
    text = "abaab"
    sa = suffix_array(text)
    suffixes = sorted(range(len(text)), key=lambda k: text[k:])
    assert sa == suffixes
    assert_lcp_definitional(text, sa)


@pytest.mark.parametrize("text", list(SA_TEXTS.values()), ids=list(SA_TEXTS))
def test_suffix_array_matches_sorted_suffixes_across_short_text(text):
    assert suffix_array(text) == sorted(range(len(text)), key=lambda i: text[i:])


def test_lcp_array_definitional_above_short_text():
    text = SA_TEXTS["random-3000"]
    assert_lcp_definitional(text, suffix_array(text))


def test_repeated_prefix_table_definition():
    # table[s] = longest repeated substring length starting at s (0-based)
    text = "abaabab"
    table = repeated_prefix_table(text)
    for s0 in range(len(text)):
        best = 0
        for e0 in range(s0, len(text)):
            sub = text[s0 : e0 + 1]
            if len(reference.occurrences(sub, text)) >= 2:
                best = e0 - s0 + 1
        assert table[s0] == best


def repeated_prefix_definition(text):
    """table[s]: the length of the longest prefix of text[s:] that occurs at
    another position too. A prefix of a repeated string is repeated, so the
    length is bracketed by doubling and then bisected on "first and last
    occurrence differ"."""

    def repeated(s, length):
        head = text[s : s + length]
        return text.find(head) != text.rfind(head)

    n = len(text)
    table = []
    for s in range(n):
        lo, hi = 0, 1  # repeated at lo; at hi, unknown until the loop ends
        while hi <= n - s and repeated(s, hi):
            lo, hi = hi, 2 * hi
        hi = min(hi, n - s + 1)  # not repeated, or past the end
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if repeated(s, mid) else (lo, mid)
        table.append(lo)
    return table


@pytest.mark.parametrize("text", list(SA_TEXTS.values()), ids=list(SA_TEXTS))
def test_indexed_route_is_definitional_across_short_text(text):
    # Above SHORT_TEXT the table comes from binary lifting over the doubling
    # ranks; a^n reaches the deepest level (LCP n - 1).
    assert repeated_prefix_table(text) == repeated_prefix_definition(text)
    assert net_occurrences_indexed(text) == net_occurrences_bruteforce(text)


def test_record_is_a_frozen_hashable_picklable_value():
    records = net_occurrences_indexed(fib_word(9))
    rec = records[1]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(records, protocol)) == records
    assert not hasattr(rec, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.substring = "a"
    copy = dataclasses.replace(rec)
    assert copy == rec and copy is not rec and hash(copy) == hash(rec)
    assert len(set(records + records)) == len(records)


# fib 9 (55 letters) takes the shared-occurrence path, tm 10 (512) the fresh one.
@pytest.mark.parametrize("text", [fib_word(9), tm_word(10)], ids=["fib-9", "tm-10"])
def test_engine_records_equal_constructed_records(text):
    records = net_occurrences_indexed(text)
    assert records == net_occurrences_bruteforce(text)
    for rec in records:
        assert type(rec) is NetOccurrenceRecord
        occ = rec.occurrence
        built = NetOccurrenceRecord(Occurrence(occ.start, occ.end), rec.substring, rec.left, rec.right)
        assert rec == built and hash(rec) == hash(built)
        assert not hasattr(rec, "__dict__")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(rec, protocol))
            assert type(copy) is NetOccurrenceRecord and copy == rec and hash(copy) == hash(rec)
        moved = dataclasses.replace(rec, right="z")
        assert moved.right == "z" and moved.occurrence == occ and moved.substring == rec.substring
        for field in dataclasses.fields(NetOccurrenceRecord):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, field.name, None)


def test_shared_occurrences_never_mix_texts():
    # Same bounds, different letters: each text keeps its own strings.
    abab, baba = net_occurrences_indexed("abab"), net_occurrences_indexed("baba")
    assert [(r.substring, r.left, r.right) for r in abab] == [("ab", None, "a"), ("ab", "b", None)]
    assert [(r.substring, r.left, r.right) for r in baba] == [("ba", None, "b"), ("ba", "a", None)]
    assert all(x.occurrence is y.occurrence for x, y in zip(abab, baba))
    assert abab == net_occurrences_bruteforce("abab") and baba == net_occurrences_bruteforce("baba")
    # The oracle builds its own occurrences.
    assert net_occurrences_bruteforce("abab")[0].occurrence is not abab[0].occurrence


def test_shared_occurrence_table_is_bounded():
    table = netfreq._SHARED_OCCURRENCES
    for text in _all_short_texts(10):
        net_occurrences_indexed(text)
    for unit in ("a", "ab", "aab"):
        net_occurrences_indexed((unit * SHORT_TEXT)[:SHORT_TEXT])
    assert 0 < len(table) <= SHORT_TEXT * (SHORT_TEXT + 1) // 2 == 32_896
    for key, occ in table.items():
        s0, e = divmod(key, SHORT_TEXT + 1)
        assert 0 <= s0 < e <= SHORT_TEXT and occ == Occurrence(s0 + 1, e)
    before = dict(table)
    for text in (tm_word(10), SA_TEXTS["random-3000"], "a" * (SHORT_TEXT + 1)):
        net_occurrences_indexed(text)
    assert table == before


# The literal reference takes about a second on a text of SHORT_TEXT letters;
# each text's net occurrences are computed once for both tests that read them.
_reference_net_occurrences = functools.cache(reference.net_occurrences)


def test_suffix_keys_order_and_xor_lcp_are_the_suffixes():
    for text in KEY_EDGE_TEXTS.values():
        n = len(text)
        if n > 20 or not text.isascii():
            continue
        keys = netfreq._suffix_keys(text)
        for i in range(n):
            for j in range(n):
                x, y = text[i:], text[j:]
                common = 0
                while common < min(len(x), len(y)) and x[common] == y[common]:
                    common += 1
                assert (keys[i] < keys[j]) == (x < y), (text, i, j)
                if i != j:
                    assert (8 * n - (keys[i] ^ keys[j]).bit_length()) // 8 == common, (text, i, j)


_NON_ASCII_LENGTHS = (*range(1, 21), 150, SHORT_TEXT, SHORT_TEXT + 1)
_rng_wide = random.Random(20261022)
NON_ASCII_TEXTS = {
    f"{name}-{n}": "".join(_rng_wide.choice(letters) for _ in range(n))
    for name, letters in (("cjk", "\u4e00\u4e01"), ("astral", ("\U0001f600", "\U0010ffff")))
    for n in _NON_ASCII_LENGTHS
}


@pytest.mark.parametrize("text", list(NON_ASCII_TEXTS.values()), ids=list(NON_ASCII_TEXTS))
def test_non_ascii_texts_take_numpy_and_match_literal_reference(text, monkeypatch):
    # No non-ASCII text builds suffix keys, at any length; the engine still
    # gives the literal reference's net occurrences.
    def refuse(text):
        raise AssertionError(f"suffix keys built for a non-ASCII text of {len(text)} letters")

    monkeypatch.setattr(netfreq, "_suffix_keys", refuse)
    assert occ_pairs(net_occurrences_indexed(text)) == _reference_net_occurrences(text)
    assert repeated_prefix_table(text) == repeated_prefix_definition(text)


# suffix_array and repeated_prefix_table meet these texts in SA_TEXTS.
@pytest.mark.parametrize("text", list(KEY_EDGE_TEXTS.values()), ids=list(KEY_EDGE_TEXTS))
def test_indexed_route_matches_literal_reference_on_key_edge_letters(text):
    assert occ_pairs(net_occurrences_indexed(text)) == _reference_net_occurrences(text)


@pytest.mark.parametrize("text", list(KEY_EDGE_TEXTS.values()), ids=list(KEY_EDGE_TEXTS))
def test_net_frequency_matches_literal_reference_on_key_edge_letters(text, monkeypatch):
    monkeypatch.setattr(reference, "net_occurrences", _reference_net_occurrences)
    net = {text[s - 1 : e] for s, e in _reference_net_occurrences(text)}
    # Every net string, the whole text, its first half, an absent letter and a
    # string longer than the text.
    patterns = net | {text, text[: len(text) // 2 + 1], "b", text + "\0"}
    if len(text) <= 20:
        patterns |= {text[s:e] for s in range(len(text)) for e in range(s + 1, len(text) + 1)}
    for pattern in patterns:
        assert net_frequency(text, pattern) == reference.net_frequency(text, pattern), (text, pattern)


def _pinned_texts():
    yield from _all_short_texts(12)
    yield from (fib_word(i) for i in range(3, 16))
    yield from (tm_word(i) for i in range(1, 12))
    rng = random.Random(20261021)
    for letters in ("ab\0\x7f", "ab\0\x7f\U0010ffff"):
        for _ in range(50):
            yield "".join(rng.choice(letters) for _ in range(rng.randint(1, 300)))


# SHA-256 over the indexed engine's records, one JSON list of
# [start, end, substring, left, right] rows per text of _pinned_texts();
# computed with the engine on 32-bit suffix keys for every text.
_INDEXED_DIGEST = "c7badaf876b834a031df28874647ee2b4aac7ceacbe6fc81da77c9abde6dbda9"


def test_indexed_records_match_the_pinned_digest():
    digest = hashlib.sha256()
    for text in _pinned_texts():
        records = net_occurrences_indexed(text)
        rows = [[r.occurrence.start, r.occurrence.end, r.substring, r.left, r.right] for r in records]
        digest.update(json.dumps(rows).encode())
    assert digest.hexdigest() == _INDEXED_DIGEST
