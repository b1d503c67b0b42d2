"""Property-based tests over random binary texts."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from netoccs.netfreq import (
    lcp_array,
    net_frequency,
    net_occurrences_bruteforce,
    net_occurrences_indexed,
    repeated_prefix_table,
    suffix_array,
)
from netoccs.occurrences import Step, bit_positions, find_occurrences, occurrence_bits
from netoccs.verifier import check_onoc_containment
from netoccs.words import flip_word

texts = st.text(alphabet="ab", min_size=1, max_size=40)
small_texts = st.text(alphabet="ab", min_size=1, max_size=14)
# Longer than SHORT_TEXT, so the indexed engine takes its numpy route.
long_texts = st.text(alphabet="ab", min_size=257, max_size=1500)


@given(texts)
def test_engines_agree(text):
    assert net_occurrences_indexed(text) == net_occurrences_bruteforce(text)


@settings(max_examples=50)
@given(small_texts)
def test_oracle_matches_literal_reference(text):
    expected = reference.net_occurrences(text)
    actual = [(r.occurrence.start, r.occurrence.end) for r in net_occurrences_bruteforce(text)]
    assert actual == expected


@given(texts)
def test_net_occurrences_never_nest(text):
    occs = [r.occurrence for r in net_occurrences_bruteforce(text)]
    for k in range(1, len(occs)):
        prev, cur = occs[k - 1], occs[k]
        assert prev.start < cur.start
        assert prev.end < cur.end


@given(texts)
def test_net_frequencies_sum_to_record_count(text):
    records = net_occurrences_bruteforce(text)
    strings = {r.substring for r in records}
    assert sum(net_frequency(text, s) for s in strings) == len(records)
    for s in strings:
        assert net_frequency(text, s) >= 1


@given(texts)
def test_net_occurrences_invariant_under_flip(text):
    plain = net_occurrences_bruteforce(text)
    flipped = net_occurrences_bruteforce(flip_word(text))
    assert len(plain) == len(flipped)
    for p, f in zip(plain, flipped):
        assert p.occurrence == f.occurrence
        assert flip_word(p.substring) == f.substring


@settings(max_examples=60)
@given(st.text(alphabet="ab", min_size=1, max_size=24))
def test_onoc_containment_property(text):
    outcome = check_onoc_containment(text)
    if outcome is not None:
        cover, offender = outcome
        assert offender is None


@given(texts)
def test_suffix_array_matches_sorted_suffixes(text):
    expected = sorted(range(len(text)), key=lambda k: text[k:])
    assert suffix_array(text) == expected


@given(texts)
def test_lcp_array_is_definitional(text):
    sa = suffix_array(text)
    lcp = lcp_array(text, sa)
    assert lcp[0] == 0
    for r in range(1, len(sa)):
        a, b = text[sa[r - 1]:], text[sa[r]:]
        common = 0
        while common < min(len(a), len(b)) and a[common] == b[common]:
            common += 1
        assert lcp[r] == common


@settings(max_examples=50)
@given(small_texts)
def test_repeated_prefix_table_is_definitional(text):
    table = repeated_prefix_table(text)
    n = len(text)
    for s0 in range(n):
        best = 0
        for e0 in range(s0, n):
            if len(reference.occurrences(text[s0 : e0 + 1], text)) >= 2:
                best = e0 - s0 + 1
        assert table[s0] == best


def _repeated(text, sub):
    return text.find(sub) != text.rfind(sub)


@settings(max_examples=40, deadline=None)
@given(long_texts)
def test_numpy_route_is_definitional(text):
    assert suffix_array(text) == sorted(range(len(text)), key=lambda k: text[k:])
    # table[s] letters from s are repeated and one letter more is unique (or
    # runs off the end); a prefix of a repeated string is repeated, so this
    # pins table[s] to the longest repeated prefix.
    n = len(text)
    for s0, length in enumerate(repeated_prefix_table(text)):
        assert length == 0 or _repeated(text, text[s0 : s0 + length])
        assert s0 + length == n or not _repeated(text, text[s0 : s0 + length + 1])
    assert net_occurrences_indexed(text) == net_occurrences_bruteforce(text)


@given(st.text(alphabet="abc", max_size=300), st.text(alphabet="abc", min_size=1, max_size=12))
@example("", "a")
@example("a" + "b" * 8, "a")
@example("b" * 8 + "a", "a")
@example("abcabcab", "cabca")
def test_occurrence_bits_read_back_as_the_found_starts(text, word):
    # the word spelled letter by letter, each prefix from the one before it
    splits = [(word[:k], word[: k - 1], word[k - 1]) for k in range(2, len(word) + 1)]
    assert bit_positions(occurrence_bits(text, splits, {word})[word]) == find_occurrences(word, text)


position_sets = st.frozensets(st.integers(1, 40))


@given(position_sets, position_sets, position_sets, position_sets, position_sets, st.booleans(), st.booleans())
def test_step_matches_the_literal_set_definition(first, second, third, overlap, scan, true_overlap, true_scan):
    # The flags swap in the true overlap and union, so that matching steps are drawn too.
    overlap = first & second if true_overlap else overlap
    scan = first | second | third if true_scan else scan
    step = Step(tuple(map(reference.bit_set, (first, second, third))), reference.bit_set(overlap))
    assert step.union() == reference.bit_set(first | second | third)
    literal = first | second | third == scan and first & second == overlap and not third & (first | second)
    assert step.matches(reference.bit_set(scan)) == literal
