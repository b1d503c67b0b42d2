from itertools import product

import pytest

import reference
from netoccs import netfreq, onoc
from netoccs.netfreq import net_occurrences_bruteforce
from netoccs.occurrences import Occurrence, is_net_occurrence
from netoccs.onoc import bnso_set, bridging, greedy_onoc, is_onoc, prove_completeness
from netoccs.words import fib_word, tm_word

# A length-14 text whose net occurrences form the chain below plus one extra
# net occurrence (2,7) that the chain does not contain. The containment
# kernel marks such texts, its greedy cover and a net occurrence outside it,
# as has_cover & (net & ~members).any(axis=0).
WITNESS_TEXT = "abbabbabbbabba"
WITNESS_COVER = [Occurrence(1, 6), Occurrence(4, 9), Occurrence(9, 14)]
WITNESS_OUTSIDER = Occurrence(2, 7)


def net_occs(text):
    """The oracle's net occurrences of text, in start order."""
    return [r.occurrence for r in net_occurrences_bruteforce(text)]


def fib7_cover():
    return [Occurrence(1, 6), Occurrence(6, 11), Occurrence(9, 13)]


def test_is_onoc_on_fib7():
    assert is_onoc(fib_word(7), fib7_cover(), net_occs(fib_word(7)))


def test_is_onoc_rejects_broken_chains():
    text = fib_word(7)
    occs = net_occs(text)
    # gap between members
    assert not is_onoc(text, [Occurrence(1, 6), Occurrence(9, 13)], occs)
    # does not start at 1
    assert not is_onoc(text, [Occurrence(6, 11), Occurrence(9, 13)], occs)
    # does not reach the end
    assert not is_onoc(text, [Occurrence(1, 6), Occurrence(6, 11)], occs)
    # member is not a net occurrence
    assert not is_onoc(text, [Occurrence(1, 7), Occurrence(6, 11), Occurrence(9, 13)], occs)


def test_is_onoc_takes_membership_from_the_given_net_occurrences():
    text, cover = fib_word(7), fib7_cover()
    assert is_onoc(text, cover, cover)
    assert not is_onoc(text, cover, cover[1:])


def test_is_onoc_domain_errors():
    with pytest.raises(ValueError):
        is_onoc(fib_word(7), [], net_occs(fib_word(7)))
    with pytest.raises(ValueError):
        is_onoc("abab", [Occurrence(1, 9)], net_occs("abab"))


def test_bnso_set_fib7():
    assert bnso_set(fib7_cover()) == (Occurrence(6, 6), Occurrence(9, 11))
    assert bnso_set(tuple(fib7_cover())) == (
        Occurrence(6, 6),
        Occurrence(9, 11),
    )
    with pytest.raises(ValueError):
        bnso_set([Occurrence(1, 6), Occurrence(9, 13)])


@pytest.mark.parametrize(
    "n,bnso,count",
    [(13, (6, 6), 35), (13, (9, 11), 16), (14, (9, 9), 40)],
)
def test_enumerate_bridging_supers_counts(n, bnso, count):
    supers = reference.enumerate_bridging_supers("a" * n, bnso)
    assert len(supers) == count
    assert len(set(supers)) == count
    s, e = bnso
    for start, end in supers:
        assert start <= max(1, s - 1)
        assert end >= min(n, e + 1)


def test_enumerate_bridging_supers_clips_at_boundaries():
    supers = reference.enumerate_bridging_supers("ababa", (1, 3))
    assert set(supers) == {(1, 4), (1, 5)}


def test_prove_completeness_fib7():
    report = prove_completeness(fib_word(7), fib7_cover(), net_occs(fib_word(7)))
    assert report.cover_valid
    assert report.bnsos == (Occurrence(6, 6), Occurrence(9, 11))
    assert report.offending_supers == ()
    assert report.oracle_agrees
    assert report.complete()


def test_prove_completeness_reports_invalid_cover_without_raising():
    report = prove_completeness(fib_word(7), [Occurrence(1, 6), Occurrence(9, 13)], net_occs(fib_word(7)))
    assert not report.cover_valid
    assert report.bnsos == ()
    assert not report.complete()
    # out-of-bounds member is reported the same way
    report = prove_completeness("abab", [Occurrence(1, 9)], net_occs("abab"))
    assert not report.cover_valid


def test_witness_text_has_expected_net_occurrences():
    assert net_occs(WITNESS_TEXT) == sorted(WITNESS_COVER + [WITNESS_OUTSIDER])
    assert is_onoc(WITNESS_TEXT, WITNESS_COVER, net_occs(WITNESS_TEXT))


def test_witness_outsider_is_flagged_by_completeness_check():
    report = prove_completeness(WITNESS_TEXT, WITNESS_COVER, net_occs(WITNESS_TEXT))
    assert report.cover_valid
    assert report.bnsos == (Occurrence(4, 6), Occurrence(9, 9))
    assert report.offending_supers == (WITNESS_OUTSIDER,)
    assert not report.oracle_agrees
    assert not report.complete()
    # ... and it is indeed a bridging super-occurrence of the first BNSO
    outsider = (WITNESS_OUTSIDER.start, WITNESS_OUTSIDER.end)
    assert outsider in reference.enumerate_bridging_supers(WITNESS_TEXT, (4, 6))


# Every binary text of length <= 10 that has a greedy ONOC.
SHORT_COVERED_TEXTS = [
    text
    for length in range(1, 11)
    for text in ("".join(letters) for letters in product("ab", repeat=length))
    if greedy_onoc(text, net_occs(text)) is not None
]


@pytest.mark.parametrize(
    "text",
    list(dict.fromkeys([WITNESS_TEXT, fib_word(7), "aaaa", "abbaabba", *SHORT_COVERED_TEXTS])),
)
def test_offenders_equal_literal_rectangle_scan(text):
    """The fast offender computation must agree with literally enumerating
    every bridging super-occurrence and testing each definitionally."""
    occs = net_occs(text)
    cover = greedy_onoc(text, occs)
    if cover is None:
        pytest.skip("text has no ONOC")
    report = prove_completeness(text, cover, occs)
    assert report.bnsos == bnso_set(cover)
    literal = set()
    for bnso in report.bnsos:
        for s, e in reference.enumerate_bridging_supers(text, (bnso.start, bnso.end)):
            if is_net_occurrence(text, Occurrence(s, e)):
                literal.add(Occurrence(s, e))
    assert set(bridging(occs, report.bnsos, len(text))) == literal
    assert set(report.offending_supers) == literal


@pytest.mark.parametrize(
    "text",
    [fib_word(i) for i in range(7, 13)] + [tm_word(i) for i in range(5, 10)] + [WITNESS_TEXT],
    ids=lambda t: f"{t[:4]}..{len(t)}",
)
def test_prove_completeness_with_given_net_occurrences(text):
    """The report does not depend on the order of the given net
    occurrences, for valid and invalid covers alike."""
    occs = net_occs(text)
    greedy = greedy_onoc(text, occs)
    covers = [greedy, occs, greedy[:-1], [Occurrence(1, len(text))]]
    for cover in covers:
        assert prove_completeness(text, cover, occs[::-1]) == prove_completeness(text, cover, occs)
    assert not prove_completeness(text, greedy[:-1], occs).cover_valid


def test_greedy_onoc():
    assert greedy_onoc(fib_word(7), net_occs(fib_word(7))) == tuple(fib7_cover())
    assert greedy_onoc("aaaa", net_occs("aaaa")) == (Occurrence(1, 3), Occurrence(2, 4))
    assert greedy_onoc("aa", net_occs("aa")) is None  # two length-1 net occurrences, no overlap
    assert greedy_onoc("ab", net_occs("ab")) is None  # no net occurrences at all


def test_onoc_holds_no_name_from_netfreq():
    """The cover machinery takes net occurrences from its caller: it holds no
    engine, and nothing else, from netfreq."""
    from_netfreq = [
        name
        for name, value in vars(onoc).items()
        if value is netfreq or getattr(value, "__module__", None) == netfreq.__name__
    ]
    assert from_netfreq == []
