"""Tests for the Thue-Morse occurrence-set recurrences, the structural
identities, and the smallest-factorization constructions."""

import hashlib
import json
import random
import tracemalloc
from itertools import product

import pytest

from netoccs.fibonacci import theta_set, theta_steps
from netoccs.netfreq import net_occurrences_bruteforce
from netoccs.occurrences import Occurrence, bit_positions, find_occurrences
from netoccs.thue_morse import (
    SmallestFactorization,
    ab_counts,
    ab_sets,
    ab_step_ok,
    ab_steps,
    check_tm_identities,
    factorization_basis_ok,
    factorization_boundary_ok,
    jacobsthal,
    predicted_tm_net_occurrences,
    repetition_free,
    smallest_factorization,
    target_scans,
    validate_smallest_factorization,
)
from netoccs.words import (
    FIB_MAX_ORDER,
    TM_MAX_ORDER,
    fib_length,
    fib_word,
    flip_word,
    lit_ref,
    tm_flip_ref,
    tm_flip_word,
    tm_length,
    tm_ref,
    tm_word,
)

from reference import bit_set


def oracle_sets(i, j):
    host = tm_word(i)
    pattern = tm_word(i - j)
    a = tuple(find_occurrences(pattern, host))
    flipped = flip_word(pattern)
    b = tuple(find_occurrences(flipped, host)) if flipped in host else ()
    return a, b


def test_ab_sets_frozen_values():
    assert ab_sets(5, 2).a_set == (1, 7, 13)
    assert ab_sets(5, 2).b_set == (5, 9)
    assert ab_sets(5, 3).a_set == (1, 4, 7, 11, 13)
    assert ab_sets(5, 3).b_set == (3, 5, 9, 12, 15)


def test_ab_sets_bases():
    assert ab_sets(6, 0).a_set == (1,)
    assert ab_sets(6, 0).b_set == ()
    assert ab_sets(6, 1).a_set == (1,)
    assert ab_sets(6, 1).b_set == (17,)


def test_ab_sets_domain_errors():
    for i, j in [(1, 0), (5, 4), (5, -1), (4, 3)]:
        with pytest.raises(ValueError):
            ab_sets(i, j)
    with pytest.raises(ValueError):
        ab_steps(1)


def test_recurrences_refuse_orders_above_the_generator_cap():
    # The shifts of such an order are integers of about 2^order bits.
    for order in (TM_MAX_ORDER + 1, 10**9):
        with pytest.raises(ValueError, match=f"{TM_MAX_ORDER}"):
            ab_sets(order, 1)
        with pytest.raises(ValueError, match=f"{TM_MAX_ORDER}"):
            smallest_factorization(order, order - 2, "A")


@pytest.mark.parametrize("i", range(2, 11))
def test_ab_sets_match_direct_scan(i):
    for j in range(0, i - 1):
        sets = ab_sets(i, j)
        a, b = oracle_sets(i, j)
        assert sets.a_set == a
        assert sets.b_set == b


@pytest.mark.parametrize("i", range(4, 11))
def test_ab_step_structure(i):
    steps = list(ab_steps(i))
    assert len(steps) == i - 1
    for j in range(2, i - 1):
        a, b = oracle_sets(i, j)
        assert ab_step_ok(steps[j], (bit_set(a), bit_set(b)))
        # a scan that misses one position
        assert not ab_step_ok(steps[j], (bit_set(a[1:]), bit_set(b)))
        assert not ab_step_ok(steps[j], (bit_set(a), bit_set(b[1:])))


def test_ab_step_overlaps_frozen():
    steps = list(ab_steps(5))
    a_step, b_step = steps[3]
    assert a_step.overlap == bit_set((7,))
    assert b_step.overlap == bit_set((9,))
    a_step, b_step = steps[2]
    assert a_step.overlap == 0
    assert b_step.overlap == 0


def test_recurrences_hold_nothing_after_a_call():
    for order in range(1, 19):
        tm_word(order)
        tm_flip_word(order)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for kind in ("A", "B"):
            fac = smallest_factorization(18, 16, kind)
            assert validate_smallest_factorization(fac, target_scans(18, range(16, 17)))
            del fac
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.5 * 2**20
    # theta_set reads the steps only up to its offset: the order-36 sets
    # further on run to millions of positions.
    i = FIB_MAX_ORDER
    assert theta_set(i, 2) == (1, fib_length(i - 2) + 1, fib_length(i - 1) + 1)
    with pytest.raises(ValueError, match=f"{FIB_MAX_ORDER}"):
        theta_steps(FIB_MAX_ORDER + 1)


def test_ab_counts_frozen():
    a, b = ab_counts(4)
    assert a == (1, 1, 3, 5, 11)
    assert b == (0, 1, 2, 5, 10)
    with pytest.raises(ValueError):
        ab_counts(-1)


@pytest.mark.parametrize("i", range(2, 11))
def test_ab_counts_match_sets(i):
    a, b = ab_counts(i - 2)
    for j in range(0, i - 1):
        sets = ab_sets(i, j)
        assert len(sets.a_set) == a[j]
        assert len(sets.b_set) == b[j]


def test_counts_diverge_from_single_letter_scan():
    # At the offset just past the recurrence domain the count sequence no
    # longer gives the occurrence count of the single-letter word.
    for i in (4, 6, 8):
        a, _ = ab_counts(i - 1)
        scan = len(find_occurrences("a", tm_word(i)))
        assert scan == 2 ** (i - 2)
        assert scan != a[i - 1]


def test_jacobsthal():
    assert [jacobsthal(k) for k in range(7)] == [0, 1, 1, 3, 5, 11, 21]
    a, _ = ab_counts(11)
    for k in range(1, 12):
        assert jacobsthal(k) == a[k - 1]
    with pytest.raises(ValueError):
        jacobsthal(-1)


def test_predicted_net_occurrences_frozen():
    assert predicted_tm_net_occurrences(5) == (
        Occurrence(1, 4),
        Occurrence(3, 5),
        Occurrence(4, 6),
        Occurrence(5, 8),
        Occurrence(7, 10),
        Occurrence(9, 12),
        Occurrence(11, 13),
        Occurrence(12, 14),
        Occurrence(13, 16),
    )
    with pytest.raises(ValueError):
        predicted_tm_net_occurrences(4)


@pytest.mark.parametrize("i", range(5, 10))
def test_predicted_matches_oracle(i):
    oracle = tuple(r.occurrence for r in net_occurrences_bruteforce(tm_word(i)))
    assert predicted_tm_net_occurrences(i) == oracle
    assert len(oracle) == 9


@pytest.mark.parametrize("i", [5, 8, 12])
def test_tm_identities_pass(i):
    claims = check_tm_identities(i)
    assert set(claims) == {
        "quarter_split",
        "five_block_split",
        "nine_block_split_a",
        "nine_block_split_b",
        "overlap_free",
        "cube_free",
    }
    assert all(c.passed for c in claims.values())


def test_tm_identities_skip_freeness_scan_at_large_orders():
    claims = check_tm_identities(13)
    assert "overlap_free" not in claims
    assert "cube_free" not in claims
    assert all(c.passed for c in claims.values())
    with pytest.raises(ValueError):
        check_tm_identities(4)


def test_freeness_scans():
    assert repetition_free("abba")[0]
    assert not repetition_free("aaa")[0]
    assert not repetition_free("ababa")[0]
    assert repetition_free("abab")[1]
    assert not repetition_free("aaa")[1]
    assert not repetition_free("ababab")[1]
    assert repetition_free(tm_word(8))[0]
    assert repetition_free(tm_word(8))[1]


def _has_overlap(text):
    """Literal definition: some substring of length 2d + 1 has period d."""
    n = len(text)
    return any(
        text[s : s + d + 1] == text[s + d : s + 2 * d + 1] for d in range(1, n) for s in range(n - 2 * d)
    )


def _has_cube(text):
    """Literal definition: some substring is www with w nonempty."""
    n = len(text)
    return any(
        text[s : s + d] == text[s + d : s + 2 * d] == text[s + 2 * d : s + 3 * d]
        for d in range(1, n)
        for s in range(n - 3 * d + 1)
    )


def test_freeness_scans_match_their_definitions():
    texts = ["".join(letters) for n in range(13) for letters in product("ab", repeat=n)]
    texts += [tm_word(i) for i in range(1, 11)] + [fib_word(i) for i in range(1, 15)]
    # Three letters, where agreeing at a shift is not the same as agreeing on
    # being a: every text up to 8 letters, and the square-free word of the
    # run lengths of b in tm_word(10), whole and with one letter changed.
    texts += ["".join(letters) for n in range(9) for letters in product("abc", repeat=n)]
    ternary = "".join("abc"[len(run)] for run in tm_word(10).split("a")[1:-1])
    texts += [ternary, ternary[:100] + "c" + ternary[101:]]
    for text in texts:
        assert repetition_free(text)[0] == (not _has_overlap(text)), text
        assert repetition_free(text)[1] == (not _has_cube(text)), text


def test_smallest_factorization_bases():
    fac = smallest_factorization(5, 0, "A")
    assert [f.resolve() for f in fac.factors] == [tm_word(5)]
    fac = smallest_factorization(5, 0, "B")
    assert fac.factors == ()  # flipped whole word never occurs
    for kind in ("A", "B"):
        fac = smallest_factorization(5, 1, kind)
        assert [f.resolve() for f in fac.factors] == [
            tm_word(4),
            flip_word(tm_word(4)),
        ]


def test_smallest_factorization_offset_two_shapes():
    t3, t2 = tm_word(3), tm_word(2)
    fac = smallest_factorization(5, 2, "A")
    assert [f.resolve() for f in fac.factors] == [
        t3,
        flip_word(t2),
        t3,
        t2,
        t3,
    ]
    fac = smallest_factorization(5, 2, "B")
    assert [f.resolve() for f in fac.factors] == [
        t3,
        flip_word(t3),
        flip_word(t3),
        t3,
    ]


def test_smallest_factorization_nine_factors_at_offset_three():
    fac = smallest_factorization(5, 3, "A")
    assert len(fac.factors) == 9
    assert "".join(fac.texts) == tm_word(5)
    table = target_scans(5, range(3, 5))
    assert validate_smallest_factorization(fac, table)
    assert factorization_basis_ok(fac, table)
    assert factorization_boundary_ok(fac)


def test_letterwise_construction_at_top_offset():
    fac = smallest_factorization(3, 2, "A")
    labels = [(f.kind, f.resolve()) for f in fac.factors]
    assert labels == [("TM", "a"), ("lit", "bb"), ("TM", "a")]
    table = target_scans(3, range(2, 3))  # offset 3 does not exist at order 3
    assert validate_smallest_factorization(fac, table)
    assert factorization_boundary_ok(fac)
    assert not factorization_basis_ok(fac, table)  # the double-letter gap

    fac = smallest_factorization(3, 2, "B")
    assert [f.resolve() for f in fac.factors] == ["a", "b", "b", "a"]
    assert validate_smallest_factorization(fac, table)
    assert factorization_basis_ok(fac, table)
    assert factorization_boundary_ok(fac)


def test_smallest_factorization_domain_errors():
    for i, j, kind in [(1, 0, "A"), (5, 5, "A"), (5, -1, "B"), (5, 2, "C")]:
        with pytest.raises(ValueError):
            smallest_factorization(i, j, kind)


def test_validate_rejects_degenerate_empty():
    fac = smallest_factorization(5, 0, "B")
    with pytest.raises(ValueError):
        validate_smallest_factorization(fac, target_scans(5, range(0, 2)))


def test_factorization_must_flatten_to_target():
    fac = SmallestFactorization((tm_ref(2), tm_flip_ref(2)), b"\0\1", "A", 3, 1)
    assert "".join(fac.texts) == "abba"
    assert fac.starts == (1, 3)
    assert fac.texts == ("ab", "ba")
    with pytest.raises(ValueError):
        SmallestFactorization((tm_ref(2),), b"\0", "A", 3, 1)


def test_codes_must_index_the_refs():
    with pytest.raises(ValueError, match="index past"):
        SmallestFactorization((tm_ref(2), tm_flip_ref(2)), b"\0\2", "A", 3, 1)


def test_only_kind_b_at_offset_zero_may_have_no_factors():
    assert SmallestFactorization((), b"", "B", 5, 0).texts == ()
    for kind, j in [("A", 0), ("A", 2), ("B", 1)]:
        with pytest.raises(ValueError):
            SmallestFactorization((), b"", kind, 5, j)


def test_factors_share_at_most_four_refs():
    for i in range(2, 13):
        for j in range(i):
            for kind in ("A", "B"):
                fac = smallest_factorization(i, j, kind)
                assert len({id(f) for f in fac.factors}) <= 4, (i, j, kind)


def test_validate_rejects_adjacent_gap_factors():
    # Same letters as the letterwise factorization of (4, 3, A), but with
    # the double-letter gap split in two -- not smallest any more.
    word = tm_word(4)
    refs = (tm_ref(1), lit_ref("b"))
    fac = SmallestFactorization(refs, bytes((0, 1, 1, 0, 1, 0, 0, 1)), "A", 4, 3)
    assert "".join(fac.texts) == word
    assert not validate_smallest_factorization(fac, target_scans(4, range(3, 4)))


def test_validate_rejects_missing_target_placement():
    # Flattens correctly but hides one target occurrence inside a literal.
    word = tm_word(3)
    fac = SmallestFactorization((tm_ref(1), lit_ref("bba")), b"\0\1", "A", 3, 2)
    assert "".join(fac.texts) == word
    assert not validate_smallest_factorization(fac, target_scans(3, range(2, 3)))


FULL_SWEEP = [
    (i, j, kind)
    for i in range(2, 13)
    for j in range(0, i)
    for kind in ("A", "B")
    if not (j == 0 and kind == "B")
]

EXPECTED_BASIS_FAILURES = {(i, i - 1, "A") for i in range(3, 13)} | {
    (i, i - 1, "B") for i in range(4, 13)
}


def test_basis_failures_are_exactly_the_double_letter_gap_cases():
    """Sweep every factorization up to order 12: placement and boundary
    checks always pass; the factor-alphabet check fails exactly where the
    single-letter target leaves double-letter gaps."""
    failures = set()
    tables = {i: target_scans(i, range(i)) for i in range(2, 13)}
    for i, j, kind in FULL_SWEEP:
        fac = smallest_factorization(i, j, kind)
        assert validate_smallest_factorization(fac, tables[i]), (i, j, kind)
        assert factorization_boundary_ok(fac), (i, j, kind)
        if not factorization_basis_ok(fac, tables[i]):
            failures.add((i, j, kind))
    assert failures == EXPECTED_BASIS_FAILURES


@pytest.mark.parametrize("i", range(2, 18))
def test_target_scans_are_the_direct_scans(i):
    word = tm_word(i)
    table = target_scans(i, range(i))
    assert sorted(table) == list(range(i))
    for j, scans in table.items():
        for target, scan in zip((tm_word(i - j), tm_flip_word(i - j)), scans):
            assert type(scan) is int
            assert bit_positions(scan) == find_occurrences(target, word), j
            assert scan < 1 << len(word) + 1  # no start past the word
    if i <= 8:  # a table of one offset holds the same scans
        for j in range(i):
            assert target_scans(i, range(j, j + 1))[j] == table[j], j


def test_target_scan_domain_errors():
    for i, j in [(1, 0), (5, -1), (5, 5), (TM_MAX_ORDER + 1, 0)]:
        with pytest.raises(ValueError):
            target_scans(i, range(j, j + 1))
    for offsets in (range(0), range(-1, 1), range(3, 6)):
        with pytest.raises(ValueError):
            target_scans(5, offsets)
    assert sorted(target_scans(5, range(2, 4))) == [2, 3]


def test_factorization_basis_reads_the_gaps_from_a_direct_scan():
    """Below the top offset every factor is built from a basis word, so the
    check must read the gaps from the word itself: with one occurrence of
    the target lost from the scan, the gap around it is no basis word."""
    fac = smallest_factorization(8, 4, "A")
    table = target_scans(8, range(4, 6))
    assert factorization_basis_ok(fac, table)
    lost = table[4][0] ^ 1 << table[4][0].bit_length() - 1  # the last start cleared
    assert not factorization_basis_ok(fac, {**table, 4: (lost, table[4][1])})


def _basis_ok_gap_by_gap(fac, table):
    """factorization_basis_ok read one gap at a time from the same table: each
    gap between consecutive target starts (and before the first, after the
    last) has length <= 0, or the length of a basis word at offset j or j+1
    with a start of that offset's word or flip at its head."""
    i, j = fac.i, fac.j
    target = bit_positions(table[j]["AB".index(fac.kind)])
    heads = [1] + [start + tm_length(i - j) for start in target]
    for head, end in zip(heads, [*target, tm_length(i) + 1]):
        if end - head > 0 and not any(
            end - head == tm_length(i - k) and head in bit_positions(table[k][0] | table[k][1])
            for k in range(j, min(j + 2, i))
        ):
            return False
    return True


def test_factorization_basis_check_is_the_gap_by_gap_reading():
    """Every (i, j, kind) to order 12, on the true scans and with planted
    one-bit faults: a target start dropped or added, and a start of a basis
    word (other than the target) dropped at offset j or j+1."""
    rng = random.Random(34)

    def flip_one(bits, members):  # toggle one position drawn from members
        return bits ^ 1 << rng.choice(members) if members else bits

    failures = set()
    for i in range(2, 13):
        table = target_scans(i, range(i))
        positions = range(1, tm_length(i) + 1)
        for j in range(i):
            for kind in ("A", "B") if j else ("A",):
                fac = smallest_factorization(i, j, kind)
                ok = factorization_basis_ok(fac, table)
                assert ok == _basis_ok_gap_by_gap(fac, table), (i, j, kind)
                if not ok:
                    failures.add((i, j, kind))
                k = "AB".index(kind)
                basis = [(j, 1 - k)] + [(j + 1, 0), (j + 1, 1)] * (j + 1 < i)
                for _ in range(3):
                    target = table[j][k]
                    faults = [
                        (j, k, flip_one(target, bit_positions(target))),
                        (j, k, flip_one(target, [p for p in positions if not target >> p & 1])),
                    ]
                    for jj, kk in basis:
                        faults.append((jj, kk, flip_one(table[jj][kk], bit_positions(table[jj][kk]))))
                    for jj, kk, bits in faults:
                        planted = {**table, jj: (bits, table[jj][1]) if kk == 0 else (table[jj][0], bits)}
                        assert factorization_basis_ok(fac, planted) == _basis_ok_gap_by_gap(fac, planted), (
                            i, j, kind, jj, kk
                        )
    assert failures == EXPECTED_BASIS_FAILURES


def test_factorization_json_shape():
    fac = smallest_factorization(5, 2, "B")
    data = fac.to_json_dict()
    assert data["kind"] == "B"
    assert data["i"] == 5 and data["j"] == 2
    assert len(data["factors"]) == 4


# sha256 (first 16 hex digits) of the sorted-key JSON of every
# smallest_factorization(i, j, kind) of one order, for j = 0..i-1 and both
# kinds, recorded from the per-host-order factor-list recurrence that the
# per-offset patterns replaced.
FACTORIZATION_DIGESTS = {
    2: "75e89d9ee167b6f6",
    3: "c0180a2ae73b38a2",
    4: "2ba7984ed7ba7067",
    5: "5d93a4e27db5fecf",
    6: "22a8b235a92d277b",
    7: "99a10d0255d3256c",
    8: "3a3ecffc1884c825",
    9: "671660dccc10be68",
    10: "4e61ec8d461fa8d3",
    11: "cca3fe39483b0e4e",
    12: "c47d8d3dea8fdb27",
    13: "c6389a2daac2e1cf",
    14: "a309fe3dadac387e",
    15: "7cddf05797efc8bc",
    16: "513e3609817bd177",
}


@pytest.mark.parametrize("i", sorted(FACTORIZATION_DIGESTS))
def test_every_factorization_is_pinned(i):
    payload = [
        smallest_factorization(i, j, kind).to_json_dict() for j in range(i) for kind in ("A", "B")
    ]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == FACTORIZATION_DIGESTS[i]


def _factorization_record(i, j, kind, table):
    """What the (i, j, kind) factorization shows: its JSON, texts and starts,
    and each check's verdict on ``table``, the order's direct scans, or the
    ValueError text where a check raises one."""
    fac = smallest_factorization(i, j, kind)
    checks = {
        "valid": lambda: validate_smallest_factorization(fac, table),
        "basis_ok": lambda: factorization_basis_ok(fac, table),
        "boundary_ok": lambda: factorization_boundary_ok(fac),
    }
    record = {"json": fac.to_json_dict(), "texts": fac.texts, "starts": fac.starts}
    for name, check in checks.items():
        try:
            record[name] = check()
        except ValueError as exc:
            record[name] = f"ValueError: {exc}"
    return record


# sha256 over the records above, one JSON line each, for 2 <= i <= 14,
# 0 <= j <= i-1 and both kinds, recorded from the factorization type that
# listed one FactorRef per factor.
FACTORIZATION_RECORDS_DIGEST = "bda81dd43dfd95bbe4733c936b357b56cda9fe727601ebf4fdecefd439e66689"


def test_every_factorization_and_check_verdict_is_pinned():
    digest = hashlib.sha256()
    for i in range(2, 15):
        table = target_scans(i, range(i))
        for j in range(i):
            for kind in ("A", "B"):
                digest.update(json.dumps(_factorization_record(i, j, kind, table), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == FACTORIZATION_RECORDS_DIGEST
