import dataclasses
import hashlib
import random
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from netoccs import cli, fibonacci, onoc, thue_morse, verifier
from netoccs.netfreq import net_occurrences_bruteforce
from netoccs.occurrences import Occurrence, Step, find_occurrences
from netoccs.reports import ClaimResult, same_word
from netoccs.verifier import (
    check_onoc_containment,
    verify_fibonacci,
    verify_onoc_lemma_random,
    verify_thue_morse,
)
from netoccs.onoc import greedy_onoc
from netoccs.thue_morse import OccurrenceSets
from netoccs.words import FactorRef, fib_length, fib_word, flip_word, q_word, tm_flip_ref, tm_flip_word, tm_word

FIB_CLAIMS = {
    "theta_sets_match_oracle",
    "theta_step_clauses",
    "theta_counts_match_oracle",
    "identities",
    "lemmas",
    "net_occurrences_match_prediction",
    "prediction_is_onoc",
    "cover_complete",
    "engines_agree",
}

TM_CLAIMS = {
    "occurrence_sets_match_oracle",
    "recurrence_intersections",
    "occurrence_counts_match",
    "top_offset_documented_deviation",
    "identities",
    "net_occurrences_match_prediction",
    "prediction_is_onoc",
    "cover_complete",
    "smallest_factorizations_valid",
    "engines_agree",
}


def test_verify_fibonacci_small():
    report = verify_fibonacci(8)
    assert report.all_passed()
    assert report.failed() == {}
    assert report.family == "Fibonacci"
    assert report.orders == (7, 8)
    expected = {f"order_{i}/{name}" for i in (7, 8) for name in FIB_CLAIMS}
    assert set(report.claims) == expected
    data = report.to_json_dict()
    assert data["orders"] == [7, 8]
    assert all(entry["pass"] for entry in data["claims"].values())


def test_verify_fibonacci_domain():
    with pytest.raises(ValueError):
        verify_fibonacci(6)


def test_verify_thue_morse_small():
    report = verify_thue_morse(6)
    assert report.all_passed()
    assert report.orders == (5, 6)
    expected = {f"order_{i}/{name}" for i in (5, 6) for name in TM_CLAIMS}
    assert set(report.claims) == expected


def test_verify_thue_morse_domain():
    with pytest.raises(ValueError):
        verify_thue_morse(4)


def test_top_offset_deviation_carries_both_counts():
    report = verify_thue_morse(5)
    claim = report.claims["order_5/top_offset_documented_deviation"]
    assert claim.passed
    assert claim.witness == {"oracle": 8, "recurrence": 11}


@pytest.mark.parametrize("sweep, first, last", [(verify_fibonacci, 7, 10), (verify_thue_morse, 5, 7)])
def test_sweeps_time_every_order(sweep, first, last):
    report = sweep(last)
    times = report.order_wall_times
    assert list(times) == list(range(first, last + 1))
    assert all(t >= 0 for t in times.values())
    assert sum(times.values()) <= report.wall_time
    assert report.to_json_dict()["order_wall_times"] == {str(i): t for i, t in times.items()}
    claim_times = report.claim_wall_times
    assert list(claim_times) == list(report.claims)
    assert all(t >= 0 for t in claim_times.values())
    for i, t in times.items():
        assert sum(v for k, v in claim_times.items() if k.startswith(f"order_{i}/")) == pytest.approx(t)
    assert report.to_json_dict()["claim_wall_times"] == claim_times


def test_importing_the_package_starts_no_process_machinery():
    code = (
        "import sys, netoccs, netoccs.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_sweeps_run_the_oracle_once_per_order(monkeypatch):
    calls = []

    def counting_oracle(text):
        calls.append(text)
        return net_occurrences_bruteforce(text)

    monkeypatch.setattr(verifier, "net_occurrences_bruteforce", counting_oracle)
    assert verify_fibonacci(10).all_passed()
    assert calls == [fib_word(i) for i in range(7, 11)]
    calls.clear()
    assert verify_thue_morse(7).all_passed()
    assert calls == [tm_word(i) for i in range(5, 8)]


def _plant_step_fault(monkeypatch, module, name, at, fault):
    """Make the step generator ``name``, in ``module`` and in the verifier,
    yield ``fault(step)`` at ``at``, an (order, offset) pair, and the true
    steps elsewhere."""
    true_steps = getattr(module, name)

    def faulty(order):
        steps = enumerate(true_steps(order))  # raises here, on the call, as the true generator does
        return (fault(step) if (order, offset) == at else step for offset, step in steps)

    monkeypatch.setattr(module, name, faulty)
    monkeypatch.setattr(verifier, name, faulty)


def _failing(claims):
    return {name: claim.witness for name, claim in claims.items() if not claim.passed}


def _drop_lowest(bits):  # a bit set without its smallest position
    return bits & (bits - 1)


def _drop_shifted(step):  # lose the smallest shifted position
    prev, shifted, rightmost = step.pieces
    return Step((prev, _drop_lowest(shifted), rightmost))


def _drop_twice_shifted(steps):  # lose the smallest twice-shifted a position
    a_step, b_step = steps
    prev, shifted, twice = a_step.pieces
    return dataclasses.replace(a_step, pieces=(prev, shifted, _drop_lowest(twice))), b_step


def test_theta_step_clauses_catch_a_dropped_position(monkeypatch):
    i, j = 10, 4
    assert dict(verifier._fib_claims(i))["theta_step_clauses"].passed
    _plant_step_fault(monkeypatch, fibonacci, "theta_steps", (i, j), _drop_shifted)
    claim = dict(verifier._fib_claims(i))["theta_step_clauses"]
    assert not claim.passed
    assert claim.witness[0] == j


def test_theta_step_clauses_catch_pieces_that_meet(monkeypatch):
    i, j = 10, 4

    def repeat(step):  # the third piece repeats prev's smallest position; the union is unchanged
        prev, shifted, rightmost = step.pieces
        return Step((prev, shifted, rightmost | prev & -prev))

    _plant_step_fault(monkeypatch, fibonacci, "theta_steps", (i, j), repeat)
    claims = dict(verifier._fib_claims(i))
    assert claims["theta_sets_match_oracle"].passed
    assert _failing(claims) == {"theta_step_clauses": [j]}


def test_recurrence_intersections_catch_a_dropped_position(monkeypatch):
    i, j = 8, 4
    assert dict(verifier._tm_claims(i))["recurrence_intersections"].passed
    _plant_step_fault(monkeypatch, thue_morse, "ab_steps", (i, j), _drop_twice_shifted)
    claim = dict(verifier._tm_claims(i))["recurrence_intersections"]
    assert not claim.passed
    assert claim.witness[0] == j


def test_recurrence_intersections_catch_an_emptied_overlap(monkeypatch):
    i, j = 8, 4

    def empty(steps):  # the sets are unchanged
        a_step, b_step = steps
        assert a_step.overlap
        return dataclasses.replace(a_step, overlap=0), b_step

    _plant_step_fault(monkeypatch, thue_morse, "ab_steps", (i, j), empty)
    assert _failing(dict(verifier._tm_claims(i))) == {"recurrence_intersections": [j]}


def test_target_scan_is_the_one_thue_morse_scan(monkeypatch):
    # A fault in target_scans reaches the sweep and occ-sets: neither scans a
    # Thue-Morse target by itself.
    i, j = 8, 4
    true_scans = thue_morse.target_scans

    def faulty(order, offsets):  # lose the last position of one target
        table = dict(true_scans(order, offsets))
        if order == i and j in table:
            a_scan = table[j][0]
            table[j] = (a_scan ^ 1 << a_scan.bit_length() - 1, table[j][1])
        return table

    for module in list(sys.modules.values()):
        if module.__name__.startswith("netoccs") and getattr(module, "target_scans", None) is true_scans:
            monkeypatch.setattr(module, "target_scans", faulty)
    claim = dict(verifier._tm_claims(i))["occurrence_sets_match_oracle"]
    assert not claim.passed and claim.witness == [j]
    assert cli.run(["occ-sets", "tm", "--order", str(i), "--j", str(j)]) == 1


# One order of each family, for the faults planted in the claims they share.
_BOTH_FAMILIES = pytest.mark.parametrize(
    "claims, i", [(verifier._fib_claims, 9), (verifier._tm_claims, 7)], ids=["fib", "tm"]
)


@_BOTH_FAMILIES
def test_engines_agree_catches_a_dropped_indexed_record(claims, i, monkeypatch):
    true_engine = verifier.net_occurrences_indexed
    monkeypatch.setattr(verifier, "net_occurrences_indexed", lambda text: true_engine(text)[:-1])
    failing = _failing(dict(claims(i)))
    assert list(failing) == ["engines_agree"]
    assert failing["engines_agree"]["indexed"] == failing["engines_agree"]["oracle"][:-1]


@_BOTH_FAMILIES
def test_prediction_claims_catch_a_dropped_member(claims, i, monkeypatch):
    for name in ("predicted_fib_net_occurrences", "predicted_tm_net_occurrences"):
        true_prediction = getattr(verifier, name)
        monkeypatch.setattr(verifier, name, lambda order, true=true_prediction: true(order)[1:])
    failing = _failing(dict(claims(i)))
    assert list(failing) == ["net_occurrences_match_prediction", "prediction_is_onoc", "cover_complete"]
    match = failing["net_occurrences_match_prediction"]
    assert match["predicted"] == match["actual"][1:]
    assert failing["cover_complete"]["cover_valid"] is False


@_BOTH_FAMILIES
def test_cover_complete_catches_an_offending_super(claims, i, monkeypatch):
    true_proof = verifier.prove_completeness
    planted_supers = []

    def planted(text, cover, net_occs):  # report the first member as an offending super
        report = true_proof(text, cover, net_occs)
        planted_supers.append([cover[0].start, cover[0].end])
        return dataclasses.replace(report, offending_supers=(*report.offending_supers, cover[0]))

    monkeypatch.setattr(verifier, "prove_completeness", planted)
    failing = _failing(dict(claims(i)))
    assert list(failing) == ["cover_complete"]
    assert failing["cover_complete"]["offending_supers"] == planted_supers


def test_theta_counts_catch_an_off_by_one_count(monkeypatch):
    true_count = verifier.theta_count
    monkeypatch.setattr(verifier, "theta_count", lambda i, j: true_count(i, j) + (j == 2))
    assert _failing(dict(verifier._fib_claims(9))) == {"theta_counts_match_oracle": [2]}


def test_occurrence_counts_catch_an_off_by_one_count(monkeypatch):
    true_counts = verifier.ab_counts

    def planted(j_max):
        a_seq, b_seq = true_counts(j_max)
        return (*a_seq[:2], a_seq[2] + 1, *a_seq[3:]), b_seq

    monkeypatch.setattr(verifier, "ab_counts", planted)
    assert _failing(dict(verifier._tm_claims(7))) == {"occurrence_counts_match": [2]}


def _plant_gapped_cover(monkeypatch):
    # The completeness proof is handed the predicted cover with its first
    # member cut one letter short of the second: a gap.
    true_proof = verifier.prove_completeness

    def planted(text, cover, net_occs):
        return true_proof(text, (Occurrence(1, cover[1].start - 2), *cover[1:]), net_occs)

    monkeypatch.setattr(verifier, "prove_completeness", planted)


def _plant_wrong_block(drop):
    # The Fibonacci identities read fib_word(i - drop) with its last letter flipped.
    def plant(monkeypatch):
        true_identities, true_word = verifier.check_fib_identities, fibonacci.fib_word

        def planted(i):
            def wrong(k):
                word = true_word(k)
                return word[:-1] + flip_word(word[-1]) if k == i - drop else word

            with pytest.MonkeyPatch.context() as inner:
                inner.setattr(fibonacci, "fib_word", wrong)
                return true_identities(i)

        monkeypatch.setattr(verifier, "check_fib_identities", planted)

    return plant


def _plant_top_count(monkeypatch):
    # The count recurrence's top entry equals the oracle's count of a.
    true_counts = verifier.ab_counts

    def planted(j_max):
        a_seq, b_seq = true_counts(j_max)
        return (*a_seq[:-1], tm_word(j_max + 1).count("a")), b_seq

    monkeypatch.setattr(verifier, "ab_counts", planted)


_INVALID_COVER = {"cover_valid": False, "bnsos": [], "offending_supers": [], "oracle_agrees": False}
# The identities' witnesses at order 9: the first position where the sides differ.
_SPLIT_MID_COPY = {"split_mid_copy": fib_length(7) + fib_length(6)}
_SPLIT_DOUBLE_PREFIX = {
    "split_double_prefix": 2 * fib_length(7) + fib_length(4),
    "tail_pair_forward": fib_length(5) + fib_length(4),
    "tail_pair_reversed": fib_length(4),
}


# One row per planted fault: the claim stream and order it runs, the fault,
# and every claim it flips with its witness.
@pytest.mark.parametrize(
    "claims, i, plant, flipped",
    [
        pytest.param(
            verifier._fib_claims, 9, _plant_gapped_cover,
            {"prediction_is_onoc": None, "cover_complete": _INVALID_COVER}, id="prediction_is_onoc-fib",
        ),
        pytest.param(
            verifier._tm_claims, 7, _plant_gapped_cover,
            {"prediction_is_onoc": None, "cover_complete": _INVALID_COVER}, id="prediction_is_onoc-tm",
        ),
        pytest.param(
            verifier._fib_claims, 9, _plant_wrong_block(3), {"identities": _SPLIT_MID_COPY}, id="split_mid_copy"
        ),
        pytest.param(
            verifier._fib_claims, 9, _plant_wrong_block(5), {"identities": _SPLIT_DOUBLE_PREFIX},
            id="split_double_prefix",
        ),
        pytest.param(
            verifier._tm_claims, 7, _plant_top_count,
            {"top_offset_documented_deviation": {"oracle": 32, "recurrence": 32}},
            id="top_offset_documented_deviation",
        ),
    ],
)
def test_a_planted_fault_flips_exactly_its_claims(claims, i, plant, flipped, monkeypatch):
    assert _failing(dict(claims(i))) == {}
    plant(monkeypatch)
    assert _failing(dict(claims(i))) == flipped


def test_a_faulty_factorization_construction_fails_its_claim(monkeypatch, capsys):
    true_pattern = thue_morse._pattern

    def planted(j, kind):  # a wrong last factor at offset 3, kind A: the factors spell another word
        pattern = true_pattern(j, kind)
        return (*pattern[:-1], thue_morse._FLIP[pattern[-1]]) if (j, kind) == (3, "A") else pattern

    monkeypatch.setattr(thue_morse, "_pattern", planted)
    with pytest.raises(ValueError, match="do not spell"):
        thue_morse.smallest_factorization(7, 3, "A")
    assert _failing(dict(verifier._tm_claims(7))) == {"smallest_factorizations_valid": [[3, "A"]]}
    assert cli.run(["verify", "tm", "--max-order", "7"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert failed == [f"FAIL order_{i}/smallest_factorizations_valid  witness=[[3, 'A']]" for i in (5, 6, 7)]


def test_a_ref_resolving_to_its_flip_fails_its_factorization(monkeypatch):
    # Code 2 of one factorization stands for the flipped order-(i-j-1) word:
    # the factors spell another word, and only that factorization fails.
    i, j, kind = 9, 4, "B"
    true_type = thue_morse.SmallestFactorization

    def planted(refs, codes, fac_kind, order, offset):
        if (order, offset, fac_kind) == (i, j, kind):
            refs = (*refs[:2], tm_flip_ref(refs[2].order), *refs[3:])
        return true_type(refs, codes, fac_kind, order, offset)

    monkeypatch.setattr(thue_morse, "SmallestFactorization", planted)
    with pytest.raises(ValueError, match="do not spell"):
        thue_morse.smallest_factorization(i, j, kind)
    assert _failing(dict(verifier._tm_claims(i))) == {"smallest_factorizations_valid": [[j, kind]]}


def test_each_factorization_resolves_each_distinct_ref_once(monkeypatch):
    resolved, built, marks = [], [], []
    true_resolve, true_build = FactorRef.resolve, verifier.smallest_factorization

    def build(*args):
        marks.append(len(resolved))
        built.append(true_build(*args))
        return built[-1]

    monkeypatch.setattr(FactorRef, "resolve", lambda ref: resolved.append(ref) or true_resolve(ref))
    monkeypatch.setattr(verifier, "smallest_factorization", build)
    assert dict(verifier._tm_claims(14))["smallest_factorizations_valid"].passed
    marks.append(len(resolved))
    # Every resolve between two builds belongs to the earlier factorization.
    per_factorization = [end - start for start, end in zip(marks, marks[1:])]
    assert len(built) == 25
    for fac, count in zip(built, per_factorization):
        assert count <= len(set(fac.factors)), (fac.j, fac.kind, count)


def test_factorization_checks_share_one_target_scan(monkeypatch):
    # The sweep builds one table of direct scans per order, of tm_word(i-j)
    # and its flip in tm_word(i): the occurrence-set claims,
    # validate_smallest_factorization and factorization_basis_ok all read it.
    # Beside it, the repetition scan reads the word's letters alone (no splits).
    built = []
    true_build = thue_morse.occurrence_bits

    def counting(text, splits, keep):
        built.append((text, bool(splits)))
        return true_build(text, splits, keep)

    monkeypatch.setattr(thue_morse, "occurrence_bits", counting)
    assert verify_thue_morse(9).all_passed()
    assert built == [(tm_word(i), table) for i in range(5, 10) for table in (True, False)]
    table = thue_morse.target_scans(9, range(9))
    for j, kind in [(0, "A"), (3, "A"), (3, "B"), (7, "B")]:
        built.clear()
        assert verifier._factorization_ok(9, j, kind, table)
        assert built == []


def test_fibonacci_claims_share_one_theta_scan(monkeypatch):
    # The sweep builds one table of direct scans of fib_word(i-j) in
    # fib_word(i) per order, which the theta claims and the lemmas read. The
    # lemmas scan only for what the table does not hold: the word in its
    # square, the core block and the stem (fib_word(3) at order 7).
    built, found = [], []
    true_build, true_find = fibonacci.occurrence_bits, fibonacci.find_occurrences
    monkeypatch.setattr(
        fibonacci, "occurrence_bits", lambda text, *rest: built.append(text) or true_build(text, *rest)
    )
    monkeypatch.setattr(
        fibonacci, "find_occurrences", lambda pattern, text: found.append((pattern, text)) or true_find(pattern, text)
    )
    assert verify_fibonacci(10).all_passed()
    assert built == [fib_word(i) for i in range(7, 11)]
    expected = []
    for i in range(7, 11):
        word = fib_word(i)
        expected += [(word, word + word), (fib_word(i - 2) + q_word(i), word), (fib_word(i - 3)[:-1], word)]
    assert found == expected


def test_lemmas_read_the_sweeps_theta_scans(monkeypatch):
    # A position lost from the order's scan of fib_word(i-2) fails the lemmas
    # there, beside the theta claims: they do not scan the word by themselves.
    i = 9
    true_scans = verifier.theta_scans

    def faulty(order, offsets):
        table = true_scans(order, offsets)
        return {**table, 2: table[2] ^ 1 << table[2].bit_length() - 1} if order == i else table

    monkeypatch.setattr(verifier, "theta_scans", faulty)
    assert _failing(dict(verifier._fib_claims(i))) == {
        "theta_sets_match_oracle": [2],
        "theta_step_clauses": [2],
        "theta_counts_match_oracle": [2],
        "lemmas": {"second_previous_positions": [1, fib_length(i - 2) + 1]},
    }


_FIRST_CLAIM_PROBE = """
import sys, time, tracemalloc
from netoccs import verifier, words
family, i = sys.argv[1], int(sys.argv[2])
word = (words.fib_word if family == "fib" else words.tm_word)(i)
claims = (verifier._fib_claims if family == "fib" else verifier._tm_claims)(i)
tracemalloc.start()
start = time.perf_counter()
name, claim = next(claims)
print(claim.passed, len(word), tracemalloc.get_traced_memory()[1], time.perf_counter() - start)
"""


@pytest.mark.parametrize("family, i, per_offset", [("tm", 20, 2), ("fib", 30, 1)])
def test_first_claim_holds_little_beside_its_mask_table(family, i, per_offset):
    # The first claim builds the order's scan table, one bit set per target
    # and offset (a target and its flip for Thue-Morse), and the recurrence
    # steps over bit sets. The bound is twice what the table took when it
    # held one mask of the word's length, a byte per letter, per target and
    # offset. Measured in fresh processes, words built before tracing starts:
    # peaks of 0.19 (tm 20) and 0.39 (fib 30) times those masks, in 0.02 s
    # under tracing. The masks themselves peaked at 1.1 times their size, and
    # position tuples needed 4.5 and 4.9 times it, and 1.0 and 1.4 s.
    probe = [sys.executable, "-c", _FIRST_CLAIM_PROBE, family, str(i)]
    passed, length, peak, seconds = subprocess.run(probe, capture_output=True, text=True, check=True).stdout.split()
    assert passed == "True"
    assert int(peak) < 2 * per_offset * i * int(length), (int(peak), int(length))
    assert float(seconds) < 0.5


def test_first_claim_at_tm_22_holds_a_few_word_lengths():
    # With the scans on bit sets the first claim at tm 22 peaked at 8.0 bytes
    # per letter (16.1 MB, fresh process, words built before tracing starts);
    # with one numpy mask per target and offset it took 47 (94.1 MB).
    probe = [sys.executable, "-c", _FIRST_CLAIM_PROBE, "tm", "22"]
    passed, length, peak, seconds = subprocess.run(probe, capture_output=True, text=True, check=True).stdout.split()
    assert passed == "True"
    assert int(peak) < 16 * int(length), (int(peak), int(length))


def test_no_recurrence_state_outlives_a_call(monkeypatch):
    fib_scan = find_occurrences(fib_word(6), fib_word(10))
    tm_scan = OccurrenceSets(*(find_occurrences(w, tm_word(8)) for w in (tm_word(4), tm_flip_word(4))))
    with monkeypatch.context() as planted:
        _plant_step_fault(planted, fibonacci, "theta_steps", (10, 4), _drop_shifted)
        _plant_step_fault(planted, thue_morse, "ab_steps", (8, 4), _drop_twice_shifted)
        assert fibonacci.theta_set(10, 4) != fib_scan
        assert thue_morse.ab_sets(8, 4) != tm_scan
    assert fibonacci.theta_set(10, 4) == fib_scan
    assert thue_morse.ab_sets(8, 4) == tm_scan


def test_each_union_and_repetition_scan_is_computed_once(monkeypatch):
    steps = [*fibonacci.theta_steps(12), *(step for pair in thue_morse.ab_steps(10) for step in pair)]
    assert all(step.union() is step.union() for step in steps)
    true_build = thue_morse.occurrence_bits
    read = []

    def counting(text, *rest):  # the repetition scan reads the letters' bit sets from here
        read.append(text)
        return true_build(text, *rest)

    monkeypatch.setattr(thue_morse, "occurrence_bits", counting)
    claims = thue_morse.check_tm_identities(12)
    assert claims["overlap_free"].passed and claims["cube_free"].passed
    assert read == [tm_word(12)]


@pytest.mark.parametrize("planted, verdicts", [("overlap_free", (False, True)), ("cube_free", (True, False))])
def test_repetition_claims_catch_a_planted_repetition(planted, verdicts, monkeypatch):
    i = 7
    true_scan = thue_morse.repetition_free
    # the one-pass check reports an overlap, or a cube, in tm_word(i) only
    monkeypatch.setattr(
        thue_morse, "repetition_free", lambda text: verdicts if text == tm_word(i) else true_scan(text)
    )
    assert _failing(verify_thue_morse(8).claims) == {f"order_{i}/identities": {planted: None}}


def test_folded_claims_keep_each_failing_witness(monkeypatch):
    true_lemmas = verifier.check_fib_lemmas

    def planted(i, scans):
        claims = true_lemmas(i, scans)
        claims["previous_only_at_1"] = ClaimResult(False, witness=[1, 35])
        return claims

    monkeypatch.setattr(verifier, "check_fib_lemmas", planted)
    report = verify_fibonacci(9)
    assert _failing(report.claims) == {
        f"order_{i}/lemmas": {"previous_only_at_1": [1, 35]} for i in (7, 8, 9)
    }
    assert report.to_json_dict()["claims"]["order_9/lemmas"] == {
        "pass": False,
        "witness": {"previous_only_at_1": [1, 35]},
    }


def test_failing_identities_name_the_first_differing_position(monkeypatch):
    true_flip = thue_morse.tm_flip_word

    def planted(order):  # flip the first letter of the order-4 word
        word = true_flip(order)
        return flip_word(word[0]) + word[1:] if order == 4 else word

    monkeypatch.setattr(thue_morse, "tm_flip_word", planted)
    assert dict(verifier._tm_claims(6))["identities"].witness == {"quarter_split": 9}


def test_same_word_witness_is_the_first_differing_position():
    assert same_word("abba", "abba") == ClaimResult(True)
    assert same_word("abba", "abab") == ClaimResult(False, witness=3)
    assert same_word("ab", "abb") == ClaimResult(False, witness=3)


def test_check_onoc_containment():
    assert check_onoc_containment("ab") is None  # no net occurrences
    cover, offender = check_onoc_containment("aaaa")
    assert cover == (Occurrence(1, 3), Occurrence(2, 4))
    assert offender is None
    # the extra net occurrence (2,7) contains the widened overlap (3..7)
    cover, offender = check_onoc_containment("abbabbabbbabba")
    assert cover == (Occurrence(1, 6), Occurrence(4, 9), Occurrence(9, 14))
    assert offender is None


def test_onoc_lemma_random_is_deterministic():
    first = verify_onoc_lemma_random(seed=7, samples=60, max_len=12)
    second = verify_onoc_lemma_random(seed=7, samples=60, max_len=12)
    assert first == second
    assert first.samples == 60
    assert first.tested() == first.samples - first.skipped
    assert first.ok()


def test_onoc_lemma_random_seed_changes_texts():
    a = verify_onoc_lemma_random(seed=1, samples=40, max_len=10)
    b = verify_onoc_lemma_random(seed=2, samples=40, max_len=10)
    # both clean, but almost surely different skip counts
    assert a.ok() and b.ok()


def test_onoc_lemma_exhaustive_counts():
    report = verify_onoc_lemma_random(seed=0, samples=0, max_len=6, exhaustive=True)
    assert report.samples == 2**7 - 2  # all nonempty texts up to length 6
    assert report.ok()


def test_onoc_lemma_domain_errors():
    with pytest.raises(ValueError):
        verify_onoc_lemma_random(seed=0, samples=10, max_len=33)
    with pytest.raises(ValueError):
        verify_onoc_lemma_random(seed=0, samples=0, max_len=10)
    with pytest.raises(ValueError):
        verify_onoc_lemma_random(seed=0, samples=10, max_len=3)


def test_onoc_lemma_exhaustive_cap_refused_before_any_text(monkeypatch):
    # the sampled mode keeps its own cap of 32
    assert verify_onoc_lemma_random(seed=0, samples=3, max_len=21).samples == 3

    def never(*args):
        raise AssertionError(f"checked {args!r} despite the cap")

    monkeypatch.setattr(verifier, "check_onoc_containment", never)
    monkeypatch.setattr(verifier, "_containment_kernel", never)
    with pytest.raises(ValueError, match="exhaustive max_len 21 > 20"):
        verify_onoc_lemma_random(seed=0, samples=0, max_len=21, exhaustive=True)


def test_onoc_lemma_sample_cap_refused_before_any_text(monkeypatch):
    # every text is drawn before any is checked, so a huge count would
    # exhaust the memory before the first verdict
    def never(*args):
        raise AssertionError(f"drew {args!r} despite the cap")

    monkeypatch.setattr(verifier, "_sampled_blocks", never)
    cap = verifier.SAMPLED_MAX_SAMPLES
    with pytest.raises(ValueError, match=f"samples {cap + 1} not in 1..{cap}"):
        verify_onoc_lemma_random(seed=0, samples=cap + 1, max_len=32)


@pytest.mark.parametrize("max_len", [0, -3])
def test_onoc_lemma_exhaustive_refuses_max_len_below_1(max_len, monkeypatch):
    # no text of length below 1 exists, so the sweep would pass vacuously
    def never(*args):
        raise AssertionError(f"built {args!r} despite the refusal")

    monkeypatch.setattr(verifier, "_exhaustive_blocks", never)
    with pytest.raises(ValueError, match=f"exhaustive max_len {max_len} < 1"):
        verify_onoc_lemma_random(seed=0, samples=0, max_len=max_len, exhaustive=True)


def _kernel(texts: list[str]) -> verifier._Batch:
    """The kernel's results for texts of one length, in the given order."""
    n = len(texts[0])
    codes = np.array([int(t.translate(str.maketrans("ab", "01")), 2) for t in texts], np.uint64)
    return verifier._containment_kernel(codes, n)


def _by_length(texts: list[str]) -> dict[int, list[str]]:
    groups: dict[int, list[str]] = {}
    for text in texts:
        groups.setdefault(len(text), []).append(text)
    return groups


def _assert_kernel_matches_oracle(texts: list[str]) -> None:
    """Net occurrences (start, end) and greedy cover members, text by text."""
    for group in _by_length(texts).values():
        batch = _kernel(group)
        for t, text in enumerate(group):
            occs = [rec.occurrence for rec in net_occurrences_bruteforce(text)]
            starts = np.flatnonzero(batch.net[:, t])
            assert [(p + 1, int(batch.ends[p, t])) for p in starts] == [
                (o.start, o.end) for o in occs
            ], text
            cover = greedy_onoc(text, occs)
            assert bool(batch.has_cover[t]) == (cover is not None), text
            if cover is not None:
                members = [p + 1 for p in np.flatnonzero(batch.members[:, t])]
                assert members == [o.start for o in cover], text


def _assert_kernel_matches_containment(texts: list[str]) -> None:
    """Has-cover and violation flags against check_onoc_containment."""
    for group in _by_length(texts).values():
        batch = _kernel(group)
        for t, text in enumerate(group):
            outcome = verifier.check_onoc_containment(text)
            assert bool(batch.has_cover[t]) == (outcome is not None), text
            assert bool(batch.violated[t]) == (outcome is not None and outcome[1] is not None), text


def _all_texts(max_len: int) -> list[str]:
    return ["".join(tup) for n in range(1, max_len + 1) for tup in product("ab", repeat=n)]


def _sampled_texts(seed: int, samples: int, max_len: int) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choice("ab") for _ in range(rng.randint(4, max_len))) for _ in range(samples)]


def test_kernel_matches_oracle_and_greedy_cover_up_to_length_12():
    _assert_kernel_matches_oracle(_all_texts(12))


def test_kernel_matches_containment_check_up_to_length_14():
    _assert_kernel_matches_containment(_all_texts(14))


def test_kernel_matches_per_text_routes_on_sampled_texts():
    rng = random.Random(32)
    texts = _sampled_texts(42, 1000, 24)
    texts += ["".join(rng.choice("ab") for _ in range(32)) for _ in range(50)]
    _assert_kernel_matches_oracle(texts)
    _assert_kernel_matches_containment(texts)


def _widen_two_letters(start, end, n):
    """A planted widening: two positions on each side, clipped to the text."""
    return np.maximum(start - 2, 1), np.minimum(end + 2, n)


# SHA-256 over the five _Batch arrays, as bytes in field order, block by
# block of every code of each length 1..14, in blocks of 1,024 texts;
# computed with the per-length substring-count kernel this one replaced.
_KERNEL_DIGEST = "c72dda949dfbb9e870721361692de072497b05c026ae99a8bff42086c2e783a8"


def _code_blocks(n: int, size: int):
    """Every code of length n, in order, in blocks of ``size`` codes."""
    for lo in range(0, 1 << n, size):
        yield np.arange(lo, min(lo + size, 1 << n), dtype=verifier._code_dtype(n))


def test_kernel_arrays_match_the_pinned_digest():
    digest = hashlib.sha256()
    for n in range(1, 15):
        for codes in _code_blocks(n, 1024):
            for array in verifier._containment_kernel(codes, n):
                digest.update(array.tobytes())
    assert digest.hexdigest() == _KERNEL_DIGEST


def _complement_asymmetries(max_len: int) -> list[tuple[int, str]]:
    """(n, field) for each _Batch array that differs, at some text of length
    n <= max_len, from the same array at the text's complement."""
    kernel = verifier._containment_kernel
    asymmetric = set()
    for n in range(1, max_len + 1):
        for codes in _code_blocks(n, 4096):
            pairs = zip(verifier._Batch._fields, kernel(codes, n), kernel((1 << n) - 1 - codes, n))
            asymmetric.update((n, name) for name, ours, twins in pairs if not np.array_equal(ours, twins))
    return sorted(asymmetric)


def test_kernel_results_are_those_of_the_complement():
    """The halved exhaustive sweep rests on this: swapping a and b changes
    none of the kernel's arrays, on any text of length <= 16."""
    assert _complement_asymmetries(16) == []


def test_complement_check_catches_an_asymmetric_kernel(monkeypatch):
    true_kernel = verifier._containment_kernel

    def planted(codes, n):  # flags every text that starts with b
        batch = true_kernel(codes, n)
        return batch._replace(violated=batch.violated | (codes >> (n - 1) == 1))

    monkeypatch.setattr(verifier, "_containment_kernel", planted)
    assert _complement_asymmetries(4) == [(n, "violated") for n in range(1, 5)]


def test_exhaustive_blocks_hold_the_texts_that_start_with_a():
    blocks = list(verifier._exhaustive_blocks(12))
    assert all(int(codes.max()) < 1 << (n - 1) for n, codes, _ in blocks)
    numbers = np.concatenate([numbers for _, _, numbers in blocks])
    texts = _all_texts(12)
    assert [texts[i] for i in numbers] == [t for t in texts if t[0] == "a"]


_CONSTANT_WITNESS = ((Occurrence(1, 1),), Occurrence(1, 1))


@pytest.mark.parametrize("widening", [onoc.widen, _widen_two_letters], ids=["true", "planted"])
def test_halved_sweep_reports_what_a_full_one_does(widening, monkeypatch):
    """For each max_len 1..16 the sweep over the texts that start with a
    reports the counts and the flagged texts, in order, of a kernel pass
    over every text. The per-text route is replaced by a constant witness,
    so the planted widening's many flags cost no oracle run."""
    monkeypatch.setattr(verifier, "widen", widening)
    monkeypatch.setattr(verifier, "check_onoc_containment", lambda text: _CONSTANT_WITNESS)
    samples = skipped = 0
    flagged = []
    for n in range(1, 17):  # the full pass over length n, then the sweep to n
        for codes in _code_blocks(n, 4096):
            batch = verifier._containment_kernel(codes, n)
            samples += len(codes)
            skipped += int(np.count_nonzero(~batch.has_cover))
            flagged += [format(c, f"0{n}b").translate(str.maketrans("01", "ab")) for c in codes[batch.violated]]
        report = verify_onoc_lemma_random(0, 1, n, exhaustive=True)
        assert (report.samples, report.tested(), report.skipped) == (samples, samples - skipped, skipped)
        assert report.violations == tuple((text, *_CONSTANT_WITNESS) for text in flagged), n
    assert bool(flagged) == (widening is _widen_two_letters)


def test_kernel_comparison_catches_a_missed_flag(monkeypatch):
    """A violation that the per-text route reports and the kernel does not
    flag fails the containment comparison."""
    true_check = verifier.check_onoc_containment

    def planted(text):  # report the first member of aaaaa's cover as an offender
        outcome = true_check(text)
        return (outcome[0], outcome[0][0]) if text == "aaaaa" else outcome

    monkeypatch.setattr(verifier, "check_onoc_containment", planted)
    with pytest.raises(AssertionError, match="aaaaa"):
        _assert_kernel_matches_containment(_all_texts(6))


def test_kernel_flags_the_violations_of_a_planted_widening(monkeypatch):
    """Widened by two letters per side, some BNSOs fit in no net occurrence
    outside the cover: the kernel and the per-text route flag the same
    texts, there are some, and the sweep reports each of them."""
    monkeypatch.setattr(onoc, "widen", _widen_two_letters)
    monkeypatch.setattr(verifier, "widen", _widen_two_letters)
    texts = _all_texts(12)
    _assert_kernel_matches_containment(texts)
    groups = _by_length(texts).values()
    flagged = [text for group in groups for text, bad in zip(group, _kernel(group).violated) if bad]
    assert flagged
    report = verify_onoc_lemma_random(0, 1, 12, exhaustive=True)
    assert [text for text, _, _ in report.violations] == flagged


def test_kernel_comparison_catches_a_kernel_that_never_flags(monkeypatch):
    monkeypatch.setattr(onoc, "widen", _widen_two_letters)
    monkeypatch.setattr(verifier, "widen", _widen_two_letters)
    true_kernel = verifier._containment_kernel

    def planted(codes, n):
        return true_kernel(codes, n)._replace(violated=np.zeros(len(codes), bool))

    monkeypatch.setattr(verifier, "_containment_kernel", planted)
    with pytest.raises(AssertionError):
        _assert_kernel_matches_containment(_all_texts(12))


def test_kernel_comparison_catches_an_off_by_one_common_prefix(monkeypatch):
    """A common-prefix table one too long on its q = p + 1 diagonal fails the
    comparison with the oracle."""
    true_table = verifier._common_prefix_table

    def planted(codes, n):
        lcp = true_table(codes, n)
        lcp[range(n - 1), range(1, n)] += 1
        return lcp

    monkeypatch.setattr(verifier, "_common_prefix_table", planted)
    with pytest.raises(AssertionError):
        _assert_kernel_matches_oracle(_all_texts(8))


def test_flagged_text_reports_the_per_text_witness(monkeypatch):
    real_kernel = verifier._containment_kernel
    flag = int("abba".translate(str.maketrans("ab", "01")), 2)

    def flagging_kernel(codes, n):
        batch = real_kernel(codes, n)
        if n == 4:
            batch.violated[codes == flag] = True
        return batch

    monkeypatch.setattr(verifier, "_containment_kernel", flagging_kernel)
    # the per-text route finds no offender, so the two routes disagree
    with pytest.raises(RuntimeError, match="'abba'"):
        verify_onoc_lemma_random(seed=0, samples=0, max_len=5, exhaustive=True)

    witness = ((Occurrence(1, 2), Occurrence(2, 4)), Occurrence(3, 4))
    checked = []

    def witnessing_check(text):
        checked.append(text)
        return witness

    monkeypatch.setattr(verifier, "check_onoc_containment", witnessing_check)
    report = verify_onoc_lemma_random(seed=0, samples=0, max_len=5, exhaustive=True)
    assert checked == ["abba", "baab"]  # the flagged text and its complement
    assert report.violations == (("abba", *witness), ("baab", *witness))
    assert not report.ok()

    # sampled texts are checked grouped by length but reported in sample order
    def flag_all(codes, n):
        return real_kernel(codes, n)._replace(violated=np.ones(len(codes), bool))

    monkeypatch.setattr(verifier, "_containment_kernel", flag_all)
    report = verify_onoc_lemma_random(seed=5, samples=30, max_len=12)
    assert [text for text, _, _ in report.violations] == _sampled_texts(5, 30, 12)


def test_property_report_json():
    report = verify_onoc_lemma_random(seed=3, samples=25, max_len=8)
    data = report.to_json_dict()
    assert data["samples"] == 25
    assert data["tested"] == report.tested()
    assert data["violations"] == []
    assert data["seed"] == 3 and data["max_len"] == 8 and data["requested_samples"] == 25
    assert data["exhaustive"] is False
    assert data["wall_time"] == report.wall_time > 0
    # an exhaustive run draws no sample: its seed and sample count are null
    data = verify_onoc_lemma_random(seed=3, samples=25, max_len=4, exhaustive=True).to_json_dict()
    assert data["seed"] is None and data["requested_samples"] is None
    assert data["exhaustive"] is True and data["max_len"] == 4 and data["samples"] == 2**5 - 2
