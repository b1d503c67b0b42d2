"""End-to-end tests of the command-line interface via netoccs.cli.run."""

import argparse
import contextlib
import hashlib
import io
import json
import platform
import re
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netoccs
from netoccs import cli, verifier, words
from netoccs.cli import run
from netoccs.words import fib_word, tm_word

FIB7 = "abaababaabaab"
VERSIONS = {"netoccs": netoccs.__version__, "python": platform.python_version(), "numpy": np.__version__}


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_gen_fib(capsys):
    assert run(["gen", "fib", "--order", "7"]) == 0
    out, _ = out_of(capsys)
    assert out == FIB7 + "\n"


def test_gen_tm_flip(capsys):
    assert run(["gen", "tm", "--order", "3", "--flip"]) == 0
    out, _ = out_of(capsys)
    assert out == "baab\n"


def test_gen_output_file(tmp_path, capsys):
    target = tmp_path / "word.txt"
    assert run(["gen", "tm", "--order", "5", "--output", str(target)]) == 0
    assert target.read_text() == tm_word(5) + "\n"
    out, _ = out_of(capsys)
    assert out == ""


def test_gen_domain_error(capsys):
    assert run(["gen", "fib", "--order", "0"]) == 2
    _, err = out_of(capsys)
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "fib", "--order", "37"],
        ["gen", "fib", "--order", "1500"],
        ["gen", "tm", "--order", "26", "--flip"],
        ["gen", "tm", "--order", "1500"],
        ["netocc", "--fib", "37"],
        ["netocc", "--fib", "1500", "--json"],
        ["netocc", "--tm", "26"],
        ["netocc", "--tm", "1500", "--engine", "oracle"],
    ],
    ids=" ".join,
)
def test_word_generators_refuse_orders_above_the_cap(argv, capsys):
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and "longer than" in err
    assert "Traceback" not in err


def test_netocc_json(capsys):
    assert run(["netocc", "--fib", "7", "--json"]) == 0
    out, _ = out_of(capsys)
    records = json.loads(out)
    assert [(r["start"], r["end"]) for r in records] == [(1, 6), (6, 11), (9, 13)]
    assert records[0]["string"] == "abaaba"
    assert records[0]["left"] is None
    assert records[0]["right"] == "b"


def test_netocc_text_mode(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("aaaa\n")
    assert run(["netocc", "--text", str(path)]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines() == ["1\t3\taaa\t-\ta", "2\t4\taaa\ta\t-"]


def test_netocc_no_net_occurrences(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("ab\n")
    assert run(["netocc", "--text", str(path)]) == 0
    out, _ = out_of(capsys)
    assert "(no net occurrences)" in out


def test_netocc_engines_agree(capsys):
    assert run(["netocc", "--tm", "6", "--json", "--engine", "oracle"]) == 0
    oracle_out, _ = out_of(capsys)
    assert run(["netocc", "--tm", "6", "--json", "--engine", "indexed"]) == 0
    indexed_out, _ = out_of(capsys)
    assert json.loads(oracle_out) == json.loads(indexed_out)


def test_netocc_requires_one_source(capsys):
    assert run(["netocc"]) == 2
    assert run(["netocc", "--fib", "7", "--tm", "5"]) == 2


def test_occ_sets_fib(capsys):
    assert run(["occ-sets", "fib", "--order", "7", "--j", "2", "--json"]) == 0
    out, _ = out_of(capsys)
    data = json.loads(out)
    assert data["recurrence"] == [1, 6, 9]
    assert data["oracle"] == [1, 6, 9]
    assert data["equal"] is True


def test_occ_sets_tm(capsys):
    assert run(["occ-sets", "tm", "--order", "5", "--j", "3", "--json"]) == 0
    out, _ = out_of(capsys)
    data = json.loads(out)
    assert data["a"]["recurrence"] == [1, 4, 7, 11, 13]
    assert data["b"]["recurrence"] == [3, 5, 9, 12, 15]
    assert data["equal"] is True


def test_occ_sets_text_mode(capsys):
    assert run(["occ-sets", "fib", "--order", "7", "--j", "2"]) == 0
    out, _ = out_of(capsys)
    assert "equal: true" in out


def test_occ_sets_domain_error(capsys):
    assert run(["occ-sets", "fib", "--order", "7", "--j", "5"]) == 2
    assert run(["occ-sets", "tm", "--order", "5", "--j", "4"]) == 2


def test_factorize_json(capsys):
    assert run(["factorize", "tm", "--order", "5", "--j", "2", "--kind", "A", "--json"]) == 0
    out, _ = out_of(capsys)
    data = json.loads(out)
    assert len(data["factors"]) == 5
    assert data["valid"] is True
    assert data["basis_ok"] is True
    assert data["boundary_ok"] is True


def test_factorize_text_mode(capsys):
    assert run(["factorize", "tm", "--order", "5", "--j", "2", "--kind", "B"]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines()[0] == "TM(3) TMflip(3) TMflip(3) TM(3)"
    assert "valid=true" in out


def test_factorize_reports_basis_failure(capsys):
    assert run(["factorize", "tm", "--order", "3", "--j", "2", "--kind", "A", "--json"]) == 0
    out, _ = out_of(capsys)
    data = json.loads(out)
    assert data["valid"] is True
    assert data["basis_ok"] is False


def test_factorize_degenerate(capsys):
    assert run(["factorize", "tm", "--order", "5", "--j", "0", "--kind", "B", "--json"]) == 0
    out, _ = out_of(capsys)
    data = json.loads(out)
    assert data["degenerate"] is True
    assert data["factors"] == []


def test_verify_fib(capsys):
    assert run(["verify", "fib", "--max-order", "7"]) == 0
    out, _ = out_of(capsys)
    assert "claims passed" in out
    assert "FAIL" not in out


def test_verify_tm_json(capsys):
    assert run(["verify", "tm", "--max-order", "5", "--json"]) == 0
    out, _ = out_of(capsys)
    data = json.loads(out)
    assert all(entry["pass"] for entry in data["claims"].values())


def test_verify_onoc(capsys):
    assert run(["verify", "onoc", "--seed", "5", "--samples", "30", "--max-len", "10"]) == 0
    out, _ = out_of(capsys)
    assert "violations=0" in out


def test_verify_onoc_exhaustive(capsys):
    assert run(["verify", "onoc", "--exhaustive", "--max-len", "6"]) == 0
    out, _ = out_of(capsys)
    assert re.fullmatch(r"samples=126 tested=12 skipped=114 violations=0 in \d+\.\d\ds\n", out)


def test_verify_onoc_exhaustive_cap(monkeypatch, capsys):
    def never(*args):
        raise AssertionError(f"checked {args!r} despite the cap")

    monkeypatch.setattr(verifier, "check_onoc_containment", never)
    monkeypatch.setattr(verifier, "_containment_kernel", never)
    assert run(["verify", "onoc", "--exhaustive", "--max-len", "21"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and "21 > 20" in err


@pytest.mark.parametrize(
    "flags", [["--seed", "7"], ["--samples", "7"], ["--seed", "0", "--samples", "1"]]
)
def test_verify_onoc_exhaustive_refuses_sampling_flags(flags, monkeypatch, capsys):
    def never(*args):
        raise AssertionError(f"checked {args!r} despite the refusal")

    monkeypatch.setattr(verifier, "_containment_kernel", never)
    assert run(["verify", "onoc", "--exhaustive", "--max-len", "5", *flags, "--json"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and flags[0] in err and "--exhaustive" in err


@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_verify_onoc_exhaustive_refuses_max_len_below_1(max_len, monkeypatch, capsys):
    def never(*args):
        raise AssertionError(f"built {args!r} despite the refusal")

    monkeypatch.setattr(verifier, "_exhaustive_blocks", never)
    assert run(["verify", "onoc", "--exhaustive", "--max-len", max_len, "--json"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and f"max_len {max_len} < 1" in err


def test_verify_onoc_json_records_its_inputs(capsys):
    assert run(["verify", "onoc", "--seed", "5", "--samples", "30", "--max-len", "10", "--json"]) == 0
    sampled = json.loads(out_of(capsys)[0])
    assert (sampled["seed"], sampled["requested_samples"], sampled["samples"]) == (5, 30, 30)
    assert sampled["exhaustive"] is False and sampled["versions"] == VERSIONS
    # an exhaustive run draws no sample, so it records no seed or sample count
    assert run(["verify", "onoc", "--exhaustive", "--max-len", "5", "--json"]) == 0
    exhaustive = json.loads(out_of(capsys)[0])
    assert exhaustive["seed"] is None and exhaustive["requested_samples"] is None
    assert exhaustive["exhaustive"] is True and exhaustive["samples"] == 2**6 - 2
    assert exhaustive["versions"] == VERSIONS


def test_verify_onoc_refuses_samples_above_the_cap_before_drawing_a_text(monkeypatch, capsys):
    def never(*args):
        raise AssertionError(f"drew {args!r} despite the cap")

    monkeypatch.setattr(verifier, "_sampled_blocks", never)
    above = verifier.SAMPLED_MAX_SAMPLES + 1
    assert run(["verify", "onoc", "--samples", str(above)]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith(f"error: verify_onoc_lemma_random: samples {above} not in") and err.count("\n") == 1


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


_SAMPLED_MAX_LEN = 32


def _recording(built, build):
    def wrapper(*args):
        built.append(args)
        return build(*args)

    return wrapper


@settings(max_examples=150, deadline=None)
@given(
    exhaustive=st.booleans(),
    seed=st.none() | st.integers(-5, 10**6),
    samples=st.none() | st.integers(-3, 40),
    max_len=st.none() | st.integers(-3, 10) | st.integers(verifier.EXHAUSTIVE_MAX_LEN + 1, 10**9),
    as_json=st.booleans(),
)
def test_verify_onoc_argv_fuzz(exhaustive, seed, samples, max_len, as_json):
    argv = ["verify", "onoc"]
    for flag, value in (("--seed", seed), ("--samples", samples), ("--max-len", max_len)):
        if value is not None:
            argv += [flag, str(value)]
    argv += ["--exhaustive"] * exhaustive + ["--json"] * as_json
    cap = verifier.EXHAUSTIVE_MAX_LEN if exhaustive else _SAMPLED_MAX_LEN
    above_cap = max_len is not None and max_len > cap
    built = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_exhaustive_blocks", "_sampled_blocks"):
            mp.setattr(verifier, name, _recording(built, getattr(verifier, name)))
        code, out, err = _run_captured(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.startswith("error:"), argv
    elif as_json:
        data = json.loads(out)
        assert (data["seed"] is None) == exhaustive, argv
    below_floor = max_len is not None and max_len < (1 if exhaustive else 4)
    if above_cap or below_floor:
        assert code == 2 and not built, argv


def _first_refused_order(length):
    return next(k for k in range(1, 64) if length(k) > words.MAX_WORD_LEN)


_FIRST_REFUSED = {
    "fib": _first_refused_order(words.fib_length),
    "tm": _first_refused_order(words.tm_length),
}


# Orders are drawn from -3..12, whose words are cheap to build and scan, or
# above the words.MAX_WORD_LEN cap; the orders in between would launch huge
# runs.
@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["gen", "netocc"]),
    family=st.sampled_from(["fib", "tm"]),
    small_order=st.integers(-3, 12),
    excess=st.none() | st.integers(0, 10**9),
    engine=st.sampled_from([None, "oracle", "indexed"]),
    flag=st.booleans(),
)
def test_word_commands_argv_fuzz(command, family, small_order, excess, engine, flag):
    order = small_order if excess is None else _FIRST_REFUSED[family] + excess
    if command == "gen":
        argv = ["gen", family, "--order", str(order)] + ["--flip"] * flag
    else:
        argv = ["netocc", f"--{family}", str(order)] + ["--json"] * flag
        argv += [] if engine is None else ["--engine", engine]
    code, out, err = _run_captured(argv)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.startswith("error:") and "order" in err, argv
    assert code == (0 if 1 <= order <= 12 else 2), argv
    if code == 0 and command == "gen":
        word = fib_word(order) if family == "fib" else tm_word(order)
        assert out == (words.flip_word(word) if flag else word) + "\n"
    elif code == 0 and flag:
        json.loads(out)


def _without_wall_time(report: str) -> str:
    return re.sub(r"in \d+\.\d\ds$", "", report)


def test_verify_json_records_versions_and_order_times(capsys):
    for family, last in (("fib", 8), ("tm", 6)):
        argv = ["verify", family, "--max-order", str(last)]
        assert run(argv + ["--json"]) == 0
        data = json.loads(out_of(capsys)[0])
        assert data["versions"] == VERSIONS
        assert "workers" not in data
        assert list(data["order_wall_times"]) == [str(i) for i in range(data["orders"][0], last + 1)]
        claim_times = data["claim_wall_times"]
        assert list(claim_times) == list(data["claims"])
        assert all(t >= 0 for t in claim_times.values())
        for i, t in data["order_wall_times"].items():
            assert sum(v for k, v in claim_times.items() if k.startswith(f"order_{i}/")) == pytest.approx(t)
        assert run(argv) == 0
        *claims, summary = out_of(capsys)[0].splitlines()
        # the text report carries neither
        assert all(line.startswith("PASS ") for line in claims)
        assert re.fullmatch(r"\d+/\d+ claims passed in \d+\.\d\ds", summary)


def test_verify_ignores_netocc_threads(monkeypatch, capsys):
    monkeypatch.delenv("NETOCC_THREADS", raising=False)
    argv = ["verify", "fib", "--max-order", "8"]
    assert run(argv) == 0
    unset = _without_wall_time(out_of(capsys)[0])
    for value in ("notanumber", "4"):
        monkeypatch.setenv("NETOCC_THREADS", value)
        assert run(argv) == 0
        out, err = out_of(capsys)
        assert (_without_wall_time(out), err) == (unset, "")


def test_memory_error_exits_2(monkeypatch, capsys):
    def exhaust(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "gen", exhaust)
    assert run(["gen", "fib", "--order", "7"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


def test_verify_flag_domains(capsys):
    assert run(["verify", "fib"]) == 2  # --max-order required
    assert run(["verify", "fib", "--max-order", "7", "--seed", "1"]) == 2
    assert run(["verify", "tm", "--max-order", "5", "--exhaustive"]) == 2
    assert run(["verify", "onoc", "--max-order", "5"]) == 2


def test_onoc_check_complete(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text(FIB7 + "\n")
    assert run(["onoc-check", "--text", str(path), "--cover", "1,6;6,11;9,13"]) == 0
    out, _ = out_of(capsys)
    assert "complete: true" in out


def test_onoc_check_invalid_cover(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text(FIB7 + "\n")
    assert run(["onoc-check", "--text", str(path), "--cover", "1,6;9,13"]) == 1
    out, _ = out_of(capsys)
    assert "cover_valid: false" in out


def test_onoc_check_flags_outside_net_occurrence(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("abbabbabbbabba\n")
    code = run(
        ["onoc-check", "--text", str(path), "--cover", "1,6;4,9;9,14", "--json"]
    )
    assert code == 1
    out, _ = out_of(capsys)
    data = json.loads(out)
    assert data["cover_valid"] is True
    assert data["offending_supers"] == [[2, 7]]
    assert data["complete"] is False


def test_onoc_check_cover_syntax_errors(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text(FIB7 + "\n")
    assert run(["onoc-check", "--text", str(path), "--cover", "1;6"]) == 2
    assert run(["onoc-check", "--text", str(path), "--cover", "a,b"]) == 2


def test_onoc_check_refuses_a_cover_argparse_reads_as_empty(tmp_path):
    # argparse parses "--cover=--" as an empty list, not as a string
    path = tmp_path / "w.txt"
    path.write_text(FIB7 + "\n")
    argv = ["onoc-check", "--text", str(path), "--cover=--"]
    code, out, err = _run_captured(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: argument --cover: expected one value") and err.count("\n") == 1


# A valid argv for each command, from which each option is dropped in turn.
_BASE_ARGV = {
    "gen": ["gen", "fib", "--order", "7"],
    "netocc": ["netocc", "--fib", "7"],
    "occ-sets": ["occ-sets", "fib", "--order", "7", "--j", "1"],
    "factorize": ["factorize", "tm", "--order", "5", "--j", "1", "--kind", "A"],
    "verify": ["verify", "fib", "--max-order", "7"],
    "onoc-check": ["onoc-check", "--text", "w.txt", "--cover", "1,2"],
}


def _value_options():
    """(command, option) for every option of every command that takes a value."""
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[0])
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.option_strings and action.nargs != 0
    ]


def _without(argv, option):
    """``argv`` without ``option`` and the value after it."""
    if option not in argv:
        return argv
    k = argv.index(option)
    return argv[:k] + argv[k + 2 :]


@pytest.mark.parametrize("command, option", _value_options())
def test_every_option_refuses_a_value_argparse_reads_as_empty(command, option):
    argv = _without(_BASE_ARGV[command], option)
    if command == "netocc" and option in ("--text", "--tm"):  # one source at a time
        argv = _without(argv, "--fib")
    code, out, err = _run_captured(argv + [f"{option}=--"])
    assert (code, out, err) == (2, "", f"error: argument {option}: expected one value, got none\n")


def test_onoc_check_missing_file(tmp_path, capsys):
    assert run(["onoc-check", "--text", str(tmp_path / "nope.txt"), "--cover", "1,2"]) == 2


def test_unknown_command(capsys):
    assert run(["frobnicate"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "netoccs", "gen", "fib", "--order", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == FIB7 + "\n"


def test_module_entry_point_refuses_huge_order_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "netoccs", "gen", "fib", "--order", "1500"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("family", ["fib", "tm"])
def test_verify_refuses_orders_above_the_generator_caps(family, monkeypatch, capsys):
    def never(i):
        raise AssertionError(f"ran order {i} despite the cap")

    monkeypatch.setattr(verifier, "_fib_claims", never)
    monkeypatch.setattr(verifier, "_tm_claims", never)
    verify_cap = verifier.VERIFY_FIB_MAX_ORDER if family == "fib" else verifier.VERIFY_TM_MAX_ORDER
    assert verify_cap < _FIRST_REFUSED[family]
    for order in (verify_cap + 1, _FIRST_REFUSED[family]):
        assert run(["verify", family, "--max-order", str(order), "--json"]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error:") and f"max_order {order} not in" in err



def _assert_clean_exit(argv, code, out, err, as_json):
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, argv
    elif as_json:
        json.loads(out)


# Orders are drawn from -3..12 or above the words.MAX_WORD_LEN cap, as in
# test_word_commands_argv_fuzz; offsets are counted from 0 or down from the
# order, so above the cap they reach into the recurrences' domains.
_ORDER_ARGS = dict(
    small_order=st.integers(-3, 12),
    excess=st.none() | st.integers(0, 10**9),
    offset=st.integers(-3, 15),
    from_top=st.booleans(),
    as_json=st.booleans(),
)


def _order_and_offset(family, small_order, excess, offset, from_top):
    order = small_order if excess is None else _FIRST_REFUSED[family] + excess
    return order, order - offset if from_top else offset


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["fib", "tm"]), **_ORDER_ARGS)
def test_occ_sets_argv_fuzz(family, small_order, excess, offset, from_top, as_json):
    order, j = _order_and_offset(family, small_order, excess, offset, from_top)
    argv = ["occ-sets", family, "--order", str(order), "--j", str(j)] + ["--json"] * as_json
    code, out, err = _run_captured(argv)
    _assert_clean_exit(argv, code, out, err, as_json)
    lowest, gap = (6, 4) if family == "fib" else (2, 2)
    in_domain = excess is None and order >= lowest and 0 <= j <= order - gap
    assert code == (0 if in_domain else 2), argv


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["A", "B"]), **_ORDER_ARGS)
def test_factorize_argv_fuzz(kind, small_order, excess, offset, from_top, as_json):
    order, j = _order_and_offset("tm", small_order, excess, offset, from_top)
    argv = ["factorize", "tm", "--order", str(order), "--j", str(j), "--kind", kind]
    argv += ["--json"] * as_json
    code, out, err = _run_captured(argv)
    _assert_clean_exit(argv, code, out, err, as_json)
    in_domain = excess is None and order >= 2 and 0 <= j <= order - 1
    assert code == (0 if in_domain else 2), argv


_PAIRS = st.lists(st.tuples(st.integers(-2, 14), st.integers(-2, 14)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    text=st.none() | st.text(alphabet="ab", max_size=12) | st.text(alphabet="abc\n", max_size=6),
    cover=_PAIRS.map(lambda pairs: (pairs, ";".join(f"{s},{e}" for s, e in pairs)))
    | st.text(alphabet="0123456789,; -x", max_size=10).map(lambda raw: (None, raw)),
    as_json=st.booleans(),
)
def test_onoc_check_argv_fuzz(tmp_path_factory, text, cover, as_json):
    path = tmp_path_factory.mktemp("onoc") / "w.txt"
    if text is not None:  # None: the file is missing
        path.write_text(text)
    pairs, raw = cover
    argv = ["onoc-check", "--text", str(path), f"--cover={raw}"] + ["--json"] * as_json
    code, out, err = _run_captured(argv)
    _assert_clean_exit(argv, code, out, err, as_json)
    if text is None or not re.fullmatch(r"[ab]+\n?", text):
        assert code == 2, argv
    elif pairs and all(1 <= s <= e for s, e in pairs):
        assert code in (0, 1), argv
    if code != 2 and as_json:
        assert json.loads(out)["complete"] == (code == 0), argv


def _output_corpus():
    """The argv lists whose output the digest below pins: every offset of
    the small orders of occ-sets and factorize, domain errors included, in
    both modes, the verify misuse errors and a tiny exhaustive ONOC run."""
    modes = ([], ["--json"])
    for family, orders in (("fib", range(5, 11)), ("tm", range(1, 11))):
        for i, mode in product(orders, modes):
            for j in range(-1, i + 1):
                yield ["occ-sets", family, "--order", str(i), "--j", str(j)] + mode
    for i, mode in product(range(1, 9), modes):
        for j, kind in product(range(-1, i + 1), "AB"):
            yield ["factorize", "tm", "--order", str(i), "--j", str(j), "--kind", kind] + mode
    yield ["verify", "fib"]
    yield ["verify", "fib", "--max-order", "7", "--seed", "1"]
    yield ["verify", "tm", "--max-order", "5", "--exhaustive"]
    yield ["verify", "onoc", "--max-order", "5"]
    yield ["verify", "onoc", "--exhaustive", "--seed", "1"]
    yield ["verify", "onoc", "--exhaustive", "--max-len", "6"]


# SHA-256 over (argv, exit code, stdout, stderr) of every _output_corpus run,
# with the run time cut from verify's text lines.
_OUTPUT_CORPUS_DIGEST = "b6613e6de2b68bb88a3e249be590a32eb9830354dea867d2098c8f343333f7c9"


def test_cli_output_matches_the_recorded_digest():
    digest = hashlib.sha256()
    for argv in _output_corpus():
        code, out, err = _run_captured(argv)
        if argv[0] == "verify":
            out = re.sub(r" in \d+\.\d\ds$", "", out, flags=re.MULTILINE)
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    assert digest.hexdigest() == _OUTPUT_CORPUS_DIGEST


_CAP_PROBE = """
import contextlib, io, sys, tracemalloc
from netoccs import cli, words
argv = sys.argv[1:]
word = (words.fib_word if argv[1] == "fib" else words.tm_word)(int(argv[3]))
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(argv)
print(code, len(word), tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["occ-sets", "fib", "--order", "36", "--j", "2"],
        ["occ-sets", "tm", "--order", "25", "--j", "0"],
        ["factorize", "tm", "--order", "25", "--j", "0", "--kind", "A"],
    ],
)
def test_one_offset_at_the_order_cap_holds_a_few_word_lengths(argv):
    # A lone scan builds its masks only up to its target and drops each one it
    # no longer reads: at the cap the whole table would hold 36 to 50 masks of
    # the word's length, where these commands peak under 8 (in a fresh process,
    # with the words built before tracing starts).
    proc = subprocess.run([sys.executable, "-c", _CAP_PROBE, *argv], capture_output=True, text=True, check=True)
    code, length, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 8 * length, (peak, length)
