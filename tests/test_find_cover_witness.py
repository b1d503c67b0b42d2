"""The cover-witness search script: its output, its exit codes, and one
oracle run per text it scans."""

import importlib.util
import sys
from itertools import product
from pathlib import Path

import netoccs.onoc

SCRIPT_PATH = Path(__file__).resolve().parent.parent / "scripts" / "find_cover_witness.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("find_cover_witness", SCRIPT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(monkeypatch, *argv):
    """Run the script's main with argv; return its exit code and the texts
    the oracle was called on, from the script and from onoc alike."""
    script = _load_script()
    oracle = script.net_occurrences_bruteforce
    texts = []

    def counting(text):
        texts.append(text)
        return oracle(text)

    monkeypatch.setattr(script, "net_occurrences_bruteforce", counting)
    monkeypatch.setattr(netoccs.onoc, "net_occurrences_bruteforce", counting)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT_PATH), *argv])
    return script.main(), texts


def test_first_witness_runs_the_oracle_once_per_text(monkeypatch, capsys):
    code, texts = _run(monkeypatch, "--limit", "1")
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == (
        "aaaaabaaba  net: (1,4) (2,5) (4,7) (7,10)  cover: (1,4) (4,7) (7,10)  outside: (2,5)"
    )
    scanned = ["".join(t) for t in product("ab", repeat=10)]
    assert texts == scanned[: scanned.index("aaaaabaaba") + 1]


def test_empty_range_exits_1(monkeypatch, capsys):
    code, texts = _run(monkeypatch, "--min-len", "4", "--max-len", "6")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "no witness found in range" in captured.err
    assert texts == ["".join(t) for n in (4, 5, 6) for t in product("ab", repeat=n)]
