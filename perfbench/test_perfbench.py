"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import netoccs  # noqa: E402
import reference  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
from spans import Recorder, self_times, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    params = json.loads(lines[0])["params"]
    assert {"seed", "sizes", "NETOCC_THREADS", "python", "numpy", "netoccs", "nproc",
            "commit", "src_sha256"} <= params.keys()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace == "1":
        calls_per_text = result["metrics"]["netfreq.oracle.calls_per_text"]["value"]
        # The oracle is reached through names imported by onoc and verifier;
        # both must be wrapped for these counts.
        assert calls_per_text == {"sweep": 2.0, "onoc-exhaustive": 1.0}.get(workload, 0.0)
        assert (HERE / "out" / f"trace-{workload}-seed7.json").is_file()
    else:
        assert result["metrics"]["ok_share"]["value"] == 1.0


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def smoke_job(workload: str, seed: int = 7) -> dict:
    sizes = run.SIZES["smoke"]
    return {"workload": workload, "sizes": sizes, "seed": seed, "trace": False,
            "expected": run.expected_answers(workload, sizes, seed)}


def test_engine_dropping_one_record_fails_that_text(monkeypatch):
    engine = netoccs.net_occurrences_indexed
    # One text per kind of check: closed form, stored digest, tiny texts.
    damaged = {netoccs.fib_word(run.SIZES["smoke"]["fib_large"]),
               reference.random_text(7, run.SIZES["smoke"]["random_len"]), "abab"}

    def lossy(text):
        records = engine(text)
        return records[:-1] if text in damaged else records

    monkeypatch.setattr(netoccs, "net_occurrences_indexed", lossy)
    out = rep.run(smoke_job("index"))
    assert out["failed"] == 3
    assert 1 - out["failed"] / out["attempted"] < 1.0


def test_sweep_dropping_one_claim_fails_it(monkeypatch):
    verify = netoccs.verify_thue_morse

    def lossy(order):
        report = verify(order)
        report.claims.pop(f"order_{order}/cover_complete")
        return report

    monkeypatch.setattr(netoccs, "verify_thue_morse", lossy)
    assert rep.run(smoke_job("sweep"))["failed"] == 1


def hand_built_tree() -> Recorder:
    """verify [0, 10] > oracle [1, 6] > oracle [2, 3] (recursion), and
    verify > completeness [7, 9] > oracle [7.5, 8.5]."""
    rec = Recorder()
    root = rec.add("verifier.verify_fibonacci", 0.0, 10.0, -1)
    outer = rec.add("netfreq.net_occurrences_bruteforce", 1.0, 6.0, root)
    rec.add("netfreq.net_occurrences_bruteforce", 2.0, 3.0, outer)
    pc = rec.add("onoc.prove_completeness", 7.0, 9.0, root)
    rec.add("netfreq.net_occurrences_bruteforce", 7.5, 8.5, pc)
    return rec


def test_self_time_is_span_minus_children():
    assert self_times(hand_built_tree()) == [3.0, 4.0, 1.0, 1.0, 1.0]


def test_summary_counts_nested_calls_of_a_group_once():
    summary = summarize(hand_built_tree())
    oracle = summary["netfreq.oracle"]
    assert oracle["calls"] == 3
    assert oracle["s"] == 6.0  # 5 + 1; the recursive call lies inside the first
    assert oracle["self_s"] == 6.0
    assert oracle["in:onoc.prove_completeness"] == 1.0
    assert summary["verifier"] == {"calls": 1, "self_s": 3.0, "s": 10.0}


def test_reference_agrees_with_the_package_oracle():
    texts = reference.all_texts(8) + [reference.random_text(3, 512)]
    for text in texts:
        got = [(r.occurrence.start, r.occurrence.end, r.left, r.right, r.substring)
               for r in netoccs.net_occurrences_bruteforce(text)]
        assert reference.net_occurrences(text) == got, text


def test_stored_answers_match_the_reference():
    stored = json.loads((HERE / "expected.json").read_text())
    full = run.SIZES["full"]
    assert stored["tiny"][str(full["tiny_len"])] == reference.tiny_digest(full["tiny_len"])
    length = full["random_len"]
    assert stored["random"][f"{length}/5"] == reference.random_digest(5, length)
