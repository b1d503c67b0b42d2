"""Time-to-verdict benchmark for netoccs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 42 --trace 0

Runs from the root of a source tree (``src/netoccs`` is put on
``PYTHONPATH``; nothing is installed). Each repetition runs the workload in
a fresh interpreter, so the package's caches start cold as they do for every
CLI call; repetitions start until the next one would end past ``--seconds``.

Stdout carries one JSON line with the run's parameters, one per repetition,
and, last, the result: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics (medians over the
repetitions). ``--trace 1`` alternates plain and traced repetitions, reports
the per-layer metrics, and writes the aggregated span tree to
``perfbench/out/``. Workloads, metrics and the reasons for them are in
README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from rep import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREADS = 1  # NETOCC_THREADS for every workload
SIZES = {
    "full": {"fib_max": 20, "tm_max": 14, "onoc_len": 14, "fib_large": 24,
             "tm_large": 17, "random_len": 65536, "tiny_len": 14},
    "smoke": {"fib_max": 10, "tm_max": 7, "onoc_len": 8, "fib_large": 10,
              "tm_large": 7, "random_len": 512, "tiny_len": 8},
}
END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}
TIME_LIMIT_S = 170  # a run must end within 180 s


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".records")):
        return "count"
    if name.endswith(".calls_per_text"):
        return "calls/text"
    if name.endswith(".letters_per_s"):
        return "letters/s"
    return "s"


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["NETOCC_THREADS"] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], env, stdin: str | None, deadline: float) -> str:
    """Run a child interpreter to completion; kill its process group if it
    outlives the deadline."""
    proc = subprocess.Popen(
        [sys.executable, *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[0]} did not finish before the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {proc.returncode}:\n{err[-3000:]}")
    return out.splitlines()[-1]


PROBE = (
    "import time\n"
    "import netoccs\n"
    "t = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "import json, numpy\n"
    "print(json.dumps({'t': t, 'file': netoccs.__file__, 'numpy': numpy.__version__,"
    " 'netoccs': netoccs.__version__}))\n"
)


def probe_setup(env, deadline: float) -> tuple[float, dict]:
    """Time from starting a fresh interpreter to ``import netoccs``
    returning, and what the probe reports about the imported package."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    probe = json.loads(run_child(["-c", PROBE], env, None, deadline))
    if SRC.resolve() not in Path(probe["file"]).resolve().parents:
        raise BenchError(f"netoccs was imported from {probe['file']}, not from {SRC}")
    return probe["t"] - t0, probe


def expected_answers(workload: str, sizes: dict, seed: int) -> dict:
    """Reference answers, from expected.json when stored for these sizes and
    this seed, otherwise computed by reference.py (before any timing)."""
    stored = json.loads((HERE / "expected.json").read_text())
    if workload == "onoc-exhaustive":
        n = sizes["onoc_len"]
        if str(n) in stored["onoc"]:
            return stored["onoc"][str(n)]
        texts, covers = reference.onoc_counts(n)
        return {"texts": texts, "covers": covers}
    if workload == "index":
        n, length = sizes["tiny_len"], sizes["random_len"]
        tiny = stored["tiny"].get(str(n)) or reference.tiny_digest(n)
        rand = stored["random"].get(f"{length}/{seed}") or reference.random_digest(seed, length)
        return {"tiny": tiny, "random": rand}
    return {}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """Digest of the package sources, which names the code under test even
    where there is no git commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "netoccs").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def median_layers(reps: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r["layers"][k] for r in reps) for k in reps[0]["layers"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input sizes; 'smoke' is for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "netoccs" / "__init__.py").is_file():
        print(f"run.py: no package sources at {SRC / 'netoccs'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    sizes = SIZES[args.size]
    env = child_env()
    try:
        _, probe = probe_setup(env, deadline)  # unmeasured: writes the bytecode caches
        job = {
            "workload": args.workload, "sizes": sizes, "seed": args.seed,
            "expected": expected_answers(args.workload, sizes, args.seed),
        }
        params = {
            "argv": [Path(sys.argv[0]).as_posix(), *(argv if argv is not None else sys.argv[1:])],
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "sizes": sizes,
            "NETOCC_THREADS": THREADS, "commit": git_commit(), "src_sha256": source_digest(),
            "python": platform.python_version(), "numpy": probe["numpy"],
            "netoccs": probe["netoccs"], "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        }
        print(json.dumps({"params": params}), flush=True)

        plain: list[dict] = []
        traced: list[dict] = []
        setups: list[float] = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            # One set-up probe per repetition samples the same machine
            # conditions as the repetitions do.
            setups.append(probe_setup(env, deadline)[0])
            trace_this = bool(args.trace) and len(traced) < len(plain)
            rep = json.loads(run_child([str(HERE / "rep.py")], env,
                                       json.dumps({**job, "trace": trace_this}), deadline))
            took = time.monotonic() - t0
            (traced if trace_this else plain).append(rep)
            print(json.dumps({"rep": len(plain) + len(traced), "traced": trace_this,
                              "verdict_s": rep["verdict_s"], "phases": rep["phases"],
                              "peak_rss_mb": rep["peak_rss_mb"]}), flush=True)
            now = time.monotonic()
            complete = plain and (traced or not args.trace)
            if complete and (now + took - start > args.seconds or now + took > deadline):
                break
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        values = median_layers(traced)
        plain_phases = {k: statistics.median(r["phases"][k] for r in plain) for k in plain[0]["phases"]}
        for phase in ("fib", "tm", "large", "small"):
            values[f"phase.{phase}_s"] = plain_phases.get(phase, 0.0)
        values["trace.overhead_s"] = (statistics.median(r["verdict_s"] for r in traced)
                                      - statistics.median(r["verdict_s"] for r in plain))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"params": params, "metrics": values, "call_tree": traced[-1]["call_tree"]}, indent=1))
    else:
        values = {
            "verdict_s": statistics.median(r["verdict_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_share": 1 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
