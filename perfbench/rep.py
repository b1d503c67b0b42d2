"""One repetition of a benchmark workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/rep.py`` with a JSON job on stdin
(workload, sizes, seed, trace flag, expected answers) and ``NETOCC_THREADS``
in the environment; prints one JSON object. Every package cache starts
cold, as it does for each CLI call.

Only calls into the package are timed. Inputs are built before the timer
starts and outputs are checked after it stops.
"""

from __future__ import annotations

import json
import resource
import sys
import time

FIB_CLAIMS = (
    "theta_sets_match_oracle",
    "theta_step_clauses",
    "theta_counts_match_oracle",
    "identities",
    "lemmas",
    "net_occurrences_match_prediction",
    "prediction_is_onoc",
    "cover_complete",
    "engines_agree",
)
TM_CLAIMS = (
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
)


def expected_claims(first: int, last: int, names: tuple[str, ...]) -> set[str]:
    """Claim names a sweep over orders first..last must report, all passing."""
    return {f"order_{i}/{name}" for i in range(first, last + 1) for name in names}


def sweep(job, start_trace):
    """verify_fibonacci then verify_thue_morse; one operation per claim."""
    import netoccs

    sizes = job["sizes"]
    runs = (
        ("fib", "verify_fibonacci", sizes["fib_max"], expected_claims(7, sizes["fib_max"], FIB_CLAIMS)),
        ("tm", "verify_thue_morse", sizes["tm_max"], expected_claims(5, sizes["tm_max"], TM_CLAIMS)),
    )
    start_trace()  # look the functions up afterwards, so that traced runs call the wrappers
    phases, results = {}, {}
    for phase, verify, order, _ in runs:
        t0 = time.perf_counter()
        try:
            results[phase] = getattr(netoccs, verify)(order).claims
        except Exception as exc:  # a raising sweep fails every claim it owes
            print(f"{phase}: {exc!r}", file=sys.stderr)
            results[phase] = {}
        phases[phase] = time.perf_counter() - t0
    attempted = failed = 0
    for phase, _, _, expected in runs:
        got = results[phase]
        attempted += len(expected | got.keys())
        failed += sum(1 for name in expected if name not in got or not got[name].passed)
        failed += len(got.keys() - expected)
    return phases, attempted, failed


def onoc_exhaustive(job, start_trace):
    """The exhaustive ONOC containment sweep; one operation per text.

    The report carries only totals, so a disagreement in the number of
    texts, of covers or of violations counts that many failed texts.
    """
    import netoccs

    exp = job["expected"]
    start_trace()
    t0 = time.perf_counter()
    try:
        report = netoccs.verify_onoc_lemma_random(
            job["seed"], 1, job["sizes"]["onoc_len"], exhaustive=True
        )
    except Exception as exc:
        print(repr(exc), file=sys.stderr)
        report = None
    phases = {"all": time.perf_counter() - t0}
    attempted = exp["texts"]
    if report is None:
        return phases, attempted, attempted
    off = (
        abs(report.samples - exp["texts"])
        + abs(report.tested() - exp["covers"])
        + len(report.violations)
    )
    return phases, attempted, min(attempted, off)


def _rows(records):
    return [(r.occurrence.start, r.occurrence.end, r.left, r.right, r.substring) for r in records]


def _consistent(text, rows) -> bool:
    n = len(text)
    return all(
        sub == text[s - 1 : e]
        and left == (text[s - 2] if s > 1 else None)
        and right == (text[e] if e < n else None)
        for s, e, left, right, sub in rows
    )


def index(job, start_trace):
    """net_occurrences_indexed on three large texts, then on every text of
    length <= tiny_len; one operation per text."""
    import netoccs
    import reference

    sizes, exp = job["sizes"], job["expected"]
    fib, tm = sizes["fib_large"], sizes["tm_large"]
    large = [
        (netoccs.fib_word(fib), netoccs.predicted_fib_net_occurrences(fib)),
        (netoccs.tm_word(tm), netoccs.predicted_tm_net_occurrences(tm)),
        (reference.random_text(job["seed"], sizes["random_len"]), None),
    ]
    tiny = reference.all_texts(sizes["tiny_len"])
    start_trace()
    engine = netoccs.net_occurrences_indexed

    failed = 0
    large_s = 0.0
    for text, predicted in large:
        t0 = time.perf_counter()
        try:
            records = engine(text)
        except Exception as exc:
            print(repr(exc), file=sys.stderr)
            records = None
        large_s += time.perf_counter() - t0
        rows = None if records is None else _rows(records)
        if rows is None:
            ok = False
        elif predicted is None:
            ok = reference.combined_digest([reference.records_digest(rows)]) == exp["random"]
        else:
            ok = [(o.start, o.end) for o in predicted] == [r[:2] for r in rows]
            ok = ok and _consistent(text, rows)
        failed += not ok

    small_s = 0.0
    digests = []
    for text in tiny:
        t0 = time.perf_counter()
        try:
            records = engine(text)
        except Exception:
            records = None
        small_s += time.perf_counter() - t0
        digests.append(b"" if records is None else reference.records_digest(_rows(records)))
    if reference.combined_digest(digests) != exp["tiny"]:
        failed += sum(
            d != reference.records_digest(reference.net_occurrences(t))
            for t, d in zip(tiny, digests)
        )
    return {"large": large_s, "small": small_s}, len(large) + len(tiny), failed


WORKLOADS = {
    "sweep": sweep,
    "onoc-exhaustive": onoc_exhaustive,
    "index": index,
}


def layer_metrics(rec) -> dict[str, float]:
    """Per-layer metrics of a traced repetition (see README.md)."""
    from spans import summarize

    summary = summarize(rec)

    def get(group: str, key: str) -> float:
        return summary.get(group, {}).get(key, 0.0)

    oracle_calls = get("netfreq.oracle", "calls")
    oracle_s = get("netfreq.oracle", "s")
    texts = len(rec.oracle_texts)
    return {
        "netfreq.oracle.calls": oracle_calls,
        "netfreq.oracle.calls_per_text": oracle_calls / texts if texts else 0.0,
        "netfreq.oracle.self_s": get("netfreq.oracle", "self_s"),
        "netfreq.oracle.letters_per_s": rec.counts["oracle.letters"] / oracle_s if oracle_s else 0.0,
        "onoc.prove_completeness.calls": get("onoc.prove_completeness", "calls"),
        "onoc.prove_completeness.self_s": get("onoc.prove_completeness", "self_s"),
        "onoc.prove_completeness.oracle_s": get("netfreq.oracle", "in:onoc.prove_completeness"),
        "netfreq.suffix_array.s": get("netfreq.suffix_array", "s"),
        "netfreq.lcp_array.s": get("netfreq.lcp_array", "s"),
        "netfreq.indexed.self_s": get("netfreq.indexed", "self_s"),
        "netfreq.indexed.records": rec.counts["indexed.records"],
        "occurrences.is_net_occurrence.calls": get("occurrences.is_net_occurrence", "calls"),
        "occurrences.is_net_occurrence.s": get("occurrences.is_net_occurrence", "s"),
        "occurrences.find_occurrences.calls": get("occurrences.find_occurrences", "calls"),
        "occurrences.find_occurrences.s": get("occurrences.find_occurrences", "s"),
        "onoc.greedy_onoc.s": get("onoc.greedy_onoc", "s"),
        "onoc.is_onoc.s": get("onoc.is_onoc", "s"),
        "verifier.check_onoc_containment.self_s": get("verifier.check_onoc_containment", "self_s"),
        "words.generate.s": get("words.generate", "s"),
        "words.flip_word.calls": get("words.flip_word", "calls"),
        "words.resolve.calls": get("words.resolve", "calls"),
        "words.resolve.s": get("words.resolve", "s"),
        "fibonacci.theta_set.s": get("fibonacci.theta_set", "s"),
        "fibonacci.identities_lemmas.s": get("fibonacci.identities_lemmas", "s"),
        "thue_morse.ab_sets.s": get("thue_morse.ab_sets", "s"),
        "thue_morse.factorization.s": get("thue_morse.factorization", "s"),
        "thue_morse.identities.s": get("thue_morse.identities", "s"),
        "verifier.self_s": get("verifier", "self_s"),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    Linux carries ``ru_maxrss`` across exec, so in a process started by a
    large parent it can report the parent's peak; VmHWM starts afresh.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(job) -> dict:
    rec = None

    def start_trace():
        nonlocal rec
        if job["trace"]:
            from spans import Recorder, install

            rec = Recorder()
            install(rec)

    phases, attempted, failed = WORKLOADS[job["workload"]](job, start_trace)
    out = {
        "phases": phases,
        "verdict_s": sum(phases.values()),
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb(),
    }
    if rec is not None:
        from spans import call_tree

        out["layers"] = layer_metrics(rec)
        out["call_tree"] = call_tree(rec)
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin))))
