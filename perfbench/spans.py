"""Span recorder for the traced run, and the patches that feed it.

Spans are kept in memory as parallel arrays (name id, start, end, parent
index) and summarised after the timed region. The package itself is not
changed: ``install`` replaces public functions with timing wrappers in every
``netoccs`` module that holds them, so ``netfreq.net_occurrences_bruteforce``
and the copies of that name imported by ``onoc`` and ``verifier`` all go
through one wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Span name (module.attribute in the package) -> metric group.
GROUPS = {
    "netfreq.net_occurrences_bruteforce": "netfreq.oracle",
    "netfreq.net_occurrences_indexed": "netfreq.indexed",
    "netfreq.suffix_array": "netfreq.suffix_array",
    "netfreq.lcp_array": "netfreq.lcp_array",
    "occurrences.is_net_occurrence": "occurrences.is_net_occurrence",
    "occurrences.find_occurrences": "occurrences.find_occurrences",
    "onoc.prove_completeness": "onoc.prove_completeness",
    "onoc.greedy_onoc": "onoc.greedy_onoc",
    "onoc.is_onoc": "onoc.is_onoc",
    "verifier.verify_fibonacci": "verifier",
    "verifier.verify_thue_morse": "verifier",
    "verifier.verify_onoc_lemma_random": "verifier",
    "verifier.check_onoc_containment": "verifier.check_onoc_containment",
    "words.fib_word": "words.generate",
    "words.tm_word": "words.generate",
    "words.flip_word": "words.flip_word",
    "words.FactorRef.resolve": "words.resolve",
    "fibonacci.theta_set": "fibonacci.theta_set",
    "fibonacci.check_fib_identities": "fibonacci.identities_lemmas",
    "fibonacci.check_fib_lemmas": "fibonacci.identities_lemmas",
    "thue_morse.ab_sets": "thue_morse.ab_sets",
    "thue_morse.smallest_factorization": "thue_morse.factorization",
    "thue_morse.validate_smallest_factorization": "thue_morse.factorization",
    "thue_morse.factorization_basis_ok": "thue_morse.factorization",
    "thue_morse.factorization_boundary_ok": "thue_morse.factorization",
    "thue_morse.check_tm_identities": "thue_morse.identities",
}


class Recorder:
    """Spans held in memory, plus counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = -1
        self.counts: Counter[str] = Counter()
        self.oracle_texts: set[str] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._open = i
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open = self.parent[i]

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span directly (for building trees by hand)."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1


def self_times(rec: Recorder) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(rec.start, rec.end)]
    out = own[:]
    for i, p in enumerate(rec.parent):
        if p >= 0:
            out[p] -= own[i]
    return out


def summarize(rec: Recorder, groups: dict[str, str] = GROUPS) -> dict[str, dict[str, float]]:
    """Per group: ``calls``, ``s`` (time inside the group, nested calls of the
    same group counted once), ``self_s`` (time in the group's spans not
    covered by child spans) and ``in:<group>`` (the ``s`` part spent below a
    span of another group, e.g. oracle time inside ``prove_completeness``).

    Spans are stored in begin order, so a parent always precedes its
    children and one pass with an explicit path stack suffices.
    """
    span_group = [groups.get(n, n) for n in rec.names]
    selfs = self_times(rec)
    out: dict[str, dict[str, float]] = {}
    depth: dict[str, int] = {}  # groups with an open span on the path
    path: list[int] = []
    for i, nid in enumerate(rec.name):
        parent = rec.parent[i]
        while path and path[-1] != parent:
            closed = span_group[rec.name[path.pop()]]
            depth[closed] -= 1
            if not depth[closed]:
                del depth[closed]
        g = span_group[nid]
        stats = out.setdefault(g, Counter())
        stats["calls"] += 1
        stats["self_s"] += selfs[i]
        if g not in depth:
            dur = rec.end[i] - rec.start[i]
            stats["s"] += dur
            for outer in depth:
                stats["in:" + outer] += dur
        depth[g] = depth.get(g, 0) + 1
        path.append(i)
    return {g: dict(s) for g, s in out.items()}


def call_tree(rec: Recorder) -> dict[str, dict[str, float]]:
    """Spans aggregated by call path ("a > b > c"): calls, total and self
    seconds. This is what a traced run writes out."""
    selfs = self_times(rec)
    paths: list[str] = []
    out: dict[str, dict[str, float]] = {}
    for i, nid in enumerate(rec.name):
        p = rec.parent[i]
        key = rec.names[nid] if p < 0 else paths[p] + " > " + rec.names[nid]
        paths.append(key)
        node = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
        node["calls"] += 1
        node["s"] += rec.end[i] - rec.start[i]
        node["self_s"] += selfs[i]
    return out


def _wrap(fn, name: str, rec: Recorder, count=None):
    nid = rec.name_id(name)

    def traced(*args, **kwargs):
        i = rec.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(i)
        if count is not None:
            count(rec, args, result)
        return result

    return functools.update_wrapper(traced, fn)


def _count_oracle(rec: Recorder, args, result) -> None:
    rec.counts["oracle.letters"] += len(args[0])
    rec.oracle_texts.add(args[0])


def _count_indexed(rec: Recorder, args, result) -> None:
    rec.counts["indexed.records"] += len(result)


_COUNTERS = {
    "netfreq.net_occurrences_bruteforce": _count_oracle,
    "netfreq.net_occurrences_indexed": _count_indexed,
}


def install(rec: Recorder) -> None:
    """Wrap every traced function of the imported package, in every
    package module that holds it. Spans are recorded for one thread: every
    workload runs with one worker, so no span is lost in a pool process."""
    modules = [m for n, m in list(sys.modules.items()) if n == "netoccs" or n.startswith("netoccs.")]
    for name in GROUPS:
        mod_name, attr = name.split(".", 1)
        if attr == "FactorRef.resolve":
            cls = sys.modules["netoccs.words"].FactorRef
            cls.resolve = _wrap(cls.resolve, name, rec)
            continue
        orig = getattr(sys.modules["netoccs." + mod_name], attr)
        traced = _wrap(orig, name, rec, _COUNTERS.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
