"""Route independence as a test.

The claims compare independent routes to the same facts, so no two routes
may share a code path: a fault in shared code could hide from both. The
manifest below names each route's functions, and the definitions that any
route may use. A comparison site, such as a claim stream or a test, calls
two routes to compare them; it is no route and is not listed.

``reach`` walks what a function can call through its module's globals:
every global name that its code reads, nested code objects included
(comprehensions, lambdas, inner functions), through ``lru_cache``'s
``__wrapped__``, and through the methods of a class. A route's walk stops at
the shared definitions; a shared definition's walk does not. A name that a
function imports inside its body is not followed.
"""

import ast
import importlib
import inspect
import types
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest

import reference

# Each route's functions, as module.name; module.* is every function and
# class the module defines. "reference" is tests/reference.py, every other
# module is in netoccs. A new route adds a row.
ROUTES = {
    "oracle": ["netfreq.net_occurrences_bruteforce", "occurrences.is_net_occurrence"],
    "indexed_engine": [
        "netfreq.net_occurrences_indexed",
        "netfreq.net_frequency",
        "netfreq.repeated_prefix_table",
        "netfreq.suffix_array",
        "netfreq.lcp_array",
    ],
    "containment_kernel": ["verifier._containment_kernel", "verifier._common_prefix_table"],
    "position_set_recurrences": [
        "fibonacci.theta_steps",
        "fibonacci.theta_set",
        "thue_morse.ab_steps",
        "thue_morse.ab_sets",
    ],
    "scans": [
        "occurrences.find_occurrences",
        "occurrences.occurrence_bits",
        "occurrences.runs_of",
        "fibonacci.theta_scans",
        "thue_morse.target_scans",
        "thue_morse.repetition_free",
    ],
    "literal_reference": ["reference.*"],
}

# The definitions every route may use. They must reach no route's code.
SHARED = [
    "occurrences.Occurrence",
    "netfreq.NetOccurrenceRecord",
    "occurrences.Step",
    "words.fib_word",
    "words.tm_word",
    "words.tm_flip_word",
    "words.flip_word",
    "words.fib_length",
    "words.fib_length_ext",
    "words.tm_length",
    "reports.ClaimResult",
    "onoc.*",
]


def _module(name):
    return reference if name == "reference" else importlib.import_module("netoccs." + name)


def _ours(value) -> bool:
    """A function or class of the package or of tests/reference.py."""
    module = str(getattr(value, "__module__", None)).split(".")[0]
    return callable(value) and module in ("netoccs", reference.__name__)


def resolve(names) -> list:
    out = []
    for name in names:
        mod_name, attr = name.split(".")
        module = _module(mod_name)
        if attr == "*":
            out += [v for v in vars(module).values() if _ours(v) and v.__module__ == module.__name__]
        else:
            out.append(getattr(module, attr))
    return out


def label(obj) -> str:
    return f"{obj.__module__.removeprefix('netoccs.')}.{obj.__qualname__}"


def _codes(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def _named(obj) -> set:
    """The package's or the reference's functions and classes that obj's code names."""
    if isinstance(obj, type):
        members = [getattr(m, "__func__", m) for m in vars(obj).values()]
        members += [m.fget for m in vars(obj).values() if isinstance(m, property)]
        return set().union(*(_named(m) for m in members if inspect.isfunction(m)))
    func = getattr(obj, "__wrapped__", obj)
    names = {name for code in _codes(func.__code__) for name in code.co_names}
    return {value for value in map(func.__globals__.get, names) if _ours(value)}


def reach(roots, stop=frozenset()) -> set:
    """Every function and class the roots can call, the roots included; the
    walk does not enter ``stop``."""
    seen, todo = set(), list(roots)
    while todo:
        obj = todo.pop()
        if obj not in seen and obj not in stop:
            seen.add(obj)
            todo += _named(obj)
    return seen


@cache
def route_code() -> dict:
    shared = frozenset(resolve(SHARED))
    return {route: reach(resolve(names), shared) for route, names in ROUTES.items()}


def test_manifest_names_resolve_once():
    names = [name for row in ROUTES.values() for name in row] + SHARED
    assert len(names) == len(set(names))
    objs = resolve(names)
    assert all(_ours(obj) for obj in objs)
    assert len(objs) == len(set(objs))


def test_walk_follows_nested_code_and_lru_cache():
    words, occurrences = _module("words"), _module("occurrences")
    # fib_word reads _check_order only inside the lru_cache wrapper
    assert words._check_order in reach([words.fib_word])
    # the oracle probes only inside lambdas; theta_steps steps only in its generator
    assert occurrences.occurs_elsewhere in reach(resolve(["netfreq.net_occurrences_bruteforce"]))
    assert {words.fib_length, occurrences.Step} <= reach(resolve(["fibonacci.theta_steps"]))


@pytest.mark.parametrize("first,second", combinations(ROUTES, 2))
def test_routes_meet_only_in_shared_definitions(first, second):
    code = route_code()
    assert sorted(map(label, code[first] & code[second])) == []


@pytest.mark.parametrize("name", SHARED)
def test_shared_definitions_reach_no_route(name):
    offending = [
        f"{label(obj)} -> {label(hit)} ({route})"
        for obj in resolve([name])
        for route, code in route_code().items()
        for hit in reach([obj]) & code
    ]
    assert sorted(offending) == []


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse(Path(reference.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "netoccs"] == []
