"""The benchmark names parts of the package with no fallback. The traced
run wraps package functions by name: every name it lists must resolve in
the package, as ``module.attr`` or ``module.Class.method``. The ``sweep``
workload expects every claim of the two sweeps by name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from netoccs.verifier import verify_fibonacci, verify_thue_morse

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GROUPS = _load("spans").GROUPS


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_span_name_resolves_in_package(name):
    mod_name, *attrs = name.split(".")
    assert 1 <= len(attrs) <= 2, name
    obj = importlib.import_module("netoccs." + mod_name)
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj), name


def test_sweep_claim_names_match_the_benchmark():
    rep = _load("rep")
    sweeps = ((verify_fibonacci, 7, 8, rep.FIB_CLAIMS), (verify_thue_morse, 5, 6, rep.TM_CLAIMS))
    for sweep, first, last, names in sweeps:
        claims = sweep(last).claims
        assert set(claims) == rep.expected_claims(first, last, names)
        for i in range(first, last + 1):  # each order's claims, in report order
            assert [key.split("/")[1] for key in claims if key.startswith(f"order_{i}/")] == list(names)
