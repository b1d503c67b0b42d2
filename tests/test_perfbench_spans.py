"""The traced benchmark run wraps package functions by name, with no
fallback. Every name it lists must resolve in the package, as
``module.attr`` or ``module.Class.method``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_groups():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


GROUPS = _load_groups()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_span_name_resolves_in_package(name):
    mod_name, *attrs = name.split(".")
    assert 1 <= len(attrs) <= 2, name
    obj = importlib.import_module("netoccs." + mod_name)
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj), name
