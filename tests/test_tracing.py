"""The benchmark tracer's patch targets still exist in the package.

``perfbench/tracing.py`` patches functions by module and attribute name and
skips a missing one silently, so a rename would quietly zero a per-layer
metric.  These tests import the tracer as it is and check every entry of
its PATCHES table against the package.
"""

import ast
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# entries the package no longer defines; the tracer is due to drop them
KNOWN_MISSING = {("trainer", "predict_batch"), ("metrics", "dense_counts")}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _load_tracing().PATCHES


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _ids(entry) -> str:
    return f"{_short(entry[0])}.{entry[1]}"


def _keys_read(count) -> set[str]:
    """The argument names a count function looks up in its first
    parameter, the mapping of bound arguments: string subscripts, and
    subscripts by a variable of the enclosing function."""
    arguments = next(iter(inspect.signature(count).parameters))
    free = inspect.getclosurevars(count).nonlocals
    tree = ast.parse(textwrap.dedent(inspect.getsource(count)))
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                and node.value.id == arguments:
            if isinstance(node.slice, ast.Constant):
                keys.add(node.slice.value)
            elif isinstance(node.slice, ast.Name):
                keys.add(free[node.slice.id])
    return keys


@pytest.mark.parametrize("entry", PATCHES, ids=_ids)
def test_every_patch_target_resolves(entry):
    module, attr = entry[0], entry[1]
    resolves = callable(getattr(module, attr, None))
    if (_short(module), attr) in KNOWN_MISSING:
        assert not resolves, f"{_ids(entry)} exists again: take it off KNOWN_MISSING"
    else:
        assert resolves, f"the tracer patches {_ids(entry)}, which no longer exists"


COUNTED = [e for e in PATCHES if e[3] is not None and (_short(e[0]), e[1]) not in KNOWN_MISSING]


@pytest.mark.parametrize("entry", COUNTED, ids=_ids)
def test_count_functions_read_parameters_of_their_target(entry):
    module, attr, _, count = entry
    keys = _keys_read(count)
    assert keys, f"found no argument read by the count function of {_ids(entry)}"
    params = inspect.signature(getattr(module, attr)).parameters
    assert keys <= set(params), f"{_ids(entry)} has no parameter {sorted(keys - set(params))}"
