"""The benchmark's tracer (bench/tracing.py) wraps package functions by owner
and attribute name.  A renamed or removed target would otherwise surface
only as a KeyError in bench/selfcheck.py or as an "attribute missing"
warning in a traced run; here it fails at once."""

import importlib.util
import os
import sys

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
NAMES = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS] + list(tracing.COUNTED)


@pytest.mark.parametrize("owner, attr", NAMES,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in NAMES])
def test_traced_name_is_owned_where_the_tracer_looks(owner, attr):
    assert attr in owner.__dict__
