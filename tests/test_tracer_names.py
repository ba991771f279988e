"""The benchmark's tracer wraps engine and CLI names by attribute; a refactor
that drops one breaks the traced benchmark. These checks keep that visible
in the main suite."""
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Registered first: the module's dataclasses look it up while being built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_wrapped_name_exists(tracer):
    targets = list(tracer.SPANS) + list(tracer.LEAVES)
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr in targets
               if not hasattr(module, attr)]
    assert missing == []


def test_tracer_puts_every_name_back(tracer):
    targets = list(tracer.SPANS) + list(tracer.LEAVES)
    before = [getattr(module, attr) for module, attr in targets]
    with tracer.Tracer():
        pass
    assert all(getattr(module, attr) is obj
               for (module, attr), obj in zip(targets, before))
