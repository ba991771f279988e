"""The benchmark's tracer wraps engine and CLI names by attribute; a refactor
that drops one breaks the traced benchmark. These checks keep that visible
in the main suite."""
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import wbansim.engine
from wbansim.config import PROTOCOLS, SimConfig

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


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_traced_run_counts_every_leaf_it_reaches(tracer, protocol):
    """A short run under the tracer counts the protocol's rules, the events
    draws and the path losses, so the benchmark's per-layer split is not
    emptied by a change that stops calling a wrapped name; and tracing
    leaves the run's table as it is."""
    cfg = replace(SimConfig(), protocol=protocol, rounds=200,
                  events=replace(SimConfig().events, lam=0.5))
    plain = wbansim.engine.run_simulation(cfg)
    with tracer.Tracer() as t:
        traced = wbansim.engine.run_simulation(cfg)
    layers = t.layer_metrics()
    rules = [name for name in tracer.LEAVES.values()
             if name.startswith(f"protocols.{protocol}_")]
    assert rules
    for name in rules + ["events.invert_poisson", "channel.path_loss"]:
        assert layers[f"{name}.calls"] > 0, name
    assert traced.metrics.tobytes() == plain.metrics.tobytes()


@pytest.mark.parametrize("protocol, rule, verdicts", [
    ("amhrp", "amhrp_select_forwarder", 43131),
    ("mattempt", "mattempt_next_hop", 10787),
])
def test_a_wrapper_on_the_rule_sees_every_verdict(protocol, rule, verdicts, monkeypatch):
    """The tracer counts a rule's calls by wrapping its engine name, so that
    name must carry every verdict of a run: a default seed-1 run asks for
    exactly this many."""
    calls = 0
    call = getattr(wbansim.engine, rule)

    def counted(*args):
        nonlocal calls
        calls += 1
        return call(*args)

    monkeypatch.setattr(wbansim.engine, rule, counted)
    wbansim.engine.run_simulation(replace(SimConfig(), protocol=protocol, seed=1))
    assert calls == verdicts
