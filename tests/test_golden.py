"""Byte-identity of the metrics CSV: the behaviour contract across refactors.

``golden.json`` holds the sha256 of the metrics CSV for each protocol on
seeds 1-3 of the default config and seed 1 of the storm config. A change
that alters these bytes on purpose regenerates the file and says so in
CHANGES.md.
"""
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from wbansim.config import SimConfig
from wbansim.engine import run_simulation
from wbansim.io import write_metrics_csv

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))["sha256"]
BENCHMARK_REFERENCE = HERE.parent / "perfbench" / "reference.json"


def storm_config() -> SimConfig:
    base = SimConfig()
    return replace(base, events=replace(base.events, lam=2.0),
                   channel=replace(base.channel, sigma_db=4.0))


CONFIGS = {"default": SimConfig, "storm": storm_config}
CASES = [(config, protocol, seed)
         for config, protocols in GOLDEN.items()
         for protocol, seeds in protocols.items()
         for seed in seeds]


def test_cases_cover_every_protocol_and_config():
    assert len(CASES) == 12
    assert {(c, p) for c, p, _ in CASES} == {
        (c, p) for c in CONFIGS for p in ("amhrp", "mattempt", "simple")}


@pytest.mark.parametrize("config,protocol,seed", CASES)
def test_metrics_csv_matches_golden(config, protocol, seed, tmp_path):
    cfg = replace(CONFIGS[config](), protocol=protocol, seed=int(seed))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(run_simulation(cfg).metrics, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[config][protocol][seed]


def test_golden_agrees_with_benchmark_reference():
    reference = json.loads(BENCHMARK_REFERENCE.read_text(encoding="utf-8"))["sha256"]
    for config, protocol, seed in CASES:
        assert GOLDEN[config][protocol][seed] == reference[config][protocol][seed]
