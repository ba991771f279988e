"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
from dataclasses import replace
from pathlib import Path

import pytest

import workloads  # first: puts the checkout's src/ on sys.path
import wbansim.cli
import wbansim.engine
from calibration import SpeedProbe
from run import TIMINGS
from tracer import Tracer
from wbansim.config import SimConfig
from wbansim.io import write_metrics_csv
from workloads import ROOT

SMALL = replace(SimConfig(), rounds=200, seed=3)


def csv_bytes(result, path: Path) -> bytes:
    write_metrics_csv(result.metrics, path)
    return path.read_bytes()


def small_pipeline(out: Path) -> None:
    ini = workloads.write_ini(SMALL, out / "small.ini")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["sweep", "--config", str(ini), "--seeds", "1..2", "--out", str(out)],
                     ["compare", "--in", str(out)], ["plots", "--in", str(out)]):
            assert wbansim.cli.main(argv) == 0


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before = {m: dict(vars(m)) for m in (wbansim.engine, wbansim.cli)}
    with Tracer():
        assert wbansim.engine.run_simulation is not before[wbansim.engine]["run_simulation"]
        small_pipeline(tmp_path)
    with pytest.raises(RuntimeError), Tracer():
        raise RuntimeError("traced code failed")
    for module, attrs in before.items():
        after = vars(module)
        assert after.keys() == attrs.keys()
        assert all(after[k] is v for k, v in attrs.items())


def test_traced_and_untraced_runs_write_identical_csv_bytes(tmp_path):
    for protocol in workloads.PROTOCOLS:
        cfg = replace(SMALL, protocol=protocol)
        plain = csv_bytes(wbansim.engine.run_simulation(cfg), tmp_path / "plain.csv")
        with Tracer():
            traced = csv_bytes(wbansim.engine.run_simulation(cfg), tmp_path / "traced.csv")
        assert traced == plain


def test_tampered_csv_or_broken_invariant_is_a_failed_run(tmp_path):
    cfg = replace(SMALL, protocol="amhrp")
    result = wbansim.engine.run_simulation(cfg)
    data = csv_bytes(result, tmp_path / "m.csv")
    ref = {"default": {"amhrp": {str(cfg.seed): hashlib.sha256(data).hexdigest()}}}
    assert workloads.result_problems(result, cfg) == []
    assert workloads.csv_problems(data, ref, "default", "amhrp", cfg.seed) == []

    tampered = data.replace(b"\n1,", b"\n2,", 1)
    assert workloads.csv_problems(tampered, ref, "default", "amhrp", cfg.seed)
    assert workloads.csv_problems(b"round,alive\n" + data.split(b"\n", 1)[1], {},
                                  "default", "amhrp", cfg.seed)

    result.audit.drained_total += 1e-6
    assert workloads.result_problems(result, cfg)
    result.audit.drained_total -= 1e-6
    result.summary.packets_received_total = result.summary.packets_sent_total + 1
    assert workloads.result_problems(result, cfg)

    tally = workloads.Tally()
    ref["default"]["amhrp"][str(cfg.seed)] = "0" * 64
    workloads.run_in_memory(cfg, tmp_path, ref, "default", tally, SpeedProbe())
    assert (tally.runs, tally.failed) == (1, 1)
    assert "amhrp_run_s" not in tally.samples

    ini = workloads.write_ini(SMALL, tmp_path / "small.ini")
    bogus = {"default": {p: {"3": "0" * 64} for p in workloads.PROTOCOLS}}
    tally = workloads.Tally()
    workloads.run_pipeline(ini, range(3, 5), tmp_path, bogus, "default", tally,
                           SpeedProbe())
    assert (tally.runs, tally.failed) == (6, 3)
    assert "pipeline_s" not in tally.samples


def test_speed_probe_subtracts_itself_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        _, host, calibrated = probe.measure(sum, range(3_000_000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.kernels and host > 0 and calibrated > 0


def test_trace_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            for protocol in workloads.PROTOCOLS:
                wbansim.engine.run_simulation(replace(SMALL, protocol=protocol))
            small_pipeline(tmp_path)
        layers = tracer.layer_metrics()
        counts.append({k: v for k, v in layers.items()
                       if k.endswith((".calls", ".bytes", ".rounds", "ratio"))})
    assert counts[0] == counts[1]
    assert counts[0]["events.sample_reading.calls"] > 0
    assert counts[0]["protocols.mattempt_build_hopcounts.calls"] == 3 * SMALL.rounds


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    emitted = set(Tracer().layer_metrics()) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} == set(TIMINGS) | {"peak_rss_mb"}
