"""Workload definitions, the timed cycle and the per-run correctness checks.

Every workload is a closed loop in one process: one cycle runs each protocol
in memory on ``memory_seeds`` seeds, then the ``sweep`` + ``compare`` +
``plots`` pipeline through ``wbansim.cli.main`` on ``pipeline_seeds`` seeds,
and the next cycle starts only when the previous one has finished. Cycle
``i`` of a run with seed ``s`` takes the next seeds after those of cycle
``i - 1``, starting at ``s``, for each part separately.

The simulator is reached only through its public API, and always through the
module attribute (``wbansim.engine.run_simulation``, ``wbansim.cli.main``),
so that the tracer's wrappers see the benchmark's own calls as well. It is
imported from ``src/`` of the checkout this directory sits in, never from
an installed copy: without that source, importing this module fails.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"  # scratch output, ignored by git
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import wbansim  # noqa: E402

if not Path(wbansim.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"wbansim imported from {wbansim.__file__}, not from {SRC}")

import wbansim.cli  # noqa: E402
import wbansim.engine  # noqa: E402
from wbansim.config import SimConfig, render_config  # noqa: E402
from wbansim.io import write_metrics_csv  # noqa: E402

from calibration import SpeedProbe  # noqa: E402

PROTOCOLS = ("amhrp", "mattempt", "simple")

# The fixed metrics CSV header: part of the behaviour contract, so it is
# spelled out here rather than imported from the code under test.
CSV_HEADER = ("round,alive,sent,received,critical_received,"
              "total_residual_j,mean_residual_j,mean_path_loss_db,equilibrium_ok")

ENERGY_TOLERANCE_J = 1e-9
PLOT_FILES = ("lifetime.dat", "throughput.dat", "residual.dat", "pathloss.dat")
REFERENCE_PATH = BENCH / "reference.json"


def storm_config() -> SimConfig:
    """20x the default emergency rate plus 4 dB shadowing: about 391k
    reading draws per AMHRP run (30k by default) and a shadowing draw every
    round."""
    cfg = SimConfig()
    return replace(cfg, events=replace(cfg.events, lam=2.0),
                   channel=replace(cfg.channel, sigma_db=4.0))


# Reference fingerprints are keyed by configuration name, so workloads that
# share a configuration share its references.
CONFIGS = {"default": SimConfig, "storm": storm_config}


@dataclass(frozen=True)
class Workload:
    name: str
    config: str           # key into CONFIGS
    memory_seeds: int     # in-memory runs per protocol in each cycle
    pipeline_seeds: int   # seeds per protocol in each cycle's sweep

    def seeds(self, seed: int, cycle: int) -> tuple[range, range]:
        m, p = self.memory_seeds, self.pipeline_seeds
        return (range(seed + cycle * m, seed + (cycle + 1) * m),
                range(seed + cycle * p, seed + (cycle + 1) * p))


# Run time varies by up to 25% between seeds (the uniform placement decides
# how many nodes reach the sink directly), so every cycle runs each protocol
# in memory on two seeds: the median then rests on at least four seeds.
WORKLOADS = {w.name: w for w in (
    # Routing decisions and per-round bookkeeping dominate.
    Workload("protocols-default", "default", memory_seeds=2, pipeline_seeds=1),
    # Event and reading draws dominate; the network dies early.
    Workload("event-storm", "storm", memory_seeds=2, pipeline_seeds=1),
    # The CLI path a user types: engine plus CSV/JSON I/O and the plots merge.
    Workload("sweep-pipeline", "default", memory_seeds=2, pipeline_seeds=4),
)}


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    """{config: {protocol: {seed (str): sha256}}} from the committed file."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["sha256"]


def csv_problems(data: bytes, reference: dict, config: str, protocol: str,
                 seed: int) -> list[str]:
    """Header and fingerprint checks on one metrics CSV."""
    problems = []
    header = data.split(b"\n", 1)[0].decode("utf-8", "replace")
    if header != CSV_HEADER:
        problems.append(f"unexpected CSV header {header!r}")
    want = reference.get(config, {}).get(protocol, {}).get(str(seed))
    if want is not None and hashlib.sha256(data).hexdigest() != want:
        problems.append(f"metrics CSV sha256 differs from the reference "
                        f"for ({config}, {protocol}, seed {seed})")
    return problems


def result_problems(result, cfg: SimConfig) -> list[str]:
    """Invariants of one in-memory run: energy conservation and
    received <= sent."""
    problems = []
    s = result.summary
    gap = abs(cfg.node_count * cfg.initial_energy - s.final_total_residual
              - result.audit.drained_total)
    if not gap <= ENERGY_TOLERANCE_J:
        problems.append(f"energy not conserved: gap {gap:.3e} J")
    if s.packets_received_total > s.packets_sent_total:
        problems.append(f"received {s.packets_received_total} > "
                        f"sent {s.packets_sent_total}")
    return problems


def summary_problems(path: Path) -> list[str]:
    data = json.loads(path.read_text(encoding="utf-8"))
    if data["packets_received_total"] > data["packets_sent_total"]:
        return [f"{path.name}: received > sent"]
    return []


# ---------------------------------------------------------------------------
# The cycle
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Timings by metric name plus the failed/attempted run counts.

    ``samples`` holds calibrated seconds (see calibration.py) and
    ``host_samples`` the host seconds of the same timings."""
    samples: dict[str, list[float]] = field(default_factory=dict)
    host_samples: dict[str, list[float]] = field(default_factory=dict)
    runs: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, metric: str, host: float, calibrated: float) -> None:
        self.host_samples.setdefault(metric, []).append(host)
        self.samples.setdefault(metric, []).append(calibrated)

    def count(self, problems: list[str], label: str) -> None:
        self.runs += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def run_in_memory(cfg: SimConfig, workdir: Path, reference: dict, config: str,
                  tally: Tally, probe: SpeedProbe) -> None:
    """Time one ``run_simulation``, then check it outside the timed region."""
    label = f"{config}/{cfg.protocol}/seed{cfg.seed}"
    try:
        result, host, calibrated = probe.measure(wbansim.engine.run_simulation, cfg)
        path = workdir / "metrics.csv"
        write_metrics_csv(result.metrics, path)
        problems = result_problems(result, cfg)
        problems += csv_problems(path.read_bytes(), reference, config,
                                 cfg.protocol, cfg.seed)
    except Exception as exc:  # a crashing run is a failed run, not a crash
        tally.count([f"{type(exc).__name__}: {exc}"], label)
        return
    tally.count(problems, label)
    if not problems:
        tally.add(f"{cfg.protocol}_run_s", host, calibrated)


def run_pipeline(ini: Path, seeds: range, workdir: Path, reference: dict,
                 config: str, tally: Tally, probe: SpeedProbe) -> None:
    """Time sweep + compare + plots on a fresh directory, then check every
    CSV and summary it wrote."""
    out = Path(tempfile.mkdtemp(prefix="pipeline-", dir=workdir))
    argv = [["sweep", "--config", str(ini), "--protocols", ",".join(PROTOCOLS),
             "--seeds", f"{seeds.start}..{seeds.stop - 1}", "--out", str(out)],
            ["compare", "--in", str(out)],
            ["plots", "--in", str(out)]]

    def pipeline() -> list[int]:
        return [wbansim.cli.main(args) for args in argv]

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes, host, calibrated = probe.measure(pipeline)
        pipeline_problems = [f"wbansim {a[0]} exited {c}"
                             for a, c in zip(argv, codes) if c != 0]
        pipeline_problems += [f"{name} missing" for name in
                              ("comparison.txt", "comparison.json") + PLOT_FILES
                              if not (out / name).is_file()]
        clean = not pipeline_problems
        for protocol in PROTOCOLS:
            for seed in seeds:
                problems = list(pipeline_problems)
                csv = out / f"metrics_{protocol}_seed{seed}.csv"
                problems += csv_problems(csv.read_bytes(), reference, config,
                                         protocol, seed)
                problems += summary_problems(out / f"summary_{protocol}_seed{seed}.json")
                tally.count(problems, f"pipeline {config}/{protocol}/seed{seed}")
                clean = clean and not problems
    except Exception as exc:
        tally.count([f"{type(exc).__name__}: {exc}"], f"pipeline {config}")
        return
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if clean:
        tally.add("pipeline_s", host, calibrated)


def write_ini(cfg: SimConfig, path: Path) -> Path:
    path.write_text(render_config(cfg), encoding="utf-8")
    return path


def run_cycle(workload: Workload, seed: int, cycle: int, workdir: Path,
              reference: dict, tally: Tally, probe: SpeedProbe) -> None:
    memory, pipeline = workload.seeds(seed, cycle)
    base = CONFIGS[workload.config]()
    for s in memory:
        for protocol in PROTOCOLS:
            run_in_memory(replace(base, protocol=protocol, seed=s), workdir,
                          reference, workload.config, tally, probe)
    ini = write_ini(base, workdir / f"{workload.config}.ini")
    run_pipeline(ini, pipeline, workdir, reference, workload.config, tally, probe)


def warm_up(workload: Workload) -> None:
    """Short runs so that imports, caches and lazy set-up finish untimed."""
    cfg = replace(CONFIGS[workload.config](), rounds=300)
    for protocol in PROTOCOLS:
        wbansim.engine.run_simulation(replace(cfg, protocol=protocol))
