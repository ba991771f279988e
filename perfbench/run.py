"""wbansim benchmark: host time per protocol run, CLI pipeline time, set-up
time and peak memory, with every run checked for correctness.

    python3 perfbench/run.py --workload protocols-default --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced. ``--trace 1``
prints the per-layer split from a separate traced cycle, bracketed by two
untraced cycles of the same inputs to give the tracing overhead. Each run
prints one metric per line, then the machine and versions, and last one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Details, including
every span of a traced run, go to ``.perfbench/`` at the repository root.

Times are host seconds rescaled to a reference machine speed, measured
during every sample (``calibration.py``); host-second medians are printed
beside them. Simulated statistics are checked, never timed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import workloads  # first: puts the checkout's src/ on sys.path
import wbansim
from calibration import SpeedProbe
from tracer import Tracer
from workloads import BENCH, ROOT, SRC, WORKDIR

SETUP_SAMPLES = 8
TIMINGS = ("setup_s", "amhrp_run_s", "mattempt_run_s", "simple_run_s", "pipeline_s")

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, {bench!r})
from calibration import REF_KERNEL_S, bracket, kernel
kernel()
before = bracket(10)
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import wbansim.cli
from wbansim.config import load_config
from wbansim.engine import run_simulation
run_simulation(load_config({ini!r}))
host = time.perf_counter() - t0
print(host, host * REF_KERNEL_S * 2 / (before + bracket(10)))
"""


def git_commit() -> str:
    """HEAD of the checkout's git directory, read directly; 'unknown' when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "wbansim": wbansim.__version__, "commit": git_commit()}


def summarize(values: list[float]) -> dict:
    """Median, interquartile distance and sample count."""
    iqr = 0.0
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"median": statistics.median(values), "iqr": iqr, "n": len(values)}


class SetupSampler:
    """Fresh interpreters that import wbansim.cli, load an INI file and run
    1 round. Samples are spread over the run, between cycles, so that they
    see the same machine phases as the cycles do."""

    def __init__(self, workload, seed: int, tally):
        cfg = replace(workloads.CONFIGS[workload.config](), seed=seed, rounds=1)
        ini = workloads.write_ini(cfg, WORKDIR / "setup.ini")
        self.code = SETUP_CHILD.format(bench=str(BENCH), src=str(SRC), ini=str(ini))
        self.tally = tally
        self.n = 0
        self._child()  # discarded: it may compile the bytecode cache

    def _child(self) -> tuple[float, float]:
        child = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT,
                               capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            sys.exit(f"perfbench: set-up child failed:\n{child.stderr}")
        host, calibrated = map(float, child.stdout.split()[-2:])
        return host, calibrated

    def catch_up(self, share: float) -> None:
        """Sample until ``1 + (SETUP_SAMPLES - 1) * share`` samples exist."""
        while self.n < 1 + (SETUP_SAMPLES - 1) * min(share, 1.0):
            self.tally.add("setup_s", *self._child())
            self.n += 1


def end_to_end(workload, seed, seconds, reference, tally, details):
    """Cycles 0, 1, ... until the next one would end more than half a cycle
    past ``seconds``, so that runs last ``seconds`` on average; at least one
    cycle runs."""
    setup = SetupSampler(workload, seed, tally)
    workloads.warm_up(workload)
    probe = SpeedProbe()
    start = time.perf_counter()
    i = 0
    while True:
        setup.catch_up((time.perf_counter() - start) / seconds)
        c0 = time.perf_counter()
        with probe:
            workloads.run_cycle(workload, seed, i, WORKDIR, reference, tally, probe)
        i += 1
        now = time.perf_counter()
        if now - start + (now - c0) / 2 > seconds:
            break
    setup.catch_up(1.0)

    metrics = {}
    for name in TIMINGS:
        if not tally.samples.get(name):
            sys.exit(f"perfbench: no successful sample of {name}")
        stats = summarize(tally.samples[name])
        stats["host_median"] = statistics.median(tally.host_samples[name])
        details[name] = stats
        metrics[name] = (stats["median"], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".rounds")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "s"


def per_layer(workload, seed, reference, tally, details):
    def cycle() -> float:
        """Calibrated seconds of one cycle of the run's first seed."""
        return probe.measure(workloads.run_cycle, workload, seed, 0, WORKDIR,
                          reference, tally, probe)[2]

    workloads.warm_up(workload)
    with SpeedProbe() as probe:
        untraced = [cycle()]
        with Tracer() as tracer:
            traced = cycle()
        untraced.append(cycle())
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = traced - statistics.fmean(untraced)
    details["cycle_s"] = {"traced": traced, "untraced": untraced}
    details["spans"] = [s.as_dict() for s in tracer.all_spans()]
    return {name: (value, layer_unit(name)) for name, value in layers.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    tally = workloads.Tally()
    details: dict = {}
    if args.trace:
        metrics = per_layer(workload, args.seed, reference, tally, details)
    else:
        metrics = end_to_end(workload, args.seed, args.seconds, reference,
                             tally, details)

    machine = machine_info()
    for name, (value, unit) in metrics.items():
        stats = details.get(name)
        extra = (f"  (median of {stats['n']}, IQR {stats['iqr']:.4g}, "
                 f"host median {stats['host_median']:.6g} s)") if stats else ""
        print(f"{name:<52} {value:.6g} {unit}{extra}")
    print(f"failed_runs {tally.failed} of runs {tally.runs}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": machine, "runs": tally.runs, "failed_runs": tally.failed,
              "problems": tally.problems, "details": details,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out = WORKDIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.runs,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
