"""Regenerate ``reference.json``: the sha256 of the metrics CSV for every
benchmark configuration, protocol and seed in ``SEEDS``.

    python3 perfbench/make_reference.py

Run it only when a change alters the metrics CSV bytes on purpose. A run
whose invariants fail is not stored; the script exits 1 instead.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace

import workloads  # first: puts the checkout's src/ on sys.path
import wbansim.engine
from wbansim.io import write_metrics_csv
from workloads import WORKDIR

SEEDS = range(0, 64)


def main() -> int:
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / "reference.csv"
    table: dict = {}
    for config, make in workloads.CONFIGS.items():
        for protocol in workloads.PROTOCOLS:
            for seed in SEEDS:
                cfg = replace(make(), protocol=protocol, seed=seed)
                result = wbansim.engine.run_simulation(cfg)
                write_metrics_csv(result.metrics, path)
                data = path.read_bytes()
                problems = workloads.result_problems(result, cfg)
                problems += workloads.csv_problems(data, {}, config, protocol, seed)
                if problems:
                    print(f"{config}/{protocol}/seed{seed}: {problems}", file=sys.stderr)
                    return 1
                table.setdefault(config, {}).setdefault(protocol, {})[str(seed)] = \
                    hashlib.sha256(data).hexdigest()
            print(f"{config}/{protocol}: {len(SEEDS)} seeds", file=sys.stderr)
    payload = {"note": "sha256 of write_metrics_csv output per (config, protocol, seed)",
               "sha256": table}
    workloads.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
