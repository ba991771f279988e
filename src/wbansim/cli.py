"""Command-line front end.

    wbansim simulate --config exp.ini --protocol amhrp --seed 1 --out results/
    wbansim sweep --protocols amhrp,mattempt,simple --seeds 1..10 --out results/
    wbansim compare --in results/
    wbansim plots --in results/
    wbansim --dump-layout

Exit codes: 0 success, 1 configuration or usage error, 2 I/O error (or a
sweep worker process that ended abruptly).
"""
from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .config import PROTOCOLS, ConfigError, SimConfig, load_config, validate_config
from .core import format_layout
from .engine import run_simulation
from .io import (ResultFileError, compare_runs, emit_plot_series, median_series,
                 read_metrics_csv, read_summary_json, render_comparison,
                 write_comparison, write_metrics_csv, write_summary_json)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


def _parse_seeds(spec: str) -> list[int]:
    """Accept '1..10' ranges (inclusive) and comma lists like '1,2,5'."""
    seeds: list[int] = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if ".." in part:
                lo, hi = part.split("..", 1)
                seeds.extend(range(int(lo), int(hi) + 1))
            else:
                seeds.append(int(part))
    except ValueError:
        raise ValueError(f"--seeds: {spec!r} is not a list like '1..10' or '1,2,5'") from None
    if not seeds:
        raise ValueError(f"--seeds: no seeds in {spec!r}")
    return seeds


def _base_config(args) -> SimConfig:
    return load_config(args.config) if args.config else SimConfig()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset`` limits it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_one(cfg: SimConfig, out: Path) -> None:
    result = run_simulation(cfg)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.protocol}_seed{cfg.seed}"
    write_metrics_csv(result.metrics, out / f"metrics_{stem}.csv")
    write_summary_json(result.summary, out / f"summary_{stem}.json")


def cmd_simulate(args) -> int:
    cfg = _base_config(args)
    protocol = args.protocol or cfg.protocol
    seed = args.seed if args.seed is not None else cfg.seed
    out = Path(args.out or cfg.out_dir)
    _run_one(replace(cfg, protocol=protocol, seed=seed), out)
    print(f"wrote metrics_{protocol}_seed{seed}.csv to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _base_config(args)
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if not protocols:
        raise ValueError(f"--protocols: no protocols in {args.protocols!r}")
    seeds = _parse_seeds(args.seeds)
    out = Path(args.out or cfg.out_dir)
    # The whole grid is checked before the first run writes a file. A repeated
    # protocol or seed would rewrite the same files, so each pair runs once.
    pairs = dict.fromkeys((p, s) for p in protocols for s in seeds)
    grid = [replace(cfg, protocol=p, seed=s) for p, s in pairs]
    for run_cfg in grid:
        validate_config(run_cfg)
    out.mkdir(parents=True, exist_ok=True)
    # Imported here, so that ``import wbansim.cli``, which every command pays
    # for at start-up, does not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # Each run is a pure function of its config and writes its own two files,
    # so the workers share nothing and return nothing. Forked workers start
    # with numpy already imported. With fork the pool starts every worker
    # before its own thread, so no other Python thread runs at the fork.
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    with ProcessPoolExecutor(min(len(grid), _usable_cpus()), mp_context=context) as pool:
        try:
            for _ in pool.map(partial(_run_one, out=out), grid):
                pass
        except BrokenProcessPool:
            print("error: a simulation worker ended abruptly (killed, or out of memory)",
                  file=sys.stderr)
            return EXIT_IO
    print(f"ran {len(grid)} simulations into {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    in_dir = Path(args.in_dir)
    paths = sorted(in_dir.glob("summary_*.json"))
    if not paths:
        print(f"no summary_*.json files in {in_dir}", file=sys.stderr)
        return EXIT_IO
    summaries = [read_summary_json(p) for p in paths]
    try:
        report = compare_runs(summaries)
    except ResultFileError as exc:
        raise ResultFileError(f"{in_dir}: {exc}") from None
    write_comparison(report, in_dir)
    print(render_comparison(report), end="")
    return EXIT_OK


def cmd_plots(args) -> int:
    """Build the four plot series from a sweep directory.

    With several seeds per protocol the emitted curve is the per-round median
    across seeds, matching the comparison report's median convention.
    """
    in_dir = Path(args.in_dir)
    paths = sorted(in_dir.glob("metrics_*.csv"))
    if not paths:
        print(f"no metrics_*.csv files in {in_dir}", file=sys.stderr)
        return EXIT_IO
    name_pattern = re.compile(rf"metrics_({'|'.join(PROTOCOLS)})_seed[0-9]+\.csv")

    def protocol_of(p: Path) -> str:
        name = name_pattern.fullmatch(p.name)
        if name is None:
            raise ResultFileError(f"{p}: not a metrics_<protocol>_seed<int>.csv name "
                                  f"(protocols: {', '.join(PROTOCOLS)})")
        return name[1]

    runs = {}
    rounds = None
    # Sorted names keep each protocol's files together, in protocol order, so
    # each protocol is merged as soon as its files are read and its per-seed
    # tables dropped.
    for protocol, group in itertools.groupby(paths, key=protocol_of):
        tables = []
        for p in group:
            table = read_metrics_csv(p)
            # Every run has one row per round, so a file whose count differs is damaged.
            if rounds is None:
                rounds = len(table)
            elif len(table) != rounds:
                raise ResultFileError(
                    f"{p}: {len(table)} rounds, but {paths[0].name} has {rounds}")
            tables.append(table)
        runs[protocol] = median_series(tables)
    files = emit_plot_series(runs, in_dir)
    print("wrote " + ", ".join(f.name for f in files))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wbansim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dump-layout", action="store_true",
                        help="print the canonical on-body coordinate table and exit")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (defaults when omitted)")

    p_sim = sub.add_parser("simulate", parents=[common], help="run one simulation")
    p_sim.add_argument("--protocol", choices=PROTOCOLS)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", help="output directory (default: sim.out_dir)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run a protocol x seed grid")
    p_sweep.add_argument("--protocols", default=",".join(PROTOCOLS))
    p_sweep.add_argument("--seeds", default="1..10",
                         help="e.g. '1..10' or '1,2,5'")
    p_sweep.add_argument("--out", help="output directory (default: sim.out_dir)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="median comparison over a sweep directory")
    p_cmp.add_argument("--in", dest="in_dir", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_plots = sub.add_parser("plots", help="emit the four plot series files")
    p_plots.add_argument("--in", dest="in_dir", required=True)
    p_plots.set_defaults(func=cmd_plots)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, and 2 is the
        # I/O code here.
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    if args.dump_layout:
        print(format_layout(), end="")
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResultFileError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
