"""Command-line front end.

    wbansim simulate --config exp.ini --protocol amhrp --seed 1 --out results/
    wbansim sweep --protocols amhrp,mattempt,simple --seeds 1..10 --out results/
    wbansim compare --in results/
    wbansim plots --in results/
    wbansim --dump-layout

``compare`` and ``plots`` read a results directory by one rule: they take
only the file names ``simulate`` and ``sweep`` write, and of those only the
seeds that every protocol in the directory ran.

``sweep`` and ``plots`` run on worker processes, at most one per usable CPU
(``taskset`` limits them). ``plots`` reads and merges each protocol's CSVs
in a worker, which sends back only the four plotted series, then writes
each ``.dat`` file in a worker. It checks every file name before a worker
starts, and reports a failure as a serial read in path order would meet it,
before any ``.dat`` file is written.

Exit codes: 0 success, 1 configuration or usage error, 2 I/O error (or a
``sweep`` or ``plots`` worker process that ended abruptly).
"""
from __future__ import annotations

import argparse
import contextlib
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
from .io import (PLOT_FILES, ResultFileError, compare_runs, plot_series, read_metrics_csv,
                 read_summary_json, render_comparison, write_comparison, write_metrics_csv,
                 write_plot_file, write_summary_json)
# Not called here since ``plots`` writes each file in a worker, but the
# benchmark's tracer wraps the plot writer under this name.
from .io import emit_plot_series  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
# Seeds one sweep may name. The whole grid is built and validated before the
# first run: at this cap, the three protocols' 300000 configs took about
# 0.1 GB and 11 s on a 2-vCPU Xeon host before any simulation started.
MAX_SEEDS = 100_000


def _seed(text: str) -> int:
    """One seed of a --seeds spec, in ASCII digits as the result files'
    readers take them (int() also takes other scripts' digits and underscores)."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(text)
    return int(text)


def _parse_seeds(spec: str) -> list[int]:
    """Accept '1..10' ranges (inclusive) and comma lists like '1,2,5', naming
    at most ``MAX_SEEDS`` seeds (repeats counted) before any range is expanded.
    Empty parts, as in '1,,2', are skipped."""
    spans: list[tuple[int, int]] = []  # inclusive (first, last) per part
    try:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if ".." in part:
                lo, hi = part.split("..", 1)
                spans.append((_seed(lo), _seed(hi)))
            else:
                spans.append((_seed(part), _seed(part)))
    except ValueError:
        raise ValueError(f"--seeds: {spec!r} is not a list like '1..10' or '1,2,5'") from None
    count = sum(max(0, hi - lo + 1) for lo, hi in spans)
    if count > MAX_SEEDS:
        raise ValueError(f"--seeds: {spec!r} names {count} seeds, more than {MAX_SEEDS}")
    if not count:
        raise ValueError(f"--seeds: no seeds in {spec!r}")
    return [seed for lo, hi in spans for seed in range(lo, hi + 1)]


def _base_config(args) -> SimConfig:
    return load_config(args.config) if args.config else SimConfig()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset`` limits it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _worker_pool(tasks: int, kind: str):
    """A process pool of ``min(tasks, _usable_cpus())`` workers, forked
    where the platform can fork, so that they start with numpy already
    imported. A worker that ends abruptly is an OSError naming the
    ``kind`` of worker."""
    # Imported here, so that ``import wbansim.cli``, which every command pays
    # for at start-up, does not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # With fork the pool starts every worker before its own thread, so no
    # other Python thread runs at the fork.
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    with ProcessPoolExecutor(min(tasks, _usable_cpus()), mp_context=context) as pool:
        try:
            yield pool
        except BrokenProcessPool:
            raise OSError(f"a {kind} worker ended abruptly "
                          "(killed, or out of memory)") from None


def _make_out_dir(args, cfg: SimConfig) -> Path:
    """Make the output directory (``--out``, else ``sim.out_dir``) before any
    run starts, so that a bad one costs no run."""
    out = Path(args.out or cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:  # such as an embedded null byte
        raise ValueError(f"{'--out' if args.out else 'sim.out_dir'}: {exc}") from None
    return out


def _run_one(cfg: SimConfig, out: Path) -> None:
    """One run into ``out``, which exists."""
    result = run_simulation(cfg)
    stem = f"{cfg.protocol}_seed{cfg.seed}"
    write_metrics_csv(result.metrics, out / f"metrics_{stem}.csv")
    write_summary_json(result.summary, out / f"summary_{stem}.json")


def cmd_simulate(args) -> int:
    cfg = _base_config(args)
    protocol = args.protocol or cfg.protocol
    seed = args.seed if args.seed is not None else cfg.seed
    run_cfg = replace(cfg, protocol=protocol, seed=seed)
    validate_config(run_cfg)
    out = _make_out_dir(args, cfg)
    _run_one(run_cfg, out)
    print(f"wrote metrics_{protocol}_seed{seed}.csv to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _base_config(args)
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if not protocols:
        raise ValueError(f"--protocols: no protocols in {args.protocols!r}")
    seeds = _parse_seeds(args.seeds)
    # The whole grid is checked before the first run writes a file. A repeated
    # protocol or seed would rewrite the same files, so each pair runs once.
    pairs = dict.fromkeys((p, s) for p in protocols for s in seeds)
    grid = [replace(cfg, protocol=p, seed=s) for p, s in pairs]
    for run_cfg in grid:
        validate_config(run_cfg)
    out = _make_out_dir(args, cfg)
    # Each run is a pure function of its config and writes its own two files,
    # so the workers share nothing and return nothing.
    with _worker_pool(len(grid), "simulation") as pool:
        for _ in pool.map(partial(_run_one, out=out), grid):
            pass
    print(f"ran {len(grid)} simulations into {out}")
    return EXIT_OK


def _shared_runs(in_dir: Path, kind: str, suffix: str) -> dict[str, dict[int, Path]]:
    """The ``<kind>_<protocol>_seed<n><suffix>`` files in ``in_dir``, as
    ``_run_one`` names them, by protocol and then seed, in path order, keeping
    only the seeds every protocol there has. Another name with that prefix
    and suffix, or no shared seed, is a ``ResultFileError``."""
    paths = sorted(in_dir.glob(f"{kind}_*{suffix}"))
    if not paths:
        raise ResultFileError(f"no {kind}_*{suffix} files in {in_dir}")
    name_pattern = re.compile(
        rf"{kind}_({'|'.join(PROTOCOLS)})_seed(0|[1-9][0-9]*){re.escape(suffix)}")
    runs: dict[str, dict[int, Path]] = {}
    for p in paths:
        name = name_pattern.fullmatch(p.name)
        if name is None:
            raise ResultFileError(f"{p}: not a {kind}_<protocol>_seed<int>{suffix} name "
                                  f"(protocols: {', '.join(PROTOCOLS)}; no leading zeros)")
        runs.setdefault(name[1], {})[int(name[2])] = p
    shared = set.intersection(*map(set, runs.values()))
    if not shared:
        raise ResultFileError(f"{in_dir}: no seed is shared by all protocols")
    return {protocol: {seed: p for seed, p in files.items() if seed in shared}
            for protocol, files in runs.items()}


def cmd_compare(args) -> int:
    in_dir = Path(args.in_dir)
    summaries = []
    for protocol, files in _shared_runs(in_dir, "summary", ".json").items():
        for seed, p in files.items():
            summary = read_summary_json(p)
            if (summary.protocol, summary.seed) != (protocol, seed):
                raise ResultFileError(f"{p}: holds {summary.protocol!r} seed "
                                      f"{summary.seed}, not the run its name says")
            summaries.append(summary)
    try:
        report = compare_runs(summaries)
    except ResultFileError as exc:
        raise ResultFileError(f"{in_dir}: {exc}") from None
    write_comparison(report, in_dir)
    print(render_comparison(report), end="")
    return EXIT_OK


def _merge_seeds(paths: list[Path]) -> tuple[list[int], list | Exception | None]:
    """Read one protocol's CSVs in order and merge them. Returns each file's
    row count and their ``plot_series``; in place of the series, ``None``
    once a count differs from the first file's (for ``cmd_plots`` to
    report), or the error of a file that cannot be read. The files after
    that one are not read."""
    counts, tables = [], []
    for p in paths:
        try:
            table = read_metrics_csv(p)
        except (ValueError, OSError) as exc:
            return counts, exc
        counts.append(len(table))
        if len(table) != counts[0]:
            return counts, None
        tables.append(table)
    return counts, plot_series(tables)


def cmd_plots(args) -> int:
    """Build the four plot series from a sweep directory.

    With several seeds per protocol the emitted curve is the per-round median
    across seeds. Only the seeds every protocol ran enter it, as in
    ``compare``, so the curves and the comparison report are medians over
    the same runs.
    """
    in_dir = Path(args.in_dir)
    groups = {protocol: list(files.values())
              for protocol, files in _shared_runs(in_dir, "metrics", ".csv").items()}
    first = next(iter(groups.values()))[0]
    series = {}
    rounds = None
    with _worker_pool(max(len(groups), len(PLOT_FILES)), "plots") as pool:
        for (protocol, group), (counts, merged) in zip(
                groups.items(), pool.map(_merge_seeds, groups.values())):
            # Every run has one row per round, so a file whose count differs is damaged.
            for p, count in zip(group, counts):
                if rounds is None:
                    rounds = count
                elif count != rounds:
                    raise ResultFileError(
                        f"{p}: {count} rounds, but {first.name} has {rounds}")
            if isinstance(merged, Exception):
                raise merged
            series[protocol] = merged
        columns = [dict(zip(series, file_columns)) for file_columns in zip(*series.values())]
        files = list(pool.map(write_plot_file, PLOT_FILES, columns, itertools.repeat(in_dir)))
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
