"""Command-line front end.

    wbansim simulate --config exp.ini --protocol amhrp --seed 1 --out results/
    wbansim sweep --protocols amhrp,mattempt,simple --seeds 1..10 --out results/
    wbansim compare --in results/
    wbansim plots --in results/
    wbansim --dump-layout

Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, SimConfig, load_config, validate_config
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
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def _base_config(args) -> SimConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = SimConfig()
    if getattr(args, "stop_on_all_dead", False):
        cfg = replace(cfg, stop_on_all_dead=True)
    if getattr(args, "allow_unconstrained_weights", False):
        cfg = replace(cfg, allow_unconstrained_weights=True)
    return cfg


def _run_one(cfg: SimConfig, protocol: str, seed: int, out: Path) -> None:
    cfg = replace(cfg, protocol=protocol, seed=seed)
    validate_config(cfg)
    result = run_simulation(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result.metrics, out / f"metrics_{protocol}_seed{seed}.csv")
    write_summary_json(result.summary, out / f"summary_{protocol}_seed{seed}.json")


def cmd_simulate(args) -> int:
    cfg = _base_config(args)
    protocol = args.protocol or cfg.protocol
    seed = args.seed if args.seed is not None else cfg.seed
    out = Path(args.out or cfg.out_dir)
    _run_one(cfg, protocol, seed, out)
    print(f"wrote metrics_{protocol}_seed{seed}.csv to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _base_config(args)
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    seeds = _parse_seeds(args.seeds)
    out = Path(args.out or cfg.out_dir)
    for protocol in protocols:
        for seed in seeds:
            _run_one(cfg, protocol, seed, out)
    print(f"ran {len(protocols) * len(seeds)} simulations into {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    in_dir = Path(args.in_dir)
    paths = sorted(in_dir.glob("summary_*.json"))
    if not paths:
        print(f"no summary_*.json files in {in_dir}", file=sys.stderr)
        return EXIT_IO
    summaries = [read_summary_json(p) for p in paths]
    report = compare_runs(summaries)
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
    by_protocol: dict[str, list] = {}
    for p in paths:
        stem = p.stem  # metrics_<protocol>_seed<seed>
        parts = stem.split("_")
        protocol = "_".join(parts[1:-1])
        by_protocol.setdefault(protocol, []).append(read_metrics_csv(p))
    runs = {protocol: median_series(by_protocol[protocol]) for protocol in sorted(by_protocol)}
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
    common.add_argument("--stop-on-all-dead", action="store_true",
                        help="stop the round loop once every node is dead")
    common.add_argument("--allow-unconstrained-weights", action="store_true",
                        help="skip the x_w = 100*x_d and x_f < x_c < x_d checks")

    p_sim = sub.add_parser("simulate", parents=[common], help="run one simulation")
    p_sim.add_argument("--protocol", choices=("amhrp", "mattempt", "simple"))
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", help="output directory (default: sim.out_dir)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run a protocol x seed grid")
    p_sweep.add_argument("--protocols", default="amhrp,mattempt,simple")
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
    args = parser.parse_args(argv)
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
