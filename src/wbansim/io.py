"""Metric serialization: per-round CSV, plot series files, comparison report.

All numeric fields are written with full round-trip precision (repr), lines
end with LF, and every file ends with a trailing newline, so identical runs
produce byte-identical files.
"""
from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path

from .engine import RoundMetrics, RunSummary

CSV_HEADER = ("round,alive,sent,received,critical_received,"
              "total_residual_j,mean_residual_j,mean_path_loss_db,equilibrium_ok")
_CSV_FIELDS = CSV_HEADER.count(",") + 1


class ResultFileError(ValueError):
    """A results file that exists but does not hold what its name says, or
    a set of result files that cannot be compared."""


def _fmt(value: float) -> str:
    return repr(float(value))


def write_metrics_csv(metrics: list[RoundMetrics], path) -> None:
    """One row per round under the fixed header; a round with no
    transmissions serializes its mean path loss as an empty field."""
    lines = [CSV_HEADER]
    for m in metrics:
        loss = "" if m.mean_path_loss is None else _fmt(m.mean_path_loss)
        lines.append(
            f"{m.round},{m.alive_count},{m.packets_sent},{m.packets_received_at_sink},"
            f"{m.critical_received},{_fmt(m.total_residual)},{_fmt(m.mean_residual)},"
            f"{loss},{1 if m.equilibrium_ok else 0}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_metrics_csv(path) -> list[RoundMetrics]:
    """Inverse of write_metrics_csv."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ResultFileError(f"{path}: not a metrics CSV (unexpected header)")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        f = line.split(",")
        try:
            if len(f) != _CSV_FIELDS:
                raise ValueError(f"{len(f)} fields, expected {_CSV_FIELDS}")
            out.append(RoundMetrics(
                round=int(f[0]),
                alive_count=int(f[1]),
                packets_sent=int(f[2]),
                packets_received_at_sink=int(f[3]),
                critical_received=int(f[4]),
                total_residual=float(f[5]),
                mean_residual=float(f[6]),
                mean_path_loss=None if f[7] == "" else float(f[7]),
                equilibrium_ok=f[8] == "1",
            ))
        except ValueError as exc:
            raise ResultFileError(f"{path}: line {lineno}: {exc}") from None
    return out


def write_summary_json(summary: RunSummary, path) -> None:
    Path(path).write_text(json.dumps(asdict(summary), indent=2) + "\n", encoding="utf-8")


def read_summary_json(path) -> RunSummary:
    """Inverse of write_summary_json; every field must be present and typed
    as written (a number, the protocol a string, throughput possibly null)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        summary = RunSummary(**data)
    except (ValueError, TypeError) as exc:  # bad JSON, missing or unknown keys
        raise ResultFileError(f"{path}: not a run summary: {exc}") from None
    for key, value in data.items():
        if key == "protocol":
            ok = isinstance(value, str)
        else:
            ok = ((isinstance(value, (int, float)) and not isinstance(value, bool))
                  or (value is None and key == "throughput_pct"))
        if not ok:
            raise ResultFileError(f"{path}: not a run summary: bad value for {key!r}")
    return summary


# ---------------------------------------------------------------------------
# Plot series (one file per figure family, one column per protocol)
# ---------------------------------------------------------------------------

def median_series(series: list[list[RoundMetrics]]) -> list[RoundMetrics]:
    """Per-round median of one or more runs of equal length.

    Counts take the int of the median; the path loss is the median over the
    runs that transmitted (None when none did); the equilibrium flag holds
    only when it holds in every run.
    """
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ValueError(f"need runs of one length, got lengths {sorted(lengths)}")
    merged = []
    for r in range(lengths.pop()):
        rows = [s[r] for s in series]
        losses = [m.mean_path_loss for m in rows if m.mean_path_loss is not None]
        merged.append(RoundMetrics(
            round=r,
            alive_count=int(statistics.median(m.alive_count for m in rows)),
            packets_sent=int(statistics.median(m.packets_sent for m in rows)),
            packets_received_at_sink=int(
                statistics.median(m.packets_received_at_sink for m in rows)),
            critical_received=int(statistics.median(m.critical_received for m in rows)),
            total_residual=statistics.median(m.total_residual for m in rows),
            mean_residual=statistics.median(m.mean_residual for m in rows),
            mean_path_loss=statistics.median(losses) if losses else None,
            equilibrium_ok=all(m.equilibrium_ok for m in rows),
        ))
    return merged

PLOT_FILES = ("lifetime.dat", "throughput.dat", "residual.dat", "pathloss.dat")


def emit_plot_series(runs: dict[str, list[RoundMetrics]], out_dir) -> list[Path]:
    """Write the four figure series: alive nodes, cumulative packets received,
    total residual energy, and per-round mean path loss versus round.

    ``runs`` maps protocol name to its per-round metrics; column order follows
    the mapping's order. Rounds with no transmissions emit ``nan`` in the
    path-loss file (gnuplot-friendly missing marker).
    """
    protocols = list(runs)
    if not protocols:
        raise ValueError("no runs supplied")
    lengths = {len(m) for m in runs.values()}
    if len(lengths) != 1:
        raise ValueError(f"round counts differ across runs: {sorted(lengths)}")
    rounds = lengths.pop()

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = "# round " + " ".join(protocols)

    def series(fname: str, value) -> Path:
        lines = [header]
        for r in range(rounds):
            row = [str(r)]
            for p in protocols:
                row.append(value(runs[p][r], p))
            lines.append(" ".join(row))
        path = out / fname
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        return path

    cumulative: dict[str, int] = {p: 0 for p in protocols}

    def cum_received(m: RoundMetrics, p: str) -> str:
        cumulative[p] += m.packets_received_at_sink
        return str(cumulative[p])

    return [
        series("lifetime.dat", lambda m, p: str(m.alive_count)),
        series("throughput.dat", cum_received),
        series("residual.dat", lambda m, p: _fmt(m.total_residual)),
        series("pathloss.dat",
               lambda m, p: "nan" if m.mean_path_loss is None else _fmt(m.mean_path_loss)),
    ]


# ---------------------------------------------------------------------------
# Multi-run comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolMedians:
    protocol: str
    seeds: tuple[int, ...]
    stability_period: float
    network_lifetime: float
    throughput_pct: float | None
    residual_pct_at_end: float
    packets_received_total: float


@dataclass(frozen=True)
class ComparisonReport:
    medians: tuple[ProtocolMedians, ...]
    # (protocol_a, protocol_b) -> {metric: value}; improvements of a over b
    pairwise: dict[tuple[str, str], dict[str, float | None]]


def compare_runs(summaries: list[RunSummary]) -> ComparisonReport:
    """Median-over-seeds per protocol plus pairwise improvement ratios.

    Only seeds shared by every protocol enter the medians, so the ratios
    compare like with like. Fewer than two protocols, or no seed common to
    all of them, is a ``ResultFileError``.
    """
    by_protocol: dict[str, dict[int, RunSummary]] = {}
    for s in summaries:
        by_protocol.setdefault(s.protocol, {})[s.seed] = s
    if len(by_protocol) < 2:
        raise ResultFileError("comparison needs at least two protocols")
    shared = set.intersection(*(set(v) for v in by_protocol.values()))
    if not shared:
        raise ResultFileError("no seed is shared by all protocols")
    seeds = tuple(sorted(shared))

    medians = []
    for proto in sorted(by_protocol):
        rows = [by_protocol[proto][s] for s in seeds]
        tp = [r.throughput_pct for r in rows if r.throughput_pct is not None]
        medians.append(ProtocolMedians(
            protocol=proto,
            seeds=seeds,
            stability_period=statistics.median(r.stability_period for r in rows),
            network_lifetime=statistics.median(r.network_lifetime for r in rows),
            throughput_pct=statistics.median(tp) if tp else None,
            residual_pct_at_end=statistics.median(r.residual_pct_at_end for r in rows),
            packets_received_total=statistics.median(r.packets_received_total for r in rows),
        ))

    def improvement(a: float, b: float) -> float | None:
        if b == 0:
            return None
        return 100.0 * (a - b) / b

    pairwise: dict[tuple[str, str], dict[str, float | None]] = {}
    for ma in medians:
        for mb in medians:
            if ma.protocol == mb.protocol:
                continue
            delta_tp = None
            if ma.throughput_pct is not None and mb.throughput_pct is not None:
                delta_tp = ma.throughput_pct - mb.throughput_pct
            pairwise[(ma.protocol, mb.protocol)] = {
                "stability_improvement_pct": improvement(ma.stability_period,
                                                         mb.stability_period),
                "lifetime_improvement_pct": improvement(ma.network_lifetime,
                                                        mb.network_lifetime),
                "throughput_delta_pct_points": delta_tp,
                "residual_delta_pct_points": (ma.residual_pct_at_end
                                              - mb.residual_pct_at_end),
            }
    return ComparisonReport(medians=tuple(medians), pairwise=pairwise)


def render_comparison(report: ComparisonReport) -> str:
    """Plain-text table of the comparison report."""
    lines = []
    lines.append(f"seeds: {', '.join(str(s) for s in report.medians[0].seeds)}")
    lines.append("")
    hdr = (f"{'protocol':<10} {'stability':>10} {'lifetime':>10} "
           f"{'throughput%':>12} {'residual%':>10} {'received':>10}")
    lines.append(hdr)
    lines.append("-" * len(hdr))
    for m in report.medians:
        tp = "n/a" if m.throughput_pct is None else f"{m.throughput_pct:.2f}"
        lines.append(f"{m.protocol:<10} {m.stability_period:>10.0f} "
                     f"{m.network_lifetime:>10.0f} {tp:>12} "
                     f"{m.residual_pct_at_end:>10.2f} {m.packets_received_total:>10.0f}")
    lines.append("")
    for (a, b), vals in report.pairwise.items():
        stab = vals["stability_improvement_pct"]
        life = vals["lifetime_improvement_pct"]
        stab_s = "n/a" if stab is None else f"{stab:+.1f}%"
        life_s = "n/a" if life is None else f"{life:+.1f}%"
        lines.append(f"{a} vs {b}: stability {stab_s}, lifetime {life_s}")
    return "\n".join(lines) + "\n"


def write_comparison(report: ComparisonReport, out_dir) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    txt = out / "comparison.txt"
    txt.write_text(render_comparison(report), encoding="utf-8", newline="\n")
    payload = {
        "medians": [asdict(m) for m in report.medians],
        "pairwise": {
            f"{a}_vs_{b}": vals for (a, b), vals in report.pairwise.items()
        },
    }
    js = out / "comparison.json"
    js.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return txt, js
