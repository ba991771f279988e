"""Metric serialization: per-round CSV, plot series files, comparison report.

All numeric fields are written with full round-trip precision (repr), lines
end with LF, and every file ends with a trailing newline, so identical runs
produce byte-identical files.

A run is one table, as the engine returns it in ``RunResult.metrics``: a
``(rounds, 9)`` float64 array whose columns follow the CSV header (``ROUND``
... ``EQUILIBRIUM``). A round with no transmissions holds NaN in
``PATH_LOSS``, and the equilibrium flag is 0 or 1. ``write_metrics_csv``
writes a table, ``read_metrics_csv`` parses a file back into the same table,
``median_series`` merges the tables of several seeds, ``plot_series`` takes
the four plotted columns of a table, and ``write_plot_file`` writes one
figure file from them, column by column; ``emit_plot_series`` writes all
four.

The ``plots`` path holds little beyond the tables themselves. Each
protocol's tables and one column of merge temporaries are held in the
worker process that merges them; the ``plots`` process holds only the four
plotted series of each protocol, which it hands to the workers that write
the files. A CSV is parsed from one buffer of its bytes into the memory of
the table it becomes, ``median_series`` merges one column of every seed at
a time, and both writers format ``_CSV_CHUNK`` rows at a time.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import re
import statistics
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# The table's columns are the engine's, which builds the table.
from .engine import (ALIVE, CRITICAL, EQUILIBRIUM, MEAN_RESIDUAL, PATH_LOSS, RECEIVED,
                     ROUND, SENT, TOTAL_RESIDUAL, RunSummary)

CSV_HEADER = ("round,alive,sent,received,critical_received,"
              "total_residual_j,mean_residual_j,mean_path_loss_db,equilibrium_ok")
_CSV_FIELDS = CSV_HEADER.count(",") + 1
# Rows formatted at a time: bounds the text a write holds in memory.
_CSV_CHUNK = 2048
# Bytes of a CSV rewritten at a time for the parse, beside the file itself.
_BLOCK = 1 << 16
# How each CSV field parses and prints; the flag is an int, 1 meaning it holds.
_FIELD_TYPES = (int,) * 5 + (float,) * 3 + (int,)
_CSV_DTYPE = np.dtype([(f"f{i}", np.int64 if t is int else np.float64)
                       for i, t in enumerate(_FIELD_TYPES)])
_HEADER_LINE = (CSV_HEADER + "\n").encode()
# Line breaks besides \n to str.splitlines, which numbers the lines of a bad
# file; loadtxt reads them as blanks inside a field. The writer writes none,
# and a row ending in one is rejected.
_ODD_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


# The summary fields write_summary_json writes as ints.
_SUMMARY_INTS = {name for name, t in typing.get_type_hints(RunSummary).items() if t is int}


class ResultFileError(ValueError):
    """A results file that exists but does not hold what its name says, or
    a set of result files that cannot be compared."""


def _write_rows(path, header: str, rounds: int, fields, sep: str) -> None:
    """Write ``header`` and ``rounds`` rows, ``_CSV_CHUNK`` at a time:
    ``fields(rows)`` gives the field strings of the rows in the slice
    ``rows``, one iterable per column, which ``sep`` joins."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(header + "\n")
        for start in range(0, rounds, _CSV_CHUNK):
            columns = fields(slice(start, min(start + _CSV_CHUNK, rounds)))
            out.write("\n".join(map(sep.join, zip(*columns))) + "\n")


def write_metrics_csv(table: np.ndarray, path) -> None:
    """One row per round of a run's table under the fixed header, formatted
    column by column: counts and the flag as ints, the rest with repr, and
    a NaN path loss (a round with no transmissions) as an empty field."""
    def fields(rows: slice):
        chunk = table[rows].T
        cells = [_ints(col) if parse is int else _floats(col)
                 for col, parse in zip(chunk, _FIELD_TYPES)]
        cells[PATH_LOSS] = ("" if v != v else repr(v) for v in chunk[PATH_LOSS].tolist())
        return cells

    _write_rows(path, CSV_HEADER, len(table), fields, ",")


def _ints(values: np.ndarray):
    return map(str, values.astype(np.int64).tolist())


def _floats(values: np.ndarray):
    return map(repr, values.tolist())


def _in_int64(number: int) -> bool:
    return -2**63 <= number < 2**63


def _check_field(value: str, parse) -> None:
    """Raise ValueError unless ``parse(value)`` succeeds, also rejecting what
    int() and float() take but np.loadtxt does not: underscores, digits
    other than 0-9, and counts outside int64."""
    number = parse(value)
    if ("_" in value or not value.strip().isascii()
            or (parse is int and not _in_int64(number))):
        kind = "int64" if parse is int else "float64"
        raise ValueError(f"could not convert {value!r} to {kind}")


def _raise_bad_line(path) -> None:
    """Re-read the file and check its rows one by one, as the fast parse
    reads them, naming the first it rejects; called once that parse has
    failed."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    for lineno, line in enumerate(lines[1:], start=2):
        row = line.rstrip("\n" + _ODD_BREAKS)
        f = row.split(",")
        try:
            if len(f) != _CSV_FIELDS:
                raise ValueError(f"{len(f)} fields, expected {_CSV_FIELDS}")
            for col, (value, parse) in enumerate(zip(f, _FIELD_TYPES)):
                if value or col != PATH_LOSS:
                    _check_field(value, parse)
            if int(f[EQUILIBRIUM]) not in (0, 1):
                raise ValueError(f"equilibrium flag {f[EQUILIBRIUM]!r}, expected 0 or 1")
            if line not in (row, row + "\n"):
                raise ValueError(f"ends in {line[len(row):]!r}, not a newline")
        except ValueError as exc:
            raise ResultFileError(f"{path}: line {lineno}: {exc}") from None


def _spelled_blocks(data: bytes):
    """``data`` in blocks of whole lines, each at least ``_BLOCK`` bytes
    long but the last. Only the path-loss field, next to the flag, may be
    empty; loadtxt takes no empty number, so it gets a spelled-out NaN."""
    view = memoryview(data)
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        yield re.sub(rb",,(?=[^,\n]*$)", b",nan,", view[start:stop], flags=re.MULTILINE)
        start = stop


def read_metrics_csv(path) -> np.ndarray:
    """Inverse of write_metrics_csv, as a table (see the module docstring).

    The file is read into one buffer and parsed from it ``_BLOCK`` bytes
    at a time; the table is built in the memory np.loadtxt returns. A file
    the fast parse rejects is checked again line by line, to name the line
    at fault."""
    data = Path(path).read_bytes()
    is_ascii = data.isascii()
    if not is_ascii:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ResultFileError(f"{path}: not UTF-8 text: {exc}") from None
    if b"\r" in data:  # as text mode reads it
        data = re.sub(rb"\r\n?", b"\n", data)
    if data[:len(_HEADER_LINE)] not in (_HEADER_LINE, _HEADER_LINE[:-1]):
        raise ResultFileError(f"{path}: not a metrics CSV (unexpected header)")
    if len(data) <= len(_HEADER_LINE):
        return np.empty((0, _CSV_FIELDS))
    try:
        # loadtxt skips blank lines and takes odd breaks for blanks, so the
        # line-by-line check rejects both; an ASCII file holds only ASCII ones.
        if b"\n\n" in data or any(c.encode() in data for c in _ODD_BREAKS
                                   if c.isascii() or not is_ascii):
            raise ValueError("a blank line, or a line break other than \\n")
        lines = itertools.chain.from_iterable(map(io.BytesIO, _spelled_blocks(data)))
        rows = np.loadtxt(lines, dtype=_CSV_DTYPE, delimiter=",", comments=None,
                          skiprows=1, ndmin=1, encoding="utf-8")
        flags = rows[_CSV_DTYPE.names[EQUILIBRIUM]]
        if flags.min() < 0 or flags.max() > 1:
            raise ValueError("an equilibrium flag other than 0 or 1")
    except ValueError as exc:
        _raise_bad_line(path)
        raise ResultFileError(f"{path}: {exc}") from None
    # Each row's nine 8-byte fields become a row of the table in place.
    table = rows.view(np.float64).reshape(-1, _CSV_FIELDS)
    counts = rows.view(np.int64).reshape(-1, _CSV_FIELDS)
    for col, parse in enumerate(_FIELD_TYPES):
        if parse is int:
            table[:, col] = counts[:, col]
    return table


def write_summary_json(summary: RunSummary, path) -> None:
    Path(path).write_text(json.dumps(asdict(summary), indent=2, allow_nan=False) + "\n",
                          encoding="utf-8")


def read_summary_json(path) -> RunSummary:
    """Inverse of write_summary_json; every field must be present and typed
    as written (the protocol a string, the int fields ints, every other
    field a finite number, throughput possibly null). An int must fit int64,
    as every count a run writes does: the comparison's float arithmetic
    takes no larger one."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        summary = RunSummary(**data)
    # bad JSON, too deeply nested to parse, missing or unknown keys
    except (ValueError, TypeError, RecursionError) as exc:
        raise ResultFileError(f"{path}: not a run summary: {exc}") from None
    for key, value in data.items():
        if key == "protocol":
            ok = isinstance(value, str)
        elif key in _SUMMARY_INTS:
            ok = type(value) is int  # not a bool, nor a float such as 1.5 or NaN
        else:
            ok = (type(value) is int or (type(value) is float and math.isfinite(value))
                  or (value is None and key == "throughput_pct"))
        if not ok or (type(value) is int and not _in_int64(value)):
            raise ResultFileError(f"{path}: not a run summary: bad value for {key!r}")
    return summary


# ---------------------------------------------------------------------------
# Plot series (one file per figure family, one column per protocol)
# ---------------------------------------------------------------------------

def median_series(tables: list[np.ndarray]) -> np.ndarray:
    """Per-round median of the tables of one or more runs of equal length.

    Each cell is ``statistics.median`` over the runs whose value is a
    number: the middle value, or the mean of the two middle values. Counts
    take the int of the median; the path loss is NaN where no run
    transmitted; the equilibrium flag holds only when it holds in every run.
    The merge goes column by column, so its temporaries hold one column of
    every run.
    """
    lengths = {len(t) for t in tables}
    if len(lengths) != 1:
        raise ValueError(f"need runs of one length, got lengths {sorted(lengths)}")
    merged = np.empty((lengths.pop(), _CSV_FIELDS))
    merged[:, ROUND] = np.arange(len(merged))
    for col in range(ALIVE, EQUILIBRIUM):
        runs = np.column_stack([t[:, col] for t in tables])
        runs.sort()  # NaN sorts last
        k = np.count_nonzero(~np.isnan(runs), axis=1)[:, np.newaxis]
        # Where k == 0 the index -1 picks the last run, NaN like every run there.
        lo = np.take_along_axis(runs, (k - 1) // 2, axis=1)[:, 0]
        hi = np.take_along_axis(runs, k // 2, axis=1)[:, 0]
        median = np.where(k[:, 0] % 2 == 1, lo, (lo + hi) / 2)
        merged[:, col] = np.trunc(median) if col <= CRITICAL else median
    merged[:, EQUILIBRIUM] = np.min([t[:, EQUILIBRIUM] for t in tables], axis=0)
    return merged

PLOT_FILES = ("lifetime.dat", "throughput.dat", "residual.dat", "pathloss.dat")
# Counts are written as ints, energy and path loss with repr.
_PLOT_FORMATS = dict(zip(PLOT_FILES, (_ints, _ints, _floats, _floats)))


def plot_series(table: np.ndarray) -> list[np.ndarray]:
    """The four plotted series of a table, in ``PLOT_FILES`` order: alive
    nodes, cumulative packets received, total residual energy, and mean
    path loss per round."""
    return [table[:, ALIVE], np.cumsum(table[:, RECEIVED]), table[:, TOTAL_RESIDUAL],
            table[:, PATH_LOSS]]


def write_plot_file(name: str, columns: dict[str, np.ndarray], out_dir) -> Path:
    """Write the figure file ``name``, one of ``PLOT_FILES``, into the
    existing directory ``out_dir``: the round, then one column per protocol
    in the mapping's order, each that protocol's ``plot_series`` entry for
    the file. A round with no transmissions reads ``nan`` in the path-loss
    file (gnuplot's missing marker). The file is written ``_CSV_CHUNK``
    rows at a time."""
    fmt = _PLOT_FORMATS[name]
    rounds = len(next(iter(columns.values())))
    path = Path(out_dir) / name
    _write_rows(path, "# round " + " ".join(columns), rounds,
                lambda rows: [map(str, range(rows.start, rows.stop)),
                              *(fmt(c[rows]) for c in columns.values())], " ")
    return path


def emit_plot_series(runs: dict[str, np.ndarray], out_dir) -> list[Path]:
    """Write the four figure series: alive nodes, cumulative packets received,
    total residual energy, and per-round mean path loss versus round.

    ``runs`` maps protocol name to its metrics table; column order follows
    the mapping's order. Each file is one ``write_plot_file``, in
    ``PLOT_FILES`` order.
    """
    if not runs:
        raise ValueError("no runs supplied")
    lengths = {len(m) for m in runs.values()}
    if len(lengths) != 1:
        raise ValueError(f"round counts differ across runs: {sorted(lengths)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series = {protocol: plot_series(table) for protocol, table in runs.items()}
    return [write_plot_file(name, dict(zip(series, columns)), out)
            for name, columns in zip(PLOT_FILES, zip(*series.values()))]


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
    compare like with like. Fewer than two protocols, no seed common to all
    of them, or a median or pairwise value that is not finite (finite inputs
    near the float range can sum past it) is a ``ResultFileError``.
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
    for m in medians:
        for key, value in asdict(m).items():
            if type(value) is float and not math.isfinite(value):
                raise ResultFileError(f"{m.protocol}: the median {key} is not finite")
    for (a, b), vals in pairwise.items():
        for key, value in vals.items():
            if value is not None and not math.isfinite(value):
                raise ResultFileError(f"{a} vs {b}: {key} is not finite")
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
    js.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return txt, js
