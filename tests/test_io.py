import itertools
import json
import math
import statistics
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbansim.config import SimConfig
from wbansim.engine import RunSummary, run_simulation
from wbansim.io import (_CSV_CHUNK, ALIVE, CRITICAL, CSV_HEADER, EQUILIBRIUM, MEAN_RESIDUAL,
                        PATH_LOSS, PLOT_FILES, RECEIVED, ROUND, SENT, TOTAL_RESIDUAL,
                        ResultFileError, compare_runs, emit_plot_series, plot_series,
                        read_metrics_csv, read_summary_json, render_comparison,
                        write_comparison, write_metrics_csv, write_plot_file,
                        write_summary_json)


def row(r, alive=19, sent=2, received=2, loss=36.5, flag=1):
    """One table row; ``loss=None`` is a round with no transmissions."""
    return (r, alive, sent, received, 1, 9.5 - 0.001 * r, (9.5 - 0.001 * r) / 19,
            math.nan if loss is None else loss, flag)


def table(*rows):
    return np.array(rows, dtype=np.float64).reshape(-1, 9)


def summary(protocol, seed, stability, lifetime, tp=100.0, residual_pct=80.0):
    return RunSummary(protocol=protocol, seed=seed, stability_period=stability,
                      network_lifetime=lifetime, throughput_pct=tp,
                      final_total_residual=residual_pct * 9.5 / 100,
                      residual_pct_at_end=residual_pct,
                      packets_sent_total=1000, packets_received_total=990)


def big_table(rounds, seed):
    """An engine-like table: counts, residuals and path losses of typical
    length, and about one round in eight quiet."""
    rng = np.random.default_rng(seed)
    t = np.empty((rounds, 9))
    t[:, ROUND] = np.arange(rounds)
    t[:, ALIVE:TOTAL_RESIDUAL] = rng.integers(0, 20, (rounds, 4))
    t[:, TOTAL_RESIDUAL:PATH_LOSS] = rng.uniform(0.0, 9.5, (rounds, 2))
    t[:, PATH_LOSS] = np.where(rng.random(rounds) < 0.125, math.nan,
                               rng.uniform(20.0, 120.0, rounds))
    t[:, EQUILIBRIUM] = rng.integers(0, 2, rounds)
    return t


@st.composite
def csv_tables(draw):
    """0-2500 rounds, so some cross the writer's 2048-row chunk: counts up
    to 2**53, residuals from subnormal to near the largest float, quiet
    rounds, both flags, and a few of Hypothesis's own edge floats (NaN,
    infinities, -0.0) scattered over the float columns."""
    rounds = draw(st.integers(0, 2500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.empty((rounds, 9))
    t[:, ROUND] = np.arange(rounds)
    t[:, ALIVE:TOTAL_RESIDUAL] = rng.integers(-2**53, 2**53, (rounds, 4), endpoint=True)
    t[:, TOTAL_RESIDUAL:EQUILIBRIUM] = (rng.uniform(1.0, 2.0, (rounds, 3))
                                        * 2.0 ** rng.integers(-1074, 1024, (rounds, 3)))
    t[rng.random(rounds) < 0.3, PATH_LOSS] = math.nan
    t[:, EQUILIBRIUM] = rng.integers(0, 2, rounds)
    if rounds:
        for value in draw(st.lists(st.floats(), max_size=5)):
            t[rng.integers(rounds), rng.integers(TOTAL_RESIDUAL, EQUILIBRIUM)] = value
    return t


class TestMetricsCsv:
    def test_three_rounds_four_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(table(*(row(r) for r in range(3))), path)
        lines = path.read_text().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5  # header + 3 rows + trailing newline
        assert lines[-1] == ""

    def test_round_trip(self, tmp_path):
        metrics = table(row(0), row(1, loss=None), row(2, alive=18))
        path = tmp_path / "m.csv"
        write_metrics_csv(metrics, path)
        got = read_metrics_csv(path)
        assert got.shape == (3, 9) and got.dtype == np.float64
        assert np.array_equal(got, metrics, equal_nan=True)
        assert math.isnan(got[1, PATH_LOSS])
        # An engine run, whose rows the writer formats in several chunks.
        run = run_simulation(replace(SimConfig(), rounds=5000)).metrics
        write_metrics_csv(run, path)
        assert np.array_equal(read_metrics_csv(path), run, equal_nan=True)

    def test_quiescent_round_serializes_empty_loss_field(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(table(row(0, sent=0, received=0, loss=None)), path)
        data_line = path.read_text().split("\n")[1]
        fields = data_line.split(",")
        assert fields[7] == ""
        assert "nan" not in data_line.lower()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(table(row(0)), path)
        assert b"\r" not in path.read_bytes()

    def test_byte_identical_across_reruns(self, tmp_path):
        cfg = replace(SimConfig(), rounds=300)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(run_simulation(cfg).metrics, a)
        write_metrics_csv(run_simulation(cfg).metrics, b)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("not,a,metrics,file\n1,2,3,4\n")
        with pytest.raises(ValueError):
            read_metrics_csv(path)

    # case -> (line to write as line 3, or None for the header case; the
    # line number the message names, or None)
    BAD_FILES = {
        "wrong_header": (None, None),
        "eight_fields": ("1,19,2,2,1,9.5,0.5,36.5", 3),
        "ten_fields": ("1,19,2,2,1,9.5,0.5,36.5,1,1", 3),
        "fraction_in_int_column": ("1,1.5,2,2,1,9.5,0.5,36.5,1", 3),
        "float_in_int_column": ("1,19,2,2,1.0,9.5,0.5,36.5,1", 3),
        "empty_total_residual": ("1,19,2,2,1,,0.5,36.5,1", 3),
        "empty_mean_residual": ("1,19,2,2,1,9.5,,36.5,1", 3),
        "empty_residuals_and_loss": ("1,19,2,2,1,9.5,,,1", 3),
        "junk_token": ("1,19,2,2,1,9.5,0.5,abc,1", 3),
        "blank_line": ("", 3),
        "blank_line_with_spaces": ("   ", 3),
        "form_feed_inside_row": ("1,19,2,2\f,1,9.5,0.5,36.5,1", 3),
        # int() and float() take these, np.loadtxt does not.
        "count_past_int64": ("1,19,99999999999999999999,2,1,9.5,0.5,36.5,1", 3),
        "underscore_in_count": ("1,19,1_9,2,1,9.5,0.5,36.5,1", 3),
        "underscore_in_float": ("1,19,2,2,1,9.5_0,0.5,36.5,1", 3),
        "non_ascii_digit_in_count": ("1,\uff11\uff19,2,2,1,9.5,0.5,36.5,1", 3),
        "flag_two": ("1,19,2,2,1,9.5,0.5,36.5,2", 3),
        "flag_minus_one": ("1,19,2,2,1,9.5,0.5,36.5,-1", 3),
        "flag_two_quiet_round": ("1,19,0,0,1,9.5,0.5,,2", 3),
        # Two good rows to str.splitlines, one of 17 fields to np.loadtxt.
        "next_line_joining_two_rows": ("1,19,2,2,1,9.5,0.5,36.5,1\x851,19,2,2,1,9.5,0.5,36.5,1", 3),
    }

    @pytest.mark.parametrize("case", sorted(BAD_FILES))
    def test_bad_file_rejected_naming_file_and_line(self, case, tmp_path):
        bad_line, lineno = self.BAD_FILES[case]
        path = tmp_path / "m.csv"
        write_metrics_csv(table(row(0), row(1), row(2)), path)
        lines = path.read_text().split("\n")
        if bad_line is None:
            lines[0] = lines[0].replace("alive", "alive_count")
        else:
            lines[2] = bad_line
        path.write_text("\n".join(lines), newline="")
        with pytest.raises(ResultFileError) as err:
            read_metrics_csv(path)
        assert str(path) in str(err.value)
        if lineno is not None:
            assert f": line {lineno}: " in str(err.value)

    def test_only_blank_rows_rejected_without_a_warning(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(CSV_HEADER + "\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResultFileError, match=": line 2: 1 fields"):
                read_metrics_csv(path)

    def test_flag_must_be_an_int(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(table(row(0)), path)
        path.write_text(path.read_text().replace(",1\n", ",yes\n"))
        with pytest.raises(ResultFileError, match=": line 2: "):
            read_metrics_csv(path)

    def test_non_utf8_file_rejected_naming_it(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(table(row(0)), path)
        path.write_bytes(path.read_bytes() + b"\xff")
        with pytest.raises(ResultFileError, match="not UTF-8"):
            read_metrics_csv(path)

    def test_crlf_file_and_missing_final_newline_still_read(self, tmp_path):
        metrics = table(row(0), row(1, loss=None))
        path = tmp_path / "m.csv"
        for newline in (b"\r\n", b"\r"):
            write_metrics_csv(metrics, path)
            path.write_bytes(path.read_bytes().rstrip(b"\n").replace(b"\n", newline))
            assert np.array_equal(read_metrics_csv(path), metrics, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(csv_tables())
    def test_round_trip_property(self, tmp_path_factory, metrics):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_metrics_csv(metrics, path)
        assert same_bits(read_metrics_csv(path), metrics)


@st.composite
def tables_ending_in_a_run(draw):
    """Tables whose last rows repeat one row in every column but the round,
    as a dead network leaves them: the run starts before, on or after a
    ``_CSV_CHUNK`` boundary, or takes the whole table, and tables have 0 and
    1 rows. The row before the run may differ from it only by -0.0 against
    0.0 in one float column, only by the flag, or only by a NaN path loss of
    another payload; the run's path loss is NaN (quiet rounds) or a number."""
    rounds = draw(st.sampled_from([0, 1, 2, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1,
                                   2 * _CSV_CHUNK + 3]))
    start = min(rounds, draw(st.sampled_from([0, 1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1])
                             | st.integers(0, rounds)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.empty((rounds, 9))
    t[:, ROUND] = np.arange(rounds)
    t[:, ALIVE:TOTAL_RESIDUAL] = rng.integers(-2**53, 2**53, (rounds, 4), endpoint=True)
    t[:, TOTAL_RESIDUAL:EQUILIBRIUM] = (rng.uniform(-2.0, 2.0, (rounds, 3))
                                        * 2.0 ** rng.integers(-1074, 1024, (rounds, 3)))
    t[rng.random(rounds) < 0.3, PATH_LOSS] = math.nan
    t[:, EQUILIBRIUM] = rng.integers(0, 2, rounds)
    if rounds:
        run = t[-1, ALIVE:].copy()
        if draw(st.booleans()):
            run[PATH_LOSS - 1] = math.nan
        t[start:, ALIVE:] = run
        edge = draw(st.sampled_from(["live", "zero sign", "flag", "nan payload"]))
        if start and edge != "live":
            t[start - 1, ALIVE:] = run
            if edge == "zero sign":
                col = draw(st.sampled_from([TOTAL_RESIDUAL, MEAN_RESIDUAL, PATH_LOSS]))
                sign = draw(st.sampled_from([1.0, -1.0]))
                t[start:, col] = sign * 0.0
                t[start - 1, col] = -sign * 0.0
            elif edge == "flag":
                t[start - 1, EQUILIBRIUM] = 1.0 - run[EQUILIBRIUM - 1]
            else:
                t[start:, PATH_LOSS] = math.nan
                t.view(np.int64)[start - 1, PATH_LOSS] = 0x7FF8_0000_0000_0001
    return t


def csv_reference(t):
    """The metrics CSV of ``t``, formatted row by row and field by field."""
    lines = [CSV_HEADER]
    for values in t.tolist():
        lines.append(",".join("" if col == PATH_LOSS and v != v
                              else repr(v) if TOTAL_RESIDUAL <= col <= PATH_LOSS
                              else str(int(v)) for col, v in enumerate(values)))
    return "\n".join(lines) + "\n"


def dat_reference(name, columns):
    """The figure file ``name`` of ``columns``, formatted row by row."""
    as_int = name in ("lifetime.dat", "throughput.dat")
    lines = ["# round " + " ".join(columns)]
    for r, values in enumerate(zip(*(c.tolist() for c in columns.values()))):
        lines.append(" ".join([str(r), *(str(int(v)) if as_int else repr(v) for v in values)]))
    return "\n".join(lines) + "\n"


class TestRepeatedTailWriting:
    """The writers format a table's trailing run of repeated rows once; the
    bytes are those of a row-by-row formatter."""

    @settings(max_examples=30, deadline=None)
    @given(tables_ending_in_a_run())
    def test_writers_equal_a_row_by_row_reference(self, tmp_path_factory, t):
        out = tmp_path_factory.mktemp("tail")
        write_metrics_csv(t, out / "m.csv")
        assert (out / "m.csv").read_text() == csv_reference(t)
        assert same_bits(read_metrics_csv(out / "m.csv"), t)
        plotted = dict(zip(PLOT_FILES, ((ALIVE, SENT), (RECEIVED, CRITICAL),
                                        (TOTAL_RESIDUAL, MEAN_RESIDUAL),
                                        (PATH_LOSS, MEAN_RESIDUAL))))
        for name, cols in plotted.items():
            columns = {f"p{col}": t[:, col] for col in cols}
            path = write_plot_file(name, columns, out)
            assert path.read_text() == dat_reference(name, columns), name


class TestPlotsMemory:
    """tracemalloc sees numpy's buffers, so these peaks count every array."""

    def traced_peak(self, call):
        """``call()`` and the peak bytes it held beyond what it returned, an
        array, a list of arrays or None."""
        tracemalloc.start()
        try:
            result = call()
            kept = (0 if result is None else sum(a.nbytes for a in result)
                    if isinstance(result, list) else result.nbytes)
            return result, tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()

    def test_reading_holds_about_one_copy_of_the_file(self, tmp_path):
        # 10^4 rounds, about 0.7 MB: a whole-text parse held 8.0 times the
        # file beyond its table, the one-buffer parse 1.3 times.
        path = tmp_path / "m.csv"
        write_metrics_csv(big_table(10_000, seed=1), path)
        table, peak = self.traced_peak(lambda: read_metrics_csv(path))
        assert table.shape == (10_000, 9)
        assert peak <= 2 * path.stat().st_size

    def test_writing_a_dead_network_holds_one_chunk_not_the_file(self, tmp_path):
        # 4 * 10^4 rounds, 2.2 MB of text, of a network that dies at round
        # 600: the rows after it repeat the last, and are written one chunk
        # of 2048 round labels at a time, 0.37 MB at the peak. Formatting
        # the chunks column by column held 0.71 MB.
        t = big_table(40_000, seed=1)
        # The rows the engine fills in after the last death.
        t[600:, ALIVE:TOTAL_RESIDUAL] = 0
        t[600:, TOTAL_RESIDUAL:PATH_LOSS] = t[599, TOTAL_RESIDUAL:PATH_LOSS]
        t[600:, PATH_LOSS] = math.nan
        t[600:, EQUILIBRIUM] = 1
        path = tmp_path / "m.csv"
        _, peak = self.traced_peak(lambda: write_metrics_csv(t, path))
        assert peak <= path.stat().st_size / 4

    def test_median_holds_about_one_column_of_every_seed(self):
        # 3 seeds of 10^4 rounds: merging all nine columns at once held 21
        # times one column of every seed beyond the output; the four plotted
        # columns, one at a time, hold 2.7 times.
        tables = [big_table(10_000, seed) for seed in (1, 2, 3)]
        series, peak = self.traced_peak(lambda: plot_series(tables))
        assert [s.shape for s in series] == [(10_000,)] * 4
        assert peak <= 6 * 10_000 * 8 * len(tables)


class TestSummaryJson:
    def test_round_trip(self, tmp_path):
        s = summary("amhrp", 3, 4500, 10000)
        path = tmp_path / "s.json"
        write_summary_json(s, path)
        assert read_summary_json(path) == s

    def test_none_throughput_survives(self, tmp_path):
        s = summary("amhrp", 1, 0, 0, tp=None)
        path = tmp_path / "s.json"
        write_summary_json(s, path)
        assert read_summary_json(path).throughput_pct is None

    @pytest.mark.parametrize("key, value", [
        ("stability_period", math.nan),
        ("network_lifetime", 4.5),
        ("seed", 1.5),
        ("packets_sent_total", True),
        ("residual_pct_at_end", math.inf),
        ("throughput_pct", math.nan),
        ("stability_period", 2**63),
        ("residual_pct_at_end", -2**63 - 1),
        ("packets_sent_total", 10**400),
    ])
    def test_rejects_what_the_writer_never_writes(self, key, value, tmp_path):
        """Int fields hold JSON ints, every other number is finite, and every
        int fits int64; json.dumps writes NaN and Infinity, which json.loads
        reads back."""
        path = tmp_path / "s.json"
        write_summary_json(summary("amhrp", 1, 4500, 10000), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(ResultFileError, match=f"not a run summary: bad value for '{key}'"):
            read_summary_json(path)

    def test_deep_nesting_is_not_a_run_summary(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[" * 200_000)
        with pytest.raises(ResultFileError, match="not a run summary"):
            read_summary_json(path)

    def test_writers_refuse_non_finite_numbers(self, tmp_path):
        s = summary("amhrp", 1, 4500, 10000, residual_pct=math.nan)
        with pytest.raises(ValueError):
            write_summary_json(s, tmp_path / "s.json")
        # compare_runs rejects such a report itself (TestCompareRuns), so it
        # is built by hand here.
        report = compare_runs([summary("amhrp", 1, 4500, 10000),
                               summary("simple", 1, 4500, 10000)])
        nan_median = replace(report.medians[0], residual_pct_at_end=math.nan)
        report = replace(report, medians=(nan_median, *report.medians[1:]))
        with pytest.raises(ValueError):
            write_comparison(report, tmp_path)


class TestPlotSeries:
    def make_runs(self, rounds=4):
        runs = {}
        for i, proto in enumerate(("amhrp", "mattempt", "simple")):
            runs[proto] = table(*(row(r, alive=19 - i, loss=None if r == 0 else 40.0 + i)
                                  for r in range(rounds)))
        return runs

    def test_four_files_with_expected_shape(self, tmp_path):
        files = emit_plot_series(self.make_runs(rounds=4), tmp_path)
        assert [f.name for f in files] == ["lifetime.dat", "throughput.dat",
                                           "residual.dat", "pathloss.dat"]
        for f in files:
            lines = f.read_text().strip().split("\n")
            assert len(lines) == 5  # header + 4 rounds
            assert lines[0] == "# round amhrp mattempt simple"

    def test_column_order_follows_input_order(self, tmp_path):
        runs = self.make_runs()
        reordered = {k: runs[k] for k in ("simple", "amhrp", "mattempt")}
        files = emit_plot_series(reordered, tmp_path)
        header = files[0].read_text().split("\n")[0]
        assert header == "# round simple amhrp mattempt"

    def test_throughput_column_is_cumulative(self, tmp_path):
        files = emit_plot_series(self.make_runs(rounds=3), tmp_path)
        lines = files[1].read_text().strip().split("\n")[1:]
        amhrp_col = [int(line.split()[1]) for line in lines]
        assert amhrp_col == [2, 4, 6]

    def test_missing_loss_written_as_nan(self, tmp_path):
        files = emit_plot_series(self.make_runs(), tmp_path)
        first_data = files[3].read_text().split("\n")[1]
        assert "nan" in first_data

    def test_alive_column_non_increasing_for_real_run(self, tmp_path):
        res = run_simulation(replace(SimConfig(), rounds=500))
        files = emit_plot_series({"amhrp": res.metrics}, tmp_path)
        alive = [int(line.split()[1])
                 for line in files[0].read_text().strip().split("\n")[1:]]
        assert all(b <= a for a, b in zip(alive, alive[1:]))

    def test_mismatched_round_counts_rejected(self, tmp_path):
        runs = self.make_runs()
        runs["simple"] = runs["simple"][:-1]
        with pytest.raises(ValueError):
            emit_plot_series(runs, tmp_path)

    def test_no_runs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no runs supplied"):
            emit_plot_series({}, tmp_path)
        assert not any(tmp_path.iterdir())


def median_oracle(tables):
    """The four plotted series with statistics.median, one round at a time:
    the counts as ints, the received medians as their running sum."""
    alive, received, residual, loss = [], [], [], []
    for r in range(len(tables[0])):
        rows = [t[r] for t in tables]
        alive.append(int(statistics.median(m[ALIVE] for m in rows)))
        received.append(int(statistics.median(m[RECEIVED] for m in rows)))
        residual.append(statistics.median(m[TOTAL_RESIDUAL] for m in rows))
        losses = [m[PATH_LOSS] for m in rows if not math.isnan(m[PATH_LOSS])]
        loss.append(statistics.median(losses) if losses else math.nan)
    return [np.array(col, dtype=np.float64)
            for col in (alive, list(itertools.accumulate(received)), residual, loss)]


def same_bits(a, b):
    """Equal shape, NaN in the same cells, every other cell bit for bit."""
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return (a.shape == b.shape and np.array_equal(nan_a, nan_b)
            and np.array_equal(np.where(nan_a, 0.0, a).view(np.int64),
                               np.where(nan_b, 0.0, b).view(np.int64)))


@st.composite
def run_tables(draw):
    """1-5 runs of one length (0-6 rounds), with quiet rounds and mixed flags."""
    n_runs, rounds = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    quiet = draw(st.lists(st.booleans(), min_size=rounds, max_size=rounds))
    counts = st.integers(0, 40)
    energy = st.floats(0.0, 9.5, allow_nan=False)
    tables = []
    for _ in range(n_runs):
        rows = [(r, *(draw(counts) for _ in range(4)), draw(energy), draw(energy),
                 math.nan if quiet[r] or draw(st.booleans()) else draw(st.floats(20.0, 120.0)),
                 draw(st.booleans()))
                for r in range(rounds)]
        tables.append(np.array(rows, dtype=np.float64).reshape(-1, 9))
    return tables


class TestMedianSeries:
    """``plot_series`` merges the four plotted columns of several runs."""

    def test_field_medians(self):
        runs = [table(row(0, alive=19, sent=4, received=3, loss=30.0)),
                table(row(0, alive=17, sent=1, received=1, loss=40.0)),
                table(row(0, alive=18, sent=9, received=8, loss=35.5))]
        alive, received, residual, loss = plot_series(runs)
        assert (alive.tolist(), received.tolist(), loss.tolist()) == ([18], [3], [35.5])
        assert residual.tolist() == [row(0)[TOTAL_RESIDUAL]]

    def test_even_count_median_truncated_to_int(self):
        alive, received, _, _ = plot_series([table(row(0, alive=19, received=2)),
                                              table(row(0, alive=18, received=1))])
        assert (alive.tolist(), received.tolist()) == ([18], [1])  # int(18.5), int(1.5)

    def test_one_table_gives_its_own_columns(self):
        t = big_table(3000, seed=4)
        expected = [t[:, ALIVE], np.cumsum(t[:, RECEIVED]), t[:, TOTAL_RESIDUAL],
                    t[:, PATH_LOSS]]
        assert all(map(same_bits, plot_series([t]), expected))

    def test_path_loss_over_transmitting_runs_only(self):
        quiet = table(row(0, loss=None), row(1, loss=None))
        loud = table(row(0, loss=None), row(1, loss=42.0))
        loss = plot_series([quiet, quiet, loud])[3]
        assert math.isnan(loss[0])
        assert loss[1] == 42.0
        # About one round in eight is quiet in each run, so some rounds are
        # quiet in every run and many in only some.
        tables = [big_table(3000, seed) for seed in (1, 2)]
        nowhere = np.all([np.isnan(t[:, PATH_LOSS]) for t in tables], axis=0)
        assert 0 < nowhere.sum() < np.isnan(tables[0][:, PATH_LOSS]).sum()
        assert np.array_equal(np.isnan(plot_series(tables)[3]), nowhere)

    def test_unequal_lengths_rejected(self):
        for lengths in [(5, 3, 4), (5, 5, 4), ()]:
            runs = [table(*(row(r) for r in range(n))) for n in lengths]
            with pytest.raises(ValueError):
                plot_series(runs)

    @settings(max_examples=200, deadline=None)
    @given(run_tables())
    def test_equals_the_statistics_median_oracle(self, tables):
        assert all(map(same_bits, plot_series(tables), median_oracle(tables)))


class TestCompareRuns:
    def test_fifty_percent_stability_improvement(self):
        summaries = [summary("amhrp", s, 6000, 10000) for s in (1, 2, 3)]
        summaries += [summary("mattempt", s, 4000, 8000) for s in (1, 2, 3)]
        report = compare_runs(summaries)
        pair = report.pairwise[("amhrp", "mattempt")]
        assert pair["stability_improvement_pct"] == pytest.approx(50.0)

    def test_250_percent_lifetime_improvement(self):
        summaries = [summary("amhrp", 1, 5000, 10000),
                     summary("mattempt", 1, 4000, 2857)]
        report = compare_runs(summaries)
        pair = report.pairwise[("amhrp", "mattempt")]
        assert pair["lifetime_improvement_pct"] == pytest.approx(
            100.0 * (10000 - 2857) / 2857)

    def test_identical_summaries_give_zero_ratios(self):
        summaries = [summary("amhrp", 1, 5000, 9000),
                     summary("simple", 1, 5000, 9000)]
        report = compare_runs(summaries)
        pair = report.pairwise[("amhrp", "simple")]
        assert pair["stability_improvement_pct"] == 0.0
        assert pair["lifetime_improvement_pct"] == 0.0
        assert pair["throughput_delta_pct_points"] == 0.0
        assert pair["residual_delta_pct_points"] == 0.0

    def test_medians_only_over_shared_seeds(self):
        summaries = [summary("amhrp", s, 6000, 10000) for s in (1, 2, 3)]
        summaries += [summary("mattempt", s, 4000, 8000) for s in (2, 3, 4)]
        report = compare_runs(summaries)
        assert report.medians[0].seeds == (2, 3)

    def test_no_shared_seeds_rejected(self):
        summaries = [summary("amhrp", 1, 1, 1), summary("mattempt", 2, 1, 1)]
        with pytest.raises(ResultFileError):
            compare_runs(summaries)

    def test_non_finite_median_rejected(self):
        """Two finite residuals whose mean overflows."""
        summaries = [summary(p, s, 1, 1, residual_pct=1e308)
                     for p in ("amhrp", "simple") for s in (1, 2)]
        with pytest.raises(ResultFileError, match="amhrp: the median residual_pct_at_end "
                                                  "is not finite"):
            compare_runs(summaries)

    def test_non_finite_pairwise_value_rejected(self):
        summaries = [summary("amhrp", 1, 1, 1, residual_pct=1e308),
                     summary("simple", 1, 1, 1, residual_pct=-1e308)]
        with pytest.raises(ResultFileError, match="amhrp vs simple: residual_delta_pct_points "
                                                  "is not finite"):
            compare_runs(summaries)

    def test_single_protocol_rejected(self):
        with pytest.raises(ResultFileError):
            compare_runs([summary("amhrp", 1, 1, 1)])

    def test_zero_median_stability_has_no_improvement(self, tmp_path):
        summaries = [summary("amhrp", 1, 6000, 10000), summary("simple", 1, 0, 4000)]
        report = compare_runs(summaries)
        assert report.pairwise[("amhrp", "simple")]["stability_improvement_pct"] is None
        assert report.pairwise[("simple", "amhrp")]["stability_improvement_pct"] == -100.0
        txt, js = write_comparison(report, tmp_path)
        pair = json.loads(js.read_text())["pairwise"]["amhrp_vs_simple"]
        assert pair["stability_improvement_pct"] is None
        assert '"stability_improvement_pct": null' in js.read_text()
        assert "amhrp vs simple: stability n/a, lifetime +150.0%" in txt.read_text()

    def test_seed_order_permutation_invariant(self):
        fwd = [summary("amhrp", s, 4000 + 100 * s, 9000) for s in (1, 2, 3)]
        fwd += [summary("simple", s, 2000 + 100 * s, 4000) for s in (1, 2, 3)]
        rev = list(reversed(fwd))
        assert compare_runs(fwd) == compare_runs(rev)

    def test_render_mentions_protocols(self):
        summaries = [summary("amhrp", 1, 6000, 10000),
                     summary("mattempt", 1, 4000, 4000)]
        text = render_comparison(compare_runs(summaries))
        assert "amhrp" in text and "mattempt" in text
        assert "+50.0%" in text
