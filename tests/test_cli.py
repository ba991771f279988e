import ast
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wbansim
import wbansim.cli
from wbansim import config
from wbansim.cli import _parse_seeds, main
from wbansim.config import PROTOCOLS, SimConfig, load_config
from wbansim.core import SensorKind
from wbansim.io import PLOT_FILES, plot_series, read_metrics_csv, write_plot_file


def run_cli(*args):
    return main(list(args))


class TestDumpLayout:
    def test_prints_nineteen_rows(self, capsys):
        assert run_cli("--dump-layout") == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 19
        assert out[0] == "0,ecg,0.35,1.25"


class TestSimulate:
    def test_writes_metrics_and_summary(self, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[sim]\nrounds = 200\n")
        out = tmp_path / "out"
        code = run_cli("simulate", "--config", str(cfg), "--protocol", "amhrp",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        assert (out / "metrics_amhrp_seed3.csv").exists()
        summary = json.loads((out / "summary_amhrp_seed3.json").read_text())
        assert summary["protocol"] == "amhrp"
        assert summary["seed"] == 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[sim]\nrounds = 300\n")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--config", str(cfg), "--seed", "1",
                           "--out", str(out)) == 0
        csv_a = (a / "metrics_amhrp_seed1.csv").read_bytes()
        csv_b = (b / "metrics_amhrp_seed1.csv").read_bytes()
        assert csv_a == csv_b

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sim]\nrounds = -5\n")
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "rounds" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["inf", "nan", "1e300"])
    def test_non_finite_lambda_exits_1(self, lam, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[sim]\nrounds = 5\n[events]\nlambda = {lam}\n")
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "events.lambda" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, path", [
        ("[vitals]\nheart_rate = 60, 100, 60, 100\n", "unknown section [vitals]"),
        ("[channel]\nexponent_free = 2.0\n", "unknown key channel.exponent_free"),
        ("[channel]\nk_freq = 1.0\n", "unknown key channel.k_freq"),
        # Lines before any header land in [sim].
        ("stop_on_all_dead = true\n", "unknown key sim.stop_on_all_dead"),
        ("[energy]\nx_s = nan\n", "energy.x_s: must be finite"),
        ("initial_energy = nan\n", "sim.initial_energy: must be finite"),
        ("[channel]\nsigma_db = nan\n", "channel.sigma_db: must be finite"),
        ("[energy]\nx_t = inf\n", "energy.x_t: must be finite"),
        ("seed = -1\n", "sim.seed: must be >= 0"),
        ("node_count = 1001\n", "sim.node_count: must lie in [1, 1000]"),
        ("[events]\nrounds_per_day = 1" + "0" * 400 + "\n",
         "events.rounds_per_day: too large to derive the sensing periods"),
        ("[DEFAULT]\nrounds = 5\n", "key 'rounds' outside any section"),
        ("[channel]\nnlos_pairs = 0-1, 3\n",
         "channel.nlos_pairs: expected 'i-j' pairs, got '3'"),
        ("[schedule]\nbogus = 5\n", "unknown key schedule.bogus"),
    ], ids=["vitals_section", "exponent_free", "k_freq", "stop_on_all_dead",
            "x_s_nan", "initial_energy_nan", "sigma_db_nan", "x_t_inf", "negative_seed",
            "node_count_over_cap", "rounds_per_day_past_float_range", "default_section",
            "nlos_pair_without_dash", "unknown_schedule_key"])
    def test_rejected_config_exits_1(self, text, path, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sim]\nrounds = 5\n" + text)
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = b"[sim]\nrounds = 7\nseed = 4\n[channel]\nsigma_db = 1.5\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_config(str(marked)) == load_config(str(plain))
        assert load_config(str(marked)).rounds == 7

    @pytest.mark.parametrize("data", [b"\xff\xfe[sim]\nrounds = 5\n", b"rounds = 5\n"],
                             ids=["not_utf8", "no_section_header"])
    def test_unreadable_config_names_its_file(self, data, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(data)
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert str(cfg) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_huge_window_count_runs(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[amhrp]\neq_windows = 99999999999999999999\n[sim]\nrounds = 0\n")
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        code = run_cli("simulate", "--config", str(tmp_path / "nope.ini"),
                       "--out", str(tmp_path / "o"))
        assert code == 2


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = tmp / "exp.ini"
    cfg.write_text("[sim]\nrounds = 300\n")
    out = tmp / "runs"
    assert main(["sweep", "--config", str(cfg),
                 "--protocols", "amhrp,mattempt,simple",
                 "--seeds", "1..3", "--out", str(out)]) == 0
    return out


def _without_key(text):
    data = json.loads(text)
    del data["network_lifetime"]
    return json.dumps(data)


def _with_value(key, value):
    def corrupt(text):
        return json.dumps({**json.loads(text), key: value})
    return corrupt


def _residual_at_the_float_range(text):
    """+1e308 for AMHRP, -1e308 for the others: each file is finite, but the
    difference of two protocols' medians is not."""
    data = json.loads(text)
    return json.dumps({**data, "residual_pct_at_end": 1e308 if data["protocol"] == "amhrp"
                       else -1e308})


# case -> (command, files to corrupt (a glob; one name names its own file), corruption)
BAD_RESULT_FILES = {
    "summary_missing_key": ("compare", "summary_amhrp_seed1.json", _without_key),
    "summary_unknown_key": ("compare", "summary_simple_seed2.json", _with_value("extra", 1)),
    "summary_string_number": ("compare", "summary_amhrp_seed3.json",
                              _with_value("stability_period", "4500")),
    "summary_not_json": ("compare", "summary_mattempt_seed1.json", lambda t: t[:-5]),
    "summary_nan_number": ("compare", "summary_simple_seed3.json",
                           _with_value("stability_period", float("nan"))),
    "summary_nested_too_deep": ("compare", "summary_amhrp_seed2.json",
                                lambda t: "[" * 200_000),
    "summary_int_past_int64": ("compare", "summary_amhrp_seed1.json",
                               _with_value("stability_period", 10**400)),
    # Two of three seeds per protocol, so each median is its +-1e308.
    "summary_residual_deltas_overflow": ("compare", "summary_*_seed[12].json",
                                         _residual_at_the_float_range),
    "metrics_short_row": ("plots", "metrics_amhrp_seed2.csv",
                          lambda t: t.rstrip("\n").rsplit(",", 1)[0] + "\n"),
    "metrics_bad_number": ("plots", "metrics_simple_seed1.csv",
                           lambda t: t.replace("\n5,", "\nfive,", 1)),
    "metrics_bad_header": ("plots", "metrics_mattempt_seed3.csv", lambda t: "x" + t),
    # A run always has one row per round: header plus 100 of the 300 rounds.
    "metrics_rows_cut": ("plots", "metrics_amhrp_seed2.csv",
                         lambda t: "".join(t.splitlines(keepends=True)[:101])),
}


class TestSweepCompareAndPlots:
    @pytest.mark.parametrize("case", sorted(BAD_RESULT_FILES))
    def test_bad_result_file_exits_2_naming_it(self, case, sweep_dir, tmp_path, capsys):
        """A bad file is named; a comparison that fails on valid files names
        the directory."""
        command, pattern, corrupt = BAD_RESULT_FILES[case]
        runs = tmp_path / "runs"
        shutil.copytree(sweep_dir, runs)
        paths = sorted(runs.glob(pattern))
        assert paths
        for path in paths:
            path.write_text(corrupt(path.read_text()))
        assert main([command, "--in", str(runs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ")
        assert f"{paths[0] if len(paths) == 1 else runs}: " in err

    def test_sweep_writes_every_combo(self, sweep_dir):
        assert len(list(sweep_dir.glob("metrics_*.csv"))) == 9
        assert len(list(sweep_dir.glob("summary_*.json"))) == 9

    def test_compare_writes_report(self, sweep_dir, capsys):
        assert main(["compare", "--in", str(sweep_dir)]) == 0
        out = capsys.readouterr().out
        assert "amhrp" in out and "mattempt" in out and "simple" in out
        assert (sweep_dir / "comparison.txt").exists()
        report = json.loads((sweep_dir / "comparison.json").read_text())
        assert {m["protocol"] for m in report["medians"]} == \
               {"amhrp", "mattempt", "simple"}

    def test_plots_emit_four_series(self, sweep_dir):
        assert main(["plots", "--in", str(sweep_dir)]) == 0
        for name in ("lifetime.dat", "throughput.dat", "residual.dat", "pathloss.dat"):
            series = sweep_dir / name
            assert series.exists()
            lines = series.read_text().strip().split("\n")
            assert len(lines) == 301  # header + 300 rounds
            assert lines[0] == "# round amhrp mattempt simple"

    @pytest.mark.parametrize("stray", ["metrics_backup.csv", "metrics_amhrp_seedX.csv",
                                       "metrics_foo_seed1.csv", "metrics__seed1.csv"])
    def test_plots_rejects_a_stray_file_name(self, stray, sweep_dir, tmp_path, capsys):
        runs = tmp_path / "runs"
        shutil.copytree(sweep_dir, runs, ignore=shutil.ignore_patterns("*.dat"))
        shutil.copy(runs / "metrics_amhrp_seed1.csv", runs / stray)
        assert main(["plots", "--in", str(runs)]) == 2
        assert stray in capsys.readouterr().err
        assert not (runs / "lifetime.dat").exists()

    def test_plots_on_zero_round_sweep_writes_headers_only(self, tmp_path, capfd):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[sim]\nrounds = 0\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--protocols", "amhrp,simple",
                     "--seeds", "1,2", "--out", str(out)]) == 0
        capfd.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plots", "--in", str(out)]) == 0
        assert capfd.readouterr().err == ""
        for name in ("lifetime.dat", "throughput.dat", "residual.dat", "pathloss.dat"):
            assert (out / name).read_text() == "# round amhrp simple\n"

    def test_compare_on_empty_dir_exits_2(self, tmp_path):
        assert main(["compare", "--in", str(tmp_path)]) == 2

    @pytest.mark.parametrize("names", [
        ("summary_amhrp_seed1.json", "summary_amhrp_seed2.json"),
        ("summary_amhrp_seed1.json", "summary_simple_seed2.json"),
    ], ids=["one_protocol", "no_shared_seed"])
    def test_compare_on_incomparable_dir_exits_2(self, names, sweep_dir, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        for name in names:
            shutil.copy(sweep_dir / name, runs / name)
        assert main(["compare", "--in", str(runs)]) == 2
        assert str(runs) in capsys.readouterr().err

    def test_out_dir_falls_back_to_config(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        out = tmp_path / "from_config"
        cfg.write_text(f"[sim]\nrounds = 20\nout_dir = {out}\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (out / "metrics_amhrp_seed1.csv").exists()

    def test_seed_range_syntax(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[sim]\nrounds = 50\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--protocols", "amhrp",
                     "--seeds", "2,4", "--out", str(out)]) == 0
        assert (out / "metrics_amhrp_seed2.csv").exists()
        assert (out / "metrics_amhrp_seed4.csv").exists()

    def test_repeated_grid_entries_run_once(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[sim]\nrounds = 20\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--protocols", "amhrp,amhrp",
                     "--seeds", "1,1", "--out", str(out)]) == 0
        assert f"ran 1 simulations into {out}" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics_amhrp_seed1.csv", "summary_amhrp_seed1.json"]


class TestSweepPool:
    """``sweep`` runs its grid on a process pool of one worker per usable CPU."""

    @pytest.fixture
    def short_config(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[sim]\nrounds = 60\n")
        return cfg

    def sweep(self, cfg, out):
        return main(["sweep", "--config", str(cfg), "--protocols", "amhrp,mattempt,simple",
                     "--seeds", "1..2", "--out", str(out)])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_files_match_simulate_for_any_worker_count(self, cpus, short_config,
                                                       tmp_path, monkeypatch):
        monkeypatch.setattr(wbansim.cli, "_usable_cpus", lambda: cpus)
        swept, alone = tmp_path / "swept", tmp_path / "alone"
        assert self.sweep(short_config, swept) == 0
        assert multiprocessing.active_children() == []
        for protocol in ("amhrp", "mattempt", "simple"):
            for seed in (1, 2):
                assert main(["simulate", "--config", str(short_config), "--protocol",
                             protocol, "--seed", str(seed), "--out", str(alone)]) == 0
        names = sorted(p.name for p in swept.iterdir())
        assert names == sorted(p.name for p in alone.iterdir())
        assert len(names) == 12
        for name in names:
            assert (swept / name).read_bytes() == (alone / name).read_bytes(), name

    def test_killed_worker_exits_2_without_traceback(self, short_config, tmp_path,
                                                     monkeypatch, capfd):
        run = wbansim.cli.run_simulation

        def dies_on_seed_2(cfg):
            if cfg.seed == 2:
                os._exit(3)
            return run(cfg)

        monkeypatch.setattr(wbansim.cli, "run_simulation", dies_on_seed_2)
        assert self.sweep(short_config, tmp_path / "o") == 2
        err = capfd.readouterr().err
        assert err == ("i/o error: a simulation worker ended abruptly "
                       "(killed, or out of memory)\n")
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_worker_io_error_names_the_file(self, short_config, tmp_path, capfd):
        out = tmp_path / "o"
        (out / "metrics_simple_seed2.csv").mkdir(parents=True)
        assert self.sweep(short_config, out) == 2
        err = capfd.readouterr().err
        assert f"i/o error: [Errno 21] Is a directory: '{out / 'metrics_simple_seed2.csv'}'" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_importing_the_cli_leaves_the_pool_modules_out(self):
        # ``sweep`` and ``plots`` import them when they start their pool; at
        # module level they would add to the start-up time of every command.
        code = ("import sys, wbansim.cli; print(sorted(name for name in sys.modules "
                "if name.split('.')[0] in ('multiprocessing', 'concurrent')))")
        env = {**os.environ, "PYTHONPATH": str(Path(wbansim.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"


def _cut_to_100_rounds(text):
    return "".join(text.splitlines(keepends=True)[:101])


def _bad_number(text):
    return text.replace("\n5,", "\nfive,", 1)


# case -> ({file: corruption, or None to put a directory in its place},
#          the file the message names, the rest of the message or None for any)
PLOTS_ERROR_ORDER = {
    "two_bad_protocols": ({"metrics_mattempt_seed2.csv": _bad_number,
                           "metrics_simple_seed1.csv": _bad_number},
                          "metrics_mattempt_seed2.csv", None),
    "short_later_protocol": ({f"metrics_simple_seed{s}.csv": _cut_to_100_rounds
                              for s in (1, 2, 3)},
                             "metrics_simple_seed1.csv",
                             "100 rounds, but metrics_amhrp_seed1.csv has 300"),
    "short_first_protocol": ({f"metrics_amhrp_seed{s}.csv": _cut_to_100_rounds
                              for s in (1, 2, 3)},
                             "metrics_mattempt_seed1.csv",
                             "300 rounds, but metrics_amhrp_seed1.csv has 100"),
    "short_then_bad": ({"metrics_mattempt_seed1.csv": _cut_to_100_rounds,
                        "metrics_mattempt_seed2.csv": _bad_number},
                       "metrics_mattempt_seed1.csv",
                       "100 rounds, but metrics_amhrp_seed1.csv has 300"),
    "bad_then_short_protocol": ({"metrics_mattempt_seed3.csv": _bad_number,
                                 **{f"metrics_simple_seed{s}.csv": _cut_to_100_rounds
                                    for s in (1, 2, 3)}},
                                "metrics_mattempt_seed3.csv", None),
    "directory_then_bad": ({"metrics_amhrp_seed3.csv": None,
                            "metrics_simple_seed2.csv": _bad_number},
                           "metrics_amhrp_seed3.csv", None),
}


class TestPlotsPool:
    """``plots`` reads and merges each protocol in a worker process, then
    writes each file in one, and reports failures as a serial read would."""

    @pytest.fixture
    def runs(self, sweep_dir, tmp_path):
        runs = tmp_path / "runs"
        shutil.copytree(sweep_dir, runs, ignore=shutil.ignore_patterns("*.dat"))
        return runs

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_series_match_the_in_process_merge_for_any_worker_count(self, cpus, runs,
                                                                     tmp_path, monkeypatch):
        monkeypatch.setattr(wbansim.cli, "_usable_cpus", lambda: cpus)
        assert main(["plots", "--in", str(runs)]) == 0
        assert multiprocessing.active_children() == []
        series = {protocol: plot_series([read_metrics_csv(p) for p in
                                         sorted(runs.glob(f"metrics_{protocol}_seed*.csv"))])
                  for protocol in PROTOCOLS}
        for name, columns in zip(PLOT_FILES, zip(*series.values())):
            path = write_plot_file(name, dict(zip(series, columns)), tmp_path)
            assert (runs / name).read_bytes() == path.read_bytes(), name

    def test_killed_worker_exits_2_without_traceback(self, runs, monkeypatch, capfd):
        read = wbansim.cli.read_metrics_csv

        def dies_on_one_file(path):
            if Path(path).name == "metrics_mattempt_seed2.csv":
                os._exit(3)
            return read(path)

        monkeypatch.setattr(wbansim.cli, "read_metrics_csv", dies_on_one_file)
        assert main(["plots", "--in", str(runs)]) == 2
        err = capfd.readouterr().err
        assert err == "i/o error: a plots worker ended abruptly (killed, or out of memory)\n"
        assert list(runs.glob("*.dat")) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("case", sorted(PLOTS_ERROR_ORDER))
    def test_the_first_failure_in_path_order_is_reported(self, case, runs, capsys):
        corruptions, named, message = PLOTS_ERROR_ORDER[case]
        for name, corrupt in corruptions.items():
            path = runs / name
            if corrupt is None:
                path.unlink()
                path.mkdir()
            else:
                path.write_text(corrupt(path.read_text()))
        assert main(["plots", "--in", str(runs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        if message is None:
            assert str(runs / named) in err
            assert all(name not in err for name in corruptions if name != named)
        else:
            assert err == f"i/o error: {runs / named}: {message}\n"
        assert list(runs.glob("*.dat")) == []
        assert multiprocessing.active_children() == []


class TestNoCommand:
    def test_bare_invocation_prints_help(self, capsys):
        assert main([]) == 1
        assert "simulate" in capsys.readouterr().out


# case -> (argv, exit code, text on stderr); every case runs in an empty
# directory, must leave it empty and must start no run. A case's config file,
# if it has one in CONFIG_FILES, lies next to that directory, as ../exp.ini.
EXIT_CODES = {
    "help": (["--help"], 0, ""),
    "sweep_help": (["sweep", "--help"], 0, ""),
    "unknown_option": (["--bogus"], 1, "unrecognized arguments: --bogus"),
    "unknown_protocol_choice": (["simulate", "--protocol", "foo", "--out", "o"], 1,
                                "invalid choice: 'foo'"),
    "seed_not_int": (["simulate", "--seed", "x", "--out", "o"], 1,
                     "invalid int value: 'x'"),
    "missing_option_value": (["compare", "--in"], 1, "expected one argument"),
    "no_protocols": (["sweep", "--protocols", ",", "--out", "o"], 1, "--protocols"),
    "bad_protocols_entry": (["sweep", "--protocols", "amhrp,foo", "--seeds", "1..2",
                             "--out", "o"], 1, "sim.protocol"),
    "bad_seeds_range": (["sweep", "--seeds", "1..x", "--out", "o"], 1, "--seeds"),
    "seeds_over_cap": (["sweep", "--seeds", "1..1000000000000", "--out", "o"], 1, "--seeds"),
    "no_seeds": (["sweep", "--seeds", ",", "--out", "o"], 1, "--seeds"),
    # ARABIC-INDIC DIGIT ONE, which int() reads as 1.
    "seeds_non_ascii_digit": (["sweep", "--seeds", "\u0661", "--out", "o"], 1,
                              "error: --seeds: "),
    "negative_seed_in_grid": (["sweep", "--seeds=2,-1", "--out", "o"], 1,
                              "sim.seed: must be >= 0"),
    "missing_config": (["simulate", "--config", "nope.ini", "--out", "o"], 2, "nope.ini"),
    "out_null_byte": (["simulate", "--out", "o\x00"], 1, "--out: embedded null byte"),
    "plots_on_empty_dir": (["plots", "--in", "."], 2, "no metrics_*.csv"),
    "compare_on_empty_dir": (["compare", "--in", "."], 2, "i/o error: no summary_*.json"),
    "ints_past_the_float_range": (["simulate", "--config", "../exp.ini", "--out", "o"], 1,
                                  "sim.rounds: must lie in [0, 1000000]"),
}
CONFIG_FILES = {
    "ints_past_the_float_range": f"[sim]\nnode_count = {10**400}\nrounds = {10**400}\n",
}


def _no_runs(monkeypatch) -> list:
    """Record, instead of running, every simulation the CLI starts."""
    runs = []
    monkeypatch.setattr(wbansim.cli, "run_simulation", runs.append)
    return runs


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(EXIT_CODES))
    def test_exit_code(self, case, tmp_path, monkeypatch, capsys):
        argv, code, err = EXIT_CODES[case]
        if case in CONFIG_FILES:
            (tmp_path / "exp.ini").write_text(CONFIG_FILES[case], encoding="utf-8")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        runs = _no_runs(monkeypatch)
        assert main(argv) == code
        assert err in capsys.readouterr().err
        assert list(run_dir.iterdir()) == []
        assert runs == []

    def test_out_naming_a_file_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        runs = _no_runs(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["simulate", "--out", str(taken)]) == 2
        assert str(taken) in capsys.readouterr().err
        assert runs == []

    def test_config_syntax_error_is_one_violation_line(self, tmp_path, monkeypatch, capsys):
        """configparser's message spans three lines here; the report keeps it
        on the one indented line of its violation."""
        (tmp_path / "exp.ini").write_text("rounds = 3\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        runs = _no_runs(monkeypatch)
        assert main(["simulate", "--config", "exp.ini", "--out", "o"]) == 1
        assert capsys.readouterr().err == (
            "configuration error: invalid configuration:\n"
            "  parse error: File contains no section headers. "
            "file: 'exp.ini', line: 1 'rounds = 3\\n'\n")
        assert runs == []

    def test_only_main_writes_to_stderr(self):
        """The commands raise, and main prints each failure and picks its code."""
        tree = ast.parse(Path(wbansim.cli.__file__).read_text(encoding="utf-8"))
        writers = [getattr(top, "name", None) for top in tree.body
                   if any(isinstance(n, ast.Attribute) and n.attr == "stderr"
                          and isinstance(n.value, ast.Name) and n.value.id == "sys"
                          for n in ast.walk(top))]
        assert writers == ["main"]


class TestSeedGrammar:
    def test_ranges_and_lists_mix_and_empty_parts_are_skipped(self):
        assert _parse_seeds(" 1..3,,7, ") == [1, 2, 3, 7]

    @pytest.mark.parametrize("spec", ["1..\u0663", "1_0", "\uff11"])
    def test_only_ascii_digits(self, spec):
        with pytest.raises(ValueError, match="--seeds: "):
            _parse_seeds(spec)


class TestSeedCap:
    def test_cap_is_inclusive(self):
        assert _parse_seeds("1..100000") == list(range(1, 100001))

    @pytest.mark.parametrize("spec", ["1..100001", "1..60000,1..60000"])
    def test_over_cap_is_rejected_before_expanding(self, spec):
        with pytest.raises(ValueError, match="--seeds: .* more than 100000"):
            _parse_seeds(spec)


# Each INI section's keys with their default values, ``sim.rounds`` left out:
# every file the fuzz writes sets it to at most 5, so no drawn command runs long.
def _scalar_defaults(section) -> dict[str, str]:
    return {key: str(getattr(section, attr))
            for key, (attr, _, _) in config._scalar_keys(type(section)).items()}


_DEFAULTS = {name: _scalar_defaults(config._section(SimConfig(), name))
             for name in config._SECTIONS if name != "schedule"}
del _DEFAULTS["sim"]["rounds"]
_DEFAULTS["channel"]["nlos_pairs"] = "0-1"
_DEFAULTS["schedule"] = {kind.value: "5" for kind in SensorKind}
_JUNK = st.one_of(
    st.integers(-2, 25).map(str),
    st.sampled_from(["0.5", "7e-6", "nan", "inf", "-inf", "1e999", "1" + "0" * 400,
                     "-" + "9" * 400, "9" * 5000, "", "x", "true", "no", "amhrp",
                     "canonical", "1-2, 3-4", "0-0", "0x10"]))
_SECTION = st.sampled_from([*_DEFAULTS, "vitals"]).flatmap(lambda name: st.tuples(
    st.just(name),
    st.lists(st.sampled_from([*_DEFAULTS.get(name, {}), "bogus"]).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(
            st.just(_DEFAULTS.get(name, {}).get(key, "1")), _JUNK))),
        max_size=4, unique_by=lambda entry: entry[0])))
_STRAY = st.one_of(st.binary(max_size=6),
                   st.sampled_from([b"\xff", b"\x00", b"[", b"[sim]", b"=", b"%(x)s",
                                    b" indented", b"\xef\xbb\xbf"]))


@st.composite
def _ini(draw) -> bytes:
    """[sim] with a short run, drawn sections, maybe a repeated section or
    key, and stray bytes between lines."""
    sections = dict(draw(st.lists(_SECTION, max_size=4, unique_by=lambda s: s[0])))
    lines = [b"[sim]", b"rounds = %d" % draw(st.integers(0, 5))]
    for name, entries in [("", sections.pop("sim", [])), *sections.items()]:
        if name:
            lines.append(f"[{name}]".encode())
        lines += [f"{key} = {value}".encode() for key, value in entries]
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from([b"[sim]", b"rounds = 1"])))
    for pos, stray in draw(st.lists(st.tuples(st.integers(0, 40), _STRAY), max_size=2)):
        lines.insert(pos, stray)
    return b"\n".join(lines)


_SEED_SPECS = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda r: f"{r[0]}..{r[1]}"),
    st.lists(st.integers(-1, 3), max_size=3).map(lambda s: ",".join(map(str, s))),
    st.sampled_from(["1..100001", "1..1000000000000", "1..60000,1..60000",
                     "x", "1..", "..", "1..x", "1e3", " 2 , 3 "]))
_OPTION = st.one_of(
    st.sampled_from(["exp.ini", "nope.ini", ".", "exp.ini/x"]).map(lambda p: ["--config", p]),
    st.sampled_from([*PROTOCOLS, "foo", ""]).map(lambda p: ["--protocol", p]),
    st.sampled_from(["0", "3", "-1", "x", "1" + "0" * 30]).map(lambda s: ["--seed", s]),
    st.lists(st.sampled_from([*PROTOCOLS, "foo", ""]), max_size=3).map(
        lambda ps: ["--protocols", ",".join(ps)]),
    _SEED_SPECS.map(lambda s: ["--seeds", s]),
    st.sampled_from(["o", "", "exp.ini", "exp.ini/o", "o/p", "o\x00"]).map(
        lambda p: ["--out", p]),
    st.sampled_from([".", "o", "nope", "exp.ini"]).map(lambda p: ["--in", p]),
    st.sampled_from(["--bogus", "-", "--", "x", "--seed", "--out", "-h"]).map(lambda t: [t]))


@st.composite
def _argv(draw) -> list[str]:
    """A command, its options and junk; ``simulate`` and ``sweep`` read the
    drawn INI file unless a later ``--config`` names another."""
    command = draw(st.sampled_from(["simulate", "sweep", "compare", "plots",
                                    "--dump-layout", "bogus"]))
    argv = [command]
    if command in ("simulate", "sweep"):
        argv += ["--config", "exp.ini"]
    for option in draw(st.lists(_OPTION, max_size=4)):
        argv += option
    return argv


class TestCliFuzz:
    """``main`` maps any command line and config file to an exit code."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(commands=st.lists(_argv(), min_size=1, max_size=3), ini=_ini())
    def test_any_input_gives_an_exit_code(self, commands, ini, tmp_path, monkeypatch):
        # One worker: a sweep's runs are a few rounds each.
        monkeypatch.setattr(wbansim.cli, "_usable_cpus", lambda: 1)
        # The commands share a directory, so compare and plots may read a
        # sweep's files.
        monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
        Path("exp.ini").write_bytes(ini)
        for argv in commands:
            assert main(argv) in (0, 1, 2), argv
