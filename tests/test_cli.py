import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import wbansim
import wbansim.cli
from wbansim.cli import main
from wbansim.config import load_config


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
    ], ids=["vitals_section", "exponent_free", "k_freq", "stop_on_all_dead",
            "x_s_nan", "initial_energy_nan", "sigma_db_nan", "x_t_inf", "negative_seed",
            "node_count_over_cap"])
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


# case -> (command, file to corrupt, corruption)
BAD_RESULT_FILES = {
    "summary_missing_key": ("compare", "summary_amhrp_seed1.json", _without_key),
    "summary_unknown_key": ("compare", "summary_simple_seed2.json", _with_value("extra", 1)),
    "summary_string_number": ("compare", "summary_amhrp_seed3.json",
                              _with_value("stability_period", "4500")),
    "summary_not_json": ("compare", "summary_mattempt_seed1.json", lambda t: t[:-5]),
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
        command, name, corrupt = BAD_RESULT_FILES[case]
        runs = tmp_path / "runs"
        shutil.copytree(sweep_dir, runs)
        path = runs / name
        path.write_text(corrupt(path.read_text()))
        assert main([command, "--in", str(runs)]) == 2
        assert name in capsys.readouterr().err

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
        assert "a simulation worker ended abruptly" in err
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
        # ``sweep`` imports them itself; at module level they would add to
        # the start-up time of every command.
        code = ("import sys, wbansim.cli; "
                "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": str(Path(wbansim.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"


class TestNoCommand:
    def test_bare_invocation_prints_help(self, capsys):
        assert main([]) == 1
        assert "simulate" in capsys.readouterr().out


# case -> (argv, exit code, text on stderr); every case runs in an empty
# directory and must leave it empty.
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
    "no_seeds": (["sweep", "--seeds", ",", "--out", "o"], 1, "--seeds"),
    "negative_seed_in_grid": (["sweep", "--seeds=2,-1", "--out", "o"], 1,
                              "sim.seed: must be >= 0"),
    "missing_config": (["simulate", "--config", "nope.ini", "--out", "o"], 2, "nope.ini"),
    "plots_on_empty_dir": (["plots", "--in", "."], 2, "no metrics_*.csv"),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(EXIT_CODES))
    def test_exit_code(self, case, tmp_path, monkeypatch, capsys):
        argv, code, err = EXIT_CODES[case]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        assert err in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
