import json
import shutil

import pytest

from wbansim.cli import main


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
    ], ids=["vitals_section", "exponent_free", "k_freq", "stop_on_all_dead",
            "x_s_nan", "initial_energy_nan", "sigma_db_nan", "x_t_inf", "negative_seed"])
    def test_rejected_config_exits_1(self, text, path, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sim]\nrounds = 5\n" + text)
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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


class TestNoCommand:
    def test_bare_invocation_prints_help(self, capsys):
        assert main([]) == 1
        assert "simulate" in capsys.readouterr().out
