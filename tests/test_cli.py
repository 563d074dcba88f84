import json

import numpy as np
import pytest

from cicdml.cli import ingest_csv, main
from cicdml.dgp import gen_stm, named_config


@pytest.fixture
def dataset(tmp_path, capsys):
    path = tmp_path / "did.csv"
    assert main(["simulate", "--dgp", "did", "--n", "300", "--seed", "4",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def run_estimate(tmp_path, name, *args):
    out = tmp_path / name
    rc = main(["estimate", *args, "--output", str(out)])
    return rc, (out.read_bytes() if rc == 0 else None)


def write_config(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return str(path)


class TestRoundTrip:
    def test_simulate_then_ingest_reproduces_the_data(self, dataset):
        data = ingest_csv(str(dataset))
        want, _ = gen_stm(named_config("did", n=300, seed=4))
        for field in ("y0", "y1", "a", "l"):
            np.testing.assert_array_equal(getattr(data, field), getattr(want, field))

    def test_simulate_then_estimate(self, tmp_path, dataset):
        oracle = json.loads((tmp_path / "did.csv.oracle.json").read_text())
        rc, raw = run_estimate(tmp_path, "att.json", "--input", str(dataset), "--folds", "3")
        assert rc == 0
        report = json.loads(raw)
        assert report["schema_version"] == 1 and report["command"] == "estimate"
        assert report["n"] == 300 and report["K"] == 3
        assert report["ci_lo"] <= report["theta_hat"] <= report["ci_hi"]
        assert abs(report["theta_hat"] - oracle["att_true"]) < 1.0

    @pytest.mark.parametrize("extra", [[], ["--estimand", "qtt", "--tau", "0.5"],
                                       ["--estimand", "cdt", "--y-point", "1.0"]])
    def test_identical_commands_give_identical_bytes(self, tmp_path, dataset, extra):
        args = ["--input", str(dataset), "--folds", "3", *extra]
        rc1, first = run_estimate(tmp_path, "first.json", *args)
        rc2, second = run_estimate(tmp_path, "second.json", *args)
        assert rc1 == rc2 == 0
        assert first == second


class TestTsv:
    def test_estimate_floats_round_trip_at_17_digits(self, tmp_path, dataset):
        args = ["--input", str(dataset), "--folds", "3"]
        _, as_json = run_estimate(tmp_path, "a.json", *args)
        _, as_tsv = run_estimate(tmp_path, "a.tsv", *args, "--format", "tsv")
        want = json.loads(as_json)
        rows = dict(line.split("\t") for line in as_tsv.decode().splitlines())
        assert list(rows) == list(want)
        for key in ("theta_hat", "sigma2_hat", "ci_lo", "ci_hi"):
            assert float(rows[key]) == want[key]
        assert json.loads(rows["per_rep"]) == want["per_rep"]


class TestCoverage:
    ARGS = ["coverage", "--dgp", "did", "--n", "200", "--mc-reps", "2", "--folds", "2"]

    def run(self, tmp_path, name, *extra):
        out = tmp_path / name
        assert main(self.ARGS + ["--output", str(out), *extra]) == 0
        return out.read_bytes()

    def test_end_to_end_json_tsv_and_reruns(self, tmp_path):
        first = self.run(tmp_path, "first.json")
        assert self.run(tmp_path, "second.json") == first
        report = json.loads(first)
        assert list(report) == ["schema_version", "command", "dgp", "n", "K", "S", "alpha",
                                "seed", "n_reps", "cover_rate", "mean_ci_width", "rmse",
                                "mean_bias"]
        assert (report["command"], report["dgp"], report["n"], report["K"],
                report["n_reps"]) == ("coverage", "did", 200, 2, 2)
        assert report["mean_ci_width"] > 0.0
        rows = [line.split("\t") for line in self.run(tmp_path, "c.tsv", "--format",
                                                      "tsv").decode().splitlines()]
        assert all(len(row) == 2 for row in rows)
        assert {key: json.loads(value) for key, value in rows if key not in
                ("command", "dgp")} == {k: v for k, v in report.items()
                                         if k not in ("command", "dgp")}


class TestConfigFile:
    def test_explicit_flag_beats_config(self, tmp_path, dataset):
        config = write_config(tmp_path, {"folds": 3})
        _, raw = run_estimate(tmp_path, "a.json", "--input", str(dataset), "--config", config,
                              "--folds", "7")
        assert json.loads(raw)["K"] == 7
        _, raw = run_estimate(tmp_path, "b.json", "--input", str(dataset), "--config", config)
        assert json.loads(raw)["K"] == 3

    def test_stratify_key_is_honoured(self, tmp_path, dataset):
        base = ["--input", str(dataset), "--folds", "3"]
        _, plain = run_estimate(tmp_path, "plain.json", *base)
        _, flag = run_estimate(tmp_path, "flag.json", *base, "--no-stratify")
        config = write_config(tmp_path, {"stratify": False})
        _, via_config = run_estimate(tmp_path, "config.json", *base, "--config", config)
        assert via_config == flag
        assert via_config != plain

    def test_config_can_supply_the_input(self, tmp_path, dataset):
        config = write_config(tmp_path, {"input": str(dataset), "folds": 3})
        rc, raw = run_estimate(tmp_path, "a.json", "--config", config)
        assert rc == 0 and json.loads(raw)["n"] == 300


class TestExitCodes:
    @pytest.mark.parametrize("extra", [
        ["--estimand", "qtt", "--tau", "1.5"],
        ["--estimand", "qtt"],
        ["--folds", "1"],
        ["--alpha", "2"],
        ["--eps-clip", "0.7"],
        ["--f-min", "0"],
        ["--bandwidth", "-1"],
        ["--cv-folds", "1"],
    ])
    def test_bad_values_exit_2_with_an_error_line(self, tmp_path, dataset, capsys, extra):
        rc, _ = run_estimate(tmp_path, "out.json", "--input", str(dataset), *extra)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["estimate"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["estimate", "--input", str(tmp_path / "absent.csv")]) == 2

    @pytest.mark.parametrize("values", [{"no_such_key": 1}, {"kernel": "box"}])
    def test_bad_config_exits_2(self, tmp_path, dataset, capsys, values):
        config = write_config(tmp_path, values)
        rc, _ = run_estimate(tmp_path, "out.json", "--input", str(dataset), "--config", config)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["coverage", "--dgp", "did", "--mc-reps", "1"],
        ["simulate", "--dgp", "did", "--pi", "1.5"],
        ["simulate", "--dgp", "did", "--pi", "0"],
        ["validate", "--dgp", "did", "--h", "0"],
        ["validate", "--dgp", "did", "--perturbations", "-1"],
    ], ids=["mc-reps-1", "pi-1.5", "pi-0", "h-0", "perturbations-negative"])
    def test_bad_run_values_exit_2_before_any_work(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        if argv[0] == "simulate":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert not out.exists()

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y0,y1,a\n1.0,2.0,0\n1.5,oops,1\n")
        assert main(["estimate", "--input", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err


class TestValidate:
    ARGS = ["validate", "--dgp", "did", "--mc-size", "2000", "--perturbations", "1"]

    def test_prints_one_tab_separated_line_per_check(self, capsys):
        assert main(self.ARGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[:2] for line in lines] == [
            ["qq-invariance", "PASS"], ["orthogonality[0]", "PASS"]]

    @pytest.mark.parametrize("flag", [["--format", "json"], ["--n", "500"]])
    def test_options_with_no_effect_are_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + flag)
        assert exc.value.code == 2

    @pytest.mark.parametrize("values", [{"format": "json"}, {"n": 500}])
    def test_config_keys_with_no_effect_are_rejected(self, tmp_path, capsys, values):
        config = write_config(tmp_path, values)
        assert main(self.ARGS + ["--config", config]) == 2
        assert f"unknown config keys for validate: {sorted(values)}" in capsys.readouterr().err

    def test_config_supplies_the_settings(self, tmp_path, capsys):
        config = write_config(tmp_path, {"dgp": "did", "mc_size": 2000, "perturbations": 1})
        assert main(["validate", "--config", config]) == 0
        via_config = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == via_config
