import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cicdml
from cicdml import cli
from cicdml.cli import ingest_csv, main
from cicdml.dgp import gen_stm, named_config
from cicdml.errors import DimensionMismatch, NonBinaryTreatment, NonFiniteValue, ParseError


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

    def test_dataset_text_is_the_row_by_row_csv_writer_text(self, tmp_path):
        # The text is built in one join; a csv.writer row by row is the
        # reference, for covariates too, and ingest reads it back exactly.
        data, _ = gen_stm(named_config("stm-cov", n=200, seed=3))
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["y0", "y1", "a", "l1", "l2"])
        for i in range(data.n):
            writer.writerow([f"{data.y0[i]:.17g}", f"{data.y1[i]:.17g}", str(int(data.a[i]))]
                            + [f"{v:.17g}" for v in data.l[i]])
        assert cli.dataset_csv(data) == want.getvalue()
        path = tmp_path / "cov.csv"
        path.write_bytes(want.getvalue().encode())
        back = ingest_csv(str(path))
        for field in ("y0", "y1", "a", "l"):
            np.testing.assert_array_equal(getattr(back, field), getattr(data, field))

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


class TestColdStart:
    def test_cli_imports_no_scipy(self):
        # A fresh interpreter, so that no other test's import counts.
        src = str(Path(cicdml.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import cicdml.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout == "[]\n"


class TestIngestErrors:
    """Each malformed file raises its class and message, numbered by the
    1-based line of the first bad row; blank lines are skipped but still
    counted."""

    @pytest.mark.parametrize("text, error, message", [
        ("y0,y1,a\n1.0,2.0,0\n1.5,oops,1\n", ParseError,
         "line 3: could not convert string to float: 'oops'"),
        ("y0,y1,a\n1,,0\n1,2,1\n", ParseError, "line 2: could not convert string to float: ''"),
        ("y0,y1,a,l1\n1,2,0,3\n1,2,1\n", ParseError, "line 3: expected 4 fields, got 3"),
        ("y0,y1,a\n1,2,0\n1,2,1,4\n", ParseError, "line 3: expected 3 fields, got 4"),
        ("y0,y1,a\n1,2,0\n \n1,2,1\n", ParseError, "line 3: expected 3 fields, got 1"),
        ("y0,y1,a\n1,2,0\n\n1,2,2\n", NonBinaryTreatment,
         "line 4: treatment must be 0 or 1, got 2"),
        ("y0,y1,a\r\n1,2,0\r\n\r\n1,2,nan\r\n", NonBinaryTreatment,
         "line 4: treatment must be 0 or 1, got nan"),
        ("y0,y1,a\n1,2,5\n1,x,1\n", NonBinaryTreatment,
         "line 2: treatment must be 0 or 1, got 5"),
        ("y0,y1,a\n1,x,0\n1,2\n", ParseError, "line 2: could not convert string to float: 'x'"),
        ("y0,y2,a\n1,2,0\n", ParseError,
         "line 1: header must start with y0,y1,a; got ['y0', 'y2', 'a']"),
        ("y0,y1,a,l2\n1,2,0,3\n", ParseError,
         "line 1: covariate columns must be ['l1']; got ['l2']"),
        ("", ParseError, "line 1: empty file"),
        ("y0,y1,a\n", DimensionMismatch, "need at least 2 observations"),
        ("y0,y1,a\n1,nan,0\n1,2,1\n", NonFiniteValue, "y1 contains non-finite values"),
    ], ids=["bad-float", "empty-field", "short-row", "long-row", "blank-space-row",
            "treatment-2-after-blank", "treatment-nan-crlf", "first-bad-row-wins",
            "float-before-width", "header", "covariate-header", "empty-file", "header-only",
            "non-finite-outcome"])
    def test_error_class_message_and_line(self, tmp_path, text, error, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(error) as exc:
            ingest_csv(str(path))
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_accepted_forms(self, tmp_path):
        # Spaces around header names, quoted fields, 1.0 and -0 as
        # treatments, CRLF line ends and blank lines.
        path = tmp_path / "ok.csv"
        path.write_bytes(b' y0 , y1 ,a,l1\r\n"1.5",2,1.0,7\r\n\r\n3,4e0,-0,8\r\n')
        data = ingest_csv(str(path))
        np.testing.assert_array_equal(data.y0, [1.5, 3.0])
        np.testing.assert_array_equal(data.y1, [2.0, 4.0])
        np.testing.assert_array_equal(data.l, [[7.0], [8.0]])
        assert data.a.tolist() == [1, 0] and data.a.dtype == np.int64


class TestSimulateReport:
    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_keys_and_their_order(self, tmp_path, capsys, fmt):
        out = tmp_path / "did.csv"
        assert main(["simulate", "--dgp", "did", "--n", "50", "--out", str(out),
                     "--format", fmt]) == 0
        text = capsys.readouterr().out
        report = (json.loads(text) if fmt == "json"
                  else dict(line.split("\t") for line in text.splitlines()))
        assert list(report) == ["schema_version", "command", "dataset", "oracle", "att_true"]
        oracle = json.loads((tmp_path / "did.csv.oracle.json").read_text())
        assert int(report["schema_version"]) == 1
        assert (report["command"], report["dataset"], report["oracle"]) == (
            "simulate", str(out), str(out) + ".oracle.json")
        assert float(report["att_true"]) == oracle["att_true"]


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
        ["--bandwidth", "inf"],
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

    @pytest.mark.parametrize("values", [
        {"no_such_key": 1}, {"kernel": "box"}, {"folds": 2.5}, {"reps": None},
        {"seed": 1.5}, {"seed": True}, {"stratify": "no"}, {"alpha": "0.1"},
        {"cv_folds": 3}, {"n": 50.5}, {"seed": -1},
    ])
    def test_bad_config_exits_2(self, tmp_path, dataset, capsys, values):
        # Run on both subcommands: a key that one of them lacks is unknown
        # to it, and the error line names the key either way.
        config = write_config(tmp_path, values)
        out = tmp_path / "x.csv"
        for argv in (["estimate", "--input", str(dataset), "--output", str(tmp_path / "r")],
                     ["simulate", "--dgp", "did", "--out", str(out)]):
            assert main(argv + ["--config", config]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and captured.out == ""
            assert all(key in captured.err for key in values)
        assert not out.exists() and not (tmp_path / "r").exists()

    def test_kernel_is_no_option(self, tmp_path, dataset, capsys):
        # The Gaussian is the only kernel: argparse rejects the flag, and
        # a kernel config key is unknown.
        argv = ["estimate", "--input", str(dataset), "--output", str(tmp_path / "r")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--kernel", "epanechnikov"])
        assert exc.value.code == 2
        assert main(argv + ["--config", write_config(tmp_path, {"kernel": "gaussian"})]) == 2
        assert "unknown config keys for estimate: ['kernel']" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_config_takes_integers_for_float_options(self, tmp_path):
        config = write_config(tmp_path, {"effect": 3, "trend": 2, "pi": None})
        for name, extra in (("flag", ["--effect", "3", "--trend", "2"]),
                            ("config", ["--config", config])):
            assert main(["simulate", "--dgp", "did", "--n", "50", "--out",
                         str(tmp_path / f"{name}.csv"), "--output",
                         str(tmp_path / "r.json"), *extra]) == 0
        oracle = [(tmp_path / f"{name}.csv.oracle.json").read_bytes()
                  for name in ("flag", "config")]
        assert oracle[0] == oracle[1]

    @pytest.mark.parametrize("argv", [
        ["coverage", "--dgp", "did", "--mc-reps", "1"],
        ["simulate", "--dgp", "did", "--pi", "1.5"],
        ["simulate", "--dgp", "did", "--pi", "0"],
        ["validate", "--dgp", "did", "--h", "0"],
        ["validate", "--dgp", "did", "--perturbations", "-1"],
        ["simulate", "--dgp", "did", "--n", "-5"],
        ["coverage", "--dgp", "did", "--n", "-5"],
        ["validate", "--dgp", "did", "--mc-size", "-5"],
        ["estimate", "--seed", "-1"],
        ["simulate", "--dgp", "did", "--seed", "-1"],
        ["validate", "--dgp", "did", "--seed", "-1"],
        ["coverage", "--dgp", "did", "--seed", "-1"],
    ], ids=["mc-reps-1", "pi-1.5", "pi-0", "h-0", "perturbations-negative", "simulate-n-negative",
            "coverage-n-negative", "mc-size-negative", "estimate-seed-negative",
            "simulate-seed-negative", "validate-seed-negative", "coverage-seed-negative"])
    def test_bad_run_values_exit_2_before_any_work(self, tmp_path, dataset, capsys, argv):
        out = tmp_path / "x.csv"
        if argv[0] == "simulate":
            argv = argv + ["--out", str(out)]
        if argv[0] == "estimate":
            argv = argv + ["--input", str(dataset), "--output", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("dgp", ["stm-exp", "stm-power", "stm-broken", "stm-cov"])
    @pytest.mark.parametrize("option", [("pi", "0.9"), ("trend", "7")])
    @pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
    def test_did_only_options_rejected_for_other_models(self, tmp_path, capsys, dgp,
                                                        option, as_config):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--dgp", dgp, "--n", "50", "--out", str(out)]
        if as_config:
            argv += ["--config", write_config(tmp_path, {option[0]: float(option[1])})]
        else:
            argv += [f"--{option[0]}", option[1]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert not out.exists()

    def test_did_takes_pi_and_trend(self, tmp_path, capsys):
        default = tmp_path / "default.csv"
        explicit = tmp_path / "explicit.csv"
        moved = tmp_path / "moved.csv"
        base = ["simulate", "--dgp", "did", "--n", "50", "--output", str(tmp_path / "r.json")]
        assert main(base + ["--out", str(default)]) == 0
        assert main(base + ["--out", str(explicit), "--pi", "0.5", "--trend", "1"]) == 0
        assert main(base + ["--out", str(moved), "--pi", "0.9", "--trend", "7"]) == 0
        assert default.read_bytes() == explicit.read_bytes()
        assert default.read_bytes() != moved.read_bytes()

    @pytest.mark.parametrize("call, argv", [
        ("estimate", ["estimate", "--folds", "3"]),
        ("gen_stm", ["simulate", "--dgp", "did"]),
        ("orthogonality_check", ["validate", "--dgp", "did", "--mc-size", "2000"]),
        ("coverage_study", ["coverage", "--dgp", "did", "--mc-reps", "2"]),
    ], ids=["estimate", "simulate", "validate", "coverage"])
    def test_a_value_error_from_the_library_exits_2(self, tmp_path, dataset, capsys,
                                                    monkeypatch, call, argv):
        # Every subcommand shares one error boundary: a plain ValueError
        # from its library call is an error line and exit 2, not a traceback.
        def reject(*args, **kwargs):
            raise ValueError("rejected")

        monkeypatch.setattr(cli, call, reject)
        extra = {"estimate": ["--input", str(dataset)],
                 "simulate": ["--out", str(tmp_path / "x.csv")]}.get(argv[0], [])
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("bad", ["oracle", "dataset", "report"])
    def test_unwritable_simulate_output_leaves_no_file(self, tmp_path, capsys, bad):
        # Every output path is opened before any is written, so a path
        # that cannot be opened leaves no file behind.
        paths = {"dataset": tmp_path / "o.csv", "oracle": tmp_path / "o.json"}
        paths[bad] = tmp_path / "absent" / "x"
        argv = ["simulate", "--dgp", "did", "--n", "50", "--out", str(paths["dataset"]),
                "--oracle-out", str(paths["oracle"])]
        if bad == "report":
            argv += ["--output", str(paths["report"])]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_existing_outputs_are_untouched_when_one_path_fails(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        out.write_text("keep")
        assert main(["simulate", "--dgp", "did", "--n", "50", "--out", str(out),
                     "--oracle-out", str(tmp_path / "absent" / "x")]) == 2
        assert out.read_text() == "keep"

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

    def test_covariate_model_at_the_default_size(self, capsys):
        # 100 000 draws and 3 perturbations: about 0.4 s on one thread.
        assert main(["validate", "--dgp", "stm-cov"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[:2] for line in lines] == [
            ["qq-invariance", "PASS"]] + [[f"orthogonality[{j}]", "PASS"] for j in range(3)]

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
