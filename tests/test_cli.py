import argparse
import csv
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cicdml
from cicdml import cli, validation
from cicdml.cli import ingest_csv, main
from cicdml.dgp import gen_stm, named_config
from cicdml.estimator import CrossFitConfig
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

    def test_common_files_take_one_parser_pass(self, monkeypatch, tmp_path, dataset):
        # Neither the text that simulate writes nor quoted and padded
        # fields under a byte-order mark with bare-CR ends reach the csv
        # reader.
        def refuse(rows, width):
            raise AssertionError("read again by the csv reader")

        monkeypatch.setattr(cli, "_csv_values", refuse)
        assert ingest_csv(str(dataset)).n == 300
        path = tmp_path / "quoted.csv"
        path.write_bytes(b'\xef\xbb\xbfy0,y1,a\r"1.5", -2 ,1\r\r"+.5e1",\t1e3,"0"\r')
        data = ingest_csv(str(path))
        np.testing.assert_array_equal(np.c_[data.y0, data.y1], [[1.5, -2.0], [5.0, 1000.0]])
        assert data.a.tolist() == [1, 0]

    def test_a_byte_order_mark_is_skipped(self, tmp_path, dataset):
        # Spreadsheet exports start their UTF-8 files with one.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + dataset.read_bytes())
        assert cli.dataset_csv(ingest_csv(str(path))).encode() == dataset.read_bytes()

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

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--no-such-flag"], 2)])
    def test_the_package_runs_as_a_module(self, argv, code):
        # python -m cicdml from a checkout, without an installed entry point.
        src = str(Path(cicdml.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-m", "cicdml", *argv], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == code
        assert "usage: cicdml" in (proc.stdout if code == 0 else proc.stderr)


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
        ("\ny0,y1,a\n1,2,0\n", ParseError, "line 1: header must start with y0,y1,a; got []"),
        ("y0,y1,a\r1,2,0\r\r1,x,1\r", ParseError,
         "line 4: could not convert string to float: 'x'"),
        ("y0,y1,a\n1_0,2,0\n\u0663,2,2\n", NonBinaryTreatment,
         "line 3: treatment must be 0 or 1, got 2"),
        ("y0,y1,a,l1\n1,2,0,3#4\n1,2,1,5\n", ParseError,
         "line 2: could not convert string to float: '3#4'"),
    ], ids=["bad-float", "empty-field", "short-row", "long-row", "blank-space-row",
            "treatment-2-after-blank", "treatment-nan-crlf", "first-bad-row-wins",
            "float-before-width", "header", "covariate-header", "empty-file", "header-only",
            "non-finite-outcome", "blank-first-line", "bare-cr", "csv-reader-spellings",
            "no-comments"])
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
        # Bare-CR line ends, with a blank line.
        path.write_bytes(b"y0,y1,a\r1.5,2,1\r\r3,4,0\r")
        data = ingest_csv(str(path))
        np.testing.assert_array_equal(np.c_[data.y0, data.y1], [[1.5, 2.0], [3.0, 4.0]])
        assert data.a.tolist() == [1, 0]
        # Spellings that only Python's float reads: an underscore,
        # non-ASCII digits and padding. The csv reader converts them.
        path.write_bytes("y0,y1,a\n1_0,\u0662.5,0\n\u00a03,\uff14,1\n".encode())
        data = ingest_csv(str(path))
        np.testing.assert_array_equal(np.c_[data.y0, data.y1], [[10.0, 2.5], [3.0, 4.0]])
        assert data.a.tolist() == [0, 1]

    def test_a_pipe_is_read_by_the_csv_reader(self):
        # A pipe can be read only once, so its rows never take numpy's
        # parser: they get the csv reader's values and errors.
        def pipe(text):
            read, write = os.pipe()
            os.write(write, text.encode())
            os.close(write)
            return read

        read = pipe("y0,y1,a\n1_0,2,0\n3,4,1\n")
        try:
            np.testing.assert_array_equal(ingest_csv(f"/dev/fd/{read}").y0, [10.0, 3.0])
        finally:
            os.close(read)
        read = pipe("y0,y1,a\n1,2,0\n\n1,2,2\n")
        try:
            with pytest.raises(NonBinaryTreatment, match="^line 4: treatment must be 0 or 1"):
                ingest_csv(f"/dev/fd/{read}")
        finally:
            os.close(read)

    def test_a_field_over_the_csv_limit_is_a_parse_error(self, tmp_path, capsys):
        # The C pass refuses the unterminated quote, and the csv reader
        # then meets the 200 001-character field, over its 131 072 limit.
        path = tmp_path / "big.csv"
        path.write_text("y0,y1,a\n1," + "9" * 200_001 + ',0\n1,"2,1\n3,4,0\n')
        with pytest.raises(ParseError) as exc:
            ingest_csv(str(path))
        assert str(exc.value) == "line 2: field larger than field limit (131072)"
        assert main(["estimate", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: field larger than field limit (131072)\n"
        assert captured.out == ""

    def test_reread_lines_are_numbered_from_the_top(self, tmp_path):
        # The C pass refuses 1_0, so the csv reader reads the file again
        # from the top and numbers its own error by the file's line.
        path = tmp_path / "bad.csv"
        path.write_text('y0,y1,a\n1_0,2,0\n\n1,"' + "9" * 200_001 + '",1\n')
        with pytest.raises(ParseError, match="^line 4: field larger than field limit"):
            ingest_csv(str(path))


def _reference_ingest(path: str):
    """The conversion that ingest_csv made with the csv reader alone:
    its rows, then one np.array call, then the first bad row's error;
    without the dataset checks, so that every value is compared."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError("empty file", line=1)
    header = [h.strip() for h in rows[0]]
    if header[:3] != ["y0", "y1", "a"]:
        raise ParseError(f"header must start with y0,y1,a; got {header[:3]}", line=1)
    p = len(header) - 3
    expected = [f"l{j + 1}" for j in range(p)]
    if header[3:] != expected:
        raise ParseError(f"covariate columns must be {expected}; got {header[3:]}", line=1)
    body = [row for row in rows[1:] if row]
    try:
        values = np.array(body, dtype=float).reshape(len(body), 3 + p)
    except ValueError:
        values = None
    if values is None or not np.isin(values[:, 2], (0.0, 1.0)).all():
        for lineno, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) != 3 + p:
                raise ParseError(f"expected {3 + p} fields, got {len(row)}", line=lineno)
            try:
                treatment = [float(v) for v in row][2]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if treatment not in (0.0, 1.0):
                raise NonBinaryTreatment(
                    f"line {lineno}: treatment must be 0 or 1, got {row[2]}")
        raise ParseError("malformed data rows")
    return cli.PanelDataset(y0=values[:, 0].copy(), y1=values[:, 1].copy(),
                            a=values[:, 2].astype(int), l=values[:, 3:].copy())


_DIGITS = st.text("0123456789", max_size=4)
_SIGN = st.sampled_from(["", "+", "-"])
# ASCII decimals with sign and exponent, and the inf and nan forms.
_DECIMAL = st.one_of(
    st.builds(lambda sign, whole, frac, exp: sign + whole + frac + exp, _SIGN, _DIGITS,
              st.one_of(st.just(""), _DIGITS.map(".".__add__)),
              st.one_of(st.just(""), st.builds("".join, st.tuples(
                  st.sampled_from("eE"), _SIGN, _DIGITS)))),
    st.floats().map("{:.17g}".format),
    st.sampled_from(["inf", "-inf", "+Inf", "Infinity", "-infinity", "nan", "NaN", "-nan",
                     "+NAN"]),
)
# Spellings that Python's float reads and numpy's parser may not, fields
# that neither reads, and treatments other than 0 or 1.
_ODD = st.sampled_from([
    "1_0", "1__0", "_1", "\u0661", "\u0967\u0968", "\uff11.5", "\u00a01", "1\u00a0", "",
    "x", "0x1p3", "1e", ".", "1#2", '"1"2', '"1" ', '"1\n2"', '" 1\r\n"', '"', 'a"b',
    '"1""2"', "2", "0.5", "nan", "-1"])
_PAD = st.sampled_from(["", "", " ", "\t", "  "])
_BINARY = st.sampled_from(["0", "1", "1.0", "-0", "0e0", "+1", "00", ".0e-0"])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_SPACES = st.sampled_from([" ", "\t", "  ", " \t"])


def _reads(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def _dressed(draw, core):
    """A field: padded with spaces or tabs, then maybe quoted."""
    field = draw(_PAD) + draw(core) + draw(_PAD)
    return f'"{field}"' if draw(st.booleans()) else field


@st.composite
def _csv_texts(draw):
    """Dataset texts under a header of p covariates: rows of decimals
    that float reads with 0/1 treatments, and blank lines, the common
    files. A third of them then take one odd field or line, and a third
    mix odd fields and lines throughout."""
    p = draw(st.integers(0, 2))
    width = 3 + p
    mode = draw(st.sampled_from(["common", "one odd piece", "mixed"]))
    field, treatment = _dressed(_DECIMAL.filter(_reads)), _dressed(_BINARY)
    kinds = ["row"] * 6 + ["blank"]
    if mode == "mixed":
        field = treatment = st.one_of(_dressed(_DECIMAL), _dressed(_BINARY), _ODD)
        kinds += ["space", "ragged"]
    lines = [["y0", "y1", "a"] + [f"l{j + 1}" for j in range(p)]]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(_SPACES))
        else:
            count = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            lines.append([draw(treatment if j == 2 else field) for j in range(count)])
    if mode == "one odd piece" and len(lines) > 1:
        i = draw(st.integers(1, len(lines) - 1))
        row = lines[i] or [draw(field) for _ in range(width)]
        change = draw(st.sampled_from(["field", "short", "long", "space"]))
        if change == "field":
            row[draw(st.integers(0, width - 1))] = draw(_ODD)
        elif change == "short":
            row = row[:-1]
        elif change == "long":
            row = row + ["1"]
        else:
            row = draw(_SPACES)
        lines[i] = row
    ends = draw(st.one_of(_LINE_ENDS, st.none()))
    text = "".join((line if isinstance(line, str) else ",".join(line))
                   + (ends or draw(_LINE_ENDS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _ingest_outcome(read, path: str):
    """The arrays that read gives, by dtype, shape and bytes, or the class
    and message of its error."""
    try:
        data = read(path)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return [(v.dtype.str, v.shape, v.tobytes()) for v in (data.y0, data.y1, data.a, data.l)]


class TestIngestParity:
    """ingest_csv gives what the csv reader's conversion gave, bit for bit,
    or its error: numpy's parser reads no spelling that the csv reader
    refuses, reads none to another value, and hands back every file it
    refuses."""

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("parity") / "data.csv")

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(text=_csv_texts())
    def test_matches_the_csv_reader(self, csv_path, text):
        with open(csv_path, "wb") as fh:
            fh.write(text.encode())
        want = _ingest_outcome(_reference_ingest, csv_path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "validate", lambda data: None)
            got = _ingest_outcome(ingest_csv, csv_path)
        assert got == want


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


class TestReportKeys:
    FIT = ["schema_version", "command", "theta_hat", "sigma2_hat", "ci_lo", "ci_hi", "per_rep",
           "estimand", "n", "K", "S", "alpha", "seed"]

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    @pytest.mark.parametrize("argv, keys", [
        (["estimate"], FIT),
        (["estimate", "--estimand", "cdt", "--y-point", "1.0"], FIT + ["y_point"]),
        (["estimate", "--estimand", "qtt", "--tau", "0.5"], FIT + ["tau"]),
        (["coverage", "--dgp", "did", "--n", "200", "--mc-reps", "2"],
         ["schema_version", "command", "dgp", "n", "K", "S", "alpha", "seed", "n_reps",
          "cover_rate", "mean_ci_width", "rmse", "mean_bias"]),
    ], ids=["att", "cdt", "qtt", "coverage"])
    def test_keys_and_their_order(self, dataset, capsys, argv, keys, fmt):
        if argv[0] == "estimate":
            argv = argv + ["--input", str(dataset)]
        assert main(argv + ["--folds", "2", "--format", fmt]) == 0
        text = capsys.readouterr().out
        report = (json.loads(text) if fmt == "json"
                  else dict(line.split("\t") for line in text.splitlines()))
        assert list(report) == keys


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
        _, via_config = run_estimate(tmp_path, "via_config.json", *base, "--config", config)
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
        ["--estimand", "qtt", "--tau", "0.5", "--f-min", "0"],
        ["--estimand", "qtt", "--tau", "0.5", "--f-min", "inf"],
    ])
    def test_bad_values_exit_2_with_an_error_line(self, tmp_path, dataset, capsys, extra):
        rc, _ = run_estimate(tmp_path, "out.json", "--input", str(dataset), *extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    def test_a_bandwidth_whose_squared_distances_overflow_exits_2(self, tmp_path, capsys):
        # Run as a module, so that a numpy RuntimeWarning would reach stderr
        # as a user sees it. At 1e-300 the kernels' squared distances
        # overflowed (three warnings, exit 0); 1e-150 runs silently.
        path = tmp_path / "cov.csv"
        assert main(["simulate", "--dgp", "stm-cov", "--n", "300", "--seed", "3",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        src = str(Path(cicdml.__file__).resolve().parent.parent)
        for bandwidth, code in (("1e-300", 2), ("1e-150", 0)):
            out = tmp_path / f"{bandwidth}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "cicdml", "estimate", "--input", str(path),
                 "--estimand", "att", "--bandwidth", bandwidth, "--output", str(out)],
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src))
            assert proc.returncode == code and proc.stdout == ""
            if code == 0:
                assert proc.stderr == "" and out.exists()
            else:
                assert proc.stderr.startswith("error: bandwidth 1e-300 is too small")
                assert proc.stderr.count("\n") == 1 and not out.exists()

    def test_outcomes_near_the_float_limit_exit_2_before_any_fit(self, tmp_path):
        # 200 rows of standard normals times 1e307: the ATT printed numpy
        # overflow warnings and exited 2 on a non-finite variance, the QTT
        # and the CDT exited 0 after warnings, the QTT at -1.66e306. Times
        # 1e150 every estimand runs silently.
        rng = np.random.default_rng(7)
        y0 = rng.standard_normal(200)
        y1 = y0 + 0.5 * rng.standard_normal(200)
        a = (rng.random(200) < 0.5).astype(int)
        src = str(Path(cicdml.__file__).resolve().parent.parent)
        for scale, code in ((1e307, 2), (1e150, 0)):
            path = tmp_path / f"{scale:g}.csv"
            rows = [f"{u * scale!r},{v * scale!r},{t}" for u, v, t in
                    zip(y0.tolist(), y1.tolist(), a.tolist())]
            path.write_text("y0,y1,a\n" + "\n".join(rows) + "\n")
            for estimand in (["att"], ["qtt", "--tau", "0.5"], ["cdt", "--y-point", "0"]):
                out = tmp_path / f"{scale:g}-{estimand[0]}.json"
                proc = subprocess.run(
                    [sys.executable, "-m", "cicdml", "estimate", "--input", str(path),
                     "--estimand", *estimand, "--output", str(out)],
                    capture_output=True, text=True, timeout=120,
                    env=dict(os.environ, PYTHONPATH=src))
                assert proc.returncode == code and proc.stdout == "", estimand
                if code == 0:
                    assert proc.stderr == "" and out.exists()
                else:
                    assert proc.stderr.startswith("error: these data are too large for float")
                    assert proc.stderr.count("\n") == 1 and not out.exists()

    def test_an_alpha_whose_quantile_is_infinite_exits_2_before_any_fit(
            self, tmp_path, dataset, capsys, monkeypatch):
        # 1 - 1e-17 / 2 rounds to 1, where the normal quantile is infinite.
        monkeypatch.setattr(cli, "estimate", lambda *args: pytest.fail("estimate ran"))
        rc, _ = run_estimate(tmp_path, "out.json", "--input", str(dataset), "--alpha", "1e-17")
        assert rc == 2
        assert capsys.readouterr().err == "error: alpha is too small: 1 - alpha/2 rounds to 1\n"
        assert not (tmp_path / "out.json").exists()

    def test_cdt_without_a_y_point_exits_2(self, tmp_path, dataset, capsys):
        rc, _ = run_estimate(tmp_path, "out.json", "--input", str(dataset), "--estimand", "cdt")
        assert rc == 2
        assert capsys.readouterr().err == "error: --y-point is required for the cdt estimand\n"
        assert not (tmp_path / "out.json").exists()

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

    @pytest.mark.parametrize("text,message", [
        ('{"folds": 3', "error: bad JSON config: "),
        ("[3, 2]", "error: config must be a JSON object\n"),
    ], ids=["invalid-json", "json-array"])
    def test_a_config_that_is_no_json_object_exits_2(self, tmp_path, dataset, capsys, text,
                                                     message):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main(["estimate", "--input", str(dataset), "--output", str(tmp_path / "r"),
                     "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == ""
        assert "Traceback" not in captured.err
        assert not (tmp_path / "r").exists()

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

    @pytest.mark.parametrize("argv", [
        ["estimate", "--folds", "2"],
        ["validate", "--dgp", "did", "--mc-size", "2000", "--perturbations", "1"],
        ["coverage", "--dgp", "did", "--n", "200", "--mc-reps", "2", "--folds", "2"],
    ], ids=["estimate", "validate", "coverage"])
    def test_unwritable_report_leaves_no_file(self, tmp_path, dataset, capsys, argv):
        # The report goes through the one writer that simulate uses.
        if argv[0] == "estimate":
            argv = argv + ["--input", str(dataset)]
        before = sorted(tmp_path.iterdir())
        assert main(argv + ["--output", str(tmp_path / "absent" / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("estimand, option", [
        ("att", ("tau", "0.5")), ("cdt", ("tau", "0.5")),
        ("att", ("y-point", "3")), ("qtt", ("y-point", "3")),
        ("att", ("f-min", "0.01")), ("cdt", ("f-min", "0.01")),
    ], ids=["att-tau", "cdt-tau", "att-y-point", "qtt-y-point", "att-f-min", "cdt-f-min"])
    @pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
    def test_estimand_options_rejected_for_other_estimands(self, tmp_path, dataset, capsys,
                                                          estimand, option, as_config):
        out = tmp_path / "x.json"
        needed = {"cdt": ["--y-point", "1"], "qtt": ["--tau", "0.25"]}.get(estimand, [])
        argv = ["estimate", "--input", str(dataset), "--estimand", estimand, *needed,
                "--output", str(out)]
        if as_config:
            key = option[0].replace("-", "_")
            argv += ["--config", write_config(tmp_path, {key: float(option[1])})]
        else:
            argv += [f"--{option[0]}", option[1]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        kind = {"y-point": "cdt"}.get(option[0], "qtt")
        assert captured.err == (f"error: --{option[0]} applies only to the {kind} estimand, "
                                f"not {estimand}\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("flags", [
        ["--out", "x.csv", "--output", "x.csv"],
        ["--out", "x.csv", "--oracle-out", "x.csv"],
        ["--out", "y.csv", "--oracle-out", "x.csv", "--output", "x.csv"],
        ["--out", "y.csv", "--output", "y.csv.oracle.json"],
        ["--out", "x.csv", "--output", "sub/../x.csv"],
    ], ids=["out-output", "out-oracle", "oracle-output", "default-oracle-output", "spelled"])
    def test_simulate_outputs_on_one_file_exit_2_before_any_draw(
            self, tmp_path, capsys, monkeypatch, flags, existing):
        # Each output would replace the one before: the dataset would end
        # up holding the report or the oracle.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "gen_stm", lambda *args: pytest.fail("gen_stm ran"))
        target = tmp_path / ("y.csv.oracle.json" if "y.csv.oracle.json" in flags else "x.csv")
        if existing:
            target.write_text("keep")
        assert main(["simulate", "--dgp", "did", "--n", "50", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --out, --oracle-out and --output must name "
                                "different files\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == ([target] if existing else [])
        if existing:
            assert target.read_text() == "keep"

    @pytest.mark.parametrize("second", ["--output", "--oracle-out"])
    def test_simulate_outputs_on_hard_links_of_one_file_exit_2(
            self, tmp_path, capsys, monkeypatch, second):
        # Two names of one inode: their resolved paths differ, the file
        # does not.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "gen_stm", lambda *args: pytest.fail("gen_stm ran"))
        (tmp_path / "h1.csv").write_text("keep")
        os.link(tmp_path / "h1.csv", tmp_path / "h2.csv")
        assert os.path.realpath("h1.csv") != os.path.realpath("h2.csv")
        assert main(["simulate", "--dgp", "did", "--n", "50", "--out", "h1.csv",
                     second, "h2.csv"]) == 2
        assert capsys.readouterr() == ("", "error: --out, --oracle-out and --output must "
                                           "name different files\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["h1.csv", "h2.csv"]
        assert (tmp_path / "h1.csv").read_text() == "keep"

    @staticmethod
    def forbid_work(monkeypatch):
        for name in ("ingest_csv", "gen_stm", "qq_invariance_diagnostic", "coverage_study"):
            monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail(f"{name} ran"))

    @pytest.mark.parametrize("argv, err", [
        (["estimate", "--input", "d.csv", "--output", "d.csv"], "--output names the file that --input"),
        (["estimate", "--input", "d.csv", "--output", "sub/../d.csv"],
         "--output names the file that --input"),
        (["estimate", "--input", "d.csv", "--config", "c.json", "--output", "c.json"],
         "--output names the file that --config"),
        (["simulate", "--dgp", "did", "--config", "c.json", "--out", "c.json"],
         "--out names the file that --config"),
        (["simulate", "--dgp", "did", "--config", "c.json", "--out", "x.csv",
          "--oracle-out", "c.json"], "--oracle-out names the file that --config"),
        (["validate", "--dgp", "did", "--config", "c.json", "--output", "c.json"],
         "--output names the file that --config"),
        (["coverage", "--dgp", "did", "--config", "c.json", "--output", "c.json"],
         "--output names the file that --config"),
    ], ids=["estimate-input", "estimate-spelled", "estimate-config", "simulate-out",
            "simulate-oracle", "validate-config", "coverage-config"])
    def test_an_output_on_a_file_the_run_reads_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, argv, err):
        # Writing the report would replace the dataset or the config.
        monkeypatch.chdir(tmp_path)
        self.forbid_work(monkeypatch)
        (tmp_path / "sub").mkdir()
        (tmp_path / "d.csv").write_text("keep")
        (tmp_path / "c.json").write_text("{}")
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err} reads\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "d.csv", "sub"]
        assert (tmp_path / "d.csv").read_text() == "keep"
        assert (tmp_path / "c.json").read_text() == "{}"

    @pytest.mark.parametrize("argv", [
        ["estimate", "--input", "h1.csv", "--output", "h2.csv"],
        ["validate", "--dgp", "did", "--config", "h1.csv", "--output", "h2.csv"],
    ], ids=["input", "config"])
    def test_an_output_on_a_hard_link_of_an_input_exits_2(self, tmp_path, capsys,
                                                          monkeypatch, argv):
        # Two names of one inode: their resolved paths differ, the file
        # does not.
        monkeypatch.chdir(tmp_path)
        self.forbid_work(monkeypatch)
        (tmp_path / "h1.csv").write_text("{}")
        os.link(tmp_path / "h1.csv", tmp_path / "h2.csv")
        assert os.path.realpath("h1.csv") != os.path.realpath("h2.csv")
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: --output names the file that {argv[-4]} "
                                           "reads\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["h1.csv", "h2.csv"]
        assert (tmp_path / "h1.csv").read_text() == "{}"

    def test_simulate_writes_report_and_oracle_to_one_device(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--dgp", "did", "--n", "50", "--out", str(out),
                     "--output", os.devnull, "--oracle-out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == [out]
        assert ingest_csv(str(out)).n == 50

    def test_a_non_finite_estimate_exits_2_and_writes_no_file(self, tmp_path, capsys):
        # The scores' squares overflow: sigma2_hat is infinite. Outcomes
        # near the largest float are refused before any fit
        # (test_outcomes_near_the_float_limit_exit_2_before_any_fit); these
        # pass that bound, which leaves out the scores' 1/pi, here about 20.
        path = tmp_path / "huge.csv"
        path.write_text("y0,y1,a\n" + "".join(
            f"{4e151 * (i % 7)!r},{4e151 * (i % 5)!r},{int(i % 20 == 0)}\n" for i in range(600)))
        rc, _ = run_estimate(tmp_path, "out.json", "--input", str(path), "--eps-clip", "0.49")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: repetition 1: the estimate or its variance is not finite\n"
        assert captured.out == ""
        assert not (tmp_path / "out.json").exists()

    def test_a_non_finite_variance_prints_one_line_and_no_warning(self, tmp_path):
        # The data above, from a fresh interpreter with Python's default
        # warning filters: the sum of the squared scores overflows, which
        # printed numpy's "overflow encountered in reduce" warning before
        # the error line.
        path = tmp_path / "huge.csv"
        path.write_text("y0,y1,a\n" + "".join(
            f"{4e151 * (i % 7)!r},{4e151 * (i % 5)!r},{int(i % 20 == 0)}\n" for i in range(600)))
        src = str(Path(cicdml.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "cicdml", "estimate", "--input", str(path),
             "--eps-clip", "0.49", "--output", str(tmp_path / "out.json")],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        assert proc.stderr == "error: repetition 1: the estimate or its variance is not finite\n"
        assert proc.stdout == "" and not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_a_json_report_refuses_non_finite_values(self, value):
        args = argparse.Namespace(subcommand="estimate", format="json")
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._report(args, {"sigma2_hat": value})

    def test_existing_outputs_are_untouched_when_one_path_fails(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        out.write_text("keep")
        assert main(["simulate", "--dgp", "did", "--n", "50", "--out", str(out),
                     "--oracle-out", str(tmp_path / "absent" / "x")]) == 2
        assert out.read_text() == "keep"

    def test_output_to_a_device(self, dataset, capsys):
        # /dev/null is seekable but cannot be truncated: the report is
        # written to it as it is.
        assert main(["estimate", "--input", str(dataset), "--folds", "2",
                     "--output", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

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


class TestParser:
    def test_cross_fitting_defaults_are_read_from_the_config(self, monkeypatch):
        # Other defaults in the config class reach both subcommands' runs.
        @dataclasses.dataclass(frozen=True)
        class Other(CrossFitConfig):
            K: int = 7
            S: int = 3
            alpha: float = 0.1
            bandwidth: float = 0.4
            eps_clip: float = 0.02
            f_min: float = 2e-3

        for config in (CrossFitConfig, Other):
            monkeypatch.setattr(cli, "CrossFitConfig", config)
            parser = cli.build_parser()
            for argv in (["estimate", "--input", "data.csv"], ["coverage", "--dgp", "did"]):
                assert cli._to_run_config(parser.parse_args(argv)).crossfit == config()

    def test_validate_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["validate", "--dgp", "did"])
        assert (args.mc_size, args.h) == (validation.DEFAULT_MC_SIZE,
                                          validation.DEFAULT_FD_STEP)
        check = inspect.signature(validation.orthogonality_check).parameters
        assert (check["mc_size"].default, check["h"].default) == (args.mc_size, args.h)
        assert inspect.signature(validation.phi_at).parameters["mc_size"].default == args.mc_size

    def test_every_option_has_help(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        missing = [f"{name} {action.option_strings[0]}" for name, sp in sub.choices.items()
                   for action in sp._actions if not action.help]
        assert missing == []
