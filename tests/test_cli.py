"""Command-line interface: outputs, schemas, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkspline
from fkspline import errors
from fkspline.cli import _build_parser, main


def run(argv, tmp_path=None):
    """Invoke the CLI in-process; returns the exit code."""
    return main([str(a) for a in argv])


def data_rows(path: Path) -> list[str]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[1:]  # drop the header


def dir_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def last_echo(capsys) -> dict:
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])["resolved_config"]


def error_report(capsys) -> dict:
    """The one JSON line a failing run prints on stderr."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    report = json.loads(err[0])
    assert set(report) == {"module", "error", "context"}
    return report


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg))
    return path


def as_config(argv) -> tuple[list, dict]:
    """argv split into its subcommand and the config file holding every flag
    but --outdir: keys are the flags' dests, numbers are JSON numbers."""
    subcommand, flags, cfg = argv[0], [str(a) for a in argv[1:]], {}
    while flags:
        flag = flags.pop(0)
        if "=" in flag:
            flag, text = flag.split("=", 1)
        elif flag == "--homoscedastic":
            text = True
        else:
            text = flags.pop(0)
        key = "replications" if flag == "-R" else flag.lstrip("-").replace("-", "_")
        for number in (int, float) if isinstance(text, str) else ():
            with contextlib.suppress(ValueError):
                text = number(text)
                break
        cfg[key] = text
    return [subcommand], cfg


@pytest.fixture(autouse=True)
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("FKSPLINE_THREADS", raising=False)


@pytest.fixture(scope="module")
def simdir(tmp_path_factory) -> Path:
    """Small simulated dataset shared by the fit/gcv/cluster tests."""
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--curves-per-group", "2", "--points", "12",
                 "--seed", "1", "--outdir", str(out)])
    assert code == 0
    return out


class TestParser:
    def test_no_subcommand_exits_2(self, capsys):
        assert run([]) == 2

    def test_unknown_choice_is_usage_error(self, simdir):
        with pytest.raises(SystemExit) as exc_info:
            run(["fit", "--data", simdir / "dataset.csv", "--variant", "fs9"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("subcommand, flag, text", [
        ("simulate", "--groups", "1,x"),
        ("simulate", "--domain", "0,x"),
        ("gcv", "--exponents", "a:b"),
        ("fit", "--knots", "1,x"),
        ("replicate", "--methods", "kmeans,x"),
        ("replicate", "--methods", ","),
        ("replicate", "--variants", ","),
        ("replicate", "--variants", "fs0,fs9"),
        ("replicate", "--variants", "fs0,fs0"),
        ("replicate", "--methods", "kmeans,kmeans"),
    ])
    def test_bad_list_item_is_usage_error(self, tmp_path, capsys, subcommand, flag, text):
        with pytest.raises(SystemExit) as exc_info:
            run([subcommand, f"{flag}={text}", "--outdir", tmp_path])
        assert exc_info.value.code == 2
        capsys.readouterr()
        # the same text in a config file is a configuration error
        key = flag[2:]
        cfg = write_config(tmp_path / "cfg.json", {key: text})
        assert run([subcommand, "--config", cfg, "--outdir", tmp_path]) == 2
        report = error_report(capsys)
        assert report["error"] == "ConfigError"
        assert repr(key) in report["context"]


class TestSimulate:
    def test_outputs_and_echo(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["simulate", "--curves-per-group", "2", "--points", "10",
                    "--seed", "3", "--outdir", out]) == 0
        echo = last_echo(capsys)
        assert echo["subcommand"] == "simulate"
        assert echo["groups"] == [1, 2, 3, 4]
        assert echo["points_per_curve"] == 10
        assert echo["seed"] == 3
        rows = data_rows(out / "dataset.csv")
        assert len(rows) == 10
        assert all(len(r.split(",")) == 9 for r in rows)  # t + 8 curves
        labels = data_rows(out / "labels.csv")
        assert len(labels) == 8
        assert sorted({r.split(",")[1] for r in labels}) == ["1", "2", "3", "4"]
        assert len(data_rows(out / "means.csv")) == 10

    def test_byte_identical_rerun(self, tmp_path):
        args = ["simulate", "--curves-per-group", "2", "--points", "10", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--outdir", a]) == 0
        assert run(args + ["--outdir", b]) == 0
        assert dir_bytes(a) == dir_bytes(b)


    @pytest.mark.parametrize("subcommand", [["simulate"], ["replicate", "-R", "2"]],
                             ids=["simulate", "replicate"])
    def test_an_overflowing_noise_scale_is_2_before_any_output(self, tmp_path, capsys,
                                                               subcommand):
        # 1e308 (1 + |mean|) / 2 overflows: no config echo, no output
        # directory, and no numpy overflow warning (an error under this
        # suite's warning filter), only the one JSON error line
        out = tmp_path / "o"
        assert run([*subcommand, "--noise-sd", "1e308", "--outdir", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "module": subcommand[0], "error": "NonFiniteInputError",
            "context": "noise_sd 1e+308 overflows the noise scale noise_sd * (1 + |mean|) / 2"}
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", [["simulate"], ["replicate", "-R", "1"], ["fit"]],
                             ids=["simulate", "replicate", "fit"])
    def test_data_whose_squares_overflow_are_2_before_any_output(self, tmp_path, capsys,
                                                                 subcommand):
        # observations near 1e160 are finite, but their squares are not:
        # the dataset refuses them before the echo, the output directory
        # and any fit (whose reduced space warned and then failed at p = 1)
        argv = [*subcommand, "--noise-sd", "1e160"]
        if subcommand == ["fit"]:
            data = tmp_path / "big.csv"
            data.write_text("t,a,b\n" + "".join(f"{t},1e160,-2e160\n" for t in range(12)))
            argv = ["fit", "--data", data, "--nbasis", "6"]
        out = tmp_path / "o"
        assert run([*argv, "--seed", "0", "--outdir", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "module": subcommand[0], "error": "NonFiniteInputError",
            "context": "the sum of squares of the observations exceeds 1e+295; rescale the data"}
        assert not out.exists()

    def test_large_scale_data_run_quietly_or_stop_before_any_output(self, tmp_path, capsys):
        # at noise 1e100 the knot search's gradient norm overflowed numpy's
        # dot (a warning, an error under this suite's filter); at 1e152 its
        # Gauss-Newton matrix did too, so such data are refused up front
        big = tmp_path / "big"
        assert run(["replicate", "-R", "1", "--seed", "0", "--noise-sd", "1e100",
                    "--outdir", big]) == 0
        assert (big / "aggregate.json").exists()
        assert capsys.readouterr().err == ""
        out = tmp_path / "o"
        assert run(["replicate", "-R", "1", "--seed", "0", "--noise-sd", "1e152",
                    "--outdir", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "module": "replicate", "error": "NonFiniteInputError",
            "context": "the sum of squares of the observations exceeds 1e+295; rescale the data"}
        assert not out.exists()


class TestFit:
    def test_output_schema(self, simdir, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", simdir / "dataset.csv", "--nbasis", "6",
                    "--variant", "fs2", "--outdir", out]) == 0
        report = json.loads((out / "fit.json").read_text())
        assert set(report) == {
            "config", "df", "gcv", "sse", "isse", "isse_inf", "isse_sup",
            "isse_kind", "lambda1", "lambda2", "knots", "n_basis", "seed",
        }
        assert report["n_basis"] == 6
        assert len(report["knots"]) == 2  # nbasis 6 at order 4 leaves 2 free knots
        assert report["isse_kind"] == "discrete_residual"
        assert report["df"] > 0 and report["sse"] >= 0
        assert len(data_rows(out / "coefficients.csv")) == 6
        curves = data_rows(out / "curves.csv")
        assert len(curves) == 200
        assert all(len(r.split(",")) == 9 for r in curves)

    def test_fixed_knots_respected(self, simdir, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", simdir / "dataset.csv", "--knots", "1,2.5,4",
                    "--outdir", out]) == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["knots"] == [1.0, 2.5, 4.0]
        assert report["n_basis"] == 7

    def test_truth_labels_switch_isse_to_quadrature(self, simdir, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", simdir / "dataset.csv", "--nbasis", "6",
                    "--truth-labels", simdir / "labels.csv", "--outdir", out]) == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["isse_kind"] == "quadrature_vs_truth"
        assert report["isse"] >= 0
        assert report["isse_inf"] >= 0 and report["isse_sup"] >= 0

    def test_row_order_does_not_matter(self, simdir, tmp_path):
        lines = (simdir / "dataset.csv").read_text().splitlines(keepends=True)
        body = lines[2:]  # after the config comment and the header
        rng = np.random.default_rng(0)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("".join(lines[:2] + [body[i] for i in rng.permutation(len(body))]))
        reports = []
        for data, out in ((simdir / "dataset.csv", tmp_path / "a"), (shuffled, tmp_path / "b")):
            assert run(["fit", "--data", data, "--nbasis", "6", "--outdir", out]) == 0
            reports.append(json.loads((out / "fit.json").read_text()))
        for key in ("df", "sse", "knots"):
            assert reports[0][key] == reports[1][key]

    def test_byte_identical_rerun(self, simdir, tmp_path):
        args = ["fit", "--data", simdir / "dataset.csv", "--nbasis", "6"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--outdir", a]) == 0
        assert run(args + ["--outdir", b]) == 0
        assert dir_bytes(a) == dir_bytes(b)


class TestExitCodes:
    def stderr_report(self, capsys) -> dict:
        return error_report(capsys)

    def test_config_error_is_2(self, simdir, tmp_path, capsys):
        code = run(["fit", "--data", simdir / "dataset.csv", "--nbasis", "2",
                    "--order", "4", "--outdir", tmp_path])
        assert code == 2
        report = self.stderr_report(capsys)
        assert report["module"] == "fit"
        assert report["error"] == "ConfigError"

    def test_missing_file_is_3(self, tmp_path, capsys):
        code = run(["fit", "--data", tmp_path / "absent.csv", "--outdir", tmp_path])
        assert code == 3
        assert self.stderr_report(capsys)["error"] == "DataError"

    def test_corrupt_csv_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,c1\n0.0,1.0\n0.5,oops\n")
        code = run(["fit", "--data", bad, "--outdir", tmp_path])
        assert code == 3
        assert self.stderr_report(capsys)["error"] == "ParseError"

    @pytest.mark.parametrize("text", [
        "t,c1\n0.0,1.0\n0.5,nan\n1.0,2.0\n",
        "t,c1\n0.0,1.0\n0.5,\n1.0,2.0\n",
        "t,c1\n0.0,1.0\n0.5,inf\n1.0,2.0\n",
        "t,c1\n0.0,1.0\n0.0,2.0\n1.0,2.0\n",
        "t,c1\n",
        "t,c1\n0.0,1.0\n",
        "t,c1,c1\n0.0,1.0,2.0\n1.0,2.0,3.0\n",
    ], ids=["nan-cell", "empty-cell", "inf-cell", "duplicate-t", "header-only", "one-row",
            "duplicate-name"])
    def test_bad_dataset_is_3(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = run(["fit", "--data", bad, "--nbasis", "4", "--outdir", tmp_path])
        assert code == 3
        self.stderr_report(capsys)

    @pytest.mark.parametrize("row", ["curve_1,x", "curve_1", "curve_1,1,2"])
    def test_bad_label_row_is_3(self, simdir, tmp_path, capsys, row):
        labels = tmp_path / "labels.csv"
        labels.write_text(f"curve_id,label\n{row}\n")
        code = run(["cluster", "--data", simdir / "dataset.csv", "--knots", "2.5",
                    "--k", "2", "--restarts", "1", "--labels", labels, "--outdir", tmp_path])
        assert code == 3
        report = self.stderr_report(capsys)
        assert report["error"] == "ParseError"
        assert "row 2" in report["context"]

    @pytest.mark.parametrize("flag", ["--labels", "--truth-labels"])
    def test_duplicate_label_curve_is_3(self, simdir, tmp_path, capsys, flag):
        rows = (simdir / "labels.csv").read_text().splitlines()
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(rows[1:] + ["curve_1,3"]) + "\n")  # header is row 1
        subcommand = ["cluster", "--k", "2", "--restarts", "1"] if flag == "--labels" else ["fit"]
        code = run([*subcommand, "--data", simdir / "dataset.csv", "--knots", "2.5",
                    flag, labels, "--outdir", tmp_path / "out"])
        assert code == 3
        report = self.stderr_report(capsys)
        assert report["error"] == "DuplicateCellError"
        assert "curve curve_1" in report["context"]
        assert "row 2" in report["context"] and f"row {len(rows)}" in report["context"]

    @pytest.mark.parametrize("kind, code", [
        (errors.EmptyIntervalError, 2),
        (errors.DuplicateCellError, 3),
        (errors.NumericalError, 4),
        (errors.FkSplineError, 4),
    ])
    def test_error_kind_sets_exit_code(self, tmp_path, capsys, monkeypatch, kind, code):
        import fkspline.cli

        def fail(args):
            raise kind("injected")

        monkeypatch.setattr(fkspline.cli, "_cmd_simulate", fail)
        assert run(["simulate", "--outdir", tmp_path]) == code
        assert self.stderr_report(capsys) == {
            "module": "simulate", "error": kind.__name__, "context": "injected"}

    def test_unknown_truth_group_is_3(self, simdir, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        rows = (simdir / "labels.csv").read_text().splitlines()
        curve = rows[-1].split(",")[0]
        rows[-1] = f"{curve},7"
        labels.write_text("\n".join(rows) + "\n")
        code = run(["fit", "--data", simdir / "dataset.csv", "--nbasis", "5",
                    "--truth-labels", labels, "--outdir", tmp_path])
        assert code == 3
        report = self.stderr_report(capsys)
        assert report["error"] == "DataError"
        assert f"curve {curve} has group id 7" in report["context"]
        # cluster scoring compares partitions, so any integer ids are labels
        assert run(["cluster", "--data", simdir / "dataset.csv", "--knots", "2.5",
                    "--k", "2", "--restarts", "1", "--labels", labels,
                    "--outdir", tmp_path / "cluster"]) == 0

    @pytest.mark.parametrize("flags, code, error", [
        (["--truth-labels", "bad-group"], 3, "DataError"),
        (["--truth-labels", "bad-row"], 3, "ParseError"),
        (["--tail-frac", "0.7"], 2, "EmptyIntervalError"),
    ], ids=["group-id", "label-row", "tail-frac"])
    def test_bad_fit_inputs_exit_before_fitting(self, simdir, tmp_path, capsys, monkeypatch,
                                                flags, code, error):
        import fkspline.cli

        def no_fit(*args, **kwargs):
            raise AssertionError("the knot search ran before the inputs were checked")

        monkeypatch.setattr(fkspline.cli, "add_knots_gradually", no_fit)
        rows = (simdir / "labels.csv").read_text().splitlines()
        (tmp_path / "bad-group").write_text("\n".join(rows[:-1] + [rows[-1][:-1] + "7"]) + "\n")
        (tmp_path / "bad-row").write_text("\n".join(rows[:-1] + [rows[-1] + ",1"]) + "\n")
        flags = [tmp_path / f if f.startswith("bad-") else f for f in flags]
        assert run(["fit", "--data", simdir / "dataset.csv", "--nbasis", "5",
                    *flags, "--outdir", tmp_path / "out"]) == code
        assert self.stderr_report(capsys)["error"] == error

    @pytest.mark.parametrize("row", ["curve_1,x", "curve_1,1,2"])
    def test_bad_cluster_labels_exit_before_fitting(self, simdir, tmp_path, capsys, monkeypatch,
                                                    row):
        import fkspline.cli

        def no_fit(*args, **kwargs):
            raise AssertionError("the knot search ran before the labels were checked")

        monkeypatch.setattr(fkspline.cli, "add_knots_gradually", no_fit)
        labels = tmp_path / "labels.csv"
        labels.write_text(f"curve_id,label\n{row}\n")
        out = tmp_path / "out"
        assert run(["cluster", "--data", simdir / "dataset.csv", "--nbasis", "5",
                    "--k", "2", "--labels", labels, "--outdir", out]) == 3
        assert self.stderr_report(capsys)["error"] == "ParseError"
        assert not (out / "partition.csv").exists()

    @pytest.mark.parametrize("subcommand", ["simulate", "fit"])
    def test_outdir_naming_a_file_is_3(self, simdir, tmp_path, capsys, subcommand):
        afile = tmp_path / "afile"
        afile.write_text("")
        flags = ["--curves-per-group", "1", "--points", "3"] if subcommand == "simulate" else \
            ["--data", simdir / "dataset.csv", "--knots", "2.5"]
        assert run([subcommand, *flags, "--outdir", afile]) == 3
        report = self.stderr_report(capsys)
        assert report["error"] == "DataError"
        assert str(afile) in report["context"]

    @pytest.mark.parametrize("flags", [
        ["simulate", "--seed", "-1"],
        ["simulate", "--groups", ""],
        ["simulate", "--domain", "0,inf"],
        ["cluster", "--knots", "2.5", "--restarts", "0"],
        ["cluster", "--knots", "2.5", "--seed", "-1"],
        ["gcv", "--knots", "2.5", "--exponents=400:401"],
        ["gcv", "--nbasis", "-3"],
        ["fit", "--knots", "2.5", "--lambda1", "nan"],
        ["gcv", "--knots", "2.5", "--pin-lambda1", "nan"],
        ["fit", "--lambda1", "inf"],
    ], ids=["negative-seed", "no-groups", "infinite-domain", "no-restarts",
            "negative-kmeans-seed", "overflowing-lambda", "nbasis-below-order",
            "nan-lambda1", "nan-pinned-lambda1", "infinite-lambda1"])
    def test_bad_setting_is_2(self, simdir, tmp_path, capsys, flags):
        data = [] if flags[0] == "simulate" else ["--data", simdir / "dataset.csv"]
        assert run([*flags, *data, "--outdir", tmp_path]) == 2
        assert self.stderr_report(capsys)["error"] == "ConfigError"

    def test_knot_shortfall_is_2(self, tmp_path, capsys):
        # on a 5-point candidate grid the exclusion zones around the placed
        # knots leave no candidate after 6 of the 8 knots --nbasis 12 asks for
        assert run(["simulate", "--seed", "0", "--outdir", tmp_path / "sim"]) == 0
        capsys.readouterr()
        code = run(["fit", "--data", tmp_path / "sim" / "dataset.csv", "--nbasis", "12",
                    "--grid-size", "5", "--outdir", tmp_path / "fit"])
        assert code == 2
        report = self.stderr_report(capsys)
        assert report["error"] == "ConfigError"
        assert "placed 6 of the 8 interior knots" in report["context"]
        assert "--grid-size larger than 5" in report["context"]

    def test_numerical_failure_is_4(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        rows = "\n".join(f"{t},{t * t}" for t in np.linspace(0, 1, 6))
        small.write_text("t,c1\n" + rows + "\n")
        code = run(["fit", "--data", small, "--knots", "0.2,0.4,0.6,0.8",
                    "--lambda1", "0", "--lambda2", "0", "--outdir", tmp_path])
        assert code == 4
        report = self.stderr_report(capsys)
        assert report["error"] == "NotPositiveDefiniteError"

    def test_overflowing_penalty_is_4(self, tmp_path, capsys):
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("t,c1\n0.0,0.0\n1e-187,1.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["fit", "--data", narrow, "--nbasis", "4", "--outdir", tmp_path])
        assert code == 4
        # the overflow is reported once, as the error line, not as warnings
        assert [str(w.message) for w in caught] == []
        assert self.stderr_report(capsys)["error"] == "NotPositiveDefiniteError"


def exit_contract(argv) -> None:
    """main(argv) exits 0, 2, 3 or 4, with one JSON line on stderr on
    failure and never a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"module", "error", "context"}


CELL_TOKENS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "x", "2024-01-01", "2024-02-30"]),
    st.floats(-10.0, 10.0).map(repr),
    st.integers(-3, 10).map(str),
)


@st.composite
def corrupted_dataset(draw) -> str:
    """A small valid wide-layout dataset with cells replaced, dropped or
    added, and rows duplicated."""
    n_rows = draw(st.integers(2, 8))
    n_curves = draw(st.integers(1, 3))
    rows = [[repr(0.5 * i)] + [repr(float(i * (j + 1) % 5)) for j in range(n_curves)]
            for i in range(n_rows)]
    edits = st.tuples(st.sampled_from(["replace", "drop", "add", "duplicate"]),
                      st.integers(0, n_rows - 1), st.integers(0, n_curves), CELL_TOKENS)
    for kind, i, j, token in draw(st.lists(edits, max_size=4)):
        i %= len(rows)
        if kind == "replace" and rows[i]:
            rows[i][j % len(rows[i])] = token
        elif kind == "drop" and rows[i]:
            del rows[i][j % len(rows[i])]
        elif kind == "add":
            rows[i].insert(j, token)
        elif kind == "duplicate":
            rows.insert(i, list(rows[i]))
    header = ["t"] + [f"curve_{j + 1}" for j in range(n_curves)]
    return "\n".join(",".join(row) for row in [header] + rows) + "\n"


@settings(max_examples=40, deadline=None)
@given(text=corrupted_dataset())
def test_corrupted_dataset_exit_contract(text):
    """Any corrupted dataset exits 0, 2, 3 or 4 with one JSON line on
    stderr, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text(text)
        exit_contract(["fit", "--data", data, "--nbasis", "4", "--outdir", tmp])


def config_keys() -> list[str]:
    """Every subcommand's flag dests."""
    subs = next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    return sorted({a.dest for sub in subs.values() for a in sub._actions
                   if a.default is not argparse.SUPPRESS})


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), float("inf"), 1e308, 0.5, 2.0]),
    st.sampled_from(["", "x", "no", "true", "0", "2.5", "1,2", "0,5", "-1:0", "1:x",
                     "fs0", "fs9", "free", "kmeans", "ward,x"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.just("a"), st.integers(0, 3), max_size=1),
)

# Flags that keep each run cheap; config values for them are still checked.
CHEAP_RUNS = {
    "simulate": ["simulate"],
    "fit": ["fit", "--data", "{data}", "--knots", "2.5"],
    "gcv": ["gcv", "--data", "{data}", "--knots", "2.5", "--nbasis", "4", "--exponents=-1:0"],
    "cluster": ["cluster", "--data", "{data}", "--knots", "2.5"],
    "replicate": ["replicate", "-R", "1", "--variants", "fs0", "--methods", "kmeans",
                  "--nbasis", "5", "--grid-size", "10", "--restarts", "1", "--threads", "1"],
}


@settings(max_examples=100, deadline=None)
@given(subcommand=st.sampled_from(sorted(CHEAP_RUNS)),
       cfg=st.dictionaries(st.sampled_from(config_keys() + ["n_basis", "points_per_curve",
                                                            "subcommand", "bogus"]),
                           JSON_VALUES, max_size=4))
def test_config_file_exit_contract(simdir, subcommand, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp) / "cfg.json", cfg)
        argv = [a.format(data=simdir / "dataset.csv") for a in CHEAP_RUNS[subcommand]]
        exit_contract(argv + ["--config", config, "--outdir", tmp])


LABEL_CELLS = st.sampled_from(["curve_1", "curve_2", "curve_8", "curve_99", "", "x", " 3",
                               "-1", "0", "1", "2", "4", "7", "1.5", "nan"])


@settings(max_examples=40, deadline=None)
@given(flag=st.sampled_from(["--labels", "--truth-labels"]),
       rows=st.lists(st.lists(LABEL_CELLS, max_size=3), max_size=10))
def test_label_file_exit_contract(simdir, flag, rows):
    with tempfile.TemporaryDirectory() as tmp:
        labels = Path(tmp) / "labels.csv"
        labels.write_text("\n".join(",".join(row) for row in [["curve_id", "label"], *rows]))
        subcommand = ["cluster", "--k", "2", "--restarts", "1"] if flag == "--labels" else ["fit"]
        exit_contract([*subcommand, "--data", simdir / "dataset.csv", "--knots", "2.5",
                       flag, labels, "--outdir", tmp])


class TestGcv:
    def test_table_and_selection(self, simdir, tmp_path):
        out = tmp_path / "g"
        assert run(["gcv", "--data", simdir / "dataset.csv", "--knots", "2.5",
                    "--exponents=-2:0", "--outdir", out]) == 0
        table = data_rows(out / "gcv_table.csv")
        assert len(table) == 9  # 3 x 3 grid
        selected = json.loads((out / "selected.json").read_text())
        assert set(selected) == {"config", "lambda1", "lambda2", "gcv", "failures", "seed"}
        grid = {0.01, 0.1, 1.0}
        assert selected["lambda1"] in grid and selected["lambda2"] in grid
        gcvs = [float(r.split(",")[2]) for r in table]
        assert min(gcvs) == pytest.approx(selected["gcv"])

    def test_pin_lambda1(self, simdir, tmp_path):
        out = tmp_path / "g"
        assert run(["gcv", "--data", simdir / "dataset.csv", "--knots", "2.5",
                    "--exponents=-2:0", "--pin-lambda1", "0", "--outdir", out]) == 0
        table = data_rows(out / "gcv_table.csv")
        assert len(table) == 3  # lambda2 axis only
        assert all(float(r.split(",")[0]) == 0.0 for r in table)
        assert json.loads((out / "selected.json").read_text())["lambda1"] == 0.0

    def test_free_mode_smoke(self, simdir, tmp_path):
        out = tmp_path / "g"
        assert run(["gcv", "--data", simdir / "dataset.csv", "--mode", "free",
                    "--exponents=-1:0", "--nbasis", "5", "--grid-size", "10",
                    "--outdir", out]) == 0
        assert len(data_rows(out / "gcv_table.csv")) == 4
        selected = json.loads((out / "selected.json").read_text())
        assert selected["lambda1"] in {0.1, 1.0}

    def test_fixed_knots_report_their_basis(self, simdir, tmp_path):
        # --nbasis is ignored when --knots is given
        out = tmp_path / "g"
        assert run(["gcv", "--data", simdir / "dataset.csv", "--knots", "1.5,2.5",
                    "--nbasis", "-3", "--exponents=-1:0", "--outdir", out]) == 0
        assert json.loads((out / "selected.json").read_text())["config"]["n_basis"] == 6
        header = (out / "gcv_table.csv").read_text().splitlines()[0]
        assert json.loads(header.removeprefix("# "))["n_basis"] == 6

    def test_free_mode_without_free_knots_is_2(self, simdir, tmp_path, capsys, monkeypatch):
        import fkspline.cli

        def no_search(*args, **kwargs):
            raise AssertionError("the grid search ran before the basis was checked")

        monkeypatch.setattr(fkspline.cli, "gcv_grid_search", no_search)
        assert run(["gcv", "--data", simdir / "dataset.csv", "--mode", "free",
                    "--nbasis", "4", "--outdir", tmp_path]) == 2
        report = error_report(capsys)
        assert report["error"] == "ConfigError"
        assert "leaves no free knots" in report["context"]

    def test_penalty_beyond_the_order_is_2_in_both_modes(self, simdir, tmp_path, capsys,
                                                         monkeypatch):
        from fkspline import lambda_select

        def no_search(*args):
            raise AssertionError("the knot search ran before the weights were checked")

        monkeypatch.setattr(lambda_select, "add_knots_gradually", no_search)
        reports = []
        for mode in ("free", "fixed"):
            assert run(["gcv", "--data", simdir / "dataset.csv", "--mode", mode, "--order", "2",
                        "--nbasis", "4", "--exponents=-2:0", "--outdir", tmp_path / mode]) == 2
            reports.append(error_report(capsys))
        assert reports[0] == reports[1]
        assert reports[0]["error"] == "DerivativeOrderTooHighError"

    def test_byte_identical_rerun(self, simdir, tmp_path):
        args = ["gcv", "--data", simdir / "dataset.csv", "--knots", "2.5",
                "--exponents=-2:0"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--outdir", a]) == 0
        assert run(args + ["--outdir", b]) == 0
        assert dir_bytes(a) == dir_bytes(b)


class TestCluster:
    def test_partition_and_metrics(self, simdir, tmp_path):
        out = tmp_path / "c"
        assert run(["cluster", "--data", simdir / "dataset.csv", "--nbasis", "6",
                    "--k", "4", "--restarts", "3",
                    "--labels", simdir / "labels.csv", "--outdir", out]) == 0
        partition = data_rows(out / "partition.csv")
        assert len(partition) == 8
        labels = {int(r.split(",")[1]) for r in partition}
        assert labels <= {1, 2, 3, 4}
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["k"] == 4 and metrics["method"] == "kmeans"
        assert 0.0 <= metrics["rand_index"] <= 1.0
        assert -0.5 <= metrics["adjusted_rand_index"] <= 1.0
        assert set(metrics["confusion"]) == {"tp", "tn", "fp", "fn"}
        assert metrics["w"] >= 0

    def test_elbow_selects_k(self, simdir, tmp_path):
        out = tmp_path / "c"
        assert run(["cluster", "--data", simdir / "dataset.csv", "--nbasis", "6",
                    "--kmax", "5", "--restarts", "3", "--outdir", out]) == 0
        elbow = data_rows(out / "elbow.csv")
        assert len(elbow) == 5
        w = [float(r.split(",")[1]) for r in elbow]
        assert all(b <= a + 1e-9 for a, b in zip(w, w[1:]))
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["suggested_k"] is not None
        assert metrics["k"] == metrics["suggested_k"]

    def test_default_k_is_4(self, simdir, tmp_path, capsys):
        out = tmp_path / "c"
        assert run(["cluster", "--data", simdir / "dataset.csv", "--nbasis", "6",
                    "--restarts", "3", "--method", "ward", "--outdir", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["k"] == 4 and metrics["method"] == "ward"

    def test_byte_identical_rerun(self, simdir, tmp_path):
        args = ["cluster", "--data", simdir / "dataset.csv", "--nbasis", "6",
                "--k", "3", "--restarts", "3", "--labels", simdir / "labels.csv"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--outdir", a]) == 0
        assert run(args + ["--outdir", b]) == 0
        assert dir_bytes(a) == dir_bytes(b)

    @staticmethod
    def twin_waves(path: Path) -> Path:
        """Ten copies each of sin 2 pi t and cos 2 pi t on 30 points."""
        t = np.linspace(0.0, 1.0, 30)
        waves = [np.sin(2 * np.pi * t)] * 10 + [np.cos(2 * np.pi * t)] * 10
        rows = ["t," + ",".join(f"c{i}" for i in range(20))]
        rows += [",".join(repr(float(x)) for x in [t[i]] + [w[i] for w in waves])
                 for i in range(t.size)]
        path.write_text("\n".join(rows) + "\n")
        return path

    @pytest.mark.parametrize("method", ["kmeans", "ward", "complete", "average"])
    def test_two_distinct_curves_split_into_k_4(self, method, tmp_path, capsys):
        """k-means fills several empty clusters with distinct points, and a
        hierarchical cut through tied zero heights still gives k clusters."""
        out = tmp_path / "c"
        assert run(["cluster", "--data", self.twin_waves(tmp_path / "twin.csv"),
                    "--knots", "0.25,0.5,0.75", "--k", "4", "--method", method,
                    "--outdir", out]) == 0
        assert "Warning" not in capsys.readouterr().err
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["k"] == 4 and metrics["w"] < 1e-20
        labels = [int(r.split(",")[1]) for r in data_rows(out / "partition.csv")]
        assert sorted(set(labels)) == [1, 2, 3, 4]
        assert not set(labels[:10]) & set(labels[10:])

    @pytest.mark.parametrize("flags, error, context", [
        (["--k", "0"], "ConfigError", "k must be an integer >= 1, got 0"),
        (["--k", "9"], "TooFewCurvesError", "cannot form 9 clusters from 8 curves"),
        (["--kmax", "1"], "ConfigError", "k_max must be an integer >= 2, got 1"),
        (["--kmax", "9"], "TooFewCurvesError", "k_max=9 exceeds the 8 curves"),
        (["--restarts", "0"], "ConfigError", "restarts must be an integer >= 1, got 0"),
        (["--kmax", "3", "--method", "ward", "--restarts", "0"], "ConfigError",
         "restarts must be an integer >= 1, got 0"),
    ], ids=["k-0", "k-9", "kmax-1", "kmax-9", "restarts-0", "elbow-restarts-0"])
    def test_bad_clustering_setting_is_2_before_the_fit(self, simdir, tmp_path, capsys,
                                                       monkeypatch, flags, error, context):
        import fkspline.cli

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the clustering settings were checked")

        monkeypatch.setattr(fkspline.cli, "add_knots_gradually", no_fit)
        monkeypatch.setattr(fkspline.cli, "fit_coefficients", no_fit)
        out = tmp_path / "c"
        assert run(["cluster", "--data", simdir / "dataset.csv", "--nbasis", "6", *flags,
                    "--outdir", out]) == 2
        assert error_report(capsys) == {"module": "cluster", "error": error, "context": context}
        assert not out.exists()

    def test_ward_takes_no_restarts(self, simdir, tmp_path):
        # --restarts only reaches k-means, so ward ignores a bad count
        assert run(["cluster", "--data", simdir / "dataset.csv", "--knots", "2.5",
                    "--method", "ward", "--restarts", "0", "--outdir", tmp_path]) == 0


def scipy_loaded_by(*commands, package="scipy") -> list[str]:
    """Modules of package a fresh interpreter has loaded after importing
    fkspline and fkspline.cli and running the CLI commands in an empty
    directory."""
    script = (
        "import json, sys\n"
        "import fkspline, fkspline.cli\n"
        f"for argv in {[list(c) for c in commands]!r}:\n"
        "    assert fkspline.cli.main(argv) == 0, argv\n"
        f"print(json.dumps(sorted(m for m in sys.modules\n"
        f"                        if m == {package!r} or m.startswith({package + '.'!r}))))\n"
    )
    src = str(Path(fkspline.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


SIMULATE = ["simulate", "--curves-per-group", "2", "--points", "12", "--outdir", "sim"]


class TestScipyLoading:
    """Only the assignment behind ``cluster --labels`` loads scipy."""

    def test_simulate_fit_and_gcv_load_no_scipy(self):
        data = ["--data", "sim/dataset.csv"]
        assert scipy_loaded_by(
            SIMULATE,
            ["fit", *data, "--nbasis", "6", "--grid-size", "10", "--outdir", "fit"],
            ["gcv", *data, "--knots", "2.5", "--exponents=-1:0", "--outdir", "gcv"],
            ["gcv", *data, "--mode", "free", "--nbasis", "5", "--grid-size", "10",
             "--exponents=-1:0", "--outdir", "gcv-free"],
        ) == []

    def test_kmeans_without_labels_loads_no_hierarchy_or_assignment(self):
        assert scipy_loaded_by(SIMULATE, ["cluster", "--data", "sim/dataset.csv", "--knots",
                                          "2.5", "--k", "2", "--restarts", "2",
                                          "--outdir", "clu"]) == []

    def test_linkages_and_elbow_load_no_scipy(self):
        cluster = ["cluster", "--data", "sim/dataset.csv", "--knots", "2.5", "--restarts", "2"]
        assert scipy_loaded_by(
            SIMULATE,
            *[[*cluster, "--k", "2", "--method", m, "--outdir", m]
              for m in ("ward", "complete", "average")],
            [*cluster, "--kmax", "4", "--outdir", "elbow"],
        ) == []

    def test_replicate_loads_no_scipy(self):
        # at --threads 1 the clustering runs in this process, at 2 in workers
        replicate = ["replicate", "-R", "2", "--variants", "fs0", "--methods", "kmeans,ward",
                     "--nbasis", "5", "--grid-size", "10", "--restarts", "2"]
        assert scipy_loaded_by(*[[*replicate, "--threads", t, "--outdir", f"rep{t}"]
                                 for t in ("1", "2")]) == []

    def test_labels_load_only_the_assignment_solver(self):
        loaded = scipy_loaded_by(SIMULATE, ["cluster", "--data", "sim/dataset.csv", "--knots",
                                            "2.5", "--k", "2", "--restarts", "2", "--labels",
                                            "sim/labels.csv", "--outdir", "clu"])
        assert "scipy.optimize" in loaded
        assert not [m for m in loaded if m.startswith("scipy.cluster")]


class TestLeanProcesses:
    """CLI processes load neither numpy.ma nor, without a worker pool,
    multiprocessing."""

    def test_replicate_cluster_and_fixed_gcv_load_no_numpy_ma(self):
        loaded = scipy_loaded_by(
            SIMULATE,
            ["replicate", "-R", "2", "--variants", "fs0,fs2", "--methods", "kmeans,ward",
             "--nbasis", "5", "--grid-size", "10", "--restarts", "2", "--outdir", "rep"],
            ["cluster", "--data", "sim/dataset.csv", "--nbasis", "5", "--grid-size", "10",
             "--k", "4", "--restarts", "2", "--outdir", "clu"],
            ["gcv", "--data", "sim/dataset.csv", "--knots", "2.5", "--exponents=-1:0",
             "--outdir", "gcv"],
            package="numpy.ma")
        assert loaded == []

    def test_importing_the_cli_loads_no_multiprocessing(self):
        assert scipy_loaded_by(package="multiprocessing") == []


REPL_ARGS = ["replicate", "-R", "2", "--variants", "fs0", "--methods", "kmeans",
             "--nbasis", "6", "--grid-size", "15", "--restarts", "3", "--seed", "5"]


class TestReplicate:
    def test_outputs_and_aggregate(self, tmp_path):
        out = tmp_path / "r"
        assert run(REPL_ARGS + ["--outdir", out]) == 0
        runs = data_rows(out / "runs.csv")
        assert len(runs) == 2  # 2 seeds x 1 variant x 1 method
        seeds = [r.split(",")[0] for r in runs]
        assert seeds == ["5", "6"]
        fits = data_rows(out / "fits.csv")
        assert len(fits) == 2
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert set(aggregate["ari"]) == {"fs0.kmeans"}
        assert -0.5 <= aggregate["ari"]["fs0.kmeans"]["mean"] <= 1.0
        assert aggregate["isse_median"]["fs0"]["isse"] > 0

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # a run under one and under two OpenBLAS threads writes the same
        # bytes; OpenBLAS reads its thread count when numpy loads, so each
        # run is a child process
        src = str(Path(fkspline.__file__).parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            out = tmp_path / f"blas{threads}"
            done = subprocess.run([sys.executable, "-m", "fkspline.cli", "replicate", "-R", "2",
                                   "--seed", "0", "--threads", "1", "--outdir", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            runs.append((done.stdout, dir_bytes(out)))
        assert runs[0] == runs[1]

    def test_matches_simulate_fit_and_cluster(self, tmp_path):
        """One seed of replicate equals simulate, then fit --truth-labels and
        cluster --labels on the written dataset, bit for bit."""
        seed, fit_flags = "3", ["--variant", "fs2", "--nbasis", "6", "--grid-size", "10"]
        assert run(["replicate", "-R", "1", "--seed", seed, "--variants", "fs2",
                    "--methods", "kmeans,ward", "--restarts", "2", *fit_flags[2:],
                    "--outdir", tmp_path / "rep"]) == 0
        assert run(["simulate", "--seed", seed, "--outdir", tmp_path / "sim"]) == 0
        data = ["--data", tmp_path / "sim" / "dataset.csv", *fit_flags]
        assert run(["fit", *data, "--truth-labels", tmp_path / "sim" / "labels.csv",
                    "--outdir", tmp_path / "fit"]) == 0
        report = json.loads((tmp_path / "fit" / "fit.json").read_text())
        (fits,) = [r.split(",") for r in data_rows(tmp_path / "rep" / "fits.csv")]
        keys = ["df", "gcv", "sse", "isse", "isse_inf", "isse_sup"]
        assert fits[:2] == [seed, "fs2"]
        assert [float(x) for x in fits[2:]] == [report[key] for key in keys]
        runs = {r.split(",")[2]: r.split(",") for r in data_rows(tmp_path / "rep" / "runs.csv")}
        for method in ("kmeans", "ward"):
            out = tmp_path / method
            assert run(["cluster", *data, "--method", method, "--k", "4", "--restarts", "2",
                        "--seed", seed, "--labels", tmp_path / "sim" / "labels.csv", "--outdir", out]) == 0
            metrics = json.loads((out / "metrics.json").read_text())
            assert float(runs[method][3]) == metrics["rand_index"]
            assert float(runs[method][4]) == metrics["adjusted_rand_index"]

    def test_thread_count_does_not_change_results(self, tmp_path):
        one, two_a, two_b = tmp_path / "t1", tmp_path / "t2a", tmp_path / "t2b"
        assert run(REPL_ARGS + ["--threads", "1", "--outdir", one]) == 0
        assert run(REPL_ARGS + ["--threads", "2", "--outdir", two_a]) == 0
        assert run(REPL_ARGS + ["--threads", "2", "--outdir", two_b]) == 0
        # same flags rerun: byte-identical
        assert dir_bytes(two_a) == dir_bytes(two_b)
        # different worker counts: identical numbers; only the echoed
        # thread count in the embedded config may differ
        for name in ("runs.csv", "fits.csv"):
            assert data_rows(one / name) == data_rows(two_a / name)
        agg1 = json.loads((one / "aggregate.json").read_text())
        agg2 = json.loads((two_a / "aggregate.json").read_text())
        del agg1["config"]["threads"], agg2["config"]["threads"]
        assert agg1 == agg2

    @pytest.mark.parametrize("threads, replications, workers", [("64", "1", []), ("64", "2", [2])],
                             ids=["serial", "capped"])
    def test_pool_has_no_more_workers_than_seeds(self, tmp_path, monkeypatch, capsys, threads,
                                                 replications, workers):
        import concurrent.futures

        made = []

        class FakePool:
            """Records its worker count and runs the seeds in this process."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # the pool is imported where it starts, so the fake is found there
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        args = ["replicate", "-R", replications, "--variants", "fs0", "--methods", "kmeans",
                "--nbasis", "5", "--grid-size", "10", "--restarts", "2", "--threads", threads]
        assert run(args + ["--outdir", tmp_path / "r"]) == 0
        assert made == workers
        assert last_echo(capsys)["threads"] == int(threads)  # the requested count

    @pytest.mark.parametrize("flag, value, error, context", [
        ("--noise-sd", "-1", "ConfigError", "noise_sd must be a finite number in [0.0, inf], got -1.0"),
        ("--tail-frac", "0.7", "EmptyIntervalError", "tail fraction must lie in (0, 0.5)"),
        ("--seed", "-1", "ConfigError", "seed must be an integer >= 0, got -1"),
    ], ids=["noise-sd", "tail-frac", "seed"])
    def test_bad_setting_is_2_before_the_outdir(self, tmp_path, capsys, flag, value, error,
                                                context):
        out = tmp_path / "r"
        assert run(["replicate", "-R", "1", flag, value, "--outdir", out]) == 2
        assert error_report(capsys) == {"module": "replicate", "error": error, "context": context}
        assert not out.exists()

    @pytest.mark.parametrize("flags, error, context", [
        (["--k", "0"], "ConfigError", "k must be an integer >= 1, got 0"),
        (["--k", "300"], "TooFewCurvesError", "cannot form 300 clusters from 200 curves"),
        (["--restarts", "0"], "ConfigError", "restarts must be an integer >= 1, got 0"),
    ], ids=["k-0", "k-300", "restarts-0"])
    def test_bad_clustering_setting_is_2_before_any_search(self, tmp_path, capsys, monkeypatch,
                                                           flags, error, context):
        import fkspline.cli

        def no_search(*args, **kwargs):
            raise AssertionError("the knot search ran before the clustering settings were checked")

        monkeypatch.setattr(fkspline.cli, "add_knots_lockstep", no_search)
        out = tmp_path / "r"
        assert run(["replicate", "-R", "1", *flags, "--outdir", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no config echo
        assert json.loads(captured.err) == {"module": "replicate", "error": error,
                                            "context": context}
        assert not out.exists()

    def test_env_thread_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FKSPLINE_THREADS", "2")
        out = tmp_path / "r"
        args = ["replicate", "-R", "1", "--variants", "fs0", "--methods", "kmeans",
                "--nbasis", "5", "--grid-size", "10", "--restarts", "2", "--seed", "2"]
        assert run(args + ["--outdir", out]) == 0
        echo = last_echo(capsys)
        assert echo["threads"] == 2

    def test_invalid_env_thread_count(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FKSPLINE_THREADS", "two")
        code = run(["replicate", "-R", "1", "--variants", "fs0", "--methods",
                    "kmeans", "--nbasis", "5", "--outdir", tmp_path])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"


class FakePool:
    """A worker pool that runs the mapped calls in this process, in order."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


LOCKSTEP_ARGS = ["replicate", "-R", "5", "--seed", "2", "--variants", "fs0,fs2",
                 "--methods", "kmeans", "--nbasis", "6", "--grid-size", "15", "--restarts", "3"]


class TestReplicateLockstep:
    """Each process (or worker) fits all its (seed, variant) pairs as one
    lockstep knot search; results and errors are those of seed-by-seed runs."""

    def test_uneven_seed_chunks_and_single_seeds_give_the_same_rows(self, tmp_path):
        for threads in ("1", "2", "3"):
            assert run(LOCKSTEP_ARGS + ["--threads", threads, "--outdir", tmp_path / threads]) == 0
        for name in ("runs.csv", "fits.csv"):
            rows = data_rows(tmp_path / "1" / name)
            assert len(rows) == 10
            assert data_rows(tmp_path / "2" / name) == data_rows(tmp_path / "3" / name) == rows
            alone = []
            for seed in range(2, 7):
                out = tmp_path / f"seed{seed}"
                argv = LOCKSTEP_ARGS[:]
                argv[2], argv[4] = "1", str(seed)
                assert run(argv + ["--outdir", out]) == 0
                alone += data_rows(out / name)
            assert alone == rows

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("cluster_fails", [False, True], ids=["fits", "cluster-first"])
    def test_first_failing_step_in_seed_order_is_reported(self, tmp_path, capsys, monkeypatch,
                                                          threads, cluster_fails):
        import concurrent.futures

        import fkspline.cli
        from fkspline.simulate import ScenarioConfig, generate_scenario
        from fkspline.smoother import variant_config

        first_t = {generate_scenario(ScenarioConfig(seed=s)).dataset.t[0]: s for s in range(2, 7)}
        fail = {(4, "fs2"): errors.NotPositiveDefiniteError("seed 4 fs2"),
                (5, "fs0"): errors.ConfigError("seed 5 fs0")}
        lockstep, cluster, searched = fkspline.cli.add_knots_lockstep, fkspline.cli._cluster, []

        def failing_search(datasets, configs, search):
            results = lockstep(datasets, configs, search)
            for j, (dataset, config) in enumerate(zip(datasets, configs)):
                seed = first_t[dataset.t[0]]
                variant = "fs0" if config == variant_config("fs0") else "fs2"
                searched.append(seed)
                results[j] = fail.get((seed, variant), results[j])
            return results

        def failing_cluster(model, method, k, seed, restarts):
            if cluster_fails and seed == 3:
                raise errors.DataError("seed 3 cluster")
            return cluster(model, method, k, seed, restarts)

        monkeypatch.setattr(fkspline.cli, "add_knots_lockstep", failing_search)
        monkeypatch.setattr(fkspline.cli, "_cluster", failing_cluster)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        code = run(LOCKSTEP_ARGS + ["--threads", threads, "--outdir", tmp_path / "r"])
        report = error_report(capsys)
        # seed 3's clustering comes after its own fits, and before seed 4's
        # fits, although every fit of its process was already searched
        if cluster_fails:
            assert (code, report["error"], report["context"]) == (3, "DataError", "seed 3 cluster")
        else:
            assert (code, report["error"], report["context"]) == (
                4, "NotPositiveDefiniteError", "seed 4 fs2")
        # one process searches all its fits first; a pool's chunks in order
        # (the fake pool runs each chunk when its results are asked for)
        last = 6 if threads == "1" else 4
        assert sorted(searched) == sorted(2 * list(range(2, last + 1)))
        assert not (tmp_path / "r" / "runs.csv").exists()


class TestConfigFile:
    def test_flags_beat_file_beat_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "points": 9, "curves_per_group": 2}))
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--points", "13",
                    "--outdir", out]) == 0
        echo = last_echo(capsys)
        assert echo["seed"] == 7  # from the file
        assert echo["points_per_curve"] == 13  # flag wins over the file
        assert echo["curves_per_group"] == 2  # from the file
        assert echo["groups"] == [1, 2, 3, 4]  # untouched default

    def test_invalid_config_json_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["simulate", "--config", cfg, "--outdir", tmp_path]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    def test_non_object_config_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert run(["simulate", "--config", cfg, "--outdir", tmp_path]) == 2

    def test_missing_config_file_is_3(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "absent.json",
                    "--outdir", tmp_path]) == 3

    @pytest.mark.parametrize("subcommand, cfg", [
        ("replicate", {"k": "x"}),
        ("replicate", {"tail_frac": None}),
        ("simulate", {"seed": [1]}),
        ("simulate", {"seed": 1.7}),
        ("simulate", {"points": 9.0}),
        ("simulate", {"homoscedastic": "no"}),
        ("simulate", {"curves_per_group": True}),
        ("simulate", {"groups": {"a": 1}}),
        ("simulate", {"points_per_curve": 9}),
        ("fit", {"n_basis": 6}),
    ])
    def test_bad_key_or_value_is_2(self, simdir, tmp_path, capsys, monkeypatch, subcommand, cfg):
        import fkspline.cli

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the config file was checked")

        monkeypatch.setattr(fkspline.cli, "add_knots_gradually", no_fit)
        monkeypatch.setattr(fkspline.cli, "fit_coefficients", no_fit)
        config = write_config(tmp_path / "cfg.json", cfg)
        data = ["--data", simdir / "dataset.csv"] if subcommand == "fit" else []
        assert run([subcommand, *data, "--config", config, "--outdir", tmp_path]) == 2
        report = error_report(capsys)
        assert report["error"] == "ConfigError"
        (key,) = cfg
        assert repr(key) in report["context"]

    def test_other_subcommands_keys_are_ignored(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", {"nbasis": 6, "curves_per_group": 1})
        assert run(["simulate", "--config", config, "--outdir", tmp_path]) == 0
        assert last_echo(capsys)["curves_per_group"] == 1

    def test_switch_takes_a_bool(self, tmp_path, capsys):
        for value in (True, False):
            config = write_config(tmp_path / "cfg.json",
                                  {"homoscedastic": value, "curves_per_group": 1})
            assert run(["simulate", "--config", config, "--outdir", tmp_path]) == 0
            assert last_echo(capsys)["heteroscedastic"] is not value

    def test_config_does_not_outlive_its_call(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", {"seed": 7, "points": 9})
        assert run(["simulate", "--config", config, "--curves-per-group", "1",
                    "--outdir", tmp_path / "a"]) == 0
        assert last_echo(capsys)["seed"] == 7
        assert run(["simulate", "--curves-per-group", "1", "--outdir", tmp_path / "b"]) == 0
        echo = last_echo(capsys)
        assert echo["seed"] == 0 and echo["points_per_curve"] == 50

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "0"],
        ["simulate", "--seed", "3", "--groups", "1,3", "--curves-per-group", "2", "--points", "9",
         "--noise-sd", "0.05", "--homoscedastic", "--domain", "0.5,4"],
        ["fit", "--nbasis", "6"],
        ["fit", "--knots", "1,2,3,4"],
        ["fit", "--nbasis", "6", "--truth-labels", "{labels}"],
        ["fit", "--nbasis", "6", "--order", "3", "--variant", "fs0", "--lambda2", "0.01",
         "--grid-size", "10", "--tail-frac", "0.2", "--seed", "4"],
        ["gcv", "--exponents=-2:0"],
        ["gcv", "--mode", "free", "--nbasis", "5", "--grid-size", "10", "--exponents=-1:0"],
        ["gcv", "--knots", "2.5", "--exponents=-2,-1.5,0", "--pin-lambda1", "0"],
        ["cluster", "--nbasis", "6", "--kmax", "5", "--restarts", "3", "--labels", "{labels}"],
        ["cluster", "--knots", "2.5", "--method", "ward"],
        REPL_ARGS + ["--threads", "1"],
        REPL_ARGS + ["--threads", "2"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_config_file_equals_flags(self, simdir, tmp_path, capsys, argv):
        """Every flag but --outdir moved into the config file gives the same
        stdout and byte-identical output files."""
        argv = [a.format(labels=simdir / "labels.csv") for a in argv]
        if argv[0] != "simulate" and argv[0] != "replicate":
            argv[1:1] = ["--data", str(simdir / "dataset.csv")]
        assert run(argv + ["--outdir", tmp_path / "flags"]) == 0
        stdout = capsys.readouterr().out
        subcommand, cfg = as_config(argv)
        config = write_config(tmp_path / "cfg.json", cfg)
        assert run(subcommand + ["--config", config, "--outdir", tmp_path / "config"]) == 0
        assert capsys.readouterr().out == stdout
        assert dir_bytes(tmp_path / "config") == dir_bytes(tmp_path / "flags")


class TestRunRecord:
    """One run record per run: what stdout echoes is every CSV's '#' header
    and every JSON's "config", next to the record's seed."""

    @pytest.mark.parametrize("argv, files", [
        (["simulate", "--curves-per-group", "2", "--points", "10", "--seed", "3"],
         ["dataset.csv", "labels.csv", "means.csv"]),
        (["fit", "--data", "{data}", "--nbasis", "6", "--truth-labels", "{labels}"],
         ["coefficients.csv", "curves.csv", "fit.json"]),
        (["gcv", "--data", "{data}", "--knots", "2.5", "--exponents=-2:0", "--seed", "2"],
         ["gcv_table.csv", "selected.json"]),
        (["cluster", "--data", "{data}", "--nbasis", "6", "--kmax", "3", "--restarts", "3",
          "--labels", "{labels}"], ["elbow.csv", "metrics.json", "partition.csv"]),
        (REPL_ARGS, ["aggregate.json", "fits.csv", "runs.csv"]),
    ], ids=["simulate", "fit", "gcv", "cluster", "replicate"])
    def test_every_output_carries_the_echoed_record(self, simdir, tmp_path, capsys, argv, files):
        out = tmp_path / "out"
        paths = {"data": simdir / "dataset.csv", "labels": simdir / "labels.csv"}
        assert run([a.format(**paths) for a in argv] + ["--outdir", out]) == 0
        record = last_echo(capsys)
        assert record["subcommand"] == argv[0]
        assert sorted(path.name for path in out.iterdir()) == files
        for name in files:
            text = (out / name).read_text()
            if name.endswith(".csv"):
                header = text.splitlines()[0]
                assert header.startswith("# ") and json.loads(header[2:]) == record
            else:
                doc = json.loads(text)
                assert doc["config"] == record and doc["seed"] == record["seed"]
