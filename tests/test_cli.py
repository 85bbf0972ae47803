"""Command-line interface: outputs, schemas, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkspline.cli import main


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
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        report = json.loads(err[0])
        assert set(report) == {"module", "error", "context"}
        return report

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
    ], ids=["nan-cell", "empty-cell", "inf-cell", "duplicate-t", "header-only", "one-row"])
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

        monkeypatch.setattr(fkspline.cli, "fit_free_knot", no_fit)
        rows = (simdir / "labels.csv").read_text().splitlines()
        (tmp_path / "bad-group").write_text("\n".join(rows[:-1] + [rows[-1][:-1] + "7"]) + "\n")
        (tmp_path / "bad-row").write_text("\n".join(rows[:-1] + [rows[-1] + ",1"]) + "\n")
        flags = [tmp_path / f if f.startswith("bad-") else f for f in flags]
        assert run(["fit", "--data", simdir / "dataset.csv", "--nbasis", "5",
                    *flags, "--outdir", tmp_path / "out"]) == code
        assert self.stderr_report(capsys)["error"] == error

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
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["fit", "--data", str(data), "--nbasis", "4", "--outdir", tmp])
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"module", "error", "context"}


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
