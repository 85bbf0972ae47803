"""CSV loading, per-series standardization, and dataset conversion."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from fkspline import (
    ConfigError,
    DataError,
    DuplicateCellError,
    EmptyTableError,
    ParseError,
    ZeroVarianceError,
    load_csv,
    standardize,
    to_dataset,
)
from fkspline.ingest import RawSeriesTable


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


WIDE = """time,alpha,beta
0.0,1.0,5.0
1.0,2.0,5.5
2.0,3.0,6.5
"""

LONG = """series,time,value
alpha,0.0,1.0
alpha,1.0,2.0
alpha,2.0,3.0
beta,0.0,5.0
beta,1.0,5.5
beta,2.0,6.5
"""


class TestLoading:
    def test_wide_layout(self, tmp_path):
        table = load_csv(write(tmp_path, "w.csv", WIDE), layout="wide")
        assert table.series_ids == ["alpha", "beta"]
        assert np.array_equal(table.time_index, [0.0, 1.0, 2.0])
        assert np.array_equal(table.values[:, 0], [1.0, 2.0, 3.0])
        assert table.mask.all()

    def test_long_layout_matches_wide(self, tmp_path):
        wide = load_csv(write(tmp_path, "w.csv", WIDE), layout="wide")
        long = load_csv(write(tmp_path, "l.csv", LONG), layout="long")
        assert wide.series_ids == long.series_ids
        assert np.array_equal(wide.time_index, long.time_index)
        assert np.array_equal(wide.values, long.values)
        assert np.array_equal(wide.mask, long.mask)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        text = "# comment\ntime,a\n\n0,1\n# another\n1,2\n"
        table = load_csv(write(tmp_path, "c.csv", text), layout="wide")
        assert np.array_equal(table.values[:, 0], [1.0, 2.0])

    def test_missing_tokens(self, tmp_path):
        text = "time,a,b\n0,1,\n1,NA,4\n2,nan,5\n3,null,6\n"
        table = load_csv(write(tmp_path, "m.csv", text), layout="wide")
        assert not table.mask[0, 1]
        assert table.mask[0, 0]
        assert not table.mask[1, 0]
        assert not table.mask[2, 0]
        assert not table.mask[3, 0]

    def test_iso_dates_become_ordinal_numbers(self, tmp_path):
        text = "time,a\n2024-01-01,1\n2024-01-03,2\n"
        table = load_csv(write(tmp_path, "d.csv", text), layout="wide")
        assert table.time_index[1] - table.time_index[0] == pytest.approx(2.0)
        assert table.time_labels == ["2024-01-01", "2024-01-03"]

    def test_rows_sorted_by_time(self, tmp_path):
        text = "time,a\n2.0,3\n0.0,1\n1.0,2\n"
        table = load_csv(write(tmp_path, "s.csv", text), layout="wide")
        assert np.array_equal(table.time_index, [0.0, 1.0, 2.0])
        assert np.array_equal(table.values[:, 0], [1.0, 2.0, 3.0])

    def test_duplicate_time_rejected(self, tmp_path):
        text = "time,a\n0.0,1\n0.0,2\n"
        with pytest.raises(DuplicateCellError):
            load_csv(write(tmp_path, "dup.csv", text), layout="wide")

    def test_duplicate_series_name_rejected(self, tmp_path):
        # two columns of one name would take one label row between them
        text = "t,a,a,b\n0,1,2,3\n1,2,3,4\n"
        with pytest.raises(DuplicateCellError, match=r"'a' appears twice \(columns 2 and 3\)"):
            load_csv(write(tmp_path, "dupname.csv", text), layout="wide")

    def test_duplicate_series_time_pair_rejected(self, tmp_path):
        text = "series,time,value\ns,0,1\ns,0,2\n"
        with pytest.raises(DuplicateCellError):
            load_csv(write(tmp_path, "dup2.csv", text), layout="long")

    def test_parse_error_carries_location(self, tmp_path):
        text = "time,a\n0.0,1\n1.0,abc\n"
        with pytest.raises(ParseError) as exc_info:
            load_csv(write(tmp_path, "bad.csv", text), layout="wide")
        assert exc_info.value.row == 3
        assert exc_info.value.column == 2

    def test_bad_time_token(self, tmp_path):
        text = "time,a\nzero,1\n"
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "badt.csv", text), layout="wide")

    @pytest.mark.parametrize("layout, text, row, column", [
        ("wide", "time,a\n2,1\nnan,2\n1,3\nnan,4\n0,5\n", 3, 1),
        ("wide", "time,a\n0,1\ninf,2\n", 3, 1),
        ("wide", "time,a\n-1e999,1\n0,2\n", 2, 1),
        ("long", "series,time,value\na,0,1\na,nan,2\n", 3, 2),
        ("long", "series,time,value\na,0,1\nb,-inf,2\n", 3, 2),
    ], ids=["wide-nan", "wide-inf", "wide-overflow", "long-nan", "long-minus-inf"])
    def test_non_finite_time_rejected(self, tmp_path, layout, text, row, column):
        # a nan time is never a duplicate of another and cannot be sorted
        with pytest.raises(ParseError, match="is not finite") as exc_info:
            load_csv(write(tmp_path, "nant.csv", text), layout=layout)
        assert (exc_info.value.row, exc_info.value.column) == (row, column)

    def test_long_file_of_many_series_equals_its_wide_twin(self, tmp_path):
        # the long loader indexes its series by name; its table is the wide
        # one's, field by field, for unsorted rows, ISO dates and missing cells
        rng = np.random.default_rng(0)
        dates = [f"2024-{m:02d}-{d:02d}" for m in (3, 1, 2) for d in (9, 1, 20)]
        names = [f"s{j}" for j in rng.permutation(300)]
        cells = np.round(rng.normal(size=(len(dates), len(names))), 3).astype(str)
        cells[rng.random(cells.shape) < 0.1] = ""
        wide = "date," + ",".join(names) + "\n" + "".join(
            f"{date},{','.join(row)}\n" for date, row in zip(dates, cells))
        triples = [(name, date, cells[i, j]) for i, date in enumerate(dates)
                   for j, name in enumerate(names)]
        long = "series,date,value\n" + "".join(
            f"{name},{date},{value}\n" for name, date, value in
            (triples[c] for c in rng.permutation(len(triples))))
        a = load_csv(write(tmp_path, "w.csv", wide), layout="wide")
        b = load_csv(write(tmp_path, "l.csv", long), layout="long")
        assert sorted(b.series_ids) == sorted(a.series_ids)
        order = [a.series_ids.index(name) for name in b.series_ids]
        assert b.time_labels == a.time_labels == sorted(dates)
        assert np.array_equal(b.time_index, a.time_index)
        assert np.array_equal(b.values, a.values[:, order], equal_nan=True)
        assert np.array_equal(b.mask, a.mask[:, order])
        assert b.provenance == {"source": str(tmp_path / "l.csv"), "layout": "long"}

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(EmptyTableError):
            load_csv(write(tmp_path, "e.csv", ""), layout="wide")
        with pytest.raises(EmptyTableError):
            load_csv(write(tmp_path, "h.csv", "time,a\n"), layout="wide")

    def test_unreadable_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv", layout="wide")
        binary = tmp_path / "latin1.csv"
        binary.write_bytes(b"time,a\n0,\xff\n")
        with pytest.raises(ParseError):
            load_csv(binary, layout="wide")

    def test_a_path_that_is_no_file_name_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="path must be a file path"):
            load_csv(None)
        # open() takes an int as a file descriptor: it would read this one
        # (or block on a pipe's) and close it
        fd = os.open(write(tmp_path, "w.csv", WIDE), os.O_RDONLY)
        try:
            with pytest.raises(ConfigError, match="path must be a file path"):
                load_csv(fd)
        finally:
            with contextlib.suppress(OSError):
                os.close(fd)

    def test_unknown_layout(self, tmp_path):
        with pytest.raises(ConfigError):
            load_csv(write(tmp_path, "w.csv", WIDE), layout="diagonal")


class TestStandardize:
    def test_z_scores_of_arithmetic_sequence(self, tmp_path):
        text = "time,a\n0,1\n1,2\n2,3\n"
        table = load_csv(write(tmp_path, "z.csv", text), layout="wide")
        result = standardize(table)
        assert np.allclose(result.values[:, 0], [-1.0, 0.0, 1.0])
        assert result.provenance["standardized"] is True

    def test_idempotent(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{i},{v:.6f}" for i, v in enumerate(rng.normal(3, 2, 20)))
        table = load_csv(write(tmp_path, "i.csv", "time,a\n" + rows + "\n"), layout="wide")
        once = standardize(table)
        twice = standardize(once)
        assert np.abs(once.values - twice.values).max() <= 1e-12

    def test_affine_invariance(self):
        # scaling and shifting a series leaves its z-scores unchanged
        rng = np.random.default_rng(2)
        base = rng.normal(size=25)
        times = np.arange(25.0)
        labels = [str(i) for i in range(25)]
        mask = np.ones((25, 1), dtype=bool)
        t1 = RawSeriesTable(
            series_ids=["x"], time_labels=labels, time_index=times,
            values=base[:, None].copy(), mask=mask.copy(),
        )
        for a, b in [(2.0, 5.0), (0.001, -3.0), (1000.0, 0.0)]:
            t2 = RawSeriesTable(
                series_ids=["x"], time_labels=labels, time_index=times,
                values=(a * base + b)[:, None], mask=mask.copy(),
            )
            z1 = standardize(t1).values
            z2 = standardize(t2).values
            assert np.abs(z1 - z2).max() < 1e-10

    def test_zero_variance_raises_or_drops(self, tmp_path):
        text = "time,flat,ok\n0,5,1\n1,5,2\n2,5,3\n"
        table = load_csv(write(tmp_path, "zv.csv", text), layout="wide")
        with pytest.raises(ZeroVarianceError):
            standardize(table)
        result = standardize(table, on_zero_variance="drop")
        assert result.series_ids == ["ok"]
        assert ("flat", "zero variance") in result.provenance["dropped"]
        with pytest.raises(ConfigError):
            standardize(table, on_zero_variance="shrug")

    def test_small_gaps_interpolated_with_provenance(self, tmp_path):
        rows = ["time,a"]
        for i in range(11):
            rows.append(f"{i},{'' if i == 5 else float(i)}")
        table = load_csv(write(tmp_path, "g.csv", "\n".join(rows) + "\n"), layout="wide")
        result = standardize(table)
        assert ("a", "5") in result.provenance["interpolated"]
        assert result.mask.all()
        # the linear gap fill restores the arithmetic sequence exactly
        spacing = np.diff(result.values[:, 0])
        assert np.abs(spacing - spacing[0]).max() < 1e-12

    def test_heavily_missing_series_dropped(self, tmp_path):
        rows = ["time,holey,full"]
        for i in range(10):
            rows.append(f"{i},{'' if i % 3 == 0 else float(i)},{float(i)}")
        table = load_csv(write(tmp_path, "hm.csv", "\n".join(rows) + "\n"), layout="wide")
        result = standardize(table)  # 4/10 cells missing > 10%
        assert result.series_ids == ["full"]
        assert result.provenance["dropped"][0][0] == "holey"

    def test_all_series_dropped_is_empty(self, tmp_path):
        text = "time,flat\n0,5\n1,5\n"
        table = load_csv(write(tmp_path, "ad.csv", text), layout="wide")
        with pytest.raises(EmptyTableError):
            standardize(table, on_zero_variance="drop")


class TestToDataset:
    def test_time_mapped_to_unit_interval(self, tmp_path):
        text = "time,a,b\n10,1,4\n20,2,5\n40,3,6\n"
        table = load_csv(write(tmp_path, "u.csv", text), layout="wide")
        ds = to_dataset(table)
        assert ds.t[0] == 0.0 and ds.t[-1] == 1.0
        assert ds.t[1] == pytest.approx(1 / 3)
        assert ds.values.shape == (3, 2)
        assert ds.n_curves == 2

    def test_masked_cells_rejected(self, tmp_path):
        text = "time,a\n0,1\n1,\n2,3\n"
        table = load_csv(write(tmp_path, "mk.csv", text), layout="wide")
        with pytest.raises(EmptyTableError):
            to_dataset(table)

    def test_pipeline_load_standardize_convert(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = ["time," + ",".join(f"s{j}" for j in range(4))]
        for i in range(12):
            vals = ",".join(f"{v:.6f}" for v in rng.normal(0, 2, 4) + np.arange(1, 5))
            rows.append(f"{i},{vals}")
        table = load_csv(write(tmp_path, "p.csv", "\n".join(rows) + "\n"), layout="wide")
        ds = to_dataset(standardize(table))
        assert ds.values.shape == (12, 4)
        assert np.abs(ds.values.mean(axis=0)).max() < 1e-10
        assert np.abs(ds.values.std(axis=0, ddof=1) - 1.0).max() < 1e-10
