"""Loading and standardization of real-world multi-series CSV data.

Two layouts are accepted: wide (first column time, one column per series)
and long ((series, time, value) triples).  The time column may hold
integers, reals, or ISO-8601 dates; missing cells stay masked until
standardization interpolates or drops them.
"""

from __future__ import annotations

import csv
import datetime
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data import FunctionalDataset
from .errors import (
    ConfigError,
    DataError,
    DuplicateCellError,
    EmptyTableError,
    ParseError,
    ZeroVarianceError,
    as_instance,
    as_real,
    is_choice,
)

__all__ = ["RawSeriesTable", "load_csv", "standardize", "to_dataset"]

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


@dataclass(eq=False)
class RawSeriesTable:
    """Aligned multi-series table with a missing-value mask.

    values is (T, N) with nan at masked cells; time_index holds the parsed
    numeric time (ordinal for dates), time_labels the original tokens.
    """

    series_ids: list[str]
    time_labels: list[str]
    time_index: np.ndarray
    values: np.ndarray
    mask: np.ndarray  # True where a value is present
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, kind in (("series_ids", list), ("time_labels", list), ("time_index", np.ndarray),
                           ("values", np.ndarray), ("mask", np.ndarray), ("provenance", dict)):
            as_instance(getattr(self, name), kind, name)
        if not all(isinstance(x, str) for x in self.series_ids + self.time_labels):
            raise ConfigError("series_ids and time_labels must hold strings")
        T, N = len(self.time_labels), len(self.series_ids)
        if self.time_index.shape != (T,) or {self.values.shape, self.mask.shape} != {(T, N)}:
            raise ConfigError(f"a table of {N} series at {T} times needs a ({T},) time_index and "
                              f"({T}, {N}) values and mask, got {self.time_index.shape}, "
                              f"{self.values.shape} and {self.mask.shape}")
        kinds = {self.time_index.dtype.kind, self.values.dtype.kind}
        if self.mask.dtype != bool or not kinds <= set("iuf"):
            raise ConfigError("time_index and values must be real arrays, and mask a bool array")

    @property
    def n_times(self) -> int:
        return self.time_index.size

    @property
    def n_series(self) -> int:
        return len(self.series_ids)


def _parse_time(token: str, row: int, col: int) -> float:
    """A time token as a finite number: a real, or the ordinal of an ISO date."""
    token = token.strip()
    try:
        t = float(token)
    except ValueError:
        try:
            return float(datetime.date.fromisoformat(token).toordinal())
        except ValueError:
            raise ParseError(
                f"cannot parse time {token!r} (row {row}, column {col})", row=row, column=col
            ) from None
    if not math.isfinite(t):  # nan would be unsortable and never a duplicate
        raise ParseError(f"time {token!r} is not finite (row {row}, column {col})",
                         row=row, column=col)
    return t


def _parse_value(token: str, row: int, col: int) -> float:
    token = token.strip()
    if token.lower() in _MISSING_TOKENS:
        return np.nan
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"cannot parse value {token!r} (row {row}, column {col})", row=row, column=col
        ) from None


def _read_rows(path) -> list[list[str]]:
    """The rows of a CSV file, lines starting with '#' skipped."""
    if not isinstance(path, (str, bytes, os.PathLike)):  # open() takes an int as a descriptor
        raise ConfigError(f"path must be a file path, got {path!r}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return [row for row in rows if not (row and row[0].lstrip().startswith("#"))]


def _table(path, layout: str, series_ids: list, records: list) -> RawSeriesTable:
    """The table of (time, label, row of values) records, sorted by time."""
    if not records:
        raise EmptyTableError(f"{path}: no data rows")
    records.sort(key=lambda rec: rec[0])
    values = np.array([rec[2] for rec in records], dtype=float)
    return RawSeriesTable(
        series_ids=series_ids, time_labels=[rec[1] for rec in records],
        time_index=np.array([rec[0] for rec in records]), values=values,
        mask=~np.isnan(values), provenance={"source": str(path), "layout": layout},
    )


def _load_wide(path) -> RawSeriesTable:
    rows = _read_rows(path)
    if not rows or len(rows[0]) < 2:
        raise EmptyTableError(f"{path}: no series columns found")
    series_ids = [c.strip() for c in rows[0][1:]]
    columns = {}
    for j, sid in enumerate(series_ids, start=2):
        if columns.setdefault(sid, j) != j:
            raise DuplicateCellError(
                f"series {sid!r} appears twice (columns {columns[sid]} and {j})")
    records = []
    seen_times = {}
    for r, row in enumerate(rows[1:], start=2):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != len(series_ids) + 1:
            raise ParseError(
                f"row {r} has {len(row)} cells, expected {len(series_ids) + 1}", row=r, column=None
            )
        t = _parse_time(row[0], r, 1)
        if t in seen_times:
            raise DuplicateCellError(f"time {row[0].strip()!r} appears twice (rows {seen_times[t]} and {r})")
        seen_times[t] = r
        records.append((t, row[0].strip(), [_parse_value(c, r, j + 2) for j, c in enumerate(row[1:])]))
    return _table(path, "wide", series_ids, records)


def _load_long(path) -> RawSeriesTable:
    rows = _read_rows(path)
    if not rows:
        raise EmptyTableError(f"{path}: empty file")
    start = 1 if rows[0] and not _is_numberlike(rows[0][-1]) else 0  # 1: a header row
    cells = {}  # (series column, time) -> value
    columns = {}  # series -> its column, in order of first appearance
    times = {}
    for r, row in enumerate(rows[start:], start=start + 1):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise ParseError(f"row {r} has {len(row)} cells, expected 3", row=r, column=None)
        sid = row[0].strip()
        t = _parse_time(row[1], r, 2)
        v = _parse_value(row[2], r, 3)
        key = (columns.setdefault(sid, len(columns)), t)
        if key in cells:
            raise DuplicateCellError(f"duplicate cell ({sid!r}, {row[1].strip()!r}) at row {r}")
        cells[key] = v
        times.setdefault(t, row[1].strip())
    records = {t: (t, label, [np.nan] * len(columns)) for t, label in times.items()}
    for (j, t), v in cells.items():
        records[t][2][j] = v
    return _table(path, "long", list(columns), list(records.values()))


def _is_numberlike(token: str) -> bool:
    try:
        float(token.strip())
        return True
    except ValueError:
        return token.strip().lower() in _MISSING_TOKENS


def load_csv(path, layout: str = "wide") -> RawSeriesTable:
    """Parse a CSV file into an aligned series table.

    Lines starting with '#' are skipped.  Duplicate (series, time) pairs
    raise; missing cells are masked, not dropped.  An unreadable file
    raises DataError.
    """
    if not is_choice(layout, ("wide", "long")):
        raise ConfigError(f"layout must be 'wide' or 'long', got {layout!r}")
    return _load_wide(path) if layout == "wide" else _load_long(path)


def standardize(table: RawSeriesTable, max_missing_frac: float = 0.1,
                on_zero_variance: str = "raise") -> RawSeriesTable:
    """Per-series z-scores over the whole observation window.

    Series with more than max_missing_frac missing cells are dropped and
    recorded in provenance; remaining gaps are filled by linear
    interpolation on the time index before scoring.  The sample SD uses the
    (T-1) denominator.  Constant series raise ZeroVarianceError, or with
    on_zero_variance="drop" are excluded with a warning record instead.
    """
    as_instance(table, RawSeriesTable, "table")
    max_missing_frac = as_real(max_missing_frac, "max_missing_frac", 0.0, 1.0)
    if not is_choice(on_zero_variance, ("raise", "drop")):
        raise ConfigError("on_zero_variance must be 'raise' or 'drop'")
    if table.n_times < 2:
        raise EmptyTableError("need at least 2 time points to standardize")
    keep = []
    out_cols = []
    dropped = []
    interpolated = []
    for j, sid in enumerate(table.series_ids):
        col = table.values[:, j].copy()
        present = table.mask[:, j]
        n_missing = int((~present).sum())
        if n_missing > max_missing_frac * table.n_times or present.sum() < 2:
            dropped.append((sid, f"{n_missing}/{table.n_times} cells missing"))
            continue
        if n_missing:
            col[~present] = np.interp(
                table.time_index[~present], table.time_index[present], col[present]
            )
            interpolated.extend((sid, table.time_labels[i]) for i in np.where(~present)[0])
        sd = float(np.std(col, ddof=1))
        if sd <= 0:
            if on_zero_variance == "raise":
                raise ZeroVarianceError(f"series {sid!r} has zero sample variance")
            dropped.append((sid, "zero variance"))
            continue
        keep.append(sid)
        out_cols.append((col - col.mean()) / sd)
    if not keep:
        raise EmptyTableError("no series left after standardization")
    provenance = dict(table.provenance)
    provenance["standardized"] = True
    provenance["dropped"] = provenance.get("dropped", []) + dropped
    provenance["interpolated"] = provenance.get("interpolated", []) + interpolated
    values = np.column_stack(out_cols)
    return RawSeriesTable(
        series_ids=keep, time_labels=list(table.time_labels),
        time_index=table.time_index.copy(), values=values,
        mask=np.ones_like(values, dtype=bool), provenance=provenance,
    )


def to_dataset(table: RawSeriesTable) -> FunctionalDataset:
    """Map the time axis to [0, 1] and wrap the table for basis fitting.

    All cells must be present; run standardize (or fill gaps yourself)
    first.
    """
    if not as_instance(table, RawSeriesTable, "table").mask.all():
        raise EmptyTableError("table still has missing cells; standardize first")
    t = table.time_index
    span = t[-1] - t[0]
    if span <= 0:
        raise EmptyTableError("time index has zero span")
    return FunctionalDataset(t=(t - t[0]) / span, values=table.values)
