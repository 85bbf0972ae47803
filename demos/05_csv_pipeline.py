"""From a raw CSV to fitted curves: load, standardize, fit, predict.

Run:  python3 demos/05_csv_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from fkspline import (
    KnotSearchConfig,
    fit_free_knot,
    load_csv,
    standardize,
    to_dataset,
    variant_config,
)

# A small wide-layout file: first column time (ISO dates work too), one
# column per series.  Missing cells may be empty or na/nan/null/none, and
# '#' lines are comments.
rng = np.random.default_rng(7)
days = np.arange(40)
trend = np.sin(days / 6.0)
rows = ["# tiny synthetic export", "time,north,south,flat"]
for i, d in enumerate(days):
    north = 10 + 4 * trend[i] + 0.3 * rng.standard_normal()
    south = -2 + 1.5 * trend[i] + 0.1 * rng.standard_normal()
    cell = "" if i == 17 else f"{north:.4f}"  # one gap, later interpolated
    rows.append(f"{d},{cell},{south:.4f},5.0")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "series.csv"
    path.write_text("\n".join(rows) + "\n")
    table = load_csv(path, layout="wide")
print(f"loaded {table.n_series} series x {table.n_times} times, "
      f"{int((~table.mask).sum())} missing cell(s)")

# Standardization puts every series on a common scale (z-scores with the
# sample SD), interpolates small gaps, and refuses constant series unless
# told to drop them.
clean = standardize(table, on_zero_variance="drop")
print(f"after standardize: kept {clean.series_ids}, "
      f"dropped {[sid for sid, _ in clean.provenance['dropped']]}, "
      f"interpolated {clean.provenance['interpolated']}")

# Conversion maps the time axis to [0, 1] and yields the dataset the
# smoother consumes: both series now share one curve family.
dataset = to_dataset(clean)
print(f"dataset: {dataset.n_curves} curves on [{dataset.t[0]}, {dataset.t[-1]}]")

model = fit_free_knot(dataset, variant_config("fs2"),
                      KnotSearchConfig(order=4, max_knots=4))
d = model.diagnostics
print(f"\nfit: {model.spec.n_basis} basis functions, knots "
      f"{np.round(model.spec.interior_knots, 3)}, df {d.df:.2f}, sse {d.sse:.4f}")

# Predictions on a dense grid; column j is series j.  Because both series
# were standardized, their fitted shapes are directly comparable.
dense = np.linspace(0, 1, 7)
fitted = model.predict(dense)
print("\n t      " + "  ".join(f"{sid:>7}" for sid in clean.series_ids))
for i, x in enumerate(dense):
    print(f" {x:.2f}  " + "  ".join(f"{v:7.3f}" for v in fitted[i]))
