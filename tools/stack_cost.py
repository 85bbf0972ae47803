#!/usr/bin/env python3
"""Time the fixed cost of the knot search's stacks, stages and objects.

    python3 tools/stack_cost.py [--src DIR]

DIR is the src/ directory of the tree to time (default: this checkout's).
The inputs are benchmark_config(seed=0) and the p = 5 stage of its fs2
knot search (order 4, 8 knots fixed, grid 50).  Printed, each as the
timeit minimum over 15 repeats of the per-call mean:

- freeknot._fits at 1, 6, 12 and 48 rows of log gap ratios near that
  stage's, every row a distinct knot vector, for fs2 and fs0;
- freeknot._bordered, the bordered screen of every grid candidate
  inserted into that stage's knots, for fs2 and fs0;
- the objects a stage builds from knots: BasisSpec (make_basis_spec),
  JuppCoords and jupp_inverse.

Only private names that the knot search has kept since the bordered scan
are used, so two trees can be timed in alternation, one run each:

    python3 tools/stack_cost.py --src /path/to/parent/src
    python3 tools/stack_cost.py
"""

import argparse
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = (1, 6, 12, 48)
P = 5
REPEAT = 15


def best(call, number: int) -> float:
    """Minimum over REPEAT runs of the mean seconds per call over number calls."""
    return min(timeit.repeat(call, number=number, repeat=REPEAT)) / number


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src/ directory of the tree to time")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np

    from fkspline import freeknot, smoother
    from fkspline.basis import make_basis_spec
    from fkspline.simulate import benchmark_config, generate_scenario

    order = 4
    search = freeknot.KnotSearchConfig(order=order, max_knots=8, fixed_p=True, grid_size=50)
    dataset = generate_scenario(benchmark_config(seed=0)).dataset
    lo, hi = dataset.domain
    stage = freeknot.add_knots_gradually(dataset, smoother.variant_config("fs2"),
                                         search).stages[P]
    k, knots = stage.coords.values, stage.knots
    print(f"# src {Path(args.src).resolve()}; benchmark_config(seed=0), p = {P}, "
          f"microseconds per call, timeit min of {REPEAT}")

    for variant in ("fs2", "fs0"):
        config = smoother.variant_config(variant)
        jobs = freeknot._Jobs([dataset], [config], [(lo, hi)], order)
        for n in ROWS:
            # distinct knot vectors, each a small move of the stage's
            rows = k + 1e-4 * np.arange(n)[:, None] * np.linspace(1.0, -1.0, P)
            owner = np.zeros(n, dtype=int)
            seconds = best(lambda: [None for _ in freeknot._fits(rows, jobs, owner)],
                           max(5, 60 // n))
            print(f"_fits {variant} {n:2d} rows  {seconds * 1e6:8.1f}")

    full = np.concatenate([np.full(order, lo), knots, np.full(order, hi)])
    grid = freeknot._candidate_grid(lo, hi, knots, search)
    tau = np.sort(np.column_stack([np.broadcast_to(knots, (grid.size, P)), grid]), axis=1)
    ratios = freeknot._gap_ratios(tau, lo, hi)[1]
    kept, rows_full = freeknot._fittable_rows(ratios, np.full(grid.size, lo),
                                              np.full(grid.size, hi), order)
    q = order + np.searchsorted(knots, grid[kept])
    for variant in ("fs2", "fs0"):
        weights = smoother.penalty_weights(smoother.variant_config(variant), order)
        ((_, _, (_, _, system)),) = smoother.fit_stack(full[None], order, [dataset],
                                                        weights[None], full=True)
        seconds = best(lambda: freeknot._bordered(knots, system, rows_full, q, dataset,
                                                  weights, order), 20)
        print(f"_bordered {variant} {len(q)} candidates  {seconds * 1e6:8.1f}")

    coords = stage.coords
    for name, call in (("BasisSpec", lambda: make_basis_spec(lo, hi, order, knots)),
                       ("JuppCoords", lambda: freeknot.JuppCoords(k, lo, hi)),
                       ("jupp_inverse", lambda: freeknot.jupp_inverse(coords))):
        print(f"{name}  {best(call, 200) * 1e6:8.1f}")


if __name__ == "__main__":
    main()
