"""Grid search for the pair of roughness weights by generalized cross-validation."""

from __future__ import annotations

import numpy as np
import pytest

from fkspline import (
    AllCellsFailedError,
    ConfigError,
    FunctionalDataset,
    LambdaGrid,
    eval_spline,
    gcv_grid_search,
    make_basis_spec,
)
from fkspline.lambda_select import _select_best


def spline_dataset(seed=0, n_points=40):
    """Noiseless samples of a spline drawn from the search's own space."""
    rng = np.random.default_rng(seed)
    spec = make_basis_spec(0.0, 1.0, 4, [0.5])
    c = rng.standard_normal(spec.n_basis)
    t = np.sort(rng.uniform(0, 1, n_points))
    t[0], t[-1] = 0.0, 1.0
    y = eval_spline(spec, c, t)
    return FunctionalDataset(t=t, values=y[:, None]), spec


class TestLambdaGrid:
    def test_from_exponents(self):
        grid = LambdaGrid.from_exponents([-2, 0, 2])
        assert grid.values == pytest.approx([0.01, 1.0, 100.0])
        assert grid.size == 3

    def test_values_sorted_and_deduplicated_inputs_rejected(self):
        with pytest.raises(ConfigError):
            LambdaGrid(values=())
        with pytest.raises(ConfigError):
            LambdaGrid(values=(1.0, 1.0))
        with pytest.raises(ConfigError):
            LambdaGrid(values=(0.0, 1.0))
        with pytest.raises(ConfigError):
            LambdaGrid(values=(-1.0, 1.0))
        assert LambdaGrid(values=(10.0, 1.0)).values == (1.0, 10.0)


class TestFixedKnotSearch:
    def test_single_cell_grid(self):
        ds, spec = spline_dataset()
        grid = LambdaGrid(values=(0.5,))
        res = gcv_grid_search(ds, grid=grid, spec=spec, mode="fixed")
        assert res.lambda1 == 0.5 and res.lambda2 == 0.5
        assert res.scores.shape == (1, 1)
        assert np.isfinite(res.gcv)

    def test_noiseless_spline_selects_smallest_cell(self):
        # Data drawn exactly from the spline space: any positive roughness
        # weight only biases the fit, so the smallest cell wins.
        ds, spec = spline_dataset()
        grid = LambdaGrid.from_exponents([-3, 0, 3])
        res = gcv_grid_search(ds, grid=grid, spec=spec, mode="fixed")
        assert res.lambda1 == pytest.approx(1e-3)
        assert res.lambda2 == pytest.approx(1e-3)
        assert res.gcv == res.scores.min()

    def test_score_table_shape_and_df_tracking(self):
        ds, spec = spline_dataset()
        grid = LambdaGrid.from_exponents([-2, 1])
        res = gcv_grid_search(ds, grid=grid, spec=spec, mode="fixed")
        assert res.scores.shape == (2, 2)
        assert res.df.shape == (2, 2)
        assert res.sse.shape == (2, 2)
        assert res.failures == []
        # df shrinks as either weight grows
        assert res.df[1, 1] <= res.df[0, 0] + 1e-10
        assert res.mode == "fixed"

    def test_pinned_first_weight(self):
        ds, spec = spline_dataset()
        grid = LambdaGrid.from_exponents([-2, 0])
        res = gcv_grid_search(
            ds, grid=grid, spec=spec, mode="fixed", lambda1_pinned=0.0
        )
        assert res.lambda1 == 0.0
        assert res.lambda1_values == (0.0,)
        assert res.scores.shape == (1, 2)

    def test_denser_grid_never_finds_worse_minimum(self):
        ds, spec = spline_dataset(seed=3)
        coarse = gcv_grid_search(
            ds, grid=LambdaGrid.from_exponents([-2, 0]), spec=spec, mode="fixed"
        )
        dense = gcv_grid_search(
            ds, grid=LambdaGrid.from_exponents([-2, -1, 0]), spec=spec, mode="fixed"
        )
        assert dense.gcv <= coarse.gcv + 1e-15

    def test_all_cells_failing_is_reported(self):
        # Every cell fails identically when the data lie outside the spec's
        # domain, and the failure list says why.
        ds, _ = spline_dataset()
        far_spec = make_basis_spec(5.0, 6.0, 4, [])
        with pytest.raises(AllCellsFailedError):
            gcv_grid_search(
                ds, grid=LambdaGrid.from_exponents([0]), spec=far_spec, mode="fixed"
            )

    def test_deterministic(self):
        ds, spec = spline_dataset(seed=5)
        grid = LambdaGrid.from_exponents([-2, 0, 2])
        a = gcv_grid_search(ds, grid=grid, spec=spec, mode="fixed")
        b = gcv_grid_search(ds, grid=grid, spec=spec, mode="fixed")
        assert np.array_equal(a.scores, b.scores)
        assert (a.lambda1, a.lambda2, a.gcv) == (b.lambda1, b.lambda2, b.gcv)


class TestTieBreaking:
    def test_exact_ties_prefer_heavier_smoothing(self):
        lambda1_values = (0.0, 1.0)
        lambda2_values = (1.0, 10.0)
        scores = np.full((2, 2), 3.5)
        _, best_l1, best_l2, _, _ = _select_best(scores, lambda1_values, lambda2_values)
        assert (best_l1, best_l2) == (1.0, 10.0)

    def test_unique_minimum_wins_regardless_of_weight(self):
        scores = np.array([[3.5, 1.0], [3.5, 3.5]])
        _, best_l1, best_l2, i, j = _select_best(scores, (0.0, 1.0), (1.0, 10.0))
        assert (i, j) == (0, 1)
        assert (best_l1, best_l2) == (0.0, 10.0)


class TestFreeKnotMode:
    def test_runs_and_records_mode(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0, 1, 40)
        y = np.abs(t - 0.4) + 0.05 * rng.standard_normal(40)
        ds = FunctionalDataset(t=t, values=y[:, None])
        from fkspline import KnotSearchConfig

        search = KnotSearchConfig(order=4, max_knots=2, fixed_p=True, grid_size=20)
        grid = LambdaGrid.from_exponents([-4, -1])
        res = gcv_grid_search(ds, grid=grid, search=search, mode="free")
        assert res.mode == "free"
        assert np.isfinite(res.gcv)
        again = gcv_grid_search(ds, grid=grid, search=search, mode="free")
        assert (res.lambda1, res.lambda2, res.gcv) == (
            again.lambda1,
            again.lambda2,
            again.gcv,
        )

    def test_config_errors(self):
        ds, spec = spline_dataset()
        with pytest.raises(ConfigError):
            gcv_grid_search(ds, spec=spec, mode="nonsense")
        with pytest.raises(ConfigError):
            gcv_grid_search(ds, mode="fixed")  # fixed mode needs a spec
        with pytest.raises(ConfigError):
            gcv_grid_search(ds, mode="free")  # free mode needs a search config
        for pinned in (-1.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                gcv_grid_search(ds, spec=spec, mode="fixed", lambda1_pinned=pinned)
