"""Grid search for the pair of roughness weights by generalized cross-validation."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from fkspline import (
    AllCellsFailedError,
    ConfigError,
    DerivativeOrderTooHighError,
    FkSplineError,
    FunctionalDataset,
    KnotSearchConfig,
    LambdaGrid,
    PenaltyConfig,
    add_knots_gradually,
    eval_spline,
    gauss_newton_refine,
    gcv_grid_search,
    jupp,
    make_basis_spec,
)
from fkspline import freeknot, lambda_select, smoother
from fkspline.freeknot import refine_fits
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

    @pytest.mark.parametrize("make", [
        lambda: LambdaGrid("ab"),
        lambda: LambdaGrid((1.0, None)),
        lambda: LambdaGrid((1.0, float("nan"))),
        lambda: LambdaGrid.from_exponents(["a"]),
        lambda: LambdaGrid.from_exponents(None),
        lambda: LambdaGrid.from_exponents([0, float("inf")]),
    ], ids=["string", "none-value", "nan-value", "string-exponent", "no-exponents",
            "inf-exponent"])
    def test_non_numeric_values_are_config_errors(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_any_real_numbers_are_taken_as_floats(self):
        grid = LambdaGrid(np.array([[1e-2], [np.float32(0.5)]]))
        assert grid.values == (0.01, float(np.float32(0.5)))
        assert all(type(v) is float for v in grid.values)
        assert LambdaGrid(2).values == (2.0,)
        assert LambdaGrid.from_exponents(l for l in (1, -1)).values == (0.1, 10.0)


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

    def test_penalty_beyond_the_order_is_refused_before_the_search(self, monkeypatch):
        # order-2 splines cannot carry the second-derivative penalty
        def no_search(*args):
            raise AssertionError("the knot search ran before the weights were checked")

        monkeypatch.setattr(lambda_select, "add_knots_gradually", no_search)
        ds, _ = spline_dataset()
        grid = LambdaGrid.from_exponents([-2, 0])
        with pytest.raises(DerivativeOrderTooHighError) as free:
            gcv_grid_search(ds, grid=grid, mode="free",
                            search=KnotSearchConfig(order=2, max_knots=2, fixed_p=True))
        with pytest.raises(DerivativeOrderTooHighError) as fixed:
            gcv_grid_search(ds, grid=grid, mode="fixed", spec=make_basis_spec(0.0, 1.0, 2, [0.5]))
        assert str(free.value) == str(fixed.value)


def per_pair_grid(ds, grid, search, warm):
    """Reference for free mode: each cell refines its warm starts one at a time
    with gauss_newton_refine, fails with the first warm start that raises, and
    otherwise keeps the first warm start of smallest GCV.  Returns the score
    table, the failures and the iteration count of every (warm start, cell)
    pair that ran, warm start by warm start."""
    scores = np.full((grid.size, grid.size), np.nan)
    failures, iterations = [], {}
    for i, l1 in enumerate(grid.values):
        for j, l2 in enumerate(grid.values):
            config = PenaltyConfig(lambda1=l1, lambda2=l2)
            try:
                fits = []
                for w, coords in enumerate(warm):
                    res = gauss_newton_refine(coords, ds, config, search)
                    iterations[w, i, j] = res.iterations
                    fits.append(res.model.diagnostics)
                best = min(fits, key=lambda d: d.gcv)
                if best.gcv_degenerate:
                    raise FkSplineError("degenerate GCV denominator")
            except (FkSplineError, np.linalg.LinAlgError) as exc:
                failures.append((l1, l2, f"{type(exc).__name__}: {exc}"))
                continue
            scores[i, j] = best.gcv
    return scores, failures, [iterations[key] for key in sorted(iterations)]


def noisy_curves(curves, n=30, seed=4):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, n)
    y = np.sin(np.outer(3.0 * t, 1.0 + np.arange(curves) / curves))
    return FunctionalDataset(t=t, values=y + 0.1 * rng.standard_normal((n, curves)))


class TestLockstepGrid:
    """Free mode refines every (cell, warm start) pair in one lockstep batch;
    each pair must come out as gauss_newton_refine alone would leave it."""

    search = KnotSearchConfig(order=4, max_knots=3, grid_size=20, fixed_p=True)

    @pytest.mark.parametrize("exponents, curves", [([-6, -2], 3), ([-6, -4, -2], 60)],
                             ids=["2x2", "3x3-more-curves-than-points"])
    def test_matches_per_pair_refines(self, exponents, curves):
        ds = noisy_curves(curves)
        grid = LambdaGrid.from_exponents(exponents)
        warm = [stage.coords for stage in add_knots_gradually(ds, PenaltyConfig(), self.search).stages]
        ref_scores, ref_failures, ref_iterations = per_pair_grid(ds, grid, self.search, warm)
        res = gcv_grid_search(ds, grid=grid, search=self.search, mode="free")
        _, l1, l2, _, _ = _select_best(ref_scores, grid.values, grid.values)
        assert (res.lambda1, res.lambda2) == (l1, l2)
        np.testing.assert_allclose(res.scores, ref_scores, rtol=1e-9)
        assert res.failures == ref_failures == []
        configs = [PenaltyConfig(lambda1=a, lambda2=b) for a in grid.values for b in grid.values]
        jobs = freeknot._Jobs([ds] * len(configs), configs, [ds.domain] * len(configs),
                              self.search.order)
        iterations = {i: outcome.iterations for i, outcome, _ in
                      refine_fits([w for w in warm for _ in configs],
                                  list(range(len(configs))) * len(warm), jobs, self.search)}
        assert [iterations[i] for i in range(len(iterations))] == ref_iterations
        assert max(ref_iterations) > 1

    @pytest.mark.parametrize("knots, exponents, reasons", [
        # lambda2 = 1e8 first refuses the second warm start's systems (5
        # basis functions), 1e10 already the first's (4)
        (([], [0.5], [0.3, 0.6]), [-12, 8, 10], {"nb=4", "nb=5"}),
        # 5 basis functions on 5 points interpolate at the smallest weights
        (([0.5], [0.3]), [-12, -1], {"degenerate"}),
    ], ids=["refused-start", "degenerate-gcv"])
    def test_failures_match_per_pair_refines(self, monkeypatch, knots, exponents, reasons):
        t = np.linspace(0.0, 1.0, 5)
        ds = FunctionalDataset(t=t, values=np.column_stack([np.sin(3 * t), np.cos(2 * t)]))
        warm = [jupp(np.array(k), 0.0, 1.0) for k in knots]
        stages = SimpleNamespace(stages=[SimpleNamespace(coords=coords) for coords in warm])
        monkeypatch.setattr(lambda_select, "add_knots_gradually", lambda *args: stages)
        # the size of a refused system tells which warm start failed
        refused = smoother._refused
        monkeypatch.setattr(smoother, "_refused",
                            lambda H: [why and f"{why} (nb={H.shape[-1]})" for why in refused(H)])
        grid = LambdaGrid.from_exponents(exponents)
        ref_scores, ref_failures, _ = per_pair_grid(ds, grid, self.search, warm)
        res = gcv_grid_search(ds, grid=grid, search=self.search, mode="free")
        assert res.failures == ref_failures
        assert {reason for reason in reasons
                if any(reason in message for _, _, message in res.failures)} == reasons
        assert np.array_equal(res.scores, ref_scores, equal_nan=True)
        assert np.isfinite(res.scores).any()

    def test_feasibility_is_checked_once_per_group_not_per_proposal(self, monkeypatch):
        calls, proposals = [0], [0]
        fittable, propose = freeknot._fittable_rows, freeknot._proposals

        def counting_fittable(*args):
            calls[0] += 1
            return fittable(*args)

        def counting_proposals(*args):
            found, *steps = propose(*args)
            proposals[0] += int(found.sum())
            return found, *steps

        ds = noisy_curves(60)
        grid = LambdaGrid.from_exponents([-6, -4, -2])
        plain = gcv_grid_search(ds, grid=grid, search=self.search, mode="free")
        monkeypatch.setattr(freeknot, "_fittable_rows", counting_fittable)
        monkeypatch.setattr(freeknot, "_proposals", counting_proposals)
        res = gcv_grid_search(ds, grid=grid, search=self.search, mode="free")
        assert np.array_equal(res.scores, plain.scores)
        assert 0 < calls[0] < proposals[0]

    def test_pinned_first_weight_leaves_its_penalty_out(self, monkeypatch):
        # with lambda1 pinned to 0 no row weights the order-1 penalty, so an
        # order-1 matrix that overflowed must not enter any row as 0 * inf
        ds = noisy_curves(3)
        grid = LambdaGrid.from_exponents([-6, -2])
        plain = gcv_grid_search(ds, grid=grid, search=self.search, mode="free",
                                lambda1_pinned=0.0)
        stack = smoother.penalty_stack

        def overflowing(full_knots, order, orders, *args):
            values = stack(full_knots, order, orders, *args)
            return [np.full_like(R, np.inf) if l == 1 else R for l, R in zip(orders, values)]

        monkeypatch.setattr(smoother, "penalty_stack", overflowing)
        pinned = gcv_grid_search(ds, grid=grid, search=self.search, mode="free",
                                 lambda1_pinned=0.0)
        assert pinned.failures == []
        assert np.array_equal(pinned.scores, plain.scores)
        assert (pinned.lambda1, pinned.lambda2) == (plain.lambda1, plain.lambda2)


class TestReducedData:
    """Every grid cell is fitted to the dataset's reduced data
    (FunctionalDataset.reduced): df as on the full data bit for bit, sse and
    GCV to roundoff."""

    search = KnotSearchConfig(order=4, max_knots=3, grid_size=20, fixed_p=True)
    grid = LambdaGrid.from_exponents([-6, -4, -2])

    def full_data_cells(self, ds, mode):
        """Each cell's fit on the dataset as given, as the search makes them."""
        configs = [PenaltyConfig(lambda1=a, lambda2=b)
                   for a in self.grid.values for b in self.grid.values]
        if mode == "fixed":
            weights = np.array([smoother.penalty_weights(c, 4) for c in configs])
            return lambda_select._fixed_fits(ds, make_basis_spec(0.0, 1.0, 4, [0.3, 0.6]),
                                             weights)
        return lambda_select._free_fits(ds, self.search, configs)

    def run(self, ds, mode):
        return gcv_grid_search(ds, grid=self.grid, mode=mode, search=self.search,
                               spec=make_basis_spec(0.0, 1.0, 4, [0.3, 0.6]))

    @pytest.mark.parametrize("mode", ["fixed", "free"])
    def test_more_curves_than_points_match_full_data_fits(self, mode):
        ds = noisy_curves(60)
        assert ds.reduced.values.shape == (30, 30)
        full = self.full_data_cells(ds, mode)
        res = self.run(ds, mode)
        assert res.df.ravel().tolist() == [fit.df for fit in full]
        np.testing.assert_allclose(res.scores.ravel(), [fit.gcv for fit in full], rtol=1e-11)
        np.testing.assert_allclose(res.sse.ravel(), [fit.sse for fit in full], rtol=1e-11)
        assert res.failures == []

    @pytest.mark.parametrize("mode", ["fixed", "free"])
    def test_every_stack_solves_reduced_data(self, monkeypatch, mode):
        solved = smoother._solved
        shapes = set()

        def recording(B, btb, H, refused, rows, owners, Ys, *args):
            shapes.update(Ys[d].shape for d in set(owners))
            return solved(B, btb, H, refused, rows, owners, Ys, *args)

        monkeypatch.setattr(smoother, "_solved", recording)
        self.run(noisy_curves(60), mode)
        assert shapes == {(30, 30)}

    @pytest.mark.parametrize("mode", ["fixed", "free"])
    def test_no_more_curves_than_points_fit_the_data_as_given(self, mode):
        ds = noisy_curves(20)
        assert ds.reduced is ds
        full = self.full_data_cells(ds, mode)
        res = self.run(ds, mode)
        assert res.df.ravel().tolist() == [fit.df for fit in full]
        assert res.scores.ravel().tolist() == [fit.gcv for fit in full]
        assert res.sse.ravel().tolist() == [fit.sse for fit in full]
