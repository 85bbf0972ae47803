"""Knot reparametrization, profiled objective, and the knot search."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fkspline import (
    AllCandidatesSingularError,
    ConfigError,
    FkSplineError,
    FunctionalDataset,
    JuppCoords,
    KnotSearchConfig,
    PenaltyConfig,
    add_knots_gradually,
    eval_spline,
    fit_coefficients,
    fit_free_knot,
    gauss_newton_refine,
    jupp,
    jupp_inverse,
    make_basis_spec,
    objective_f,
)
from fkspline import freeknot


def hinge_dataset(knot=0.37, n=41, lo=0.0, hi=1.0):
    """Noiseless continuous piecewise-linear data with one kink."""
    t = np.linspace(lo, hi, n)
    y = np.where(t < knot, 1.0 - t / knot, (t - knot) / (1 - knot))
    return FunctionalDataset(t=t, values=y[:, None])


def double_hinge_dataset(k1=0.3, k2=0.7, n=61):
    """Noiseless piecewise-linear data with two kinks."""
    t = np.linspace(0, 1, n)
    y = np.where(t < k1, k1 - t, np.where(t < k2, t - k1, (k2 - k1) - (t - k2)))
    return FunctionalDataset(t=t, values=y[:, None])


class TestJuppTransform:
    def test_single_knot_midpoint_maps_to_zero(self):
        coords = jupp(np.array([0.5]), 0.0, 1.0)
        assert coords.values == pytest.approx([0.0], abs=1e-15)

    def test_two_knot_example(self):
        coords = jupp(np.array([0.25, 0.5]), 0.0, 1.0)
        # gaps (0.25, 0.25, 0.5): log ratios are log 1 = 0 and log 2
        assert coords.values == pytest.approx([0.0, math.log(2.0)], abs=1e-14)
        back = jupp_inverse(coords)
        assert back == pytest.approx([0.25, 0.5], abs=1e-14)

    def test_rejects_knots_on_boundary_or_unsorted(self):
        with pytest.raises(ConfigError):
            jupp(np.array([0.0, 0.5]), 0.0, 1.0)
        with pytest.raises(ConfigError):
            jupp(np.array([0.6, 0.4]), 0.0, 1.0)
        with pytest.raises(ConfigError):
            jupp(np.array([0.5, 0.5]), 0.0, 1.0)

    @given(
        p=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_from_coordinate_space(self, p, seed):
        rng = np.random.default_rng(seed)
        k = rng.uniform(-6, 6, p)
        coords = JuppCoords(values=k, lo=-1.0, hi=3.0)
        tau = jupp_inverse(coords)
        gaps = np.diff(np.concatenate([[-1.0], tau, [3.0]]))
        assume(gaps.min() > 0)  # stacked extreme ratios can underflow a gap
        again = jupp(tau, -1.0, 3.0)
        # knot positions are stored to machine precision of the domain, so
        # the log ratios round-trip only to eps * width / smallest gap
        tol = max(1e-12, 50 * np.finfo(float).eps * 4.0 / gaps.min())
        assert np.abs(np.asarray(again.values) - k).max() < tol

    @given(
        p=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_from_knot_space(self, p, seed):
        rng = np.random.default_rng(seed)
        # well-separated knots built from bounded log-gap draws
        gaps = np.exp(rng.uniform(-3, 1, p + 1))
        cum = np.cumsum(gaps) / gaps.sum()
        tau = 2.0 + 5.0 * cum[:-1]
        back = jupp_inverse(jupp(tau, 2.0, 7.0))
        assert np.abs(back - tau).max() < 1e-12


class TestProfiledObjective:
    def test_matches_explicit_refit(self):
        # The profiled objective at knots tau must equal the residual of a
        # full penalized fit with those knots fixed.
        rng = np.random.default_rng(8)
        t = np.linspace(0, 1, 35)
        cfgs = [PenaltyConfig(), PenaltyConfig(lambda1=1e-4, lambda2=1e-3)]
        for trial in range(50):
            y = np.sin((2 + trial % 3) * t) + 0.1 * rng.standard_normal(35)
            ds = FunctionalDataset(t=t, values=y[:, None])
            p = 1 + trial % 2
            tau = np.sort(rng.uniform(0.15, 0.85, p))
            while p == 2 and tau[1] - tau[0] < 0.1:
                tau = np.sort(rng.uniform(0.15, 0.85, p))
            cfg = cfgs[trial % 2]
            coords = jupp(tau, 0.0, 1.0)
            f = objective_f(coords, ds, cfg, 4)
            spec = make_basis_spec(0.0, 1.0, 4, [float(x) for x in tau])
            model = fit_coefficients(ds, spec, cfg)
            assert f == pytest.approx(model.diagnostics.sse, abs=1e-10 * (1 + f))

    def test_descent_from_random_starts(self):
        ds = hinge_dataset()
        search = KnotSearchConfig(order=2, max_knots=1, fixed_p=True)
        rng = np.random.default_rng(12)
        for _ in range(100):
            k0 = JuppCoords(values=rng.uniform(-2.5, 2.5, 1), lo=0.0, hi=1.0)
            f0 = objective_f(k0, ds, PenaltyConfig(), 2)
            res = gauss_newton_refine(k0, ds, PenaltyConfig(), search)
            assert res.objective <= f0 + 1e-12

    def test_restart_at_optimum_does_not_regress(self):
        ds = hinge_dataset()
        search = KnotSearchConfig(order=2, max_knots=1, fixed_p=True)
        start = jupp(np.array([0.37]), 0.0, 1.0)
        first = gauss_newton_refine(start, ds, PenaltyConfig(), search)
        again = gauss_newton_refine(first.coords, ds, PenaltyConfig(), search)
        assert again.objective <= first.objective + 1e-12


class TestKnotRecovery:
    def test_single_kink_found_and_beats_grid_scan(self):
        ds = hinge_dataset()
        search = KnotSearchConfig(order=2, max_knots=1, fixed_p=True)
        result = add_knots_gradually(ds, PenaltyConfig(), search)
        knots = np.asarray(result.model.spec.interior_knots)
        assert knots.shape == (1,)
        assert abs(knots[0] - 0.37) <= 1e-2
        # exhaustive 1000-point scan oracle
        scan = min(
            objective_f(jupp(np.array([s]), 0.0, 1.0), ds, PenaltyConfig(), 2)
            for s in np.linspace(0.01, 0.99, 1000)
        )
        assert result.chosen.objective <= scan + 1e-6

    def test_double_kink_recovered(self):
        ds = double_hinge_dataset()
        search = KnotSearchConfig(order=2, max_knots=2, fixed_p=True)
        result = add_knots_gradually(ds, PenaltyConfig(), search)
        knots = np.sort(np.asarray(result.model.spec.interior_knots))
        assert knots.shape == (2,)
        assert abs(knots[0] - 0.3) <= 1e-2
        assert abs(knots[1] - 0.7) <= 1e-2
        assert result.chosen.objective <= 1e-10

    def test_stagewise_objective_never_increases_without_penalty(self):
        rng = np.random.default_rng(21)
        t = np.linspace(0, 1, 60)
        y = np.sin(6 * t) + 0.2 * rng.standard_normal(60)
        ds = FunctionalDataset(t=t, values=y[:, None])
        search = KnotSearchConfig(order=4, max_knots=4, fixed_p=True)
        result = add_knots_gradually(ds, PenaltyConfig(), search)
        trace = np.array([stage.objective for stage in result.stages])
        assert np.all(np.diff(trace) <= 1e-9)

    def test_cubic_truth_needs_no_knots(self):
        # Data lying exactly on a cubic polynomial: the first added knot
        # cannot improve the relative gcv enough, so the search stops small.
        t = np.linspace(0, 1, 40)
        y = 2.0 - t + 0.5 * t**2 + 0.25 * t**3
        ds = FunctionalDataset(t=t, values=y[:, None])
        search = KnotSearchConfig(order=4, max_knots=6)
        result = add_knots_gradually(ds, PenaltyConfig(), search)
        assert result.chosen.p <= 1
        assert result.chosen.objective <= 1e-12
        assert result.stopped_early

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(30)
        t = np.linspace(0, 1, 50)
        y = np.abs(t - 0.4) + 0.1 * rng.standard_normal(50)
        ds = FunctionalDataset(t=t, values=y[:, None])
        search = KnotSearchConfig(order=4, max_knots=3, fixed_p=True)
        a = add_knots_gradually(ds, PenaltyConfig(), search)
        b = add_knots_gradually(ds, PenaltyConfig(), search)
        assert a.model.spec.interior_knots == b.model.spec.interior_knots
        assert a.chosen.objective == b.chosen.objective

    def test_all_candidates_singular_is_reported(self):
        # Stage zero (cubic, no knots) fits four points exactly, but every
        # one-knot candidate has more coefficients than samples.
        t = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        ds = FunctionalDataset(t=t, values=np.array([[0.0], [1.0], [0.5], [0.0]]))
        search = KnotSearchConfig(order=4, max_knots=1, fixed_p=True)
        with pytest.raises(AllCandidatesSingularError,
                           match=r"failed at p=1; the last feasible stage has p=0 and knots \[\]"):
            add_knots_gradually(ds, PenaltyConfig(), search)
        # Five points carry a linear spline with up to three knots; the
        # message names the last stage that could be fitted.
        t = np.linspace(0.0, 1.0, 5)
        ds = FunctionalDataset(t=t, values=np.array([[0.0], [1.0], [0.0], [1.0], [0.0]]))
        search = KnotSearchConfig(order=2, max_knots=4, fixed_p=True)
        with pytest.raises(AllCandidatesSingularError) as info:
            add_knots_gradually(ds, PenaltyConfig(), search)
        found = re.search(r"failed at p=4; the last feasible stage has p=3 and knots \[(.*)\]",
                          str(info.value))
        assert found is not None, str(info.value)
        knots = [float(x) for x in found.group(1).split(",")]
        assert len(knots) == 3 and 0.0 < knots[0] < knots[1] < knots[2] < 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            KnotSearchConfig(order=1)
        with pytest.raises(ConfigError):
            KnotSearchConfig(max_knots=-1)
        with pytest.raises(ConfigError):
            KnotSearchConfig(grid_size=1)


def assert_same_fit(model, ref):
    """Knots, coefficients and every diagnostic equal bit for bit."""
    assert np.array_equal(model.spec.interior_knots, ref.spec.interior_knots)
    assert np.array_equal(model.coeffs, ref.coeffs)
    for f in dataclasses.fields(ref.diagnostics):
        assert np.array_equal(getattr(model.diagnostics, f.name),
                              getattr(ref.diagnostics, f.name)), f.name


def noisy_sine_dataset(seed=3, n=40, curves=3):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, n)
    y = np.sin(np.outer(3.0 * t, 1.0 + np.arange(curves))) + 0.1 * rng.standard_normal((n, curves))
    return FunctionalDataset(t=t, values=y)


class TestFitReuse:
    """The knot search hands on the fit it computed instead of refitting."""

    cfg = PenaltyConfig(lambda1=1e-6, lambda2=1e-4)

    def test_refine_model_is_the_fit_at_the_refined_knots(self):
        ds = noisy_sine_dataset()
        search = KnotSearchConfig(order=4, max_knots=3)
        for tau in ([], [0.5], [0.2, 0.6], [0.1, 0.45, 0.8]):
            res = gauss_newton_refine(jupp(np.array(tau), 0.0, 1.0), ds, self.cfg, search)
            spec = make_basis_spec(0.0, 1.0, 4, jupp_inverse(res.coords))
            assert_same_fit(res.model, fit_coefficients(ds, spec, self.cfg))
            assert res.objective == pytest.approx(res.model.diagnostics.sse, rel=1e-12)

    @pytest.mark.parametrize("fixed_p", [True, False])
    def test_search_model_is_the_chosen_stage_fit(self, fixed_p):
        ds = noisy_sine_dataset()
        search = KnotSearchConfig(order=4, max_knots=5, grid_size=20, fixed_p=fixed_p)
        result = add_knots_gradually(ds, self.cfg, search)
        chosen = result.chosen
        assert chosen is (result.stages[-1] if fixed_p else
                          min(result.stages, key=lambda s: s.gcv))
        spec = make_basis_spec(0.0, 1.0, 4, chosen.knots)
        assert_same_fit(result.model, fit_coefficients(ds, spec, self.cfg))
        d = result.model.diagnostics
        assert (d.sse, d.gcv, d.df) == (chosen.objective, chosen.gcv, chosen.df)
        assert result.model.knot_search is result


class TestStackedScan:
    """One stacked evaluation per round scores the candidates as objective_f would,
    from the residuals fit_coefficients would give."""

    @staticmethod
    def scan_by_objective_f(existing, ds, config, search):
        """Reference: each candidate through its own objective_f refit, and its residuals."""
        lo, hi = ds.domain
        coords, scores, residuals = [], [], []
        for s in freeknot._candidate_grid(lo, hi, existing, search):
            cand, score, residual = None, np.nan, None
            try:
                cand = jupp(np.sort(np.append(existing, s)), lo, hi)
                score = objective_f(cand, ds, config, search.order)
                spec = make_basis_spec(lo, hi, search.order, jupp_inverse(cand))
                residual = fit_coefficients(ds, spec, config).diagnostics.residuals
            except (FkSplineError, np.linalg.LinAlgError):
                pass
            coords.append(cand)
            scores.append(score)
            residuals.append(residual)
        return coords, np.array(scores), residuals

    # each config with the spline orders that carry its highest penalty
    @pytest.mark.parametrize("config, orders", [
        (PenaltyConfig(), (2, 3, 4)),
        (PenaltyConfig(lambda1=1e-7, lambda2=1e-5), (3, 4)),
        (PenaltyConfig(alphas=(0.0, 1e-4, 1e-3, 1e-6)), (4,)),
    ], ids=["fs0", "fs2", "alphas"])
    def test_scores_refusals_and_winner_match_objective_f(self, config, orders):
        rng = np.random.default_rng(17)
        refusals = 0
        for trial in range(30):
            n = int(rng.integers(8, 30))
            t = np.sort(rng.uniform(0.0, 2.0, n))
            t[0], t[-1] = 0.0, 2.0
            y = np.sin(np.outer(2.0 * t, 1.0 + np.arange(2))) + 0.2 * rng.standard_normal((n, 2))
            # every fifth domain is so narrow that derivative penalties overflow
            scale = 1e-120 if trial % 5 == 0 else 1.0
            ds = FunctionalDataset(t=scale * t, values=y)
            existing = scale * np.sort(rng.choice(np.linspace(0.1, 1.9, 19),
                                                  int(rng.integers(1, 4)), replace=False))
            search = KnotSearchConfig(order=int(rng.choice(orders)), max_knots=6,
                                      grid_size=int(rng.integers(5, 40)))
            ratios, scores = freeknot._scan(existing, ds, config, search)
            coords, ref, ref_residuals = self.scan_by_objective_f(existing, ds, config, search)
            refused = np.isnan(ref)
            refusals += int(refused.sum())
            assert np.array_equal(np.isnan(scores), refused)
            assert np.all(np.abs(scores[~refused] - ref[~refused]) <= 1e-12 * ref[~refused])
            # the residual evaluator behind the scores refuses the same rows
            # and keeps each fit's residual matrix
            rows = freeknot._residual_rows(ratios, *ds.domain, ds, config, search.order)
            assert [row is None for row in rows] == [r is None for r in ref_residuals]
            assert [r is None for r in ref_residuals] == list(refused)
            for row, r in zip(rows, ref_residuals):
                if r is not None:
                    assert np.linalg.norm(row - r.ravel()) <= 1e-10 * np.linalg.norm(r)
            if refused.all():
                continue
            # the loop rule the scan replaced: strict <, refused skipped
            winner, best = None, math.inf
            for i, f in enumerate(ref):
                if f < best:
                    winner, best = i, f
            chosen = np.flatnonzero(~refused)[np.argmin(scores[~refused])]
            assert chosen == winner
            assert np.array_equal(ratios[chosen], coords[winner].values)
        assert refusals > 0  # the refusal rule was exercised
        # a grid used up by exclusion zones scores nothing
        search = KnotSearchConfig(order=max(orders), max_knots=3, grid_size=2)
        ratios, scores = freeknot._scan(np.array([0.3, 0.7]), hinge_dataset(), config, search)
        assert ratios.shape == (0, 3) and scores.shape == (0,)

    def test_search_scores_without_per_candidate_refits(self, monkeypatch):
        calls = {"objective_f": 0, "fits": 0, "refine_fits": 0}
        fit, objective, refine = (freeknot.fit_coefficients, freeknot.objective_f,
                                  freeknot.gauss_newton_refine)

        def counting_fit(*args, **kwargs):
            calls["fits"] += 1
            return fit(*args, **kwargs)

        def counting_objective(*args, **kwargs):
            calls["objective_f"] += 1
            return objective(*args, **kwargs)

        def counting_refine(*args, **kwargs):
            before = calls["fits"]
            result = refine(*args, **kwargs)
            calls["refine_fits"] += calls["fits"] - before
            return result

        monkeypatch.setattr(freeknot, "fit_coefficients", counting_fit)
        monkeypatch.setattr(freeknot, "objective_f", counting_objective)
        monkeypatch.setattr(freeknot, "gauss_newton_refine", counting_refine)
        search = KnotSearchConfig(order=4, max_knots=3, grid_size=20, fixed_p=True)
        add_knots_gradually(noisy_sine_dataset(), PenaltyConfig(lambda2=1e-5), search)
        assert calls["objective_f"] == 0
        # one fit for the knot-free stage, every other one in the refiner
        assert calls["fits"] == calls["refine_fits"] + 1


def column_jacobian(k, ds, config, order, sign=1.0):
    """Reference: the residual at k and each difference column from its own fit.

    sign=1 gives the forward differences the refiner takes, sign=-1 the
    backward differences of its fallback.
    """
    lo, hi = ds.domain

    def fit_residual(values):
        spec = make_basis_spec(lo, hi, order, jupp_inverse(JuppCoords(values, lo, hi)))
        return fit_coefficients(ds, spec, config).diagnostics.residuals.ravel()

    r = fit_residual(k)
    jac = np.empty((r.size, k.size))
    for i in range(k.size):
        step = sign * freeknot._FD_STEP * (1.0 + abs(k[i]))
        pert = k.copy()
        pert[i] += step
        jac[:, i] = (fit_residual(pert) - r) / step
    return r, jac


class TestStackedJacobian:
    """The refiner takes its Jacobian and trial steps from stacked evaluations."""

    @pytest.mark.parametrize("config", [
        PenaltyConfig(), PenaltyConfig(lambda1=1e-7, lambda2=1e-5),
    ], ids=["fs0", "fs2"])
    def test_matches_column_by_column_forward_differences(self, config):
        rng = np.random.default_rng(5)
        for trial in range(20):
            ds = noisy_sine_dataset(seed=trial, n=int(rng.integers(25, 60)), curves=3)
            order = int(rng.choice([3, 4]))
            p = int(rng.integers(1, 6))
            # log-gap draws keep every knot span wide enough to hold data
            gaps = np.exp(rng.uniform(-0.7, 0.7, p + 1))
            k = jupp(np.cumsum(gaps)[:-1] / gaps.sum(), 0.0, 1.0).values
            ref_r, ref = column_jacobian(k, ds, config, order)

            def residuals(rows):
                return freeknot._residual_rows(rows, 0.0, 1.0, ds, config, order)

            r, jac = freeknot._jacobian(k, ref_r, residuals)
            assert np.linalg.norm(r - ref_r) <= 1e-10 * np.linalg.norm(ref_r)
            assert np.linalg.norm(jac - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_refused_forward_rows_fall_back_to_backward_steps_then_zero(self, monkeypatch):
        # the current point's residual then comes from its earlier evaluation
        ds = noisy_sine_dataset()
        config = PenaltyConfig(lambda2=1e-5)
        search = KnotSearchConfig(order=4, max_knots=3)
        rows_of, jacobian = freeknot._residual_rows, freeknot._jacobian
        seen = []

        def refusing(rows, *args):
            out = rows_of(rows, *args)
            if len(rows) == 4:  # forward stack: refuse the current point and columns 0, 1
                out[0] = out[1] = out[2] = None
            elif len(rows) == 2:  # backward stack of columns 0 and 1: refuse column 1
                out[1] = None
            return out

        def recording(k, r, residuals):
            out = jacobian(k, r, residuals)
            seen.append((k.copy(), *out))
            return out

        monkeypatch.setattr(freeknot, "_residual_rows", refusing)
        monkeypatch.setattr(freeknot, "_jacobian", recording)
        start = jupp(np.array([0.2, 0.5, 0.8]), 0.0, 1.0)
        res = gauss_newton_refine(start, ds, config, search)
        assert seen
        for k, r, jac in seen:
            _, forward = column_jacobian(k, ds, config, search.order)
            _, backward = column_jacobian(k, ds, config, search.order, sign=-1.0)
            assert np.linalg.norm(jac[:, 0] - backward[:, 0]) <= 1e-8 * np.linalg.norm(backward)
            assert np.all(jac[:, 1] == 0.0)
            assert np.linalg.norm(jac[:, 2] - forward[:, 2]) <= 1e-8 * np.linalg.norm(forward)
        # the refiner still descends and hands on the fit at its result
        assert res.objective <= objective_f(start, ds, config, search.order)
        spec = make_basis_spec(0.0, 1.0, 4, jupp_inverse(res.coords))
        assert_same_fit(res.model, fit_coefficients(ds, spec, config))

    def test_refiner_fits_only_its_start_and_its_result(self, monkeypatch):
        fits = []
        fit = freeknot.fit_coefficients

        def counting_fit(*args, **kwargs):
            fits.append(args[1].interior_knots)
            return fit(*args, **kwargs)

        monkeypatch.setattr(freeknot, "fit_coefficients", counting_fit)
        start = jupp(np.array([0.2, 0.45, 0.8]), 0.0, 1.0)
        res = gauss_newton_refine(start, noisy_sine_dataset(), PenaltyConfig(lambda2=1e-5),
                                  KnotSearchConfig(order=4, max_knots=3))
        assert res.iterations > 1
        assert fits == [tuple(jupp_inverse(start)), res.model.spec.interior_knots]
        assert res.objective == res.model.diagnostics.sse


class TestHighLevelFit:
    def test_fit_free_knot_returns_annotated_model(self):
        ds = hinge_dataset()
        search = KnotSearchConfig(order=2, max_knots=1, fixed_p=True)
        model = fit_free_knot(ds, PenaltyConfig(), search)
        assert model.knot_search is not None
        assert model.knot_search.chosen.p == 1
        pred = model.predict(ds.t)
        assert np.abs(pred[:, 0] - ds.values[:, 0]).max() < 1e-6

    def test_gcv_choice_prefers_small_model_on_noisy_smooth_truth(self):
        # With noise the gcv flattens after a few knots, so the patience
        # rule halts the addition well short of the budget.
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1, 45)
        y = np.sin(2.2 * t) + 0.1 * rng.standard_normal(45)
        ds = FunctionalDataset(t=t, values=y[:, None])
        search = KnotSearchConfig(order=4, max_knots=5)
        model = fit_free_knot(ds, PenaltyConfig(lambda2=1e-8), search)
        result = model.knot_search
        assert result.stopped_early
        assert result.chosen.p < 5
        assert result.chosen.gcv == min(s.gcv for s in result.stages)
