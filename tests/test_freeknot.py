"""Knot reparametrization, profiled objective, and the knot search."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import re
import weakref
from types import SimpleNamespace

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
    LambdaGrid,
    NotPositiveDefiniteError,
    PenaltyConfig,
    PointOutOfDomainError,
    add_knots_gradually,
    eval_spline,
    fit_coefficients,
    fit_free_knot,
    gauss_newton_refine,
    gcv_grid_search,
    jupp,
    jupp_inverse,
    make_basis_spec,
    objective_f,
)
from fkspline import data, freeknot, lambda_select, smoother
from fkspline.simulate import benchmark_config, generate_scenario
from fkspline.smoother import fit_stack, penalty_weights, variant_config


def one_job(ds, config, order):
    """The one job (freeknot._Jobs) of stacks whose rows all fit ds under config."""
    return freeknot._Jobs([ds], [config], [ds.domain], order)


def parent_system(existing, ds, config, order):
    """The design B and system H of the fit at the existing knots, as a knot
    search carries them into its next scan (freeknot._Search.system); None
    where that fit is refused."""
    lo, hi = ds.domain
    full = np.concatenate([np.full(order, lo), existing, np.full(order, hi)])
    [(_, _, fit)] = fit_stack(full[None], order, [ds], penalty_weights(config, order)[None],
                              full=True)
    return None if fit is None else fit[2]


def scan_jobs(knots, datasets, configs, search):
    """freeknot._scan of one job per (knots, dataset, config), on the
    dataset's domain, from the parent fit at those knots."""
    jobs = freeknot._Jobs(datasets, configs, [ds.domain for ds in datasets], search.order)
    parents = [(k, parent_system(k, ds, config, search.order))
               for k, ds, config in zip(knots, datasets, configs)]
    return freeknot._scan(parents, list(range(len(knots))), jobs, search)


def scan(existing, ds, config, search):
    """freeknot._scan of one job: its candidates' ratios and scores."""
    [(ratios, scores, *_)] = scan_jobs([existing], [ds], [config], search)
    return ratios, scores


def refine(starts, configs, datasets, search):
    """freeknot.refine_fits of one job per (start, config, dataset), on the
    start's domain, from the start's log gap ratios."""
    jobs = freeknot._Jobs(datasets, configs, [(s.lo, s.hi) for s in starts], search.order)
    return freeknot.refine_fits([s.values for s in starts], list(range(len(starts))), jobs, search)


def stacked_scan(existing, ds, config, search):
    """Reference: every candidate of one job's round fitted in one stack
    (freeknot._fits), as the scan before its bordered screen; returns the
    candidates' ratios and scores, nan where a fit would raise."""
    lo, hi = ds.domain
    grid = freeknot._candidate_grid(lo, hi, existing, search)
    tau = np.sort(np.column_stack([np.broadcast_to(existing, (grid.size, existing.size)), grid]),
                  axis=1)
    ratios = freeknot._gap_ratios(tau, lo, hi)[1]
    scores = np.full(len(ratios), np.nan)
    for c, _, fit in freeknot._fits(ratios, one_job(ds, config, search.order),
                                    np.zeros(len(ratios), dtype=int)):
        if fit is not None:
            scores[c] = np.einsum("ij,ij->j", fit[0], fit[0]).sum()
    return ratios, scores


# the knot_search benchmark's search
BENCHMARK_SEARCH = KnotSearchConfig(order=4, max_knots=8, fixed_p=True, grid_size=50)


@pytest.fixture(scope="module")
def benchmark_searches():
    """The knot_search benchmark's fs0 and fs2 searches on pool seeds 0-3."""
    searches = {}
    for seed in range(4):
        ds = generate_scenario(benchmark_config(seed=seed)).dataset
        for variant in ("fs0", "fs2"):
            searches[seed, variant] = ds, add_knots_gradually(ds, variant_config(variant),
                                                              BENCHMARK_SEARCH)
    return searches


def normal_at(k, ds, config, order):
    """_jacobian at one point: its score, r'r, J'r and J'J."""
    [(_, why, normal)] = freeknot._jacobian(k[None], [0], one_job(ds, config, order), True)
    assert why == ""
    return normal


def assert_normal_equations(normal, r, jac):
    """normal (_jacobian's) is (score, r'r, J'r, J'J) of the residual r and
    the Jacobian jac, to the accuracy of the differences; a descent's point
    has no score (None)."""
    score, rr, jr, jtj = normal
    assert score is None or score == pytest.approx(r @ r, rel=1e-10)
    assert rr == pytest.approx(r @ r, rel=1e-10)
    scale = np.linalg.norm(jac)
    assert np.linalg.norm(jtj - jac.T @ jac) <= 1e-8 * scale**2
    assert np.linalg.norm(jr - jac.T @ r) <= 1e-8 * scale * np.linalg.norm(r)


def recording_fits(monkeypatch):
    """Record the rows and the full flag of every freeknot._fits call."""
    calls = []
    fits = freeknot._fits

    def recording(rows, *args, full=False, **kwargs):
        calls.append(([np.asarray(row).tolist() for row in rows], full))
        return fits(rows, *args, full=full, **kwargs)

    monkeypatch.setattr(freeknot, "_fits", recording)
    return calls


def counting_calls(monkeypatch, *targets):
    """Count the calls of each (module, name) target, by name."""
    counts = {name: 0 for _, name in targets}
    for module, name in targets:
        def counting(*args, _call=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


def counting_fit_coefficients(monkeypatch):
    """Record the interior knots of every fit_coefficients call the knot search makes."""
    calls = []
    fit = freeknot.fit_coefficients

    def counting(*args, **kwargs):
        calls.append(args[1].interior_knots)
        return fit(*args, **kwargs)

    monkeypatch.setattr(freeknot, "fit_coefficients", counting)
    return calls


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

    def test_a_non_numeric_domain_end_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^lo must be a finite number, got None$"):
            JuppCoords(np.zeros(2), None, 1.0)

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


def reference_fittable_rows(ratios, lo, hi, order):
    """freeknot._fittable_rows as it was before its knots were written into
    one preallocated array: gathered finite rows, concatenated ends."""
    finite = np.flatnonzero(np.all(np.isfinite(ratios), axis=1))
    lo, hi = lo[finite, None], hi[finite, None]
    k = ratios[finite]
    logw = np.concatenate([np.zeros(k.shape[:-1] + (1,)), np.cumsum(k, axis=-1)], axis=-1)
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    cum = np.cumsum(w[..., :-1], axis=-1) / w.sum(axis=-1, keepdims=True)
    ends = np.ones((finite.size, order))
    full = np.concatenate([lo * ends, lo + (hi - lo) * cum, hi * ends], axis=1)
    valid = np.all(np.diff(full[:, order - 1 : full.shape[1] - order + 1], axis=1) > 0, axis=1)
    return finite[valid], full[valid]


class TestFittableRows:
    """_fittable_rows keeps the rows and knots of its reference, bit for bit."""

    @pytest.mark.parametrize("p", [0, 1, 3, 8])
    @pytest.mark.parametrize("order", [2, 4])
    def test_same_rows_and_knots_as_the_reference(self, p, order):
        rng = np.random.default_rng(p + 10 * order)
        ratios = rng.normal(0.0, 2.0, (40, p))
        if p:
            ratios[1, 0], ratios[2, -1], ratios[3] = np.nan, np.inf, -np.inf
            ratios[4, 0] = 800.0  # the gaps after the first underflow to zero
            ratios[5, -1] = -800.0  # the last gap underflows
            ratios[6] = 40.0  # gaps spanning e^(40 p): the first ones coincide
        # mixed domains, one of them far from the origin
        lo = rng.choice([0.0, -3.0, 1e6], ratios.shape[0])
        hi = lo + rng.choice([1.0, 1e-9, 5.0], ratios.shape[0])
        kept_rows = []
        unit = np.zeros(len(ratios) - 7), np.ones(len(ratios) - 7)
        # with refused rows, and a stack whose every row is kept
        for rows, (a, b) in ((ratios, (lo, hi)), (ratios[7:], unit)):
            kept, full = freeknot._fittable_rows(rows, a, b, order)
            ref_kept, ref_full = reference_fittable_rows(rows, a, b, order)
            assert kept.tolist() == ref_kept.tolist()
            assert full.shape == ref_full.shape and full.tobytes() == ref_full.tobytes()
            kept_rows.append(kept.tolist())
        assert kept_rows[1] == list(range(len(ratios) - 7))
        if p:  # non-finite ratios, and a first gap underflowing to zero
            assert not {1, 2, 3, 4} & set(kept_rows[0])


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

    @pytest.mark.parametrize("field", ["order", "max_knots", "grid_size"])
    def test_config_takes_integral_values_only(self, field):
        # an integral float is stored as an int; anything else is a ConfigError
        config = KnotSearchConfig(**{field: 5.0})
        assert config == KnotSearchConfig(**{field: 5}) and type(getattr(config, field)) is int
        for value in (5.5, float("nan"), float("inf"), "5", None):
            with pytest.raises(ConfigError, match=field):
                KnotSearchConfig(**{field: value})

    def test_fixed_p_must_be_a_bool(self):
        for value in ("no", 0, 1, None, np.bool_(True)):
            with pytest.raises(ConfigError, match="fixed_p must be a bool"):
                KnotSearchConfig(fixed_p=value)


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
        assert_same_fit(fit_free_knot(ds, self.cfg, search), result.model)


class TestStackedScan:
    """Each round screens its candidates from the parent fit and fits only
    those that could win; its choice and those scores are the ones a stack
    of every candidate gives (stacked_scan), which scores them as
    objective_f would, from the residuals fit_coefficients would give."""

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
    CONFIGS = pytest.mark.parametrize("config, orders", [
        (PenaltyConfig(), (2, 3, 4)),
        (PenaltyConfig(lambda1=1e-7, lambda2=1e-5), (3, 4)),
        (PenaltyConfig(alphas=(0.0, 1e-4, 1e-3, 1e-6)), (4,)),
    ], ids=["fs0", "fs2", "alphas"])

    @CONFIGS
    def test_scores_refusals_and_winner_match_objective_f(self, config, orders):
        self.check_scan(config, orders, lambda rng, n: 2)

    @CONFIGS
    def test_more_curves_than_points_scan_in_the_reduced_space(self, config, orders):
        self.check_scan(config, orders, lambda rng, n: n + int(rng.integers(1, 40)))

    @staticmethod
    def scan_trials(orders, curves):
        """The 30 random (dataset, accepted knots, search) trials of check_scan."""
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = int(rng.integers(8, 30))
            m = curves(rng, n)
            t = np.sort(rng.uniform(0.0, 2.0, n))
            t[0], t[-1] = 0.0, 2.0
            y = np.sin(np.outer(2.0 * t, 1.0 + np.arange(m))) + 0.2 * rng.standard_normal((n, m))
            # every fifth domain is so narrow that derivative penalties overflow
            scale = 1e-120 if trial % 5 == 0 else 1.0
            existing = scale * np.sort(rng.choice(np.linspace(0.1, 1.9, 19),
                                                  int(rng.integers(1, 4)), replace=False))
            search = KnotSearchConfig(order=int(rng.choice(orders)), max_knots=6,
                                      grid_size=int(rng.integers(5, 40)))
            yield FunctionalDataset(t=scale * t, values=y), existing, search

    def test_first_of_tied_scores_wins_in_either_space(self, monkeypatch):
        # Trial 20 of the fs0 many-curve scan: 11 points, 39 curves, order 2,
        # grid 25.  Its first candidates sit in one gap between sample points
        # and fit the data alike; their scores differ by an ulp, in one order
        # in the full space and in another in the reduced space.
        trials = self.scan_trials((2, 3, 4), lambda rng, n: n + int(rng.integers(1, 40)))
        ds, existing, search = next(itertools.islice(trials, 20, None))
        assert ds.values.shape == (11, 39) and search.order == 2 and search.grid_size == 25
        assert ds.row_basis is not None
        _, reduced = scan(existing, ds, PenaltyConfig(), search)
        monkeypatch.setattr(FunctionalDataset, "row_basis", property(lambda self: None))
        _, full = scan(existing, ds, PenaltyConfig(), search)
        assert np.array_equal(np.isnan(reduced), np.isnan(full))
        scored = np.flatnonzero(~np.isnan(full))
        picks = [scored[freeknot._first_best(scores[scored])] for scores in (reduced, full)]
        assert picks == [scored[0], scored[0]]
        assert np.ptp(full[scored[:3]]) <= 4 * np.spacing(full[scored[0]])

    def check_scan(self, config, orders, curves):
        """The scan against stacked_scan, and stacked_scan against
        scan_by_objective_f, on 30 random datasets; a trial with n points
        has curves(rng, n) curves.  With more curves than points the rows
        are in the reduced space, equal to the reduced fit residuals up to
        roundoff; otherwise they are the fit residuals."""
        refusals = skipped = 0
        for ds, existing, search in self.scan_trials(orders, curves):
            n, m = ds.values.shape
            y = ds.values
            assert (ds.row_basis is None) == (m <= n)
            ratios, stacked = stacked_scan(existing, ds, config, search)
            self.check_screen(existing, ds, config, search, ratios, stacked)
            skipped += int(np.isinf(scan(existing, ds, config, search)[1]).sum())
            coords, ref, ref_residuals = self.scan_by_objective_f(existing, ds, config, search)
            refused = np.isnan(ref)
            refusals += int(refused.sum())
            assert np.array_equal(np.isnan(stacked), refused)
            # a fit that (nearly) interpolates the data leaves residuals at
            # roundoff level, where the full and the reduced space round
            # differently (by up to 4e-13 |y| on unpenalized fits): size
            # bounds that difference, and a score moves by at most
            # size * (2 |residual| + size)
            size = 0.0 if ds.row_basis is None else 1e-11 * np.linalg.norm(y)
            kept = ref[~refused]
            assert np.all(np.abs(stacked - ref)[~refused]
                          <= 1e-12 * kept + size * (2.0 * np.sqrt(kept) + size))
            # the evaluator behind the scores refuses the same rows and
            # keeps each fit's residual matrix
            rows = {c: None if fit is None else fit[0] for c, _, fit in freeknot._fits(
                ratios, one_job(ds, config, search.order), np.zeros(len(ratios), dtype=int))}
            rows = [rows[c] for c in range(len(ratios))]
            assert [row is None for row in rows] == [r is None for r in ref_residuals]
            assert [r is None for r in ref_residuals] == list(refused)
            for row, r in zip(rows, ref_residuals):
                if r is None:
                    continue
                if ds.row_basis is None:
                    assert np.array_equal(row, r)
                else:
                    reduced = r @ ds.row_basis
                    assert row.shape == reduced.shape == (n, n)
                    assert np.linalg.norm(row - reduced) <= 1e-10 * np.linalg.norm(reduced) + size
            if refused.all():
                continue
            # the loop rule the scan replaced: strict <, refused skipped
            winner, best = None, math.inf
            for i, f in enumerate(ref):
                if f < best:
                    winner, best = i, f
            chosen = np.flatnonzero(~refused)[np.argmin(stacked[~refused])]
            if chosen != winner:
                # only a tie may go the other way in the reduced space, such as
                # candidates in one gap between sample points of an unpenalized
                # order-2 fit, which fit the data alike
                assert ds.row_basis is not None
                assert ref[chosen] - best <= 1e-12 * best + 4.0 * size * (np.sqrt(best) + size)
                continue
            assert np.array_equal(ratios[chosen], coords[winner].values)
        assert refusals > 0  # the refusal rule was exercised
        assert skipped > 0  # the screen left candidates unfitted
        # a grid used up by exclusion zones scores nothing
        search = KnotSearchConfig(order=max(orders), max_knots=3, grid_size=2)
        [(ratios, scores, fitted, best)] = scan_jobs([np.array([0.3, 0.7])], [hinge_dataset()],
                                                     [config], search)
        assert ratios.shape == (0, 3) and scores.shape == (0,) and fitted == 0 and best is None

    @staticmethod
    def check_screen(existing, ds, config, search, ratios, stacked):
        """The scan's scores against the stacked scan's: the same ratios and
        winner, each exactly fitted score bit for bit, nan where a fit
        would raise and was tried, and +inf only where the stacked score is
        nan or above the smallest by more than a tie."""
        [(got_ratios, scores, _, winner)] = scan_jobs([existing], [ds], [config], search)
        assert np.array_equal(got_ratios, ratios, equal_nan=True)
        fitted = np.isfinite(scores)
        assert np.array_equal(scores[fitted], stacked[fitted])
        assert np.all(np.isnan(stacked[np.isnan(scores)]))
        skipped = stacked[np.isinf(scores)]
        if fitted.any():
            best = stacked[fitted].min()
            tie = best + freeknot._TIE_ULPS * np.finfo(float).eps * abs(best)
            assert np.all(np.isnan(skipped) | (skipped > tie))
            want = np.flatnonzero(~np.isnan(stacked))
            got = np.flatnonzero(fitted)
            assert (got[freeknot._first_best(scores[got])]
                    == want[freeknot._first_best(stacked[want])] == winner[0])
        else:  # nothing fits: every candidate was tried, as the failure count needs
            assert np.array_equal(np.isnan(scores), np.isnan(stacked)) and winner is None

    @pytest.mark.parametrize("config, orders", [
        (PenaltyConfig(lambda1=1e-4), (2,)),
        (PenaltyConfig(lambda1=1e-7, lambda2=1e-5), (3,)),
        (PenaltyConfig(alphas=(1e-6, 0.0, 1e-5)), (3, 4)),
    ], ids=["order2", "order3", "alphas-l0"])
    def test_screen_picks_as_the_stacked_scan(self, config, orders):
        for ds, existing, search in self.scan_trials(orders, lambda rng, n: 2):
            self.check_screen(existing, ds, config, search,
                              *stacked_scan(existing, ds, config, search))

    @pytest.mark.parametrize("points", [5, 4], ids=["interpolating", "four-points"])
    def test_a_round_without_a_fit_tries_every_candidate(self, points):
        # Five points: the five cubic basis functions at p = 1 interpolate
        # them, so every bordered score is roundoff, and every p = 2
        # candidate puts six functions on five points.  Four points: every
        # p = 1 candidate puts five on four.
        t = np.linspace(-1.0, 1.0, points)
        ds = FunctionalDataset(t=t, values=np.column_stack([np.sin(3 * t), np.cos(2 * t)]))
        search = KnotSearchConfig(order=4, max_knots=points - 3, grid_size=20, fixed_p=True)
        existing = np.empty(0)
        if points == 5:
            existing = add_knots_gradually(ds, PenaltyConfig(), dataclasses.replace(
                search, max_knots=1)).knots
        [(_, scores, fitted, best)] = scan_jobs([existing], [ds], [PenaltyConfig()], search)
        _, stacked = stacked_scan(existing, ds, PenaltyConfig(), search)
        assert np.isnan(stacked).all() and np.isnan(scores).all() and fitted == scores.size
        assert best is None
        with pytest.raises(AllCandidatesSingularError,
                           match=f"all {stacked.size} candidate knots failed at p={points - 3};"):
            add_knots_gradually(ds, PenaltyConfig(), search)

    def test_a_parent_that_fits_to_roundoff_fits_every_candidate(self):
        # noiseless cubics: the knot-free cubic fit and every candidate leave
        # residuals at roundoff, which orders them and no screen can
        t = np.linspace(0.0, 1.0, 20)
        ds = FunctionalDataset(t=t, values=np.column_stack([t**3 - t, 2.0 * t**2]))
        search = KnotSearchConfig(order=4, max_knots=3, grid_size=30)
        existing = np.empty(0)
        [(_, scores, fitted, _)] = scan_jobs([existing], [ds], [PenaltyConfig()], search)
        assert fitted == scores.size and np.isfinite(scores).all()
        self.check_screen(existing, ds, PenaltyConfig(), search,
                          *stacked_scan(existing, ds, PenaltyConfig(), search))

    def test_lockstep_jobs_scan_as_alone(self):
        tiny_t = np.linspace(-1.0, 1.0, 5)
        tiny = FunctionalDataset(t=tiny_t, values=np.column_stack([np.sin(3 * tiny_t),
                                                                   np.cos(2 * tiny_t)]))
        jobs = [
            (noisy_sine_dataset(), PenaltyConfig(), [0.3, 0.6]),
            (hinge_dataset(knot=1.7, lo=0.5, hi=3.0), PenaltyConfig(alphas=(0.0, 1e-6, 0.0, 1e-8)),
             [1.0, 2.2]),
            (noisy_sine_dataset(seed=5, n=20, curves=30), PenaltyConfig(lambda1=1e-7, lambda2=1e-5),
             [0.2, 0.7]),
            (tiny, PenaltyConfig(), [-0.5, 0.4]),  # every candidate is refused
        ]
        search = KnotSearchConfig(order=4, max_knots=5, grid_size=20)
        together = scan_jobs([np.array(knots) for *_, knots in jobs], [ds for ds, *_ in jobs],
                             [config for _, config, _ in jobs], search)
        for (ds, config, knots), (ratios, scores, fitted, _) in zip(jobs, together):
            [(alone_ratios, alone, alone_fitted, _)] = scan_jobs([np.array(knots)], [ds], [config],
                                                                 search)
            assert np.array_equal(ratios, alone_ratios)
            assert np.array_equal(scores, alone, equal_nan=True) and fitted == alone_fitted
            self.check_screen(np.array(knots), ds, config, search,
                              *stacked_scan(np.array(knots), ds, config, search))
        assert [fitted for _, _, fitted, _ in together][-1] == len(together[-1][1])

    def test_screen_error_on_the_benchmark_searches(self, benchmark_searches):
        # the screen is within 1e-9 of the parent's sse of the stacked score,
        # for every candidate of every round
        order = BENCHMARK_SEARCH.order
        for (_, variant), (ds, result) in benchmark_searches.items():
            config = variant_config(variant)
            lo, hi = ds.domain
            for stage in result.stages[:-1]:
                ratios, stacked = stacked_scan(stage.knots, ds, config, BENCHMARK_SEARCH)
                grid = freeknot._candidate_grid(lo, hi, stage.knots, BENCHMARK_SEARCH)
                kept, full = freeknot._fittable_rows(ratios, np.full(grid.size, lo),
                                                     np.full(grid.size, hi), order)
                screen, _ = freeknot._bordered(
                    stage.knots, parent_system(stage.knots, ds, config, order), full,
                    order + np.searchsorted(stage.knots, grid[kept]), ds,
                    penalty_weights(config, order), order)
                assert kept.size == grid.size
                assert np.all(np.abs(screen - stacked) <= 1e-9 * stage.objective)

    def test_search_scores_without_per_candidate_refits(self, monkeypatch):
        objective_calls = []
        objective = freeknot.objective_f

        def counting_objective(*args, **kwargs):
            objective_calls.append(args)
            return objective(*args, **kwargs)

        monkeypatch.setattr(freeknot, "objective_f", counting_objective)
        fits = counting_fit_coefficients(monkeypatch)
        stacks = recording_fits(monkeypatch)
        search = KnotSearchConfig(order=4, max_knots=3, grid_size=20, fixed_p=True)
        result = add_knots_gradually(noisy_sine_dataset(), PenaltyConfig(lambda2=1e-5), search)
        assert objective_calls == []
        # the knot-free stage and each refinement fit their result as one
        # full-data row of a stack
        assert fits == []
        assert [len(rows) for rows, full in stacks if full] == [1] * (search.max_knots + 1)
        assert [stage.p for stage in result.stages] == [0, 1, 2, 3]


def column_jacobian(k, ds, config, order, sign=1.0):
    """Reference: the residual at k and each difference column from its own fit.

    sign=1 gives the forward differences the refiner takes, sign=-1 the
    backward differences it takes where a forward row is refused.
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
            assert_normal_equations(normal_at(k, ds, config, order),
                                    *column_jacobian(k, ds, config, order))

    @pytest.mark.parametrize("config", [
        PenaltyConfig(), PenaltyConfig(lambda1=1e-7, lambda2=1e-5),
    ], ids=["fs0", "fs2"])
    def test_more_curves_than_points_differences_in_the_reduced_space(self, config):
        rng = np.random.default_rng(6)
        for trial in range(10):
            h = int(rng.integers(25, 60))
            ds = noisy_sine_dataset(seed=trial, n=h, curves=h + int(rng.integers(1, 40)))
            assert ds.row_basis is not None
            order = int(rng.choice([3, 4]))
            p = int(rng.integers(1, 6))
            gaps = np.exp(rng.uniform(-0.7, 0.7, p + 1))
            k = jupp(np.cumsum(gaps)[:-1] / gaps.sum(), 0.0, 1.0).values
            # the differences are taken in the reduced space (h x h
            # residuals), whose normal equations are those of the full space
            assert_normal_equations(normal_at(k, ds, config, order),
                                    *column_jacobian(k, ds, config, order))

    @pytest.mark.parametrize("config", [
        PenaltyConfig(), PenaltyConfig(lambda1=1e-7, lambda2=1e-5),
    ], ids=["fs0", "fs2"])
    def test_more_curves_than_points_refine_as_unreduced(self, monkeypatch, config):
        ds = noisy_sine_dataset(n=30, curves=80)
        search = KnotSearchConfig(order=4, max_knots=3)
        starts = [jupp(np.array(tau), 0.0, 1.0) for tau in ([0.5], [0.2, 0.45, 0.8])]
        reduced = [gauss_newton_refine(start, ds, config, search) for start in starts]
        monkeypatch.setattr(FunctionalDataset, "row_basis", property(lambda self: None))
        for start, res in zip(starts, reduced):
            plain = gauss_newton_refine(start, ds, config, search)
            assert res.iterations == plain.iterations > 1
            assert np.max(np.abs(jupp_inverse(res.coords) - jupp_inverse(plain.coords))) <= 1e-8
            assert res.objective == pytest.approx(plain.objective, rel=1e-10)

    def test_refused_forward_rows_fall_back_to_backward_steps_then_zero(self, monkeypatch):
        ds = noisy_sine_dataset()
        config = PenaltyConfig(lambda2=1e-5)
        search = KnotSearchConfig(order=4, max_knots=3)
        fits, jacobian = freeknot._fits, freeknot._jacobian
        seen = []

        def refusing(rows, *args, **kwargs):
            # forward stack: refuse columns 0 and 1; backward stack of
            # columns 0 and 1: refuse column 1
            refused = {4: {1, 2}, 2: {1}}.get(len(rows), set())
            for c, why, fit in fits(rows, *args, **kwargs):
                yield (c, "refused", None) if c in refused else (c, why, fit)

        def recording(points, *args):
            [k] = points
            for i, why, normal in jacobian(points, *args):
                seen.append((k.copy(), normal))
                yield i, why, normal

        monkeypatch.setattr(freeknot, "_fits", refusing)
        monkeypatch.setattr(freeknot, "_jacobian", recording)
        start = jupp(np.array([0.2, 0.5, 0.8]), 0.0, 1.0)
        res = gauss_newton_refine(start, ds, config, search)
        assert seen
        for k, normal in seen:
            ref_r, forward = column_jacobian(k, ds, config, search.order)
            _, backward = column_jacobian(k, ds, config, search.order, sign=-1.0)
            # column 0 a backward difference, column 1 zero, column 2 forward
            jac = np.column_stack([backward[:, 0], np.zeros(ref_r.size), forward[:, 2]])
            assert_normal_equations(normal, ref_r, jac)
            _, _, jr, jtj = normal
            assert jr[1] == 0.0 and np.all(jtj[1] == 0.0) and np.all(jtj[:, 1] == 0.0)
        # the refiner still descends and hands on the fit at its result
        assert res.objective <= objective_f(start, ds, config, search.order)
        spec = make_basis_spec(0.0, 1.0, 4, jupp_inverse(res.coords))
        assert_same_fit(res.model, fit_coefficients(ds, spec, config))

    def test_no_stack_without_rows(self, monkeypatch):
        # a Jacobian whose forward rows all fit makes no backward-step stack
        stacks = recording_fits(monkeypatch)
        add_knots_gradually(noisy_sine_dataset(), PenaltyConfig(lambda1=1e-7, lambda2=1e-5),
                            KnotSearchConfig(order=4, max_knots=3, grid_size=20, fixed_p=True))
        assert stacks and all(rows for rows, _ in stacks)

    def test_refiner_fits_only_its_result(self, monkeypatch):
        # the start's residual and objective come from the first Jacobian
        # stack; the result is fitted as one full-data row, not refitted, at
        # the clamped knots of its last accepted trial
        fits = counting_fit_coefficients(monkeypatch)
        stacks = recording_fits(monkeypatch)
        ds, config = noisy_sine_dataset(), PenaltyConfig(lambda2=1e-5)
        start = jupp(np.array([0.2, 0.45, 0.8]), 0.0, 1.0)
        res = gauss_newton_refine(start, ds, config, KnotSearchConfig(order=4, max_knots=3))
        assert res.iterations > 1
        assert fits == []
        knots = np.concatenate([np.zeros(4), jupp_inverse(res.coords), np.ones(4)])
        assert [rows for rows, full in stacks if full] == [[knots.tolist()]]
        assert not np.array_equal(res.coords.values, start.values)
        assert res.objective == res.model.diagnostics.sse
        spec = make_basis_spec(0.0, 1.0, 4, jupp_inverse(res.coords))
        assert_same_fit(res.model, fit_coefficients(ds, spec, config))

    def test_refiner_without_a_step_fits_its_start(self, monkeypatch):
        fits = counting_fit_coefficients(monkeypatch)
        stacks = recording_fits(monkeypatch)
        proposals = freeknot._proposals

        def spent(at, k, g, jtj, mu, trials, *args):
            trials[at] = 12  # every damping level already tried
            return proposals(at, k, g, jtj, mu, trials, *args)

        monkeypatch.setattr(freeknot, "_proposals", spent)
        ds, config = noisy_sine_dataset(), PenaltyConfig(lambda2=1e-5)
        start = jupp(np.array([0.2, 0.45, 0.8]), 0.0, 1.0)
        res = gauss_newton_refine(start, ds, config, KnotSearchConfig(order=4, max_knots=3))
        assert res.step_failure and res.iterations == 1
        assert fits == []
        assert [rows for rows, full in stacks if full] == [[start.values.tolist()]]
        assert np.array_equal(res.coords.values, start.values)
        spec = make_basis_spec(0.0, 1.0, 4, jupp_inverse(start))
        assert_same_fit(res.model, fit_coefficients(ds, spec, config))

    @pytest.mark.parametrize("knots", [[0.3, 0.6], [0.2, 0.4, 0.6, 0.8]], ids=["p2", "p4"])
    def test_a_refused_start_ends_its_pair_with_the_fit_error(self, monkeypatch, knots):
        # 5 points cannot carry the 6 or 8 unpenalized cubic basis functions:
        # the pair ends with the error a fit at its start raises, taken from
        # the first Jacobian stack, and the other pair is refined as alone
        t = np.linspace(0.0, 1.0, 5)
        ds = FunctionalDataset(t=t, values=np.column_stack([np.sin(3 * t), np.cos(2 * t)]))
        search = KnotSearchConfig(order=4, max_knots=4)
        start = jupp(np.array(knots), 0.0, 1.0)
        with pytest.raises(NotPositiveDefiniteError) as want:
            fit_coefficients(ds, make_basis_spec(0.0, 1.0, 4, knots), PenaltyConfig())
        fits = counting_fit_coefficients(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError) as got:
            gauss_newton_refine(start, ds, PenaltyConfig(), search)
        assert str(got.value) == str(want.value)
        assert fits == []
        penalized = PenaltyConfig(lambda2=1e-2)
        alone = gauss_newton_refine(start, ds, penalized, search)
        outcomes = {i: (pair, fit) for i, pair, fit in refine(
            [start, start], [PenaltyConfig(), penalized], [ds, ds], search)}
        pair, fit = outcomes[0]
        assert fit is None and type(pair.error) is NotPositiveDefiniteError
        assert str(pair.error) == str(want.value)
        pair, fit = outcomes[1]
        assert pair.error is None and np.array_equal(pair.k, alone.coords.values)
        assert np.array_equal(fit[0], alone.model.coeffs)
        assert fits == []

    def test_a_start_whose_knots_cannot_be_fitted_raises_the_basis_error_before_any_fit(
            self, monkeypatch):
        # the first gap underflows: the knots reconstructed from these
        # ratios put a knot on the domain's end; gauss_newton_refine, the
        # entry that takes outside starts, checks its start once, and
        # refine_fits takes rows that its callers checked
        ds = noisy_sine_dataset()
        start = JuppCoords(np.array([800.0, 0.0]), 0.0, 1.0)
        with pytest.raises(ConfigError) as want:
            make_basis_spec(0.0, 1.0, 4, jupp_inverse(start))
        search = KnotSearchConfig(order=4, max_knots=3)
        stacks = recording_fits(monkeypatch)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            gauss_newton_refine(start, ds, PenaltyConfig(), search)
        assert stacks == []
        # the job's error comes first: here the sample points leave the domain
        outside = JuppCoords(start.values, 0.0, 0.5)
        with pytest.raises(PointOutOfDomainError):
            gauss_newton_refine(outside, ds, PenaltyConfig(), search)
        # a row no basis takes is refused by its first stack, without
        # touching the other pair
        fine = jupp(np.array([0.3, 0.6]), 0.0, 1.0)
        outcomes = {i: pair for i, pair, _ in refine(
            [start, fine], [PenaltyConfig()] * 2, [ds, ds], search)}
        assert type(outcomes[0].error) is NotPositiveDefiniteError
        alone = gauss_newton_refine(fine, ds, PenaltyConfig(), search)
        assert outcomes[1].error is None and outcomes[1].iterations == alone.iterations
        assert np.array_equal(outcomes[1].k, alone.coords.values)


class TestDescentPerKnotCount:
    """refine_fits descends the starts of each knot count on their own arrays."""

    def test_mixed_knot_counts_refine_as_one_call_per_count(self, monkeypatch):
        ds = noisy_sine_dataset()
        search = KnotSearchConfig(order=4, max_knots=4, grid_size=20, fixed_p=True)
        warm = [stage.coords.values
                for stage in add_knots_gradually(ds, PenaltyConfig(), search).stages]
        warm = warm[1:]  # the zero-penalty warm starts of 1-4 knots
        configs = [PenaltyConfig(lambda2=1e-6), PenaltyConfig(lambda1=1e-7, lambda2=1e-3)]
        jobs = freeknot._Jobs([ds] * 2, configs, [ds.domain] * 2, search.order)
        rows = []
        fit_stack = freeknot.fit_stack

        def counting(full_knots, *args, **kwargs):
            rows.append(len(full_knots))
            return fit_stack(full_knots, *args, **kwargs)

        monkeypatch.setattr(freeknot, "fit_stack", counting)
        together = {i: (outcome, fit) for i, outcome, fit in freeknot.refine_fits(
            [start for start in warm for _ in configs], [0, 1] * len(warm), jobs, search)}
        together_rows, alone = sorted(rows), {}
        rows.clear()
        for n, start in enumerate(warm):
            for i, outcome, fit in freeknot.refine_fits([start] * 2, [0, 1], jobs, search):
                alone[2 * n + i] = outcome, fit
        assert together_rows == sorted(rows)
        assert [start.size for start in warm] == [1, 2, 3, 4] and len(together) == len(alone) == 8
        for i, (outcome, (coeffs, d, (B, H))) in together.items():
            want, (want_coeffs, want_d, (want_B, want_H)) = alone[i]
            assert (outcome.iterations, outcome.converged, outcome.step_failure, outcome.error) == (
                want.iterations, want.converged, want.step_failure, None)
            assert outcome.k.tobytes() == want.k.tobytes()
            assert (outcome.system is None) == (want.system is None)
            for got, ref in zip(outcome.system or (), want.system or ()):
                assert got.tobytes() == ref.tobytes()
            for got, ref in ((coeffs, want_coeffs), (d.residuals, want_d.residuals), (B, want_B),
                             (H, want_H)):
                assert got.tobytes() == ref.tobytes()
            assert [d.sse.hex(), d.df.hex(), d.gcv.hex()] == [
                want_d.sse.hex(), want_d.df.hex(), want_d.gcv.hex()]
        assert max(outcome.iterations for outcome, _ in together.values()) > 1


def descent(k, jtj, g, mu=freeknot._DAMPING, trials=0):
    """One descent's state as sequential_propose reads and updates it."""
    return SimpleNamespace(k=k, jtj=jtj, g=g, mu=mu, trials=trials)


def sequential_propose(pair, lo, hi, order, min_gap):
    """Reference: one descent's next damped step, trial by trial, (k_new,
    delta, its clamped knots) or None once its 12 trials are spent."""
    p = pair.k.size
    while pair.trials < 12:
        try:
            delta = np.linalg.solve(pair.jtj + pair.mu * np.eye(p), -pair.g)
        except np.linalg.LinAlgError:
            delta = None
        if delta is not None:
            k_new = pair.k + delta
            kept, full = freeknot._fittable_rows(k_new[None], np.array([lo]), np.array([hi]), order)
            interior = full[:, order : full.shape[1] - order]
            if kept.size and not (p >= 2 and float(np.diff(interior).min()) < min_gap):
                return k_new, delta, full[0]
        pair.mu *= 10.0
        pair.trials += 1
    return None


def proposal_batch():
    """Descent states of p = 1, 2 and 3 whose undamped steps are far too long,
    so most pairs spend several trials; one has spent them all, and one's
    damped system is singular at its first trial."""
    rng = np.random.default_rng(11)
    batch = []
    for p in [2, 1, 3, 2, 3, 1, 2, 3]:
        a = rng.standard_normal((p + 2, p))
        k = jupp(np.sort(rng.uniform(0.1, 0.9, p)), 0.0, 1.0).values
        pair = descent(k, a.T @ a, rng.standard_normal(p) * 10.0 ** rng.integers(0, 5))
        pair.mu = 10.0 ** -rng.integers(1, 4)
        batch.append(pair)
    batch[3].trials = 12
    batch[4].jtj = -batch[4].mu * np.eye(3)
    return batch


class TestBatchedProposals:
    """One proposal pass per round makes each pair's step as the pair alone would."""

    lo, hi, order, min_gap = 0.0, 1.0, 4, 0.02

    def propose(self, batch):
        """_proposals over the state arrays of the batch's descents of each knot
        count, as _descend holds them; each descent's mu and trials are
        written back, and its step is (k_new, delta, clamped knots) or None."""
        jobs = freeknot._Jobs([noisy_sine_dataset()], [PenaltyConfig()], [(self.lo, self.hi)],
                              self.order)
        steps = [None] * len(batch)
        for p in dict.fromkeys(pair.k.size for pair in batch):
            group = [i for i, pair in enumerate(batch) if pair.k.size == p]
            k, jtj, g, mu, trials = (np.array([getattr(batch[i], name) for i in group])
                                     for name in ("k", "jtj", "g", "mu", "trials"))
            found, *step = freeknot._proposals(np.arange(len(group)), k, g, jtj, mu, trials,
                                               np.zeros(len(group), dtype=int), jobs,
                                               np.array([self.min_gap]))
            rows = zip(*step)
            for c, i in enumerate(group):
                batch[i].mu, batch[i].trials = mu[c], trials[c]
                steps[i] = next(rows) if found[c] else None
        return steps

    def assert_same(self, step, ref):
        if ref is None:
            assert step is None
        else:
            for got, want in zip(step, ref):
                assert np.array_equal(got, want)

    def test_matches_the_sequential_rule(self):
        batch, ref_batch = proposal_batch(), proposal_batch()
        steps = self.propose(batch)
        refs = [sequential_propose(pair, self.lo, self.hi, self.order, self.min_gap)
                for pair in ref_batch]
        for step, ref, pair, ref_pair in zip(steps, refs, batch, ref_batch):
            self.assert_same(step, ref)
            assert (pair.mu, pair.trials) == (ref_pair.mu, ref_pair.trials)
        trials = [pair.trials for pair in ref_batch]
        assert max(trials[:3] + trials[5:]) > 1  # steps were retried
        assert refs[3] is None and trials[3] == 12
        assert trials[4] >= 1 and refs[4] is not None
        assert len({pair.k.size for pair, ref in zip(ref_batch, refs) if ref is not None}) == 3

    def test_a_singular_pair_costs_only_itself_a_trial(self, monkeypatch):
        def batch_with_a_short_step():
            batch = proposal_batch()
            batch[4].jtj = 1e6 * np.eye(3)  # its first step is feasible
            return batch

        ref_batch = batch_with_a_short_step()
        refs = self.propose(ref_batch)
        assert ref_batch[4].trials == 0 and refs[4] is not None
        batch = batch_with_a_short_step()
        singular = batch[4].jtj + batch[4].mu * np.eye(3)
        solve = np.linalg.solve
        failed = []

        def failing(a, b):
            if a.shape[-1] == 3 and any(np.array_equal(m, singular) for m in a.reshape(-1, 3, 3)):
                failed.append(a.ndim)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing)
        steps = self.propose(batch)
        monkeypatch.undo()
        assert failed == [3, 2]  # the group's stacked solve, then the pair's own
        for i, (step, ref) in enumerate(zip(steps, refs)):
            if i != 4:
                self.assert_same(step, ref)
                assert (batch[i].mu, batch[i].trials) == (ref_batch[i].mu, ref_batch[i].trials)
        assert batch[4].trials == 1 and batch[4].mu == 10.0 * ref_batch[4].mu
        alone = batch_with_a_short_step()[4]
        alone.mu, alone.trials = batch[4].mu, 1
        self.assert_same(steps[4], sequential_propose(alone, self.lo, self.hi, self.order,
                                                      self.min_gap))


    def check_against_sequential(self, make_batch, monkeypatch):
        """Each pair's step, mu and trials against sequential_propose; returns
        the rows of every stacked solve of the proposal passes."""
        solved = []
        solve_rows = freeknot._solve_rows

        def recording(systems, rhs):
            solved.append(len(systems))
            return solve_rows(systems, rhs)

        monkeypatch.setattr(freeknot, "_solve_rows", recording)
        batch, ref_batch = make_batch(), make_batch()
        steps = self.propose(batch)
        for step, pair, ref_pair in zip(steps, batch, ref_batch):
            ref = sequential_propose(ref_pair, self.lo, self.hi, self.order, self.min_gap)
            self.assert_same(step, ref)
            assert (pair.mu, pair.trials) == (ref_pair.mu, ref_pair.trials)
        return solved, ref_batch

    @staticmethod
    def far_step(seed, p=2):
        """A descent state whose undamped step is thousands of gaps long."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p + 2, p))
        k = jupp(np.sort(rng.uniform(0.2, 0.8, p)), 0.0, 1.0).values
        return descent(k, 1e-6 * (a.T @ a), 1e4 * rng.standard_normal(p))

    def test_a_lone_pair_tries_all_its_levels_in_one_pass(self, monkeypatch):
        solved, [ref] = self.check_against_sequential(lambda: [self.far_step(0)], monkeypatch)
        assert ref.trials >= 5  # the sequential rule retried five times or more
        assert solved == [12]

    def test_a_pair_that_spends_its_trials_gets_no_step(self, monkeypatch):
        def batch():
            # knots closer than min_gap: no damping can space them out
            close = descent(jupp(np.array([0.4, 0.41]), 0.0, 1.0).values, np.eye(2), np.zeros(2))
            late = self.far_step(1)
            late.trials = 9  # three levels left, none short enough
            return [close, late]

        solved, refs = self.check_against_sequential(batch, monkeypatch)
        assert [pair.trials for pair in refs] == [12, 12]
        # 12 // 2 levels of the first pair and the 3 left of the second, then
        # the first pair's last 6
        assert solved == [6 + 3, 6]
        steps = self.propose(batch())
        assert steps == [None, None]

    def test_a_batch_of_more_than_12_pairs_tries_one_level_each_first(self, monkeypatch):
        solved, refs = self.check_against_sequential(
            lambda: [self.far_step(seed, p=3) for seed in range(20)], monkeypatch)
        assert solved[0] == 20 and max(solved) <= 20
        assert max(pair.trials for pair in refs) >= 5


class TestCarriedFits:
    """A search hands each fit on instead of redoing it: the scan's exact
    fit carries its refinement's first Jacobian (as the normal equations a
    descent keeps of it), and a round's result fit carries the parent
    system that the next round's scan borders."""

    @staticmethod
    def assert_fresh(normal, start, job, jobs):
        """The normal equations handed over at a start are those of a fresh
        _jacobian there, array for array."""
        [(_, why, (_, *fresh))] = freeknot._jacobian(start[None], [job], jobs)
        assert why == ""
        for got, want in zip(normal, fresh, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("refused", [False, True], ids=["forward", "backward-step"])
    def test_the_scan_hands_over_the_jacobian_at_its_winner(self, benchmark_searches,
                                                            monkeypatch, refused):
        stacks = []
        if refused:
            # the winner's first forward row cannot be fitted: its column 0
            # takes a backward step, in the scan as in a fresh _jacobian
            fits = freeknot._fits

            def refusing(rows, *args, **kwargs):
                stacks.append(len(rows))
                for c, why, fit in fits(rows, *args, **kwargs):
                    yield (c, "refused", None) if c == 1 else (c, why, fit)

            monkeypatch.setattr(freeknot, "_fits", refusing)
        for variant in ("fs0", "fs2"):
            ds, result = benchmark_searches[0, variant]
            config = variant_config(variant)
            for stage in result.stages[:-1]:
                [(ratios, _, fitted, (c, normal))] = scan_jobs([stage.knots], [ds], [config],
                                                               BENCHMARK_SEARCH)
                assert fitted == 1  # one candidate: a stack of its p + 1 rows
                self.assert_fresh(normal, ratios[c], 0, one_job(ds, config, BENCHMARK_SEARCH.order))
        assert (1 in stacks) is refused  # the backward-step stacks of one row

    def test_each_refinement_starts_from_the_scan_jacobian(self, monkeypatch):
        started = []
        descend = freeknot._descend

        def recording(k, owner, jobs, search, first):
            started.append((k, owner, jobs, first))
            return descend(k, owner, jobs, search, first)

        monkeypatch.setattr(freeknot, "_descend", recording)
        search = KnotSearchConfig(order=4, max_knots=4, grid_size=30, fixed_p=True)
        datasets = [noisy_sine_dataset(), noisy_sine_dataset(seed=5, n=20, curves=30)]
        configs = [PenaltyConfig(), PenaltyConfig(lambda1=1e-7, lambda2=1e-5)]
        freeknot.add_knots_lockstep(datasets, configs, search)
        # the knot-free stage has nothing to descend; each later round's
        # starts share a knot count, so they are one descent
        assert len(started) == search.max_knots
        for k, owner, jobs, first in started:
            assert len(first) == len(k) == 2
            for start, job, normal in zip(k, owner, first):
                self.assert_fresh(normal, start, job, jobs)

    def test_the_next_scan_borders_the_carried_parent_as_a_rebuilt_one(self, monkeypatch):
        seen = []
        bordered = freeknot._bordered

        def recording(existing, system, *args):
            out = bordered(existing, system, *args)
            seen.append((existing, system, args, out))
            return out

        monkeypatch.setattr(freeknot, "_bordered", recording)
        ds = generate_scenario(benchmark_config(seed=0)).dataset
        configs = [variant_config("fs0"), variant_config("fs2"),
                   PenaltyConfig(alphas=(1e-6, 0.0, 1e-5))]
        search = KnotSearchConfig(order=4, max_knots=4, grid_size=50, fixed_p=True)
        # three jobs: the result fits, and so the carried parents, share stacks
        freeknot.add_knots_lockstep([ds] * 3, configs, search)
        assert len(seen) == 3 * search.max_knots
        lo, hi = ds.domain
        for existing, (B, H), (full, q, dataset, weights, order), (scores, window) in seen:
            parent = np.concatenate([np.full(order, lo), existing, np.full(order, hi)])
            (ref_B,), _, (ref_H,), _, (why,) = smoother._assemble(parent[None], order, ds.t[None],
                                                                  weights[None])
            assert why == ""
            assert np.array_equal(B, ref_B) and np.array_equal(H, ref_H)
            ref_scores, ref_window = bordered(existing, (ref_B, ref_H), full, q, dataset, weights,
                                              order)
            assert np.array_equal(scores, ref_scores, equal_nan=True) and window == ref_window

    def test_stack_and_check_counts_of_a_benchmark_fit(self, monkeypatch):
        # fit_stack, assembly and _fittable_rows calls of one fs2 search
        # (order 4, 8 knots fixed, grid 50) on benchmark_config(seed=0): the
        # stacks that fit the carried systems assemble nothing; before the
        # result fits were taken from those systems: 35 stacks, all
        # assembled, and 43 _fittable_rows calls; before that, when each
        # damping level was tried alone and no fit was carried: 43 and 89
        counts = counting_calls(monkeypatch, (freeknot, "fit_stack"), (smoother, "_assemble"),
                                (freeknot, "_fittable_rows"))
        ds = generate_scenario(benchmark_config(seed=0)).dataset
        fit_free_knot(ds, variant_config("fs2"), BENCHMARK_SEARCH)
        assert counts == {"fit_stack": 35, "_assemble": 27, "_fittable_rows": 35}

    @pytest.mark.parametrize("config", [variant_config("fs0"), variant_config("fs2"),
                                        PenaltyConfig(alphas=(1e-6, 0.0, 1e-5))],
                             ids=["fs0", "fs2", "alphas"])
    def test_carried_results_are_fit_coefficients(self, monkeypatch, config):
        # a stage whose refinement ends on an accepted trial is fitted from
        # the system that trial's stack built (_Outcome.system): it is what
        # fit_coefficients reports at its knots, byte for byte
        carried = []
        refine_fits = freeknot.refine_fits

        def recording(*args):
            for i, pair, fit in refine_fits(*args):
                if pair.system is not None:
                    carried.append((pair.k, fit))
                yield i, pair, fit

        monkeypatch.setattr(freeknot, "refine_fits", recording)
        stages = fitted = 0
        for seed in range(4):
            ds = generate_scenario(benchmark_config(seed=seed)).dataset
            lo, hi = ds.domain
            stages += len(add_knots_gradually(ds, config, BENCHMARK_SEARCH).stages)
            fitted += len(carried)
            for k, (coeffs, d, _) in carried:
                spec = make_basis_spec(lo, hi, 4, jupp_inverse(JuppCoords(k, lo, hi)))
                ref = fit_coefficients(ds, spec, config)
                assert coeffs.tobytes() == ref.coeffs.tobytes()
                assert d.residuals.tobytes() == ref.diagnostics.residuals.tobytes()
                assert [d.df.hex(), d.gcv.hex()] == [ref.diagnostics.df.hex(),
                                                     ref.diagnostics.gcv.hex()]
            carried.clear()
        # p = 0 .. 8 on each seed; every refined stage ended on a trial
        assert (stages, fitted) == (36, 32)

    @pytest.mark.parametrize("case", ["converged", "refused"])
    def test_a_pair_that_ends_at_its_start_is_fitted_by_a_stack(self, monkeypatch, case):
        # no trial accepted, so nothing is carried: the result is the
        # full-data stack row at the start's ratios (_fits with full=True)
        t = np.linspace(0.0, 1.0, 30)
        start = jupp(np.array([0.3, 0.6]), 0.0, 1.0)
        if case == "converged":
            # a cubic is fitted to roundoff at any knots: the gradient
            # vanishes at the start
            ds = FunctionalDataset(t=t, values=(t**3 - t)[:, None])
        else:
            # every trial row is refused, so every damping level fails
            ds = noisy_sine_dataset(n=30)
            fits = freeknot._fits

            def refusing(rows, *args, full=False, mapped=False, **kwargs):
                # the trial stack: the one of mapped rows fitted in the reduced space
                for c, why, fit in fits(rows, *args, full=full, mapped=mapped, **kwargs):
                    yield (c, "refused", None) if mapped and not full else (c, why, fit)

            monkeypatch.setattr(freeknot, "_fits", refusing)
        stacks = recording_fits(monkeypatch)
        counts = counting_calls(monkeypatch, (freeknot, "fit_stack"), (smoother, "_assemble"))
        config = PenaltyConfig()
        res = gauss_newton_refine(start, ds, config, KnotSearchConfig(order=4, max_knots=2))
        assert (res.converged, res.step_failure, res.iterations) == (
            (True, False, 1) if case == "converged" else (False, True, 1))
        # nothing is carried: every stack, the result's included, is assembled
        assert counts["fit_stack"] == counts["_assemble"]
        assert [rows for rows, full in stacks if full] == [[start.values.tolist()]]
        assert np.array_equal(res.coords.values, start.values)
        spec = make_basis_spec(0.0, 1.0, 4, jupp_inverse(start))
        assert_same_fit(res.model, fit_coefficients(ds, spec, config))

    def test_bordered_takes_one_basis_pass_per_candidate_set(self, monkeypatch):
        # a bordered screen evaluates its candidates' B-splines at the sample
        # points and at the quadrature nodes in one derivative_stack pass,
        # and the parent's penalized derivatives at the nodes in one more
        passes, per_call = [], []
        derivative_stack, bordered = freeknot.derivative_stack, freeknot._bordered

        def counting_stack(*args):
            passes.append(args)
            return derivative_stack(*args)

        def counting_bordered(*args):
            before = len(passes)
            out = bordered(*args)
            per_call.append(len(passes) - before)
            return out

        monkeypatch.setattr(freeknot, "derivative_stack", counting_stack)
        monkeypatch.setattr(freeknot, "_bordered", counting_bordered)
        ds = generate_scenario(benchmark_config(seed=0)).dataset
        search = KnotSearchConfig(order=4, max_knots=3, grid_size=50, fixed_p=True)
        for variant, want in (("fs0", 1), ("fs2", 2)):
            per_call.clear()
            add_knots_gradually(ds, variant_config(variant), search)
            assert per_call == [want] * search.max_knots, variant


class TestStageRecords:
    """Each stage carries the facts of its Gauss-Newton refinement."""

    def test_stages_record_their_refinement(self, monkeypatch):
        refined = []
        refine = freeknot.refine_fits

        def recording(*args):
            for i, pair, fit in refine(*args):
                refined.append(pair)
                yield i, pair, fit

        monkeypatch.setattr(freeknot, "refine_fits", recording)
        result = add_knots_gradually(noisy_sine_dataset(), PenaltyConfig(lambda2=1e-5),
                                     KnotSearchConfig(order=4, max_knots=4, fixed_p=True))
        stage0, *stages = result.stages
        assert (stage0.p, stage0.iterations, stage0.converged, stage0.step_failure) == (
            0, 0, True, False)
        # the knot-free stage is round 0's batch of refine_fits
        assert len(result.stages) == len(refined) == 5
        for stage, res in zip(result.stages, refined):
            assert (stage.iterations, stage.converged, stage.step_failure) == (
                res.iterations, res.converged, res.step_failure)
        assert max(stage.iterations for stage in stages) > 1

    def test_stages_record_their_scan(self, benchmark_searches):
        # the benchmark's searches fit one candidate per round exactly
        for variant in ("fs0", "fs2"):
            ds, result = benchmark_searches[0, variant]
            stage0, *stages = result.stages
            assert (stage0.scanned, stage0.fitted) == (0, 0)
            assert len(stages) == BENCHMARK_SEARCH.max_knots
            for parent, stage in zip(result.stages, stages):
                grid = freeknot._candidate_grid(*ds.domain, parent.knots, BENCHMARK_SEARCH)
                assert (stage.scanned, stage.fitted) == (grid.size, 1)


class TestRowBasis:
    """The knot search works on one row-space factor per dataset, kept by the dataset."""

    def test_reduce_keeps_norms_and_inner_products(self):
        ds = noisy_sine_dataset(n=20, curves=50)
        a, b = np.random.default_rng(0).standard_normal((2, 20, 20))
        A, B = a @ ds.values, b @ ds.values
        assert ds.row_basis.shape == (50, 20)
        assert (A @ ds.row_basis).shape == (20, 20)
        assert np.vdot(A @ ds.row_basis, B @ ds.row_basis) == pytest.approx(np.vdot(A, B),
                                                                          rel=1e-12)
        assert np.linalg.norm(A @ ds.row_basis) == pytest.approx(np.linalg.norm(A), rel=1e-12)
        assert np.array_equal(ds.reduced.values, ds.values @ ds.row_basis)
        few = noisy_sine_dataset(n=20, curves=20)
        assert few.row_basis is None and few.reduced is few

    @pytest.mark.parametrize("rank", [20, 3, 0])
    def test_factor_is_an_orthonormal_basis_of_the_row_space(self, rank):
        rng = np.random.default_rng(rank)
        values = rng.standard_normal((20, rank)) @ rng.standard_normal((rank, 50))
        Q = FunctionalDataset(t=np.linspace(0.0, 1.0, 20), values=values).row_basis
        assert Q.shape == (50, 20)
        assert np.abs(Q.T @ Q - np.eye(20)).max() <= 1e-14
        assert np.abs(values @ Q @ Q.T - values).max() <= 1e-13 * max(1.0, np.abs(values).max())
        if rank == 20:  # the basis LAPACK's QR gives, up to the sign of each column
            assert np.abs(np.abs(Q) - np.abs(np.linalg.qr(values.T)[0])).max() <= 1e-13

    def test_factor_is_computed_once_per_dataset(self, monkeypatch):
        calls = []
        basis = data._orthonormal_basis

        def counting_basis(a):
            calls.append(a.shape)
            return basis(a)

        monkeypatch.setattr(data, "_orthonormal_basis", counting_basis)
        search = KnotSearchConfig(order=4, max_knots=3, grid_size=10, fixed_p=True)
        config = PenaltyConfig(lambda2=1e-5)
        ds = noisy_sine_dataset(n=30, curves=40)
        fit_free_knot(ds, config, search)
        assert calls == [(40, 30)]
        fit_free_knot(ds, config, search)
        assert calls == [(40, 30)]
        fit_free_knot(noisy_sine_dataset(n=30, curves=3), config, search)
        assert calls == [(40, 30)]

    def test_factor_is_freed_with_its_dataset(self):
        ds = noisy_sine_dataset(n=30, curves=40)
        fit_free_knot(ds, PenaltyConfig(lambda2=1e-5),
                      KnotSearchConfig(order=4, max_knots=2, grid_size=10, fixed_p=True))
        assert ds.row_basis is not None
        dataset, factor = weakref.ref(ds), weakref.ref(ds.row_basis)
        del ds
        gc.collect()
        assert dataset() is None and factor() is None


class TestHighLevelFit:
    def test_fit_free_knot_returns_annotated_model(self):
        ds = hinge_dataset()
        search = KnotSearchConfig(order=2, max_knots=1, fixed_p=True)
        model = fit_free_knot(ds, PenaltyConfig(), search)
        result = add_knots_gradually(ds, PenaltyConfig(), search)
        assert result.chosen.p == 1
        assert_same_fit(model, result.model)
        pred = model.predict(ds.t)
        assert np.abs(pred[:, 0] - ds.values[:, 0]).max() < 1e-6

    def test_a_search_is_freed_with_its_last_reference(self):
        # no reference cycle holds a fit or a search result, so reference
        # counting frees them without the cyclic collector
        ds, config = noisy_sine_dataset(), PenaltyConfig(lambda2=1e-5)
        search = KnotSearchConfig(order=4, max_knots=2, grid_size=10, fixed_p=True)
        gc.collect()
        gc.disable()
        try:
            model = fit_free_knot(ds, config, search)
            result = add_knots_gradually(ds, config, search)
            refs = [weakref.ref(model), weakref.ref(result), weakref.ref(result.model)]
            del model, result
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_gcv_choice_prefers_small_model_on_noisy_smooth_truth(self):
        # With noise the gcv flattens after a few knots, so the patience
        # rule halts the addition well short of the budget.
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1, 45)
        y = np.sin(2.2 * t) + 0.1 * rng.standard_normal(45)
        ds = FunctionalDataset(t=t, values=y[:, None])
        search = KnotSearchConfig(order=4, max_knots=5)
        result = add_knots_gradually(ds, PenaltyConfig(lambda2=1e-8), search)
        assert result.stopped_early
        assert result.chosen.p < 5
        assert result.chosen.gcv == min(s.gcv for s in result.stages)


def search_or_error(dataset, config, search):
    """add_knots_gradually's result, or the FkSplineError it raises."""
    try:
        return add_knots_gradually(dataset, config, search)
    except FkSplineError as exc:
        return exc


def assert_same_search(got, want):
    """Two knot searches agree bit for bit: stages, selection and the model;
    or they failed with the same error."""
    if isinstance(want, FkSplineError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert len(got.stages) == len(want.stages)
    for a, b in zip(got.stages, want.stages):
        assert (a.p, a.objective, a.gcv, a.df, a.iterations, a.converged, a.step_failure,
                a.scanned, a.fitted) == (b.p, b.objective, b.gcv, b.df, b.iterations, b.converged,
                                         b.step_failure, b.scanned, b.fitted)
        assert np.array_equal(a.knots, b.knots)
        assert np.array_equal(a.coords.values, b.coords.values)
        assert (a.coords.lo, a.coords.hi) == (b.coords.lo, b.coords.hi)
    assert got.stages.index(got.chosen) == want.stages.index(want.chosen)
    assert got.stopped_early == want.stopped_early
    assert_same_fit(got.model, want.model)


class TestLockstepSearch:
    """add_knots_lockstep runs many (dataset, config) jobs as one search;
    each job comes out as add_knots_gradually alone leaves it."""

    def jobs(self):
        rng = np.random.default_rng(0)
        t = np.linspace(2.0, 5.0, 45)
        smooth = FunctionalDataset(t=t, values=np.sin(0.7 * t) + 0.1 * rng.standard_normal(45))
        tiny_t = np.linspace(-1.0, 1.0, 5)
        tiny = FunctionalDataset(t=tiny_t, values=np.column_stack([np.sin(3 * tiny_t),
                                                                   np.cos(2 * tiny_t)]))
        sine, wide = noisy_sine_dataset(), noisy_sine_dataset(seed=5, n=20, curves=30)
        fs0, fs2 = PenaltyConfig(), PenaltyConfig(lambda1=1e-7, lambda2=1e-5)
        return [
            (sine, fs0),
            (sine, fs2),  # the same dataset object as the job before
            (hinge_dataset(knot=1.7, lo=0.5, hi=3.0), PenaltyConfig(alphas=(0.0, 1e-6, 0.0, 1e-8))),
            (smooth, PenaltyConfig(lambda2=1e-8)),  # stops early by its GCV rule
            (wide, fs2),  # more curves than points: another data shape
            (tiny, fs0),  # 6 basis functions on 5 points: every p = 2 candidate fails
            (sine, PenaltyConfig(alphas=(0.0, 0.0, 0.0, 0.0, 1e-3))),  # order 4 cannot carry
        ]

    @pytest.mark.parametrize("fixed_p", [False, True], ids=["gcv-rule", "fixed-p"])
    def test_each_job_matches_its_search_alone(self, fixed_p):
        search = KnotSearchConfig(order=4, max_knots=5, grid_size=20, fixed_p=fixed_p)
        jobs = self.jobs()
        alone = [search_or_error(ds, config, search) for ds, config in jobs]
        together = freeknot.add_knots_lockstep([ds for ds, _ in jobs], [c for _, c in jobs], search)
        for got, want in zip(together, alone):
            assert_same_search(got, want)
        # the jobs differ in domain, and some leave the lockstep early
        assert len({ds.domain for ds, _ in jobs}) == 4
        assert type(alone[5]) is AllCandidatesSingularError
        assert type(alone[6]).__name__ == "DerivativeOrderTooHighError"
        rounds = [len(r.stages) for r in alone[:5]]
        assert len(set(rounds)) > 1 if not fixed_p else set(rounds) == {6}
        assert alone[3].stopped_early is not fixed_p

    def test_a_knot_free_stage_that_cannot_be_fitted_fails_as_its_fit(self):
        # round 0 ends a job with the error fit_coefficients raises on its
        # knot-free basis: a penalty order the splines cannot carry, or the
        # singular system of 4 unpenalized cubics on 3 points
        t = np.linspace(0.0, 1.0, 3)
        three, sine = FunctionalDataset(t=t, values=np.column_stack([t, t * t])), noisy_sine_dataset()
        jobs = [(sine, PenaltyConfig(alphas=(0.0, 0.0, 0.0, 0.0, 1e-3))),
                (three, PenaltyConfig()), (sine, PenaltyConfig())]
        search = KnotSearchConfig(order=4, max_knots=2, grid_size=10, fixed_p=True)
        got = freeknot.add_knots_lockstep([ds for ds, _ in jobs], [c for _, c in jobs], search)
        kinds = []
        for (ds, config), result in zip(jobs, got[:2]):
            with pytest.raises(FkSplineError) as want:
                fit_coefficients(ds, make_basis_spec(*ds.domain, 4), config)
            assert (type(result), str(result)) == (type(want.value), str(want.value))
            with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                add_knots_gradually(ds, config, search)
            kinds.append(type(result).__name__)
        assert kinds == ["DerivativeOrderTooHighError", "NotPositiveDefiniteError"]
        assert [stage.p for stage in got[2].stages] == [0, 1, 2]

    def test_one_job_is_add_knots_gradually(self, monkeypatch):
        calls = []
        lockstep = freeknot.add_knots_lockstep

        def recording(datasets, configs, search):
            calls.append(len(datasets))
            return lockstep(datasets, configs, search)

        monkeypatch.setattr(freeknot, "add_knots_lockstep", recording)
        search = KnotSearchConfig(order=4, max_knots=2, grid_size=10, fixed_p=True)
        fit_free_knot(noisy_sine_dataset(), PenaltyConfig(), search)
        assert calls == [1]

    def test_rounds_share_one_scan_and_one_refine_batch(self, monkeypatch):
        scans, batches = [], []
        scan_, refine = freeknot._scan, freeknot.refine_fits

        def counting_scan(parents, *args):
            scans.append(len(parents))
            return scan_(parents, *args)

        def counting_refine(starts, *args):
            batches.append(len(starts))
            return refine(starts, *args)

        monkeypatch.setattr(freeknot, "_scan", counting_scan)
        monkeypatch.setattr(freeknot, "refine_fits", counting_refine)
        search = KnotSearchConfig(order=4, max_knots=3, grid_size=10, fixed_p=True)
        datasets = [noisy_sine_dataset(seed=s) for s in range(3)]
        freeknot.add_knots_lockstep(datasets, [PenaltyConfig()] * 3, search)
        # round 0 fits every knot-free stage as one batch, without a scan
        assert scans == [3, 3, 3]
        assert batches == [3, 3, 3, 3]

    def test_each_search_builds_one_job_table(self, monkeypatch):
        # the jobs' setup (_Jobs) is built once per search; no scan,
        # descent or stack builds a table of its own
        tables = []

        class Counting(freeknot._Jobs):
            def __init__(self, datasets, *args):
                tables.append(len(datasets))
                super().__init__(datasets, *args)

        monkeypatch.setattr(freeknot, "_Jobs", Counting)
        monkeypatch.setattr(lambda_select, "_Jobs", Counting, raising=False)
        search = KnotSearchConfig(order=4, max_knots=3, grid_size=10, fixed_p=True)
        datasets = [noisy_sine_dataset(seed=s) for s in range(3)]
        results = freeknot.add_knots_lockstep(datasets, [PenaltyConfig(lambda2=1e-5)] * 3, search)
        assert [len(result.stages) for result in results] == [4, 4, 4]
        assert tables == [3]
        refined = gauss_newton_refine(jupp(np.array([0.2, 0.45, 0.8]), 0.0, 1.0), datasets[0],
                                      PenaltyConfig(lambda2=1e-5), search)
        assert refined.iterations > 1
        assert tables == [3, 1]
        gcv_grid_search(datasets[0], grid=LambdaGrid.from_exponents([-6, -4]), search=search,
                        mode="free")
        # the zero-penalty search of the warm starts, then one job per cell
        assert tables == [3, 1, 1, 4]

    def test_stacks_yield_each_group_in_row_order(self):
        # rows of two lengths, two of which cannot be fitted: the ratios
        # (800, 0) and (800,) put a knot on the domain's end
        rows = [np.array([0.1, -0.2]), np.array([0.3]), np.array([800.0, 0.0]),
                np.array([800.0]), np.array([0.0, 0.4]), np.array([-0.5])]
        jobs = one_job(noisy_sine_dataset(), PenaltyConfig(lambda2=1e-5), 4)
        got = list(freeknot._fits(rows, jobs, np.zeros(len(rows), dtype=int)))
        assert [c for c, *_ in got] == [0, 2, 4, 1, 3, 5]
        assert [(c, why) for c, why, _ in got if why] == [(2, "knots cannot be fitted"),
                                                          (3, "knots cannot be fitted")]
        assert all(fit is not None for _, why, fit in got if not why)
