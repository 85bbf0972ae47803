"""Penalized least-squares smoother: closed-form cases, limits, diagnostics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fkspline import (
    ConfigError,
    FunctionalDataset,
    NotPositiveDefiniteError,
    PenaltyConfig,
    assemble_system,
    eval_design,
    eval_spline,
    fit_coefficients,
    make_basis_spec,
    penalty_matrix,
    variant_config,
)
from fkspline import penalty, smoother
from fkspline.smoother import fit_stack, penalty_weights


def penalized_objective(dataset, spec, config, coeffs):
    """Direct evaluation of the quantity the smoother minimizes."""
    design = eval_design(spec, dataset.t).values
    resid = dataset.values - design @ coeffs
    total = float(np.sum(resid**2))
    for order, lam in enumerate(penalty_weights(config, spec.order)):
        if lam:
            m = penalty_matrix(spec, order).values
            total += lam * float(np.trace(coeffs.T @ m @ coeffs))
    return total


class TestFitStack:
    """One stacked evaluator: a penalty config per row, shared knot vectors built once."""

    @staticmethod
    def rows():
        specs = [make_basis_spec(0.0, 1.0, 4, k) for k in ([0.3, 0.6], [0.2, 0.5])]
        configs = [PenaltyConfig(), PenaltyConfig(lambda1=1e-3, lambda2=1e-2),
                   PenaltyConfig(alphas=(1e-4, 0.0, 1e-3))]
        return [(spec, config) for config in configs for spec in specs]

    # ids: the chunk size, then the rows per block where a block is smaller
    # than the chunk
    @pytest.mark.parametrize("chunk, block", [(256, None), (2, None), (256, 2), (256, 3),
                                              (2, 2), (3, 3), (3, 2), (2, 3)],
                             ids=["256", "2", "256-2", "256-3", "2-2", "3-3", "3-2", "2-3"])
    def test_rows_are_the_fits_of_their_own_config(self, monkeypatch, chunk, block):
        monkeypatch.setattr(smoother, "_CHUNK", chunk)
        if block:
            # a row holds 6 basis functions x 2 curves of coefficients
            monkeypatch.setattr(smoother, "_BLOCK_VALUES", block * 6 * 2)
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 1.0, 25)
        y = np.sin(np.outer(t, [2.0, 5.0])) + 0.1 * rng.standard_normal((25, 2))
        ds = FunctionalDataset(t=t, values=y)
        rows = self.rows()
        # unpenalized knots past the last sample point but one leave a basis
        # function without data: refused, the middle row of a block of 3 and
        # the first of a block of 2
        rows.insert(4, (make_basis_spec(0.0, 1.0, 4, [0.97, 0.99]), PenaltyConfig()))
        knots = np.array([spec._full_arr for spec, _ in rows])
        weights = np.array([penalty_weights(config, 4) for _, config in rows])
        solve, solves = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
        out = list(fit_stack(knots, 4, [ds], weights, full=True))
        monkeypatch.setattr(np.linalg, "solve", solve)
        # two stacked solves (coefficients, influence) per block of each chunk
        per_block = block or chunk
        assert len(solves) == 2 * sum(-(-min(chunk, len(knots) - first) // per_block)
                                      for first in range(0, len(knots), chunk))
        assert [c for c, _, _ in out] == list(range(len(rows)))
        for (_, why, fit), (spec, config) in zip(out, rows):
            try:
                ref = fit_coefficients(ds, spec, config)
            except NotPositiveDefiniteError as exc:
                assert (why, fit) == (str(exc), None)
                continue
            assert why == ""
            assert np.array_equal(fit[0], ref.coeffs)
            for field in dataclasses.fields(ref.diagnostics):
                assert np.array_equal(getattr(fit[1], field.name),
                                      getattr(ref.diagnostics, field.name)), field.name
        assert sum(fit is None for _, _, fit in out) == 1
        for (_, why, fit), (spec, config) in zip(fit_stack(knots, 4, [ds], weights), rows):
            if why:
                assert fit is None
            else:
                residual, H = fit
                ref = fit_coefficients(ds, spec, config).diagnostics.residuals
                assert np.array_equal(residual, ref)
                assert np.array_equal(H, assemble_system(eval_design(spec, t), config).values)

    def test_rows_of_several_datasets_are_the_fits_on_their_own(self, monkeypatch):
        monkeypatch.setattr(smoother, "_CHUNK", 5)  # chunks that mix datasets
        rng = np.random.default_rng(3)
        uneven = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 23)), [1.0]])
        datasets = [FunctionalDataset(t=t, values=rng.standard_normal((t.size, n)))
                    for t, n in [(np.linspace(0.0, 1.0, 25), 2), (uneven, 2),
                                 (np.linspace(0.0, 1.0, 25), 2), (np.linspace(-1.0, 2.0, 25), 2)]]
        # datasets 0 and 1 share a domain and get the same knot vectors, which
        # must not share a design; so do datasets 0 and 2, on other data
        which = [0, 1, 2, 3, 0, 1, 3, 2, 0, 1, 1, 0]
        rows = []
        for i, d in enumerate(which):
            lo, hi = datasets[d].domain
            knots = lo + (hi - lo) * np.array([0.3, 0.6] if i % 3 else [0.2, 0.5, 0.7])
            rows.append((make_basis_spec(lo, hi, 4, knots), self.rows()[i % 6][1]))
        weights = np.array([penalty_weights(config, 4) for _, config in rows])
        for size in (3, 2):
            group = [i for i, (spec, _) in enumerate(rows) if spec.n_basis == size + 4]
            knots = np.array([rows[i][0]._full_arr for i in group])
            for full in (False, True):
                out = list(fit_stack(knots, 4, datasets, weights[group], full=full,
                                     which=np.array(which)[group]))
                assert [c for c, _, _ in out] == list(range(len(group)))
                for c, why, fit in out:
                    i = group[c]
                    [(_, ref_why, ref)] = fit_stack(knots[c:c + 1], 4, [datasets[which[i]]],
                                                    weights[i:i + 1], full=full)
                    assert why == ref_why == ""
                    if full:
                        assert np.array_equal(fit[0], ref[0])
                        for field in dataclasses.fields(ref[1]):
                            assert np.array_equal(getattr(fit[1], field.name),
                                                  getattr(ref[1], field.name)), field.name
                    else:  # the residual and the system
                        assert all(np.array_equal(got, want) for got, want in zip(fit, ref))

    @pytest.mark.parametrize("chunk", [256, 2])
    def test_rows_given_their_systems_are_the_assembled_fits(self, monkeypatch, chunk):
        # systems built by a reduced stack and handed back to a full one:
        # every row, repeated knot vectors included, is the fit the full
        # stack assembles, bit for bit, and nothing is assembled again
        monkeypatch.setattr(smoother, "_CHUNK", chunk)
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 1.0, 25)
        ds = FunctionalDataset(t=t, values=rng.standard_normal((25, 3)))
        rows = self.rows() + self.rows()[:2]
        knots = np.array([spec._full_arr for spec, _ in rows])
        weights = np.array([penalty_weights(config, 4) for _, config in rows])
        H = np.array([fit[1] for _, _, fit in fit_stack(knots, 4, [ds], weights)])
        want = list(fit_stack(knots, 4, [ds], weights, full=True))
        assemble, assembled = smoother._assemble, []
        monkeypatch.setattr(smoother, "_assemble",
                            lambda *args: assembled.append(args) or assemble(*args))
        got = list(fit_stack(knots, 4, [ds], weights, full=True, systems=H))
        assert assembled == []
        assert [(c, why) for c, why, _ in got] == [(c, "") for c in range(len(rows))]
        for (_, _, fit), (_, _, ref) in zip(got, want):
            assert fit[0].tobytes() == ref[0].tobytes()
            for field in dataclasses.fields(ref[1]):
                assert np.array_equal(getattr(fit[1], field.name),
                                      getattr(ref[1], field.name)), field.name
            assert all(np.array_equal(a, b) for a, b in zip(fit[2], ref[2]))

    def test_zero_weight_leaves_an_overflowed_penalty_out(self, monkeypatch):
        # 0 * inf is nan: a row that does not weight an order must not get
        # its matrix, even when another row on the same knots does
        stack = smoother.penalty_stack

        def overflowing(full_knots, order, orders, *args):
            values = stack(full_knots, order, orders, *args)
            return [np.full_like(R, np.inf) if l == 1 else R for l, R in zip(orders, values)]

        monkeypatch.setattr(smoother, "penalty_stack", overflowing)
        t = np.linspace(0.0, 1.0, 20)
        ds = FunctionalDataset(t=t, values=np.sin(3 * t)[:, None])
        spec = make_basis_spec(0.0, 1.0, 4, [0.5])
        knots = np.repeat(spec._full_arr[None], 2, axis=0)
        weights = np.array([[0.0, 0.0, 1e-3, 0.0], [0.0, 1e-3, 1e-3, 0.0]])
        out = [why for _, why, _ in fit_stack(knots, 4, [ds], weights)]
        assert out == ["", "system matrix has non-finite entries"]


    @pytest.mark.parametrize("chunk", [256, 2])
    def test_one_penalty_pass_per_chunk(self, monkeypatch, chunk):
        # fs2 weights two orders; both matrices of a chunk come from one
        # penalty_stack call and one derivative_stack pass
        monkeypatch.setattr(smoother, "_CHUNK", chunk)
        calls = {"penalty_stack": [], "derivative_stack": []}

        def counting(module, name):
            inner = getattr(module, name)

            def call(*args):
                calls[name].append(args)
                return inner(*args)

            monkeypatch.setattr(module, name, call)

        counting(smoother, "penalty_stack")
        counting(penalty, "derivative_stack")
        t = np.linspace(0.0, 1.0, 20)
        ds = FunctionalDataset(t=t, values=np.sin(3 * t)[:, None])
        knots = np.array([make_basis_spec(0.0, 1.0, 4, [k])._full_arr for k in (0.3, 0.5, 0.7)])
        weights = np.repeat(penalty_weights(variant_config("fs2"), 4)[None], 3, axis=0)
        assert [why for _, why, _ in fit_stack(knots, 4, [ds], weights)] == ["", "", ""]
        chunks = -(-len(knots) // chunk)
        assert [args[2] for args in calls["penalty_stack"]] == [[1, 2]] * chunks
        assert len(calls["derivative_stack"]) == chunks


class TestVariantTable:
    def test_named_variants(self):
        assert variant_config("fs0").lambda1 == 0.0
        assert variant_config("fs0").lambda2 == 0.0
        assert variant_config("fs1").lambda1 == 0.0
        assert variant_config("fs1").lambda2 == 1e-5
        assert variant_config("fs2").lambda1 == 1e-7
        assert variant_config("fs2").lambda2 == 1e-5

    def test_overrides(self):
        cfg = variant_config("fs2", lambda2=0.5)
        assert cfg.lambda1 == 1e-7
        assert cfg.lambda2 == 0.5

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            variant_config("fs9")


def reference_refused(H):
    """smoother._refused as it was before it skipped zeroing an all-finite stack."""
    finite = np.isfinite(H).all(axis=(1, 2))
    eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], H, 0.0))
    why = []
    for ok, lo, hi in zip(finite.tolist(), eigs[:, 0].tolist(), eigs[:, -1].tolist()):
        if not ok:
            why.append("system matrix has non-finite entries")
        elif lo <= 0.0:
            why.append("system matrix is not positive definite; add a penalty or drop "
                       "redundant sample points")
        elif hi > 1e10 * lo:
            why.append("system matrix is numerically singular; a basis function has "
                       "little or no data in its support")
        else:
            why.append("")
    return why


class TestSystemMatrix:
    def test_refusals_are_the_reference_reasons(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 6))
        kept = A @ A.T + np.eye(6)
        indefinite = kept - 20.0 * np.eye(6)
        singular = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-11])
        nan, inf = kept.copy(), kept.copy()
        nan[2, 3] = nan[3, 2] = np.nan
        inf[0, 0] = np.inf
        mixed = np.array([kept, nan, indefinite, singular, inf, kept, np.zeros((6, 6))])
        reasons = smoother._refused(mixed)
        assert reasons == reference_refused(mixed)
        assert [why.split(";")[0] for why in reasons] == [
            "", "system matrix has non-finite entries", "system matrix is not positive definite",
            "system matrix is numerically singular", "system matrix has non-finite entries", "",
            "system matrix is not positive definite"]
        finite = mixed[[0, 2, 3, 5]]  # every matrix finite: nothing is zeroed
        assert smoother._refused(finite) == reference_refused(finite)

    def test_identity_design_plus_first_difference_penalty(self):
        # Two linear hats sampled at t = 0 and t = 1 give the identity
        # design; adding the hat roughness matrix with weight 1 yields
        # [[2, -1], [-1, 2]], whose eigenvalues are 1 and 3.
        spec = make_basis_spec(0.0, 1.0, 2, [])
        ds = FunctionalDataset(t=np.array([0.0, 1.0]), values=np.zeros((2, 1)))
        design = eval_design(spec, ds.t)
        system = assemble_system(design, PenaltyConfig(lambda1=1.0))
        assert np.abs(system.values - np.array([[2.0, -1.0], [-1.0, 2.0]])).max() < 1e-12
        lo, hi = system.eigen_bounds
        eigs = np.linalg.eigvalsh(system.values)
        assert lo <= eigs.min() + 1e-10
        assert eigs.max() <= hi + 1e-10
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(3.0, abs=1e-10)

    def test_eigen_bounds_bracket_spectrum(self):
        rng = np.random.default_rng(7)
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.7])
        t = np.sort(rng.uniform(0, 1, 40))
        design = eval_design(spec, t)
        system = assemble_system(design, PenaltyConfig(lambda1=0.3, lambda2=2.0))
        lo, hi = system.eigen_bounds
        eigs = np.linalg.eigvalsh(system.values)
        assert lo <= eigs.min() + 1e-10 * abs(hi)
        assert eigs.max() <= hi * (1 + 1e-12)

    def test_penalties_overflowing_to_opposite_infinities_refused_quietly(self):
        # On a domain this narrow the order-1 and order-2 penalties overflow
        # to infinities of opposite signs in one entry; their sum is nan,
        # which the refusal rule rejects without a numpy warning (an error
        # under this suite's warning filter).
        t = 1e-120 * np.linspace(0.0, 2.0, 8)
        ds = FunctionalDataset(t=t, values=np.sin(np.outer(1e120 * t, [1.0, 2.0])))
        spec = make_basis_spec(0.0, 2e-120, 4, [4e-121, 1e-120])
        config = PenaltyConfig(alphas=(0.0, 1e-4, 1e-3, 1e-6))
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            fit_coefficients(ds, spec, config)
        [(_, why, fit)] = fit_stack(spec._full_arr[None, :], 4, [ds],
                                    penalty_weights(config, 4)[None])
        assert "non-finite" in why and fit is None

    def test_rank_deficient_unpenalized_system_rejected(self):
        # Fewer distinct points than basis functions, no penalty.
        spec = make_basis_spec(0.0, 1.0, 4, [0.5])
        t = np.array([0.0, 0.5, 1.0])
        ds = FunctionalDataset(t=t, values=np.zeros((3, 1)))
        with pytest.raises(NotPositiveDefiniteError):
            fit_coefficients(ds, spec, PenaltyConfig())

    def test_basis_with_empty_data_support_rejected(self):
        # Knots packed inside a data gap leave a basis function with no
        # samples in its support: numerically singular even at lambda = 0.
        t = np.concatenate([np.linspace(0, 0.3, 8), np.linspace(0.7, 1, 8)])
        ds = FunctionalDataset(t=t, values=np.sin(t)[:, None])
        spec = make_basis_spec(0.0, 1.0, 4, [0.42, 0.46, 0.5, 0.54, 0.58])
        with pytest.raises(NotPositiveDefiniteError):
            fit_coefficients(ds, spec, PenaltyConfig())


class TestFitting:
    @pytest.fixture()
    def noisy(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0, 1, 30)
        y = np.sin(3 * t) + 0.1 * rng.standard_normal(30)
        return FunctionalDataset(t=t, values=y[:, None])

    def test_unpenalized_fit_equals_least_squares(self, noisy):
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.6])
        model = fit_coefficients(noisy, spec, PenaltyConfig())
        design = eval_design(spec, noisy.t).values
        ref, *_ = np.linalg.lstsq(design, noisy.values, rcond=None)
        assert np.abs(model.coeffs - ref).max() < 1e-8
        assert model.diagnostics.df == pytest.approx(spec.n_basis, abs=1e-8)

    def test_interpolation_at_square_system(self):
        # As many samples as basis functions and lambda = 0: the fit
        # interpolates and the gcv denominator degenerates.
        spec = make_basis_spec(0.0, 1.0, 4, [0.5])
        rng = np.random.default_rng(1)
        c = rng.standard_normal(spec.n_basis)
        t = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
        y = eval_spline(spec, c, t)
        ds = FunctionalDataset(t=t, values=y[:, None])
        model = fit_coefficients(ds, spec, PenaltyConfig())
        assert np.abs(model.predict(t)[:, 0] - y).max() < 1e-7
        assert model.diagnostics.gcv_degenerate
        assert model.diagnostics.gcv == np.inf

    def test_heavy_curvature_penalty_reaches_straight_line(self, noisy):
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.6])
        model = fit_coefficients(noisy, spec, PenaltyConfig(lambda2=1e6))
        y = noisy.values[:, 0]
        line = np.polyval(np.polyfit(noisy.t, y, 1), noisy.t)
        assert np.abs(model.predict(noisy.t)[:, 0] - line).max() < 1e-5
        assert model.diagnostics.df == pytest.approx(2.0, abs=1e-3)

    def test_df_monotone_in_each_penalty_weight(self, noisy):
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.6])
        for key in ("lambda1", "lambda2"):
            dfs = []
            for lam in np.logspace(-6, 4, 11):
                cfg = PenaltyConfig(**{key: float(lam)})
                dfs.append(fit_coefficients(noisy, spec, cfg).diagnostics.df)
            assert all(b <= a + 1e-10 for a, b in zip(dfs, dfs[1:]))

    def test_reported_diagnostics_are_consistent(self, noisy):
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.6])
        model = fit_coefficients(noisy, spec, PenaltyConfig(lambda1=1e-3, lambda2=1e-2))
        d = model.diagnostics
        resid = noisy.values - model.predict(noisy.t)
        sse = float(np.sum(resid**2))
        h = noisy.t.size
        assert d.sse == pytest.approx(sse, rel=1e-10)
        assert d.per_curve_sse.sum() == pytest.approx(sse, rel=1e-10)
        assert d.gcv == pytest.approx(h * sse / (h - d.df) ** 2, rel=1e-10)
        assert d.sigma2 == pytest.approx(sse / (1 * (h - d.df)), rel=1e-10)
        assert not d.gcv_degenerate
        assert np.array_equal(d.residuals, resid)

    def test_solution_minimizes_the_penalized_objective(self, noisy):
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.6])
        cfg = PenaltyConfig(lambda1=0.01, lambda2=0.1)
        model = fit_coefficients(noisy, spec, cfg)
        best = penalized_objective(noisy, spec, cfg, model.coeffs)
        rng = np.random.default_rng(0)
        for _ in range(20):
            bump = np.zeros_like(model.coeffs)
            bump[rng.integers(model.coeffs.shape[0]), 0] = rng.choice([-1e-4, 1e-4])
            assert penalized_objective(noisy, spec, cfg, model.coeffs + bump) >= best

    def test_multi_curve_fit_matches_per_curve_fits(self):
        rng = np.random.default_rng(9)
        t = np.linspace(0, 1, 25)
        ys = np.column_stack([np.sin(2 * t), np.cos(3 * t)]) + 0.05 * rng.standard_normal((25, 2))
        spec = make_basis_spec(0.0, 1.0, 4, [0.5])
        cfg = PenaltyConfig(lambda2=1e-3)
        joint = fit_coefficients(FunctionalDataset(t=t, values=ys), spec, cfg)
        for j in range(2):
            single = fit_coefficients(
                FunctionalDataset(t=t, values=ys[:, j : j + 1]), spec, cfg
            )
            assert np.abs(joint.coeffs[:, j] - single.coeffs[:, 0]).max() < 1e-10
        assert joint.n_curves == 2

    def test_predict_derivative(self, noisy):
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.6])
        model = fit_coefficients(noisy, spec, PenaltyConfig(lambda2=1e-4))
        tq = np.linspace(0.05, 0.95, 7)
        direct = eval_spline(spec, model.coeffs[:, 0], tq, derivative=1)
        assert np.abs(model.predict(tq, derivative=1)[:, 0] - direct).max() < 1e-12
