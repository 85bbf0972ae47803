"""Integrated squared-error metrics against analytic values."""

from __future__ import annotations

import numpy as np
import pytest

from fkspline import (
    ConfigError,
    EmptyIntervalError,
    FunctionalDataset,
    PenaltyConfig,
    TailRegions,
    fit_coefficients,
    integrated_sse,
    local_isse,
    make_basis_spec,
    model_isse,
)


def as_family(fn):
    """Lift a scalar function of t to a one-curve family evaluator."""
    return lambda t: np.asarray(fn(np.asarray(t)))[:, None]


class TestTailRegions:
    def test_fraction_windows(self):
        tails = TailRegions.fraction(0.0, 5.0, 0.1)
        assert tails.lower == (0.0, 0.5)
        assert tails.upper == (4.5, 5.0)

    def test_invalid_fraction(self):
        for frac in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(EmptyIntervalError):
                TailRegions.fraction(0.0, 1.0, frac)

    def test_overlapping_tails_rejected(self):
        with pytest.raises(EmptyIntervalError):
            TailRegions(lower=(0.0, 0.6), upper=(0.5, 1.0))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(EmptyIntervalError):
            TailRegions(lower=(0.3, 0.3), upper=(0.5, 1.0))

    @pytest.mark.parametrize("make", [
        lambda: TailRegions(None, (1, 2)),
        lambda: TailRegions((0, "a"), (3, 4)),
        lambda: TailRegions((0, 1), (3, np.inf)),
        lambda: TailRegions((0, 1, 2), (3, 4)),
        lambda: TailRegions.fraction(0, 1, None),
        lambda: TailRegions.fraction(None, 1, 0.1),
        lambda: TailRegions.fraction(0, 1, np.nan),
    ], ids=["none", "string-end", "infinite-end", "three-ends", "none-fraction",
            "none-domain-end", "nan-fraction"])
    def test_non_numeric_fields_are_typed_errors(self, make):
        with pytest.raises(EmptyIntervalError):
            make()

    def test_ends_are_stored_as_floats(self):
        tails = TailRegions([np.float64(0), 1], (np.int64(3), 4))
        assert tails.lower == (0.0, 1.0) and tails.upper == (3.0, 4.0)
        assert all(type(end) is float for end in tails.lower + tails.upper)


class TestIntegratedSse:
    def test_zero_when_fitted_equals_truth(self):
        f = as_family(lambda t: np.sin(t))
        assert integrated_sse(f, f, (0.0, 5.0)) == pytest.approx(0.0, abs=1e-14)

    def test_constant_offset_has_analytic_value(self):
        truth = as_family(lambda t: np.sin(t))
        for delta in (0.5, 2.0):
            fitted = as_family(lambda t, d=delta: np.sin(t) + d)
            val = integrated_sse(truth, fitted, (0.0, 5.0))
            assert val == pytest.approx(5.0 * delta**2, rel=1e-12)

    def test_family_errors_are_summed(self):
        truth = lambda t: np.zeros((np.asarray(t).size, 3))
        fitted = lambda t: np.column_stack(
            [np.full(np.asarray(t).size, d) for d in (1.0, 2.0, 3.0)]
        )
        val = integrated_sse(truth, fitted, (0.0, 2.0))
        assert val == pytest.approx(2.0 * (1 + 4 + 9), rel=1e-12)

    def test_additive_over_subintervals(self):
        truth = as_family(np.cos)
        fitted = as_family(lambda t: np.cos(t) + 0.3 * t)
        whole = integrated_sse(truth, fitted, (0.0, 4.0))
        parts = integrated_sse(truth, fitted, (0.0, 1.3)) + integrated_sse(
            truth, fitted, (1.3, 4.0)
        )
        assert whole == pytest.approx(parts, rel=1e-10)

    def test_residual_scaling_is_quadratic(self):
        truth = as_family(lambda t: 0.0 * t)
        base = as_family(lambda t: np.sin(2 * t) + 0.2)
        scaled = as_family(lambda t: 3.0 * (np.sin(2 * t) + 0.2))
        v1 = integrated_sse(truth, base, (0.0, 3.0))
        v9 = integrated_sse(truth, scaled, (0.0, 3.0))
        assert v9 == pytest.approx(9.0 * v1, rel=1e-12)

    def test_breakpoints_make_piecewise_integrand_exact(self):
        # A kinked residual is polynomial on each side of the kink; with the
        # kink supplied as a breakpoint the quadrature is exact.
        truth = as_family(lambda t: 0.0 * t)
        fitted = as_family(lambda t: np.abs(t - 0.4))
        val = integrated_sse(truth, fitted, (0.0, 1.0), breakpoints=(0.4,))
        exact = 0.4**3 / 3 + 0.6**3 / 3
        assert val == pytest.approx(exact, rel=1e-13)

    def test_empty_interval_rejected(self):
        f = as_family(np.sin)
        with pytest.raises(EmptyIntervalError):
            integrated_sse(f, f, (1.0, 1.0))
        with pytest.raises(EmptyIntervalError):
            integrated_sse(f, f, (2.0, 1.0))

    def test_too_few_quadrature_points_rejected(self):
        f = as_family(np.sin)
        with pytest.raises(EmptyIntervalError):
            integrated_sse(f, f, (0.0, 1.0), quad_points=8)

    @pytest.mark.parametrize("truth, fitted, interval, error", [
        (None, None, None, EmptyIntervalError),
        (np.sin, np.sin, (0.0, None), EmptyIntervalError),
        (np.sin, np.sin, (0.0, np.nan), EmptyIntervalError),
        (np.sin, np.sin, (0.0, 1.0, 2.0), EmptyIntervalError),
        (None, np.sin, (0.0, 1.0), ConfigError),
        (np.sin, "sin", (0.0, 1.0), ConfigError),
    ], ids=["none", "none-end", "nan-end", "three-ends", "none-truth", "text-fitted"])
    def test_bad_arguments_are_typed_errors(self, truth, fitted, interval, error):
        with pytest.raises(error):
            integrated_sse(truth, fitted, interval)

    def test_quadrature_point_count_must_be_an_integer(self):
        f = as_family(np.sin)
        for quad_points in (float("nan"), 100.5, None):
            with pytest.raises(EmptyIntervalError, match="quad_points must be an integer >= 16"):
                integrated_sse(f, f, (0.0, 1.0), quad_points=quad_points)


class TestLocalIsse:
    def test_offset_confined_to_upper_tail(self):
        truth = as_family(lambda t: 0.0 * t)
        delta, lo, hi = 0.7, 4.5, 5.0
        fitted = as_family(lambda t: np.where(t >= lo, delta, 0.0))
        tails = TailRegions.fraction(0.0, 5.0, 0.1)
        inf, sup = local_isse(truth, fitted, tails, breakpoints=(lo,))
        assert inf == pytest.approx(0.0, abs=1e-14)
        assert sup == pytest.approx((hi - lo) * delta**2, rel=1e-12)

    def test_tails_bounded_by_full_integral(self):
        truth = as_family(np.sin)
        fitted = as_family(lambda t: np.sin(t) + 0.1 * t**2)
        tails = TailRegions.fraction(0.0, 5.0, 0.1)
        inf, sup = local_isse(truth, fitted, tails)
        total = integrated_sse(truth, fitted, (0.0, 5.0))
        assert inf + sup <= total * (1 + 1e-12)


class TestModelIsse:
    def test_keys_and_tail_handling(self):
        rng = np.random.default_rng(4)
        t = np.linspace(0, 1, 30)
        y = np.sin(3 * t) + 0.05 * rng.standard_normal(30)
        spec = make_basis_spec(0.0, 1.0, 4, [0.5])
        model = fit_coefficients(
            FunctionalDataset(t=t, values=y[:, None]), spec, PenaltyConfig(lambda2=1e-4)
        )
        truth = as_family(lambda s: np.sin(3 * s))
        plain = model_isse(model, truth)
        assert set(plain) == {"isse", "isse_inf", "isse_sup"}
        assert plain["isse"] > 0
        assert plain["isse_inf"] is None and plain["isse_sup"] is None
        tails = TailRegions.fraction(0.0, 1.0, 0.1)
        tailed = model_isse(model, truth, tails=tails)
        assert tailed["isse"] == pytest.approx(plain["isse"], rel=1e-12)
        assert 0 <= tailed["isse_inf"] <= tailed["isse"]
        assert 0 <= tailed["isse_sup"] <= tailed["isse"]
