"""B-spline basis evaluation against independent references.

The main oracles are (a) closed-form Bernstein polynomials on a knot-free
domain, (b) scipy.interpolate.BSpline evaluated column by column, and
(c) finite differences for derivative consistency.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from fkspline import (
    CoefficientLengthMismatchError,
    ConfigError,
    DerivativeOrderTooHighError,
    KnotOutOfDomainError,
    NonIncreasingKnotsError,
    OrderTooSmallError,
    PointOutOfDomainError,
    eval_design,
    eval_spline,
    make_basis_spec,
)
from fkspline.basis import derivative_stack, design_stack


def design_values(spec, t, derivative=0):
    return eval_design(spec, t, derivative=derivative).values


def scipy_design(spec, t, derivative=0):
    """Independent design-matrix oracle built from scipy's BSpline."""
    n = spec.n_basis
    cols = []
    for j in range(n):
        coef = np.zeros(n)
        coef[j] = 1.0
        f = BSpline(np.asarray(spec.full_knots), coef, spec.order - 1, extrapolate=False)
        if derivative:
            f = f.derivative(derivative)
        cols.append(f(t))
    return np.column_stack(cols)


def scipy_columns(full, order, t, derivative):
    """Every B-spline of knot vector full, differentiated, at points t: (P, nb)
    from scipy's BSpline, which takes each point's span right-closed at the
    last knot."""
    nb = full.size - order
    return BSpline(full, np.eye(nb), order - 1, extrapolate=True).derivative(derivative)(t)


class TestSpecConstruction:
    def test_dimensions_no_interior_knots(self):
        spec = make_basis_spec(0.0, 1.0, 4, [])
        assert spec.n_basis == 4
        assert len(spec.full_knots) == 8
        assert spec.full_knots[:4] == (0.0,) * 4
        assert spec.full_knots[-4:] == (1.0,) * 4

    def test_dimensions_with_interior_knots(self):
        spec = make_basis_spec(0.0, 5.0, 4, [1.0, 2.0, 3.0, 4.0])
        assert spec.n_basis == 8
        assert spec.span_edges == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)

    def test_rejects_duplicate_interior_knots(self):
        with pytest.raises(NonIncreasingKnotsError):
            make_basis_spec(0.0, 1.0, 4, [0.5, 0.5])

    def test_rejects_unsorted_interior_knots(self):
        with pytest.raises(NonIncreasingKnotsError):
            make_basis_spec(0.0, 1.0, 4, [0.7, 0.3])

    def test_rejects_knot_outside_domain(self):
        with pytest.raises(KnotOutOfDomainError):
            make_basis_spec(0.0, 1.0, 4, [1.5])
        with pytest.raises(KnotOutOfDomainError):
            make_basis_spec(0.0, 1.0, 4, [0.0])  # boundary is not interior

    def test_rejects_bad_order_and_domain(self):
        with pytest.raises(ConfigError):
            make_basis_spec(0.0, 1.0, 1, [])
        with pytest.raises(ConfigError):
            make_basis_spec(1.0, 1.0, 4, [])
        with pytest.raises(ConfigError):
            make_basis_spec(2.0, 1.0, 4, [])

    def test_order_must_be_an_integer(self):
        # an integral float is stored as an int; nan, inf, None and
        # fractions are an OrderTooSmallError, the out-of-range error
        spec = make_basis_spec(0.0, 1.0, 4.0, [0.5])
        assert spec == make_basis_spec(0.0, 1.0, 4, [0.5]) and type(spec.order) is int
        for order in (float("nan"), float("inf"), None, 3.5, "4"):
            with pytest.raises(OrderTooSmallError, match="order must be an integer >= 2"):
                make_basis_spec(0.0, 1.0, order, [0.5])


class TestEvaluation:
    def test_bernstein_row(self):
        # Without interior knots, order-4 B-splines are the cubic Bernstein
        # polynomials: B_j(t) = C(3, j) t^j (1-t)^(3-j).
        spec = make_basis_spec(0.0, 1.0, 4, [])
        t = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
        design = design_values(spec, t)
        expected = np.column_stack(
            [math.comb(3, j) * t**j * (1 - t) ** (3 - j) for j in range(4)]
        )
        assert np.abs(design - expected).max() < 1e-14

    @pytest.mark.parametrize("derivative", [0, 1, 2, 3])
    def test_matches_reference_bspline_library(self, derivative):
        rng = np.random.default_rng(11)
        for trial in range(3):
            a, b = sorted(rng.uniform(-2.0, 4.0, 2))
            if b - a < 0.5:
                b = a + 0.5
            interior = np.sort(rng.uniform(a + 0.05 * (b - a), b - 0.05 * (b - a), 4))
            spec = make_basis_spec(a, b, 4, [float(x) for x in interior])
            # strictly interior points: scipy's extrapolate=False yields nan
            # at the right endpoint, which our basis defines by continuity
            t = np.linspace(a + 1e-9, b - 1e-9, 73)
            ours = design_values(spec, t, derivative=derivative)
            ref = scipy_design(spec, t, derivative=derivative)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(ours - ref).max() / scale < 1e-11

    def test_right_endpoint_row_is_defined_and_sums_to_one(self):
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.6])
        row = design_values(spec, np.array([1.0]))[0]
        assert np.isfinite(row).all()
        assert row[-1] == pytest.approx(1.0, abs=1e-14)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        n_knots=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_of_unity(self, n_knots, seed):
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(-3, 3))
        b = a + float(rng.uniform(0.5, 5.0))
        interior = np.sort(rng.uniform(a, b, n_knots))
        # keep knots separated to avoid near-duplicate rejections
        interior = a + (b - a) * (np.arange(1, n_knots + 1) + 0.3 * rng.uniform(-1, 1, n_knots)) / (
            n_knots + 1
        )
        spec = make_basis_spec(a, b, 4, [float(x) for x in np.sort(interior)])
        t = np.linspace(a, b, 57)
        sums = design_values(spec, t).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_rows_are_nonnegative(self):
        spec = make_basis_spec(0.0, 2.0, 4, [0.5, 1.0, 1.5])
        design = design_values(spec, np.linspace(0, 2, 101))
        assert design.min() >= -1e-14

    def test_bandwidth_at_most_order(self):
        spec = make_basis_spec(0.0, 1.0, 4, [0.2, 0.4, 0.6, 0.8])
        design = design_values(spec, np.linspace(0, 1, 101))
        for row in design:
            nz = np.nonzero(np.abs(row) > 1e-14)[0]
            assert len(nz) <= spec.order
            if len(nz) > 1:
                assert np.all(np.diff(nz) == 1)  # consecutive support window

    def test_linear_hat_derivative_rows(self):
        # Order 2 on [0, 1] without interior knots: two hat half-functions
        # 1 - t and t, with constant derivatives -1 and 1.
        spec = make_basis_spec(0.0, 1.0, 2, [])
        d0 = design_values(spec, np.array([0.0, 1.0]))
        assert np.abs(d0 - np.eye(2)).max() < 1e-14
        d1 = design_values(spec, np.array([0.0, 0.5, 1.0]), derivative=1)
        assert np.abs(d1 - np.array([[-1.0, 1.0]] * 3)).max() < 1e-13

    def test_derivative_matches_finite_difference(self):
        spec = make_basis_spec(0.0, 1.0, 4, [0.35, 0.7])
        t = np.linspace(0.1, 0.9, 11)
        h = 1e-6
        fd = (design_values(spec, t + h) - design_values(spec, t - h)) / (2 * h)
        exact = design_values(spec, t, derivative=1)
        assert np.abs(fd - exact).max() < 1e-6

    def test_point_outside_domain_raises(self):
        spec = make_basis_spec(0.0, 1.0, 4, [])
        with pytest.raises(PointOutOfDomainError):
            eval_design(spec, np.array([1.001]))
        with pytest.raises(PointOutOfDomainError):
            eval_design(spec, np.array([-0.001]))

    def test_derivative_order_too_high_raises(self):
        spec = make_basis_spec(0.0, 1.0, 4, [])
        with pytest.raises(DerivativeOrderTooHighError):
            eval_design(spec, np.array([0.5]), derivative=4)
        # derivative r-1 is fine (piecewise constant)
        eval_design(spec, np.array([0.5]), derivative=3)

    def test_fractional_derivative_order_raises(self):
        spec = make_basis_spec(0.0, 1.0, 4, [])
        for derivative in (1.5, -1, float("nan"), None):
            with pytest.raises(DerivativeOrderTooHighError):
                eval_design(spec, np.array([0.5]), derivative=derivative)
        assert np.array_equal(eval_design(spec, np.array([0.5]), derivative=2.0).values,
                              eval_design(spec, np.array([0.5]), derivative=2).values)


def reference_design_stack(full_knots, order, t):
    """basis.design_stack as it was before its triangle ran on contiguous
    rows (one column of values per basis function, two gathers per level)."""
    C, m = full_knots.shape
    h = t.shape[1]
    spans = np.count_nonzero(full_knots[:, None, :] <= t[:, :, None], axis=2).ravel() - 1
    spans = np.minimum(np.maximum(spans, order - 1), m - order - 1)
    flat_spans = spans + np.repeat(m * np.arange(C), h)
    knots, x = full_knots.ravel(), t.ravel()
    values = np.empty((x.size, order))
    values[:, 0] = 1.0
    left, right = np.empty((x.size, order)), np.empty((x.size, order))
    for j in range(1, order):
        left[:, j] = x - knots[flat_spans + 1 - j]
        right[:, j] = knots[flat_spans + j] - x
        saved = np.zeros(x.size)
        for i in range(j):
            temp = values[:, i] / (right[:, i + 1] + left[:, j - i])
            values[:, i] = saved + right[:, i + 1] * temp
            saved = left[:, j - i] * temp
        values[:, j] = saved
    dense = np.zeros((C * h, m - order))
    dense[np.arange(C * h)[:, None], spans[:, None] + np.arange(1 - order, 1)] = values
    return dense.reshape(C, h, m - order)


class TestDesignStack:
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_same_values_as_the_reference(self, order):
        # stacks of one and of many rows, points at knots and at both ends
        rng = np.random.default_rng(order)
        inner = np.sort(rng.uniform(0.0, 1.0, (9, 5)), axis=1)
        inner[0] = [0.1, 0.2, 0.3, 0.4, 0.5]
        full = np.concatenate([np.zeros((9, order)), inner, np.ones((9, order))], axis=1)
        t = np.sort(np.concatenate([rng.uniform(0.0, 1.0, (9, 30)), inner,
                                    np.zeros((9, 1)), np.ones((9, 1))], axis=1), axis=1)
        for rows in (slice(0, 1), slice(0, 9)):
            got = design_stack(full[rows], order, t[rows])
            want = reference_design_stack(full[rows], order, t[rows])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestOneBSplinePerRow:
    """derivative_stack on (C, order + 1) knot rows evaluates one B-spline per
    row on its own knots, (C, 1, P) per derivative order: the column of the
    basis that has those knots (scipy's BSpline)."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_the_design_column(self, order):
        rng = np.random.default_rng(order)
        full, column, t = [], [], []
        for _ in range(12):
            a = float(rng.uniform(-2.0, 2.0))
            b = a + float(rng.uniform(0.5, 3.0))
            interior = np.sort(rng.uniform(a, b, int(rng.integers(1, 5))))
            full.append(np.concatenate([np.full(order, a), interior, np.full(order, b)]))
            # every column but the first and the last, whose end knot repeats
            # order times, including columns that reach a clamped end
            column.append(int(rng.integers(1, interior.size + order - 1)))
            t.append(np.concatenate([[a, b], rng.uniform(a, b, 40)]))
        for spline, j, points in zip(full, column, t):
            knots = spline[None, j : j + order + 1]
            for derivative in range(order):
                want = scipy_columns(spline, order, points, derivative)[:, j]
                (got,) = derivative_stack(knots, order, points[None], [derivative])[0][:, 0]
                if derivative:  # the basis's right end takes the left limit
                    want[points == knots[0, -1]] = 0.0
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= 1e-12 * scale

    def test_several_orders_are_the_per_order_calls(self):
        rng = np.random.default_rng(5)
        knots = np.sort(rng.uniform(0.0, 1.0, (6, 5)), axis=1)
        knots[0, :2] = knots[0, 0]  # a repeated first knot
        t = rng.uniform(0.0, 1.0, (6, 20))
        together = derivative_stack(knots, 4, t, [2, 0, 3])
        for derivative, values in zip([2, 0, 3], together):
            assert values.shape == (6, 1, 20)
            assert np.array_equal(values, derivative_stack(knots, 4, t, [derivative])[0])

    def test_rows_are_independent(self):
        knots = np.array([[0.0, 0.2, 0.5, 0.9, 1.0], [1.0, 1.0, 2.0, 3.0, 3.5]])
        t = np.array([np.linspace(0.0, 1.0, 9), np.linspace(1.0, 3.5, 9)])
        (both,) = derivative_stack(knots, 4, t, [1])
        for c in range(2):
            (alone,) = derivative_stack(knots[c : c + 1], 4, t[c : c + 1], [1])
            assert np.array_equal(both[c], alone[0])


class TestDerivativeStack:
    """derivative_stack evaluates every function's derivatives of several
    orders at points whose spans are given: the columns of scipy's BSpline."""

    @staticmethod
    def knots(rng, order):
        """A clamped knot vector with a pair of near-coincident interior knots."""
        a = float(rng.uniform(-2.0, 2.0))
        b = a + float(rng.uniform(0.5, 3.0))
        interior = rng.uniform(a, b, int(rng.integers(2, 6)))
        interior = np.sort(np.append(interior, interior[0] + 1e-7 * (b - a)))
        return np.concatenate([np.full(order, a), interior, np.full(order, b)])

    @staticmethod
    def span_indicator(full, order, t):
        spans = np.clip(np.searchsorted(full, t, side="right") - 1, order - 1,
                        full.size - order - 1)
        return (np.arange(full.size - 1)[:, None] == spans)[None].astype(float)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_the_design_columns(self, order):
        rng = np.random.default_rng(10 + order)
        for _ in range(8):
            full = self.knots(rng, order)
            # the points include both ends, every knot and the narrow span
            near = full[order] + np.array([0.25, 0.5, 0.75]) * (full[order + 1] - full[order])
            t = np.concatenate([full[order - 1 : full.size - order + 1], near,
                                rng.uniform(full[0], full[-1], 40)])
            got = derivative_stack(full[None], order, t[None], list(range(order)),
                                   self.span_indicator(full, order, t))
            for derivative in range(order):
                want = scipy_columns(full, order, t, derivative).T
                scale = np.maximum(np.abs(want).max(axis=0), 1.0)  # per point
                assert np.all(np.abs(got[derivative][0] - want) <= 1e-12 * scale), derivative

    def test_orders_asked_together_are_the_orders_asked_alone(self):
        rng = np.random.default_rng(3)
        order = 5
        fulls = np.array([self.knots(np.random.default_rng(4), order) for _ in range(3)])
        fulls[1:, order:-order] += rng.uniform(-1e-3, 1e-3, (2, fulls.shape[1] - 2 * order))
        fulls[1:, order:-order].sort(axis=1)
        t = rng.uniform(fulls[0, 0], fulls[0, -1], (3, 30))
        first = np.stack([self.span_indicator(full, order, row)[0] for full, row in zip(fulls, t)])
        together = derivative_stack(fulls, order, t, [3, 0, 1], first)
        for l, values in zip([3, 0, 1], together):
            assert np.array_equal(values, derivative_stack(fulls, order, t, [l], first)[0])
            for c in range(3):
                assert np.array_equal(values[c], derivative_stack(
                    fulls[c : c + 1], order, t[c : c + 1], [l], first[c : c + 1])[0][0])


class TestSplineEvaluation:
    def test_constant_and_linear_reproduction(self):
        spec = make_basis_spec(0.0, 1.0, 4, [0.4])
        t = np.linspace(0, 1, 31)
        ones = eval_spline(spec, np.ones(spec.n_basis), t)
        assert np.abs(ones - 1.0).max() < 1e-12
        # Greville abscissae give the coefficients representing x(t) = t
        full = np.asarray(spec.full_knots)
        greville = np.array(
            [full[k + 1 : k + spec.order].mean() for k in range(spec.n_basis)]
        )
        lin = eval_spline(spec, greville, t)
        assert np.abs(lin - t).max() < 1e-12

    def test_coefficient_length_mismatch(self):
        spec = make_basis_spec(0.0, 1.0, 4, [])
        with pytest.raises(CoefficientLengthMismatchError):
            eval_spline(spec, np.ones(5), np.array([0.5]))

    def test_knot_insertion_preserves_curve(self):
        # A spline on knots {0.4} re-expressed on the refined set {0.4, 0.7}
        # must trace the same function: nested spaces.
        rng = np.random.default_rng(5)
        coarse = make_basis_spec(0.0, 1.0, 4, [0.4])
        fine = make_basis_spec(0.0, 1.0, 4, [0.4, 0.7])
        c = rng.standard_normal(coarse.n_basis)
        t_fit = np.linspace(0, 1, 2 * fine.n_basis)
        target = eval_spline(coarse, c, t_fit)
        c_fine, *_ = np.linalg.lstsq(design_values(fine, t_fit), target, rcond=None)
        t_dense = np.linspace(0, 1, 501)
        err = np.abs(
            eval_spline(fine, c_fine, t_dense) - eval_spline(coarse, c, t_dense)
        ).max()
        assert err < 1e-10
