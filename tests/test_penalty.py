"""Penalty (derivative Gram) matrices against analytic and quadrature oracles."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import BSpline

from fkspline import (
    ConfigError,
    DerivativeOrderTooHighError,
    FunctionalDataset,
    PenaltyConfig,
    assemble_system,
    eval_design,
    eval_spline,
    gram_matrix,
    make_basis_spec,
    penalty_matrix,
)
from fkspline.penalty import penalty_stack
from fkspline.smoother import fit_stack


def quad_penalty_entry(spec, order, i, j):
    """Slow scipy.integrate oracle for one Gram entry of derivative ``order``."""

    def integrand(x):
        row = eval_design(spec, np.array([x]), derivative=order).values[0]
        return row[i] * row[j]

    val, _ = quad(
        integrand, spec.domain[0], spec.domain[1], points=list(spec.span_edges), limit=200
    )
    return val


def per_order_penalty(full_knots, order, l):
    """Reference: the order-l penalty matrices of a stack of bases from their own
    quadrature, order - l Gauss-Legendre nodes per span and the design of
    the l-th derivatives there (scipy's BSpline)."""
    nodes, weights = np.polynomial.legendre.leggauss(order - l)
    C, m = full_knots.shape
    edges = full_knots[:, order - 1 : m - order + 1]
    half = 0.5 * np.diff(edges, axis=1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    pts = (mid[:, :, None] + half[:, :, None] * nodes).reshape(C, -1)
    pts = np.minimum(np.maximum(pts, edges[:, :1]), edges[:, -1:])
    w = (half[:, :, None] * weights).reshape(C, -1)
    design = np.stack([BSpline(full, np.eye(m - order), order - 1).derivative(l)(at)
                       for full, at in zip(full_knots, pts)])
    return design.transpose(0, 2, 1) @ (design * w[:, :, None])


def random_knots(rng, order, C, p):
    """C clamped knot vectors on [0, 2] with p interior knots, one pair of
    them near-coincident."""
    interior = np.sort(rng.uniform(0.0, 2.0, (C, p)), axis=1)
    interior[:, 1] = interior[:, 0] + 1e-6
    interior.sort(axis=1)
    return np.concatenate([np.zeros((C, order)), interior, np.full((C, order), 2.0)], axis=1)


class TestOnePass:
    """penalty_stack builds the matrices of every order asked for in one pass."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_each_order_matches_its_own_quadrature(self, order):
        full = random_knots(np.random.default_rng(order), order, 5, 4)
        for l, R in zip(range(order), penalty_stack(full, order, list(range(order)))):
            ref = per_order_penalty(full, order, l)
            assert np.abs(R - ref).max() <= 1e-12 * np.abs(ref).max(), l

    def test_an_order_is_the_same_whatever_else_is_asked(self):
        order = 4
        full = random_knots(np.random.default_rng(7), order, 4, 3)
        for l in range(order):
            alone = penalty_stack(full, order, [l])[0]
            for orders in ([0, l], [l, 2], list(range(order))[::-1]):
                assert np.array_equal(penalty_stack(full, order, orders)[orders.index(l)], alone)
            for c in range(len(full)):
                row = penalty_stack(full[c : c + 1], order, [1, l])[1]
                assert np.array_equal(row[0], alone[c])

    def test_an_overflowing_span_is_non_finite_and_its_row_refused(self):
        # spans of width 1e-300 overflow the derivative penalties, quietly
        knots = [1e-300, 2e-300, 0.5]
        full = np.concatenate([np.zeros(4), knots, np.ones(4)])[None]
        t = np.linspace(0.0, 1.0, 30)
        dataset = FunctionalDataset(t=t, values=np.sin(3 * t)[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (R2,) = penalty_stack(full, 4, [2])
            assert not np.isfinite(R2).all()
            ((_, why, fit),) = fit_stack(full, 4, [dataset], np.array([[0.0, 1e-7, 1e-5, 0.0]]))
        assert why == "system matrix has non-finite entries" and fit is None


class TestAnalyticCases:
    def test_linear_hats_order0_and_order1(self):
        # Order-2 basis on [0, 1]: N_1 = 1 - t, N_2 = t.
        # R0 = [[1/3, 1/6], [1/6, 1/3]]; derivatives are (-1, 1) so
        # R1 = [[1, -1], [-1, 1]].
        spec = make_basis_spec(0.0, 1.0, 2, [])
        r0 = penalty_matrix(spec, 0).values
        r1 = penalty_matrix(spec, 1).values
        assert np.abs(r0 - np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])).max() < 1e-10
        assert np.abs(r1 - np.array([[1.0, -1.0], [-1.0, 1.0]])).max() < 1e-10

    def test_cubic_bernstein_curvature_corner(self):
        # Order-4, no interior knots on [0, 1]: N_1'' = 6(1 - t), so
        # the (0, 0) entry of R2 is int_0^1 36 (1-t)^2 dt = 12.
        spec = make_basis_spec(0.0, 1.0, 4, [])
        r2 = penalty_matrix(spec, 2).values
        assert r2[0, 0] == pytest.approx(12.0, abs=1e-10)

    def test_quadrature_refinement_is_stable(self):
        spec = make_basis_spec(0.0, 1.0, 2, [])
        for order in (0, 1):
            base = penalty_matrix(spec, order).values
            refined = penalty_matrix(spec, order, quad_points=spec.order - order + 6).values
            assert np.abs(base - refined).max() <= 1e-12


class TestQuadratureOracle:
    def test_entries_match_adaptive_quadrature(self):
        spec = make_basis_spec(0.0, 2.0, 4, [0.6, 1.1, 1.7])
        for order in (0, 1, 2):
            mat = penalty_matrix(spec, order).values
            for i, j in [(0, 0), (2, 3), (3, 3), (1, 4), (5, 6)]:
                ref = quad_penalty_entry(spec, order, i, j)
                assert mat[i, j] == pytest.approx(ref, abs=1e-8 + 1e-8 * abs(ref))

    def test_gram_matrix_is_order_zero_penalty(self):
        spec = make_basis_spec(0.0, 1.0, 4, [0.5])
        assert np.array_equal(gram_matrix(spec).values, penalty_matrix(spec, 0).values)


class TestStructure:
    @pytest.fixture()
    def spec(self):
        return make_basis_spec(0.0, 5.0, 4, [1.0, 2.0, 3.0, 4.0])

    def test_symmetric(self, spec):
        for order in (0, 1, 2):
            m = penalty_matrix(spec, order).values
            assert np.array_equal(m, m.T)

    def test_positive_semidefinite(self, spec):
        for order in (0, 1, 2):
            eigs = np.linalg.eigvalsh(penalty_matrix(spec, order).values)
            assert eigs.min() > -1e-10

    def test_banded_with_basis_overlap_width(self, spec):
        for order in (0, 1, 2):
            m = penalty_matrix(spec, order).values
            n = m.shape[0]
            for i in range(n):
                for j in range(n):
                    if abs(i - j) >= spec.order:
                        assert m[i, j] == 0.0

    def test_constant_in_null_space_of_derivative_penalties(self, spec):
        ones = np.ones(spec.n_basis)  # partition of unity -> constant curve
        for order in (1, 2):
            m = penalty_matrix(spec, order).values
            assert np.abs(m @ ones).max() < 1e-10

    def test_linear_in_null_space_of_curvature_penalty(self, spec):
        full = np.asarray(spec.full_knots)
        greville = np.array(
            [full[k + 1 : k + spec.order].mean() for k in range(spec.n_basis)]
        )
        r2 = penalty_matrix(spec, 2).values
        assert np.abs(r2 @ greville).max() < 1e-10
        # sanity: those coefficients really represent x(t) = t
        t = np.linspace(0, 5, 40)
        assert np.abs(eval_spline(spec, greville, t) - t).max() < 1e-10

    def test_quadratic_form_equals_integrated_squared_derivative(self, spec):
        rng = np.random.default_rng(2)
        c = rng.standard_normal(spec.n_basis)
        for order in (0, 1, 2):
            m = penalty_matrix(spec, order).values
            ref, _ = quad(
                lambda x: eval_spline(spec, c, np.array([x]), derivative=order)[0] ** 2,
                0.0,
                5.0,
                points=list(spec.span_edges),
                limit=200,
            )
            assert c @ m @ c == pytest.approx(ref, rel=1e-8)

    def test_derivative_order_bound(self, spec):
        with pytest.raises(DerivativeOrderTooHighError):
            penalty_matrix(spec, 4)

    def test_fractional_order_and_node_count_raise(self, spec):
        # neither is truncated: order 1.5 is not order 1, 2.5 nodes not 2
        for order in (1.5, -1, float("nan")):
            with pytest.raises(DerivativeOrderTooHighError):
                penalty_matrix(spec, order)
        for nodes in (2.5, 0, float("inf")):
            with pytest.raises(ConfigError, match="quad_points must be an integer >= 1"):
                penalty_matrix(spec, 1, quad_points=nodes)
        assert np.array_equal(penalty_matrix(spec, 2.0, quad_points=5.0).values,
                              penalty_matrix(spec, 2, quad_points=5).values)


class TestCombine:
    """Weighted combination of penalty matrices in the system matrix H."""

    @staticmethod
    def system(spec, config):
        design = eval_design(spec, np.linspace(0.0, 1.0, 30))
        return assemble_system(design, config)

    def test_weighted_sum(self):
        spec = make_basis_spec(0.0, 1.0, 4, [0.5])
        mats = [penalty_matrix(spec, order).values for order in (1, 2)]
        system = self.system(spec, PenaltyConfig(lambda1=2.0, lambda2=3.0))
        expected = system.btb + 2.0 * mats[0] + 3.0 * mats[1]
        assert np.array_equal(system.values, expected)

    def test_zero_weights_give_zero_matrix(self):
        spec = make_basis_spec(0.0, 1.0, 4, [])
        system = self.system(spec, PenaltyConfig())
        assert np.array_equal(system.values, system.btb)
        assert system.penalty_terms == ()

    def test_general_weight_vector(self):
        spec = make_basis_spec(0.0, 1.0, 4, [0.5])
        mats = [penalty_matrix(spec, order).values for order in (0, 1, 2)]
        system = self.system(spec, PenaltyConfig(alphas=(1.0, 2.0, 3.0)))
        expected = system.btb + 1.0 * mats[0] + 2.0 * mats[1] + 3.0 * mats[2]
        assert np.array_equal(system.values, expected)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            PenaltyConfig(lambda1=-1.0)
        with pytest.raises(ConfigError):
            PenaltyConfig(alphas=(1.0, -2.0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                PenaltyConfig(lambda2=bad)
            with pytest.raises(ConfigError):
                PenaltyConfig(alphas=(0.0, bad))

    @pytest.mark.parametrize("kwargs, message", [
        ({"lambda1": None}, "lambda1 must be a finite number in [0.0, inf], got None"),
        ({"alphas": "ab"}, "alphas[0] must be a finite number in [0.0, inf], got 'a'"),
    ], ids=["lambda1-None", "alphas-string"])
    def test_non_numeric_weights_are_config_errors(self, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            PenaltyConfig(**kwargs)
        assert str(exc.value) == message

    def test_weights_are_stored_as_floats(self):
        config = PenaltyConfig(lambda1=np.float64(1e-7), lambda2=1, alphas=[0, 1e-5])
        assert (config.lambda1, config.lambda2, config.alphas) == (1e-7, 1.0, (0.0, 1e-5))
        assert all(type(w) is float for w in (config.lambda1, config.lambda2, *config.alphas))
