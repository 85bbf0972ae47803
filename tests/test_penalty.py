"""Penalty (derivative Gram) matrices against analytic and quadrature oracles."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from fkspline import (
    ConfigError,
    DerivativeOrderTooHighError,
    PenaltyConfig,
    assemble_system,
    eval_design,
    eval_spline,
    gram_matrix,
    make_basis_spec,
    penalty_matrix,
)


def quad_penalty_entry(spec, order, i, j):
    """Slow scipy.integrate oracle for one Gram entry of derivative ``order``."""

    def integrand(x):
        row = eval_design(spec, np.array([x]), derivative=order).values[0]
        return row[i] * row[j]

    val, _ = quad(
        integrand, spec.domain[0], spec.domain[1], points=list(spec.span_edges), limit=200
    )
    return val


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
