"""Roughness penalty matrices for spline bases.

The order-l penalty matrix has entries given by the inner products of l-th
basis derivatives over the domain.  On each nonempty span the integrand is a
polynomial of degree 2(r - 1 - l), so a Gauss-Legendre rule with r - l nodes
per span integrates it exactly; the assembled matrix is symmetric positive
semidefinite and banded with the basis bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisSpec, eval_design
from .errors import ConfigError, DerivativeOrderTooHighError

__all__ = ["PenaltyMatrix", "PenaltyConfig", "penalty_matrix", "gram_matrix"]


@lru_cache(maxsize=32)
def _gauss_legendre(n_nodes: int):
    return np.polynomial.legendre.leggauss(n_nodes)


@dataclass(frozen=True)
class PenaltyMatrix:
    """Gram matrix of l-th derivatives of the basis functions."""

    order: int  # derivative order l
    values: np.ndarray  # (n_basis, n_basis)
    spec: BasisSpec


@dataclass(frozen=True)
class PenaltyConfig:
    """Weights for the combined roughness penalty.

    lambda1 and lambda2 weight the first- and second-derivative penalties.
    For the general weighted form, alphas maps derivative order l to its
    weight and overrides the two lambdas.
    """

    lambda1: float = 0.0
    lambda2: float = 0.0
    alphas: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("penalty weights must be nonnegative")
        if self.alphas is not None and any(a < 0 for a in self.alphas):
            raise ConfigError("penalty weights must be nonnegative")

    def weight_for(self, derivative_order: int) -> float:
        if self.alphas is not None:
            if derivative_order < len(self.alphas):
                return float(self.alphas[derivative_order])
            return 0.0
        return {1: float(self.lambda1), 2: float(self.lambda2)}.get(derivative_order, 0.0)


def penalty_matrix(spec: BasisSpec, order: int, quad_points: int | None = None) -> PenaltyMatrix:
    """Assemble the order-`order` roughness penalty matrix by exact quadrature.

    quad_points overrides the per-span node count (default r - order, which
    is already exact); passing more nodes must not change the result beyond
    roundoff.
    """
    l = int(order)
    if l < 0 or l >= spec.order:
        raise DerivativeOrderTooHighError(
            f"penalty derivative order must satisfy 0 <= l < {spec.order}, got {order}"
        )
    n_nodes = max(1, spec.order - l) if quad_points is None else int(quad_points)
    if n_nodes < 1:
        raise ConfigError("quadrature needs at least one node per span")
    nodes, weights = _gauss_legendre(n_nodes)
    edges = np.asarray(spec.span_edges)
    half = 0.5 * np.diff(edges)  # (n_spans,)
    mid = 0.5 * (edges[:-1] + edges[1:])
    # All spans evaluated in one design call: points (n_spans * n_nodes,).
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    design = eval_design(spec, pts, derivative=l).values
    values = design.T @ (design * w[:, None])
    values = 0.5 * (values + values.T)
    return PenaltyMatrix(order=l, values=values, spec=spec)


def gram_matrix(spec: BasisSpec) -> PenaltyMatrix:
    """Gram matrix of the basis functions themselves (order-0 penalty)."""
    return penalty_matrix(spec, 0)
