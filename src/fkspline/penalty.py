"""Roughness penalty matrices for spline bases.

The order-l penalty matrix has entries given by the inner products of l-th
basis derivatives over the domain.  On each nonempty span the integrand is a
polynomial of degree 2(r - 1 - l), so a Gauss-Legendre rule with r nodes
per span integrates it exactly for every l, and one pass at those nodes
gives every order; the matrix is symmetric positive semidefinite and
banded with the basis bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisSpec, derivative_stack
from .errors import ConfigError, DerivativeOrderTooHighError, as_instance, as_integer, as_real

__all__ = ["PenaltyMatrix", "PenaltyConfig", "penalty_matrix", "gram_matrix"]


@lru_cache(maxsize=32)
def _gauss_legendre(n_nodes: int):
    return np.polynomial.legendre.leggauss(n_nodes)


def _panel_rule(edges: np.ndarray, n_nodes: int):
    """Points and weights (..., panels * n_nodes) of the composite Gauss-Legendre
    rule with n_nodes nodes on each panel between consecutive edges (last axis)."""
    nodes, weights = _gauss_legendre(n_nodes)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])[..., None]
    shape = (*edges.shape[:-1], -1)
    return (mid + half * nodes).reshape(shape), (half * weights).reshape(shape)


@lru_cache(maxsize=64)
def _node_spans(m: int, order: int, n_nodes: int) -> np.ndarray:
    """The span indicator (m - 1, nodes) of penalty_stack's nodes, read-only."""
    first = np.arange(m - 1)[:, None] == np.repeat(np.arange(order - 1, m - order), n_nodes)
    first.setflags(write=False)
    return first


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
        # weights are stored as floats, alphas as a tuple of them
        for name in ("lambda1", "lambda2"):
            object.__setattr__(self, name, as_real(getattr(self, name), name, 0.0))
        if self.alphas is not None:
            try:
                alphas = tuple(self.alphas)
            except TypeError:
                raise ConfigError(f"alphas must be a sequence of weights, got {self.alphas!r}"
                                  ) from None
            object.__setattr__(self, "alphas", tuple(as_real(w, f"alphas[{l}]", 0.0)
                                                     for l, w in enumerate(alphas)))


def penalty_stack(full_knots: np.ndarray, order: int, orders, n_nodes: int | None = None) -> list:
    """Penalty matrices of several derivative orders for a stack of bases.

    full_knots is (C, m): C clamped knot vectors of spline order `order`.
    One derivative_stack pass at n_nodes Gauss-Legendre nodes per nonempty
    span (default order, exact for every l; each node's span is known)
    gives the (C, n_basis, n_basis) stack of each l of orders, the same
    whatever else is asked.  Inputs are not checked.
    """
    m = full_knots.shape[1]
    n_nodes = order if n_nodes is None else n_nodes
    # panels between a, the interior knots and b
    pts, w = _panel_rule(full_knots[:, order - 1 : m - order + 1], n_nodes)
    first = _node_spans(m, order, n_nodes)  # shared by every stack of this shape
    with np.errstate(over="ignore", invalid="ignore"):
        products = [D @ (D * w[:, None]).transpose(0, 2, 1)
                    for D in derivative_stack(full_knots, order, pts, orders, first)]
        return [0.5 * (R + R.transpose(0, 2, 1)) for R in products]


def penalty_matrix(spec: BasisSpec, order: int, quad_points: int | None = None) -> PenaltyMatrix:
    """Assemble the order-`order` roughness penalty matrix by exact quadrature.

    This is the one-order case of penalty_stack.  quad_points overrides the
    per-span node count (default r, which is exact for every order; at
    most 1,024); passing more nodes must not change the result beyond
    roundoff.
    """
    l = as_integer(order, 0, "penalty derivative order", DerivativeOrderTooHighError)
    if l >= as_instance(spec, BasisSpec, "spec").order:
        raise DerivativeOrderTooHighError(
            f"penalty derivative order must satisfy 0 <= l < {spec.order}, got {order}"
        )
    n_nodes = None if quad_points is None else as_integer(quad_points, 1, "quad_points", most=1024)
    (values,) = penalty_stack(spec._full_arr[None, :], spec.order, [l], n_nodes)
    return PenaltyMatrix(order=l, values=values[0], spec=spec)


def gram_matrix(spec: BasisSpec) -> PenaltyMatrix:
    """Gram matrix of the basis functions themselves (order-0 penalty)."""
    return penalty_matrix(spec, 0)
