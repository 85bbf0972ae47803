"""Open B-spline bases on a closed interval.

The basis of order r (degree r - 1) over domain [a, b] with p strictly
increasing interior knots is built on the clamped knot vector that repeats
each boundary r times, giving n_basis = p + r functions.  Evaluation uses
the Cox-de Boor triangle vectorized over evaluation points and over a stack
of knot vectors (one basis is the one-row stack).  Derivatives come from
one full-width pass of de Boor's difference recurrence (derivative_stack).

Conventions: the last span is right-closed, so evaluating at t = b returns
the limiting values and every row of a design matrix sums to one exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoefficientLengthMismatchError,
    ConfigError,
    DerivativeOrderTooHighError,
    EmptyIntervalError,
    KnotOutOfDomainError,
    LengthMismatchError,
    NonFiniteInputError,
    NonIncreasingKnotsError,
    OrderTooSmallError,
    PointOutOfDomainError,
    as_instance,
    as_integer,
    as_real,
    as_reals,
)

__all__ = ["BasisSpec", "DesignMatrix", "make_basis_spec", "eval_design", "eval_spline"]


@dataclass(frozen=True)
class BasisSpec:
    """Immutable description of one spline basis.

    domain : (a, b) with a < b.
    order : spline order r >= 2 (cubic splines have r = 4).
    interior_knots : (p,) strictly increasing knots inside the open domain.
    """

    domain: tuple[float, float]
    order: int
    interior_knots: tuple[float, ...] = ()

    def __post_init__(self):
        try:
            a, b = self.domain
        except (TypeError, ValueError):  # not a pair
            raise LengthMismatchError(f"domain must be a pair (a, b), got {self.domain!r}"
                                      ) from None
        a = as_real(a, "domain start", error=NonFiniteInputError)
        b = as_real(b, "domain end", error=NonFiniteInputError)
        if not a < b:
            raise EmptyIntervalError(f"domain [{a}, {b}] has nonpositive length")
        if not np.isfinite(b - a):
            raise NonFiniteInputError(f"domain [{a}, {b}] is wider than the float range")
        r = as_integer(self.order, 2, "order", OrderTooSmallError)
        tau = as_reals(self.interior_knots, "interior knots", NonFiniteInputError).reshape(-1)
        if tau.size and not np.all(np.isfinite(tau)):
            raise NonFiniteInputError("interior knots must be finite")
        if np.any(np.diff(tau) <= 0):
            raise NonIncreasingKnotsError("interior knots must be strictly increasing")
        if tau.size and (tau[0] <= a or tau[-1] >= b):
            raise KnotOutOfDomainError("interior knots must lie strictly inside the domain")
        object.__setattr__(self, "domain", (a, b))
        object.__setattr__(self, "order", r)
        object.__setattr__(self, "interior_knots", tuple(float(x) for x in tau))
        full = np.concatenate([np.full(r, a), tau, np.full(r, b)])
        full.setflags(write=False)
        object.__setattr__(self, "_full_arr", full)

    @property
    def full_knots(self) -> tuple[float, ...]:
        """Clamped knot vector with boundary multiplicity r."""
        return tuple(self._full_arr)

    @property
    def n_basis(self) -> int:
        return len(self.interior_knots) + self.order

    @property
    def span_edges(self) -> tuple[float, ...]:
        """Breakpoints a, tau_1, ..., tau_p, b of the nonempty spans."""
        a, b = self.domain
        return (a, *self.interior_knots, b)


def make_basis_spec(a, b, order, interior_knots=()) -> BasisSpec:
    """Validate and build a :class:`BasisSpec`."""
    return BasisSpec((a, b), order, interior_knots)


@dataclass(frozen=True)
class DesignMatrix:
    """Dense design matrix of basis (derivative) values at sample points."""

    values: np.ndarray  # (h, n_basis)
    points: np.ndarray  # (h,)
    derivative: int
    spec: BasisSpec

    def __post_init__(self):
        nb = as_instance(self.spec, BasisSpec, "spec").n_basis
        values, points = (as_instance(getattr(self, name), np.ndarray, name)
                          for name in ("values", "points"))
        as_integer(self.derivative, 0, "derivative order")
        if points.ndim != 1 or values.shape != (points.size, nb):
            raise ConfigError(f"a design of {nb} basis functions needs (h,) points and (h, {nb}) "
                              f"values, got {points.shape} and {values.shape}")


def _deboor_rows(full_knots, k, t, spans):
    """Values (k, npts) of the k nonzero order-k basis functions at each point.

    Row i, contiguous, is basis index spans - k + 1 + i.  Denominators in
    the triangle always span the nonempty interval containing t, so no zero
    guards are needed.
    """
    # the knots at offsets 2 - k .. k - 1 from each point's span, in one gather
    near = full_knots[spans + np.arange(2 - k, k)[:, None]]
    left = t - near[k - 2 :: -1]  # left[j - 1] = t - T[span + 1 - j]
    right = near[k - 1 :] - t  # right[j - 1] = T[span + j] - t
    values = np.empty((k, t.size))
    values[0] = 1.0
    zero = np.zeros(t.size)
    for j in range(1, k):
        saved = zero
        for i in range(j):  # the last product passed on is value j
            temp = values[i] / (right[i] + left[j - i - 1])
            np.add(saved, right[i] * temp, out=values[i])
            saved = np.multiply(left[j - i - 1], temp, out=values[j] if i == j - 1 else None)
    return values


def _spans(full_knots: np.ndarray, order: int, t: np.ndarray) -> np.ndarray:
    """Span mu of each point of t (C, h), T[mu] <= t < T[mu+1] and right-closed
    at b, for knot vectors full_knots (C, m); raveled to (C * h,)."""
    C, m = full_knots.shape
    if C == 1:
        spans = np.searchsorted(full_knots[0], t[0], side="right") - 1
    else:
        spans = np.count_nonzero(full_knots[:, None, :] <= t[:, :, None], axis=2).ravel() - 1
    return np.minimum(np.maximum(spans, order - 1), m - order - 1)


def design_stack(full_knots: np.ndarray, order: int, t: np.ndarray) -> np.ndarray:
    """Basis values for a stack of knot vectors of one order.

    full_knots is (C, m): C clamped knot vectors with boundary multiplicity
    `order`.  t is (C, h): row c holds points inside the domain of knot
    vector c.  Returns the (C, h, m - order) design matrices, row c of the
    stack being eval_design of basis c at points t[c]; no input is checked.
    """
    C, m = full_knots.shape
    h = t.shape[1]
    spans = _spans(full_knots, order, t)
    # The triangle runs on all C * h points at once, each row's spans
    # offset into its own stretch of the flattened knot stack.
    flat_spans = spans + np.repeat(m * np.arange(C), h) if C > 1 else spans
    values = _deboor_rows(full_knots.ravel(), order, t.ravel(), flat_spans)
    dense = np.zeros((C, h, m - order))
    # the flat index of each point's first nonzero column
    start = spans + np.arange(1 - order, dense.size + 1 - order, m - order)
    dense.reshape(-1)[start + np.arange(order)[:, None]] = values
    return dense


def derivative_stack(full_knots: np.ndarray, order: int, t: np.ndarray, derivatives,
                     first: np.ndarray | None = None) -> list:
    """Derivatives of several orders of every basis function, in one pass.

    full_knots is (C, m): nondecreasing knot vectors of spline order
    `order`; t is (C, P).  first, broadcasting to (C, m - 1, P), holds the
    order-1 values at t, each point's span indicator (by default
    T[i] <= t < T[i + 1], zero at the last knot).  Returns, for each l of
    derivatives, the (C, m - order, P) l-th derivatives at t; no input is
    checked.  Level k of the recurrence holds the order-k functions; the
    l-th derivative is lifted from level order - l by de Boor's difference
    recurrence; a zero-length support's reciprocal width is taken as zero.
    """
    m = full_knots.shape[1]
    x = t[:, None, :]
    if first is None:
        first = (full_knots[:, :-1, None] <= x) & (x < full_knots[:, 1:, None])
    top = order - min(derivatives)  # the highest level whose values are needed
    values, lifts = first, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, order + 1):
            widths = full_knots[:, k - 1 :, None] - full_knots[:, : m - k + 1, None]
            inv = np.divide(1.0, widths, out=np.zeros(widths.shape), where=widths > 0)
            for l in lifts:
                lifts[l] *= inv
                lifts[l] = (k - 1) * (lifts[l][:, :-1] - lifts[l][:, 1:])
            if k > top + 1:
                continue
            # a level is scaled in place and dropped once used
            scaled = np.multiply(values, inv, out=None if values is first else values)
            if k <= top:
                values = x - full_knots[:, : m - k, None]
                values *= scaled[:, :-1]
                values += (full_knots[:, k:, None] - x) * scaled[:, 1:]
            if order + 1 - k in derivatives:
                lifts[order + 1 - k] = (k - 1) * (scaled[:, :-1] - scaled[:, 1:])
            del scaled
    return [values if l == 0 else lifts[l] for l in derivatives]


def _check_points(spec: BasisSpec, t) -> np.ndarray:
    t = as_reals(t, "evaluation points", NonFiniteInputError).reshape(-1)
    if not np.all(np.isfinite(t)):
        raise NonFiniteInputError("evaluation points must be finite")
    a, b = spec.domain
    tol = 1e-12 * (b - a)
    if t.size and (t.min() < a - tol or t.max() > b + tol):
        raise PointOutOfDomainError(
            f"evaluation points must lie in [{a}, {b}]"
        )
    return np.clip(t, a, b)


def eval_design(spec: BasisSpec, t, derivative: int = 0) -> DesignMatrix:
    """Evaluate all basis functions (or a derivative) at the given points.

    Returns an (h, n_basis) matrix with at most r consecutive nonzeros per
    row.  For derivative = 0 rows sum to one (design_stack); a derivative
    (derivative_stack) takes its left limit at b.  The derivative order
    must satisfy 0 <= derivative < order.
    """
    r = as_instance(spec, BasisSpec, "spec").order
    d = as_integer(derivative, 0, "derivative order", DerivativeOrderTooHighError)
    if d >= r:
        raise DerivativeOrderTooHighError(
            f"derivative order must satisfy 0 <= d < {r}, got {derivative}"
        )
    t = _check_points(spec, t)
    full, at = spec._full_arr[None, :], t[None, :]
    if d == 0:
        dense = design_stack(full, r, at)[0]
    else:  # the span indicator is right-closed at b, as design_stack's spans
        first = np.arange(full.size - 1)[:, None] == _spans(full, r, at)
        dense = np.ascontiguousarray(derivative_stack(full, r, at, [d], first)[0][0].T)
    return DesignMatrix(values=dense, points=t, derivative=d, spec=spec)


def eval_spline(spec: BasisSpec, coeffs, t, derivative: int = 0) -> np.ndarray:
    """Evaluate one spline (or a family sharing the basis) at the given points.

    coeffs has shape (n_basis,) for a single curve or (n_basis, n) for a
    family; the result has shape (h,) or (h, n) accordingly.
    """
    as_instance(spec, BasisSpec, "spec")
    coeffs = as_reals(coeffs, "coefficients", NonFiniteInputError)
    if coeffs.ndim not in (1, 2) or coeffs.shape[0] != spec.n_basis:
        raise CoefficientLengthMismatchError(
            f"expected {spec.n_basis} coefficients, got shape {coeffs.shape}"
        )
    if not np.all(np.isfinite(coeffs)):
        raise NonFiniteInputError("coefficients must be finite")
    design = eval_design(spec, t, derivative)
    return design.values @ coeffs
