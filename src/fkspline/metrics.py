"""Integrated error metrics between true and fitted curves.

Integrals use composite Gauss-Legendre quadrature.  Panel edges always
include any supplied breakpoints (typically the fitted spline's knots), so
piecewise-polynomial integrands are integrated exactly and partition
additivity holds to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, EmptyIntervalError, LengthMismatchError, NonFiniteInputError,
                     as_instance, as_integer, as_real, as_reals)
from .cluster import _distinct
from .penalty import _panel_rule
from .smoother import FitModel

__all__ = ["TailRegions", "integrated_sse", "local_isse", "model_isse"]

_NODES_PER_PANEL = 10


def _interval(interval, name: str) -> tuple[float, float]:
    """interval as a pair of floats lo < hi (errors.as_real), else an EmptyIntervalError."""
    try:
        ends = tuple(interval)
    except TypeError:
        ends = ()
    if len(ends) != 2:
        raise EmptyIntervalError(f"{name} must be a pair of numbers, got {interval!r}")
    lo, hi = (as_real(end, f"{name} end", error=EmptyIntervalError) for end in ends)
    if not lo < hi:
        raise EmptyIntervalError(f"{name} [{lo}, {hi}] has nonpositive length")
    return lo, hi


@dataclass(frozen=True)
class TailRegions:
    """The two boundary subintervals used for local error reporting.

    Each is a pair of finite numbers, stored as a tuple of floats
    (errors.as_real); anything else is an EmptyIntervalError.
    """

    lower: tuple[float, float]
    upper: tuple[float, float]

    def __post_init__(self):
        for name in ("lower", "upper"):
            object.__setattr__(self, name, _interval(getattr(self, name), f"{name} tail"))
        if self.lower[1] > self.upper[0]:
            raise EmptyIntervalError("tail intervals must not overlap")

    @classmethod
    def fraction(cls, a: float, b: float, frac: float = 0.1) -> "TailRegions":
        """Tails covering the first and last `frac` of [a, b]."""
        a, b = (as_real(end, "domain end", error=EmptyIntervalError) for end in (a, b))
        if not 0 < as_real(frac, "tail fraction", error=EmptyIntervalError) < 0.5:
            raise EmptyIntervalError("tail fraction must lie in (0, 0.5)")
        width = frac * (b - a)
        return cls(lower=(a, a + width), upper=(b - width, b))


def _panel_edges(lo, hi, quad_points, breakpoints):
    inner = as_reals(breakpoints, "breakpoints")
    inner = inner[(inner > lo) & (inner < hi)]
    edges = _distinct(np.concatenate([[lo, hi], inner]))[0]
    # Uniform refinement until the node budget is met.
    n_panels = max(1, int(np.ceil(quad_points / _NODES_PER_PANEL)))
    while edges.size - 1 < n_panels:
        mids = 0.5 * (edges[:-1] + edges[1:])
        edges = _distinct(np.concatenate([edges, mids]))[0]
    return edges


def _difference(truth, fitted, pts: np.ndarray) -> np.ndarray:
    """truth(pts) - fitted(pts), each side (h,) or (h, columns) for h points,
    the column counts equal or one of them 1, else a LengthMismatchError;
    one curve against a family is a one-column family."""
    values = [as_reals(curve(pts), f"{name} values", NonFiniteInputError)
              for name, curve in (("truth", truth), ("fitted", fitted))]
    shapes = [v.shape for v in values]
    if (any(shape[:1] != pts.shape or len(shape) > 2 for shape in shapes)
            or len({shape[1:] for shape in shapes} - {(), (1,)}) > 1):
        raise LengthMismatchError(f"curve evaluators must give ({pts.size},) or ({pts.size}, n) "
                                  f"values with one n or n = 1, got shapes {shapes}")
    if values[0].ndim != values[1].ndim:
        values = [v.reshape(pts.size, -1) for v in values]
    return values[0] - values[1]


def integrated_sse(truth, fitted, interval, quad_points: int = 256, breakpoints=()) -> float:
    """Integral of the squared difference between two curve evaluators.

    truth and fitted are callables mapping a point array to values of shape
    (npts,) or (npts, n_curves); families are summed over curves.  Both must
    produce finite values on the interval, with as many columns as the
    other or one column, which then serves every curve (LengthMismatchError
    otherwise).  The interval's ends go through errors.as_real, and an
    evaluator that is not callable is a ConfigError.  quad_points, the node
    budget, lies in [16, 65536].
    """
    lo, hi = _interval(interval, "integration interval")
    for name, curve in (("truth", truth), ("fitted", fitted)):
        if not callable(curve):
            raise ConfigError(f"{name} must be a callable curve evaluator, got {curve!r}")
    quad_points = as_integer(quad_points, 16, "quad_points", EmptyIntervalError, 2**16)
    edges = _panel_edges(lo, hi, quad_points, breakpoints)
    pts, w = _panel_rule(edges, _NODES_PER_PANEL)
    diff = _difference(truth, fitted, pts)
    if not np.all(np.isfinite(diff)):
        raise NonFiniteInputError("curve evaluators returned non-finite values")
    if diff.ndim == 1:
        return float(np.dot(w, diff * diff))
    return float(np.einsum("i,ij->", w, diff * diff))


def local_isse(truth, fitted, tails: TailRegions, quad_points: int = 256,
               breakpoints=()) -> tuple[float, float]:
    """Integrated squared error restricted to the two tail regions."""
    as_instance(tails, TailRegions, "tails")
    lower = integrated_sse(truth, fitted, tails.lower, quad_points, breakpoints)
    upper = integrated_sse(truth, fitted, tails.upper, quad_points, breakpoints)
    return lower, upper


def model_isse(model: FitModel, truth, tails: TailRegions | None = None,
               quad_points: int = 256) -> dict:
    """Full and tail integrated errors of a fitted model against a truth evaluator.

    The model's interior knots are passed to the quadrature as breakpoints.
    Returns a dict with keys isse, isse_inf, isse_sup (the tail entries are
    None when no tails are given).
    """
    a, b = as_instance(model, FitModel, "model").spec.domain
    knots = model.spec.interior_knots
    fitted = model.predict
    out = {"isse": integrated_sse(truth, fitted, (a, b), quad_points, knots)}
    if tails is None:
        out["isse_inf"] = None
        out["isse_sup"] = None
    else:
        inf, sup = local_isse(truth, fitted, tails, quad_points, knots)
        out["isse_inf"] = inf
        out["isse_sup"] = sup
    return out
