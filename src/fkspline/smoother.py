"""Penalized least-squares spline smoothing of curve families.

All curves in a dataset share one basis and one system matrix
H = B'B + lambda1 R1 + lambda2 R2, factored once by Cholesky and reused for
every curve's right-hand side.  Effective degrees of freedom come from the
trace of the hat matrix and feed the GCV score used for model selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .basis import BasisSpec, DesignMatrix, design_stack, eval_design
from .data import FunctionalDataset
from .errors import ConfigError, NotPositiveDefiniteError
from .penalty import PenaltyConfig, penalty_matrix, penalty_stack

__all__ = [
    "SystemMatrix",
    "FitDiagnostics",
    "FitModel",
    "assemble_system",
    "fit_coefficients",
    "variant_config",
    "VARIANTS",
]

# Named regularization presets: no penalty, second-derivative only, and the
# double penalty.  Callers may override either weight.
VARIANTS = {
    "fs0": (0.0, 0.0),
    "fs1": (0.0, 1e-5),
    "fs2": (1e-7, 1e-5),
}


def variant_config(name: str, lambda1: float | None = None, lambda2: float | None = None) -> PenaltyConfig:
    """Penalty configuration for a named variant, with optional overrides."""
    key = name.lower()
    if key not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}")
    l1, l2 = VARIANTS[key]
    if lambda1 is not None:
        l1 = float(lambda1)
    if lambda2 is not None:
        l2 = float(lambda2)
    return PenaltyConfig(lambda1=l1, lambda2=l2)


@dataclass(eq=False)
class SystemMatrix:
    """Factored system H = B'B + sum of weighted penalty matrices."""

    values: np.ndarray
    cho: tuple
    btb: np.ndarray
    penalty_terms: tuple  # ((weight, matrix), ...)

    @cached_property
    def eigen_bounds(self) -> tuple[float, float]:
        """Interval guaranteed to contain every eigenvalue of H.

        Lower bound: smallest eigenvalue of B'B plus the weighted smallest
        eigenvalues of the penalty matrices; upper bound analogous with the
        largest eigenvalues.
        """
        eigs = np.linalg.eigvalsh(self.btb)
        lo, hi = float(eigs[0]), float(eigs[-1])
        for weight, mat in self.penalty_terms:
            eigs = np.linalg.eigvalsh(mat)
            lo += weight * float(eigs[0])
            hi += weight * float(eigs[-1])
        return lo, hi

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self.cho, rhs, check_finite=False)


def _penalty_orders(config: PenaltyConfig) -> list[int]:
    """Derivative orders whose penalty enters the system: positive weights."""
    if config.alphas is not None:
        return [l for l, a in enumerate(config.alphas) if a > 0.0]
    return [l for l in (1, 2) if config.weight_for(l) > 0.0]


def _refused(H: np.ndarray) -> np.ndarray:
    """Which matrices of a (C, nb, nb) stack of systems the fit refuses.

    A system is refused when it has a non-finite entry (a knot span so narrow
    that the derivative penalties overflow) or when its smallest eigenvalue
    is not positive or its condition number is past 1e10: the solve would
    keep fewer than six reliable digits, so such a system (knot spans with
    little or no data) is numerically indefinite even when a Cholesky
    factorization goes through.
    """
    # a non-finite matrix is zeroed, so that its smallest eigenvalue is 0
    finite = np.isfinite(H).all(axis=(1, 2))
    eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], H, 0.0))
    return (eigs[:, 0] <= 0.0) | (eigs[:, -1] > 1e10 * eigs[:, 0])


def assemble_system(design: DesignMatrix, config: PenaltyConfig, penalties=None) -> SystemMatrix:
    """Build and factor the system matrix for one basis and penalty config.

    penalties may carry precomputed :class:`~fkspline.penalty.PenaltyMatrix`
    objects; missing ones are assembled on demand for every derivative order
    with a nonzero weight.
    """
    spec = design.spec
    B = design.values
    btb = B.T @ B
    supplied = {p.order: p for p in (penalties or ())}
    terms = []
    H = btb.copy()
    for l in _penalty_orders(config):
        pm = supplied.get(l)
        if pm is None:
            pm = penalty_matrix(spec, l)
        weight = config.weight_for(l)
        H += weight * pm.values
        terms.append((weight, pm.values))
    # the factorization must not see non-finite entries, so that part of
    # the refusal rule is tested first
    if not np.isfinite(H).all():
        raise NotPositiveDefiniteError("system matrix has non-finite entries")
    try:
        cho = cho_factor(H, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "system matrix is not positive definite; add a penalty or drop "
            "redundant sample points"
        ) from exc
    if _refused(H[None])[0]:
        raise NotPositiveDefiniteError(
            "system matrix is numerically singular; a basis function has "
            "little or no data in its support"
        )
    return SystemMatrix(values=H, cho=cho, btb=btb, penalty_terms=tuple(terms))


@dataclass(frozen=True)
class FitDiagnostics:
    """Summary statistics of one penalized fit, with its residuals."""

    df: float
    sse: float
    gcv: float
    sigma2: float
    per_curve_sse: np.ndarray
    residuals: np.ndarray  # (n_points, n_curves): data minus fitted values
    gcv_degenerate: bool = False


@dataclass(eq=False)
class FitModel:
    """Fitted spline family: shared basis, per-curve coefficient columns."""

    spec: BasisSpec
    config: PenaltyConfig
    coeffs: np.ndarray  # (n_basis, n_curves)
    diagnostics: FitDiagnostics
    knot_search: object | None = None

    @property
    def n_curves(self) -> int:
        return self.coeffs.shape[1]

    def predict(self, t, derivative: int = 0) -> np.ndarray:
        """Fitted values (or a derivative) at arbitrary points in the domain."""
        design = eval_design(self.spec, t, derivative)
        return design.values @ self.coeffs


def _diagnostics(system: SystemMatrix, Y, fitted) -> FitDiagnostics:
    """The one place a fit's residuals, sse, df and GCV are formed."""
    h, n = Y.shape
    residual = Y - fitted
    per_curve = np.einsum("ij,ij->j", residual, residual)
    sse = float(per_curve.sum())
    df = float(np.trace(system.solve(system.btb)))
    denom = h - df
    degenerate = denom <= 1e-8 * max(h, 1)
    if degenerate:
        gcv = float("inf")
        sigma2 = float("inf")
    else:
        gcv = h * sse / denom**2
        sigma2 = sse / (n * denom)
    return FitDiagnostics(
        df=df, sse=sse, gcv=gcv, sigma2=sigma2, per_curve_sse=per_curve,
        residuals=residual, gcv_degenerate=degenerate,
    )


def fit_coefficients(dataset: FunctionalDataset, spec: BasisSpec, config: PenaltyConfig,
                     penalties=None) -> FitModel:
    """Fit all curves of a dataset in one shared penalized system.

    The sample grid must lie inside the spec's domain, and the design must
    have full column rank or the penalty weights must make H positive
    definite.  A perfect fit leaves the GCV slot at +inf (flagged) because
    its denominator vanishes.
    """
    design = eval_design(spec, dataset.t)
    system = assemble_system(design, config, penalties=penalties)
    Y = dataset.values
    C = system.solve(design.values.T @ Y)
    diags = _diagnostics(system, Y, design.values @ C)
    return FitModel(spec=spec, config=config, coeffs=C, diagnostics=diags)


def residual_stack(full_knots: np.ndarray, order: int, dataset: FunctionalDataset,
                   config: PenaltyConfig):
    """Residuals of the penalized fit at each knot vector of a stack.

    full_knots is (C, m): C clamped knot vectors of one spline order over
    the dataset's domain.  The systems H = B'B + sum of weighted penalties
    are built and checked as one stack.  Yields (c, residual) for each row
    c that assemble_system would not refuse, in row order; residual is the
    (h, n) matrix data minus fitted values, equal to the residuals of
    fit_coefficients at that knot vector up to roundoff.  Inputs are not
    checked: the penalized derivative orders must be below `order`.
    """
    C = full_knots.shape[0]
    Y = dataset.values
    B = design_stack(full_knots, order, np.broadcast_to(dataset.t, (C, dataset.t.size)))
    H = B.transpose(0, 2, 1) @ B
    for l in _penalty_orders(config):
        H += config.weight_for(l) * penalty_stack(full_knots, order, l)
    # One solve and one residual at a time, each handed on before the next
    # is formed: a batched solve took as long, its (C, nb, n) coefficient
    # stack raised the peak memory, and a (C, h, n) residual stack would
    # be larger still.
    for i in np.flatnonzero(~_refused(H)):
        yield int(i), Y - B[i] @ np.linalg.solve(H[i], B[i].T @ Y)


def sse_stack(full_knots: np.ndarray, order: int, dataset: FunctionalDataset,
              config: PenaltyConfig) -> np.ndarray:
    """Residual sum of squares of the penalized fit at each knot vector of a stack.

    The rows residual_stack refuses score nan.  A score equals the sse of
    fit_coefficients at that knot vector up to roundoff.
    """
    sse = np.full(full_knots.shape[0], np.nan)
    for i, residual in residual_stack(full_knots, order, dataset, config):
        sse[i] = np.einsum("ij,ij->j", residual, residual).sum()
    return sse
