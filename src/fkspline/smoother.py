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

from .basis import BasisSpec, DesignMatrix, eval_design
from .data import FunctionalDataset
from .errors import ConfigError, NotPositiveDefiniteError
from .penalty import PenaltyConfig, penalty_matrix

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


def assemble_system(design: DesignMatrix, config: PenaltyConfig, penalties=None) -> SystemMatrix:
    """Build and factor the system matrix for one basis and penalty config.

    penalties may carry precomputed :class:`~fkspline.penalty.PenaltyMatrix`
    objects; missing ones are assembled on demand for every derivative order
    with a nonzero weight.
    """
    spec = design.spec
    B = design.values
    btb = B.T @ B
    if config.alphas is not None:
        orders = [l for l, a in enumerate(config.alphas) if a > 0.0]
    else:
        orders = [l for l in (1, 2) if config.weight_for(l) > 0.0]
    supplied = {p.order: p for p in (penalties or ())}
    terms = []
    H = btb.copy()
    for l in orders:
        pm = supplied.get(l)
        if pm is None:
            pm = penalty_matrix(spec, l)
        weight = config.weight_for(l)
        H += weight * pm.values
        terms.append((weight, pm.values))
    if not np.all(np.isfinite(H)):
        # a knot span so narrow that the derivative penalties overflow
        raise NotPositiveDefiniteError("system matrix has non-finite entries")
    try:
        cho = cho_factor(H, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "system matrix is not positive definite; add a penalty or drop "
            "redundant sample points"
        ) from exc
    # A condition number past 1e10 means the solve keeps fewer than six
    # reliable digits; such a system (knot spans with little or no data)
    # is numerically indefinite even when the factorization goes through.
    eigs = np.linalg.eigvalsh(H)
    if eigs[0] <= 0.0 or eigs[-1] > 1e10 * eigs[0]:
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
