"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from fkspline import FitDiagnostics, FitModel, PenaltyConfig, make_basis_spec


def constant_curve_model(levels, domain=(0.0, 1.0)) -> FitModel:
    """Build a fitted model whose curves are constant functions at ``levels``.

    Uses an order-2 basis with no interior knots, so the two coefficients of
    curve ``i`` are both ``levels[i]``.  Handy for clustering tests where the
    pairwise L2 distances are known analytically: ``d(i, j)^2 =
    (levels[i] - levels[j])^2 * (domain[1] - domain[0])``.
    """
    levels = np.asarray(levels, dtype=float)
    spec = make_basis_spec(domain[0], domain[1], 2, [])
    coeffs = np.vstack([levels, levels])
    diag = FitDiagnostics(
        df=1.0,
        sse=0.0,
        gcv=0.0,
        sigma2=0.0,
        per_curve_sse=np.zeros(levels.size),
        residuals=np.zeros((0, levels.size)),
    )
    return FitModel(spec=spec, config=PenaltyConfig(), coeffs=coeffs, diagnostics=diag)


def coefficient_model(spec, coeffs) -> FitModel:
    """Wrap a coefficient matrix in a FitModel with placeholder diagnostics."""
    coeffs = np.asarray(coeffs, dtype=float)
    diag = FitDiagnostics(
        df=1.0,
        sse=0.0,
        gcv=0.0,
        sigma2=0.0,
        per_curve_sse=np.zeros(coeffs.shape[1]),
        residuals=np.zeros((0, coeffs.shape[1])),
    )
    return FitModel(spec=spec, config=PenaltyConfig(), coeffs=coeffs, diagnostics=diag)
