"""Penalized least-squares spline smoothing of curve families.

All curves in a dataset share one basis and one system matrix
H = B'B + lambda1 R1 + lambda2 R2, checked by its eigenvalues and solved by LU
for every curve at once.  Effective degrees of freedom come from the trace of
the hat matrix and feed the GCV score used for model selection.  fit_stack,
the one stacked entry, fits a whole stack of (knot vector, penalty weights)
rows at once, or re-solves rows whose systems an earlier stack built; a
single fit is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import BasisSpec, DesignMatrix, _check_points, design_stack, eval_design
from .data import FunctionalDataset
from .errors import ConfigError, DerivativeOrderTooHighError, NotPositiveDefiniteError, as_instance
from .penalty import PenaltyConfig, penalty_stack

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
    """Penalty configuration for a named variant, with optional overrides
    (each checked by PenaltyConfig)."""
    key = name.lower() if isinstance(name, str) else None
    if key not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}")
    l1, l2 = VARIANTS[key]
    return PenaltyConfig(lambda1=l1 if lambda1 is None else lambda1,
                         lambda2=l2 if lambda2 is None else lambda2)


@dataclass(eq=False)
class SystemMatrix:
    """System H = B'B + sum of weighted penalty matrices that _refused kept."""

    values: np.ndarray
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


def penalty_weights(config: PenaltyConfig, order: int) -> np.ndarray:
    """Weight of each derivative order 0 .. order - 1 in a config's penalty.

    A row of these is the penalty config of one row of :func:`fit_stack`.
    A positive weight on an order the splines of this order cannot carry
    is refused as penalty_matrix refuses it.
    """
    weights = np.zeros(order)
    terms = config.alphas if config.alphas is not None else (0.0, config.lambda1, config.lambda2)
    for l, weight in enumerate(terms):
        if weight > 0.0:
            if l >= order:
                raise DerivativeOrderTooHighError(
                    f"penalty derivative order must satisfy 0 <= l < {order}, got {l}"
                )
            weights[l] = weight
    return weights


def _refused(H: np.ndarray) -> list[str]:
    """Why each matrix of a (C, nb, nb) stack of systems is refused, "" if it is kept.

    A system is refused when it has a non-finite entry (a knot span so narrow
    that the derivative penalties overflow), when its smallest eigenvalue is
    not positive, or when its condition number is past 1e10: the solve would
    keep fewer than six reliable digits, so such a system (knot spans with
    little or no data) is numerically indefinite even when a factorization
    goes through.
    """
    # a non-finite matrix is zeroed, so that its smallest eigenvalue is 0
    finite = np.logical_and.reduce(np.isfinite(H), axis=(1, 2))
    eigs = np.linalg.eigvalsh(H if finite.all() else np.where(finite[:, None, None], H, 0.0))
    why = []
    for ok, lo, hi in zip(finite.tolist(), eigs[:, 0].tolist(), eigs[:, -1].tolist()):
        if not ok:
            why.append("system matrix has non-finite entries")
        elif lo <= 0.0:
            why.append("system matrix is not positive definite; add a penalty or drop "
                       "redundant sample points")
        elif hi > 1e10 * lo:
            why.append("system matrix is numerically singular; a basis function has "
                       "little or no data in its support")
        else:
            why.append("")
    return why


def _assemble(knots: np.ndarray, order: int, T: np.ndarray, weights: np.ndarray,
              rows: np.ndarray | None = None):
    """The one place systems H = B'B + sum_l w_l R_l are built and checked.

    knots (K, m) are clamped knot vectors of one order, T (K, h) their
    sample points; row c pairs knot vector rows[c] (c when rows is None)
    with weights[c] (penalty_weights).  Every weighted order's penalties
    come from one penalty_stack pass, freed of its temporaries before the
    designs are built.  A row not weighting order l gets nothing added, not
    0 * R, which is nan where R overflowed.  Returns the designs B (K, h,
    nb), B'B (K, nb, nb), H (C, nb, nb), per penalized order the weights
    and matrices of every row, and _refused(H).
    """
    orders = (weights > 0.0).any(axis=0).nonzero()[0].tolist()
    penalties = penalty_stack(knots, order, orders) if orders else []
    B = design_stack(knots, order, T)
    btb = B.transpose(0, 2, 1) @ B
    H = btb.copy() if rows is None else btb[rows]
    terms = []
    # overflowed penalties may add infinities of opposite signs; _refused
    # turns the resulting nan away
    with np.errstate(over="ignore", invalid="ignore"):
        for l, R in zip(orders, penalties):
            R = R if rows is None else R[rows]
            w = weights[:, l, None, None]
            add = w * R
            H += add if (w > 0.0).all() else np.where(w > 0.0, add, 0.0)
            terms.append((weights[:, l], R))
    return B, btb, H, terms, _refused(H)


def assemble_system(design: DesignMatrix, config: PenaltyConfig) -> SystemMatrix:
    """Build and check the system matrix for one basis and penalty config:
    _assemble's one-row case, on the basis of a derivative-0 design at its points."""
    spec = as_instance(design, DesignMatrix, "design").spec
    weights = penalty_weights(as_instance(config, PenaltyConfig, "config"), spec.order)[None]
    _, btb, H, terms, (reason,) = _assemble(spec._full_arr[None], spec.order,
                                            design.points[None], weights)
    if reason:
        raise NotPositiveDefiniteError(reason)
    return SystemMatrix(values=H[0], btb=btb[0],
                        penalty_terms=tuple((float(w[0]), R[0]) for w, R in terms))


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

    def __post_init__(self):
        nb = as_instance(self.spec, BasisSpec, "spec").n_basis
        as_instance(self.config, PenaltyConfig, "config")
        as_instance(self.diagnostics, FitDiagnostics, "diagnostics")
        shape = as_instance(self.coeffs, np.ndarray, "coeffs").shape
        if len(shape) != 2 or shape[0] != nb:
            raise ConfigError(f"coeffs must be an ({nb}, n) matrix, got shape {shape}")

    @property
    def n_curves(self) -> int:
        return self.coeffs.shape[1]

    def predict(self, t, derivative: int = 0) -> np.ndarray:
        """Fitted values (or a derivative) at arbitrary points in the domain."""
        design = eval_design(self.spec, t, derivative)
        return design.values @ self.coeffs


def _diagnostics(influence: np.ndarray, Y, fitted) -> FitDiagnostics:
    """The one place a fit's residuals, sse, df and GCV are formed.

    influence is H^-1 B'B, whose trace is the trace of the hat matrix.
    """
    h, n = Y.shape
    residual = Y - fitted
    per_curve = np.einsum("ij,ij->j", residual, residual)
    sse = float(per_curve.sum())
    df = float(np.trace(influence))
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


# Rows evaluated per stack.  On the benchmark data a stacked row costs
# 311 us alone and 46-58 us in stacks of 50 to 250 rows, so past a few
# hundred rows a larger stack only holds more memory.  Its designs, B'B,
# penalty matrices and systems are held for the whole chunk.
_CHUNK = 256
# Coefficient values (rows x nb x n) per stacked solve, so that a block's
# right-hand sides and coefficients stay under 128 KiB each for any number
# of curves n: 20 rows of 12 basis functions on 50 reduced curves, 5 rows on
# 200 curves.  A fixed 16 rows took fresh pages for every block of the
# 200-curve fixed-knot GCV grid (1,265 page faults against 122, 7% slower),
# and larger blocks raise the peak memory.
_BLOCK_VALUES = 12_000


def fit_stack(full_knots: np.ndarray, order: int, datasets, weights: np.ndarray,
              full: bool = False, which: np.ndarray | None = None, t: np.ndarray | None = None,
              systems: np.ndarray | None = None):
    """Penalized fits at a stack of (dataset, knot vector, penalty weights) rows.

    full_knots is (C, m): clamped knot vectors of one spline order, repeats
    allowed; weights is (C, order), row c the penalty_weights of row c's
    config; row c is fitted to datasets[which[c]] (datasets[0] when which
    is None), all of one (h, n) shape, and its knot vector spans that
    dataset's domain.  The stack is evaluated in chunks of _CHUNK rows.
    Within a chunk the design and B'B are built once per distinct (dataset,
    knot vector), and so are the penalties: H is formed once per row and
    rows are refused by _refused (_assemble).  systems (C, nb, nb), when
    given, holds each row's H, built and kept by an earlier stack under the
    row's weights: only the designs and B'B are built, nothing is refused,
    and each fit is that earlier row's bit for bit.  The kept rows are
    solved by _solved.  t, the sample points of a one-dataset stack
    (default the dataset's), must lie inside every knot vector's domain;
    nothing is checked.

    Yields (c, why, fit) for every row c, in row order, one at a time: why
    is "" or the reason the row's system is refused, and fit is None for a
    refused row.  Otherwise fit is (residual, H): the residual matrix in the
    dataset's reduced space (FunctionalDataset.reduced), (h, min(h, n)), with
    the Frobenius norm and the inner products of the full residuals, and the
    row's system H (nb, nb).  With full=True it is instead (coefficients,
    FitDiagnostics, (B, H)) on the full data, what fit_coefficients reports
    at that row, with the row's design B (h, nb).  B and H are views into
    the stacks of the row's chunk (B: of its solve block, _solved).
    """
    which = [0] * len(full_knots) if which is None else np.asarray(which).tolist()
    Ys = [dataset.values if full else dataset.reduced.values for dataset in datasets]
    points = [dataset.t for dataset in datasets] if t is None else [t]
    for start in range(0, len(full_knots), _CHUNK):
        chunk = full_knots[start:start + _CHUNK]
        owners = which[start:start + _CHUNK]
        first = {}
        vector = [first.setdefault((d, row.tobytes()), i)
                  for i, (d, row) in enumerate(zip(owners, chunk))]
        rows, knots, at = None, chunk, owners
        if len(first) < len(chunk):
            distinct = list(first.values())
            rows = np.searchsorted(distinct, vector)
            knots, at = chunk[distinct], [owners[i] for i in distinct]
        # one shared grid is repeated, not broadcast: design_stack takes a copy either way
        T = (points[0][None].repeat(len(at), 0) if len(points) == 1
             else np.stack([points[d] for d in at]))
        if systems is None:
            B, btb, H, _, refused = _assemble(knots, order, T, weights[start:start + _CHUNK], rows)
        else:
            B = design_stack(knots, order, T)
            btb = B.transpose(0, 2, 1) @ B
            H, refused = systems[start:start + _CHUNK], [""] * len(chunk)
        for c, why, fit in _solved(B, btb, H, refused, rows, owners, Ys, full):
            yield start + c, why, fit


def _solved(B, btb, H, refused, rows, owners, Ys, full: bool):
    """The solve half of fit_stack: the fits of one chunk.

    Row c fits Ys[owners[c]] with system H[c] and the design B and B'B of
    knot vector rows[c] (c when rows is None); refused[c] is "" or why the
    row is refused.  The kept rows are solved in stacked solves of
    _BLOCK_VALUES coefficients, one dataset's rows at a time, and yielded
    in row order as fit_stack yields them; residuals are formed and handed
    on one row at a time, so no (C, h, n) stack is held.
    """
    block_rows = max(1, _BLOCK_VALUES // (H.shape[-1] * Ys[owners[0]].shape[1]))
    ends = [c for c in range(1, len(owners)) if owners[c] != owners[c - 1]]
    for lo, hi in zip([0, *ends], [*ends, len(owners)]):
        Y = Ys[owners[lo]]
        for first_row in range(lo, hi, block_rows):
            block = range(first_row, min(first_row + block_rows, hi))
            kept = [c for c in block if not refused[c]]
            # a block keeping every row is read as a slice, not gathered
            taken = slice(block.start, block.stop) if len(kept) == len(block) else kept
            vectors = taken if rows is None else rows[kept]  # each kept row's knot vector
            Bk = B[vectors]
            coeffs = np.linalg.solve(H[taken], Bk.transpose(0, 2, 1) @ Y)
            influence = np.linalg.solve(H[taken], btb[vectors]) if full else None
            i = 0
            for c in block:
                if refused[c]:
                    yield c, refused[c], None
                    continue
                fitted = Bk[i] @ coeffs[i]
                if full:
                    yield c, "", (coeffs[i], _diagnostics(influence[i], Y, fitted), (Bk[i], H[c]))
                else:
                    yield c, "", (Y - fitted, H[c])
                i += 1


def fit_coefficients(dataset: FunctionalDataset, spec: BasisSpec,
                     config: PenaltyConfig) -> FitModel:
    """Fit all curves of a dataset in one shared penalized system.

    The sample grid must lie inside the spec's domain, and the design must
    have full column rank or the penalty weights must make H positive
    definite.  A perfect fit leaves the GCV slot at +inf (flagged) because
    its denominator vanishes.  This is the one-row case of fit_stack.
    """
    as_instance(dataset, FunctionalDataset, "dataset"), as_instance(spec, BasisSpec, "spec")
    weights = penalty_weights(as_instance(config, PenaltyConfig, "config"), spec.order)[None]
    ((_, why, fit),) = fit_spec(dataset, spec, weights)
    if why:
        raise NotPositiveDefiniteError(why)
    coeffs, diags, _ = fit
    return FitModel(spec=spec, config=config, coeffs=coeffs, diagnostics=diags)


def fit_spec(dataset: FunctionalDataset, spec: BasisSpec, weights: np.ndarray):
    """fit_stack with full=True on one basis under each row of penalty weights.

    The sample grid is checked against the spec's domain first (as
    eval_design checks it).
    """
    t = _check_points(spec, dataset.t)
    knots = np.broadcast_to(spec._full_arr, (len(weights), spec._full_arr.size))
    return fit_stack(knots, spec.order, [dataset], weights, full=True, t=t)

