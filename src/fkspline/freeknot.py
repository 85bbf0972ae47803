"""Free-knot placement by unconstrained optimization of log gap ratios.

Interior knots are reparameterized by the log-ratio transform: component i
is the log of the ratio of consecutive knot gaps.  The transform is a
bijection between strictly increasing interior knot vectors and all of R^p,
so the knot search runs as plain unconstrained Gauss-Newton on the
variable-projection objective (the residual sum of squares of the penalized
fit at those knots, coefficients solved exactly).

Knots are added one at a time: each round scans a candidate grid, keeps the
already accepted knots, refines the best candidate, and either stops by a
GCV rule or continues to a fixed count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import make_basis_spec
from .data import FunctionalDataset
from .errors import (
    AllCandidatesSingularError,
    ConfigError,
    NonFiniteInputError,
    NonIncreasingKnotsError,
)
from .penalty import PenaltyConfig
from .smoother import FitModel, fit_coefficients, residual_stack, sse_stack

__all__ = [
    "JuppCoords",
    "KnotSearchConfig",
    "GaussNewtonResult",
    "StageRecord",
    "FreeKnotResult",
    "jupp",
    "jupp_inverse",
    "objective_f",
    "gauss_newton_refine",
    "add_knots_gradually",
    "fit_free_knot",
]


@dataclass(frozen=True)
class JuppCoords:
    """Unconstrained coordinates of an interior knot vector on [lo, hi]."""

    values: np.ndarray  # (p,) log gap ratios
    lo: float
    hi: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", values)
        if not self.lo < self.hi:
            raise ConfigError(f"domain [{self.lo}, {self.hi}] has nonpositive length")
        if not np.all(np.isfinite(values)):
            raise NonFiniteInputError("log gap ratios must be finite")

    @property
    def p(self) -> int:
        return self.values.size


def _gap_ratios(tau: np.ndarray, lo: float, hi: float):
    """Gaps and log gap ratios of each row of knots (..., p) on [lo, hi].

    Rows whose gaps are not all positive get non-finite ratios.
    """
    ends = np.ones(tau.shape[:-1] + (1,))
    gaps = np.diff(np.concatenate([lo * ends, tau, hi * ends], axis=-1), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return gaps, np.diff(np.log(gaps), axis=-1)


def _knots_from_ratios(k: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Interior knots of each row of log gap ratios (..., p) on [lo, hi].

    Gap weights are normalized through a shifted softmax, so each row is
    strictly increasing for any finite input that does not underflow the
    gap widths.
    """
    # log of gap i relative to gap 0 is the cumulative sum of k.
    logw = np.concatenate([np.zeros(k.shape[:-1] + (1,)), np.cumsum(k, axis=-1)], axis=-1)
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    cum = np.cumsum(w[..., :-1], axis=-1) / w.sum(axis=-1, keepdims=True)
    return lo + (hi - lo) * cum


def jupp(knots, lo: float, hi: float) -> JuppCoords:
    """Map strictly increasing interior knots to log gap ratios.

    Component i is log((tau_{i+1} - tau_i) / (tau_i - tau_{i-1})) with the
    domain endpoints standing in for tau_0 and tau_{p+1}.
    """
    tau = np.asarray(knots, dtype=float).reshape(-1)
    if not np.all(np.isfinite(tau)):
        raise NonFiniteInputError("knots must be finite")
    gaps, ratios = _gap_ratios(tau, lo, hi)
    if np.any(gaps <= 0):
        raise NonIncreasingKnotsError(
            "knots must be strictly increasing and strictly inside the domain"
        )
    return JuppCoords(values=ratios, lo=float(lo), hi=float(hi))


def jupp_inverse(coords: JuppCoords) -> np.ndarray:
    """Reconstruct the interior knots from log gap ratios.

    Stable for large components (see _knots_from_ratios).
    """
    return _knots_from_ratios(coords.values, coords.lo, coords.hi)


# Gauss-Newton settings.  _OBJECTIVE_TOL is the relative-improvement floor:
# a successful step gaining less than this fraction stops the refinement,
# which also starves the slow knot-coalescence drift that plain least
# squares rewards when data are noisy.
_MAX_ITERATIONS = 30
_STEP_TOL = 1e-5
_OBJECTIVE_TOL = 1e-4
_DAMPING = 1e-3
_FD_STEP = 1e-6
# GCV stopping rule of add_knots_gradually when fixed_p is off.
_GCV_REL_TOL = 1e-3
_GCV_PATIENCE = 2


@dataclass(frozen=True)
class KnotSearchConfig:
    """Settings for the knot search driver and its Gauss-Newton refiner."""

    order: int = 4
    max_knots: int = 8
    grid_size: int = 50
    fixed_p: bool = False

    def __post_init__(self):
        if int(self.order) != self.order or self.order < 2:
            raise ConfigError("order must be an integer >= 2")
        if self.max_knots < 1:
            raise ConfigError("max_knots must be at least 1")
        if self.grid_size < 2:
            raise ConfigError("grid_size must be at least 2")


def _fit_at(coords: JuppCoords, dataset, config, order) -> FitModel:
    spec = make_basis_spec(coords.lo, coords.hi, order, jupp_inverse(coords))
    return fit_coefficients(dataset, spec, config)


def objective_f(coords: JuppCoords, dataset: FunctionalDataset, config: PenaltyConfig,
                order: int = 4) -> float:
    """Residual sum of squares of the penalized fit at these knots.

    The coefficients are projected out exactly, so this equals the sse
    reported by the fit at the reconstructed knot vector.
    """
    return _fit_at(coords, dataset, config, order).diagnostics.sse


@dataclass(frozen=True)
class GaussNewtonResult:
    """Refined coordinates, the fit there, plus convergence information."""

    coords: JuppCoords
    objective: float
    iterations: int
    converged: bool
    model: FitModel  # the penalized fit at coords
    step_failure: bool = False  # no damped step improved the objective


def _fittable_rows(ratios: np.ndarray, lo: float, hi: float, order: int):
    """The rows of log gap ratios (C, p) that a fit accepts, with their clamped knots.

    A row is accepted when its ratios are finite and the clamped knot vector
    of its knots (jupp_inverse) is strictly increasing from lo to hi, the
    rule JuppCoords and make_basis_spec enforce.  Returns the indices of
    those rows and their (kept, p + 2 * order) clamped knot vectors.
    """
    finite = np.flatnonzero(np.all(np.isfinite(ratios), axis=1))
    ends = np.ones((finite.size, order))
    full = np.concatenate([lo * ends, _knots_from_ratios(ratios[finite], lo, hi), hi * ends],
                          axis=1)
    valid = np.all(np.diff(full[:, order - 1 : full.shape[1] - order + 1], axis=1) > 0, axis=1)
    return finite[valid], full[valid]


def _residual_rows(ratios: np.ndarray, lo: float, hi: float, dataset: FunctionalDataset,
                   config: PenaltyConfig, order: int) -> list:
    """Raveled residuals of the fit at each row of log gap ratios (C, p), in one stack.

    Entry c is None where the row cannot be fitted or its system is refused,
    that is where the fit at those coordinates would raise.
    """
    out = [None] * len(ratios)
    kept, full = _fittable_rows(ratios, lo, hi, order)
    for i, residual in residual_stack(full, order, dataset, config):
        out[kept[i]] = residual.ravel()
    return out


def _jacobian(k: np.ndarray, r: np.ndarray, residuals):
    """Residual and forward-difference Jacobian at log gap ratios k, as stacks.

    residuals maps a (C, p) stack of coordinates to a list of raveled
    residual vectors, None where a row cannot be fitted (_residual_rows).
    Row 0 of one (p + 1)-row stack is the current point and row i + 1 is
    k + step_i e_i, step_i = _FD_STEP * (1 + |k_i|): column i is row i + 1
    minus row 0 over step_i.  A perturbed point that cannot be fitted (knot
    gaps underflow, or the system is refused) gets a backward step, all of
    them in one second stack; a column that fails both ways is zero.  r,
    the residual at k from an earlier fit, stands in for row 0 if the stack
    refuses that by roundoff.
    """
    p = k.size
    steps = _FD_STEP * (1.0 + np.abs(k))
    forward = residuals(k + np.vstack([np.zeros(p), np.diag(steps)]))
    r = r if forward[0] is None else forward[0]
    failed = [i for i in range(p) if forward[i + 1] is None]
    backward = dict(zip(failed, residuals(k - np.diag(steps)[failed]))) if failed else {}
    jac = np.zeros((r.size, p))
    for i in range(p):
        resid, step = forward[i + 1], steps[i]
        if resid is None:
            resid, step = backward[i], -step
        if resid is not None:
            jac[:, i] = (resid - r) / step
    return r, jac


def gauss_newton_refine(coords: JuppCoords, dataset: FunctionalDataset,
                        config: PenaltyConfig, search: KnotSearchConfig) -> GaussNewtonResult:
    """Damped Gauss-Newton descent on the knot objective.

    Each iteration takes the residual and its forward-difference Jacobian
    from one stacked evaluation (smoother.residual_stack) of the current
    point and its p perturbed points (see _jacobian), and trial steps are
    one-row stacks, so no per-column fit is made.  The damping parameter
    grows tenfold when a step fails to decrease the objective and shrinks
    tenfold on success.  The best iterate seen is always returned, so the
    result never exceeds the starting objective; only it is fitted with
    fit_coefficients, and the objective is the sse of that fit.
    """
    k = coords.values.copy()
    lo, hi = coords.lo, coords.hi
    p = k.size
    model = _fit_at(coords, dataset, config, search.order)
    if p == 0:
        return GaussNewtonResult(coords, model.diagnostics.sse, 0, True, model)
    min_gap = _knot_radius(lo, hi, search)

    def residuals(rows):
        return _residual_rows(rows, lo, hi, dataset, config, search.order)

    r = model.diagnostics.residuals.ravel()
    f = float(r @ r)
    mu = _DAMPING
    iterations = 0
    converged = False
    step_failure = False
    for iterations in range(1, _MAX_ITERATIONS + 1):
        r, jac = _jacobian(k, r, residuals)
        g = jac.T @ r
        jtj = jac.T @ jac
        if np.linalg.norm(g) <= 1e-14 * (1.0 + f):
            converged = True
            break
        improved = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(jtj + mu * np.eye(p), -g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            k_new = k + delta
            # knots drifting together chase noise through high-leverage
            # spans; such trial points are treated as infeasible
            if p >= 2 and float(np.diff(_knots_from_ratios(k_new, lo, hi)).min()) < min_gap:
                mu *= 10.0
                continue
            (r_new,) = residuals(k_new[None])
            if r_new is None:
                mu *= 10.0
                continue
            f_new = float(r_new @ r_new)
            if f_new < f:
                step_norm = float(np.max(np.abs(delta)))
                rel_drop = (f - f_new) / max(f, 1e-300)
                k, r, f, model = k_new, r_new, f_new, None
                mu = max(mu / 10.0, 1e-12)
                improved = True
                if step_norm < _STEP_TOL or rel_drop < _OBJECTIVE_TOL:
                    converged = True
                break
            mu *= 10.0
        if not improved:
            step_failure = True
            break
        if converged:
            break
    best = JuppCoords(k, lo, hi)
    if model is None:  # a step was taken: fit the best iterate
        model = _fit_at(best, dataset, config, search.order)
    return GaussNewtonResult(
        coords=best, objective=model.diagnostics.sse, iterations=iterations,
        converged=converged, model=model, step_failure=step_failure,
    )


@dataclass(frozen=True)
class StageRecord:
    """One accepted stage of the gradual knot search."""

    p: int
    knots: np.ndarray
    coords: JuppCoords
    objective: float
    gcv: float
    df: float


@dataclass(eq=False)
class FreeKnotResult:
    """Outcome of the gradual knot addition search."""

    stages: list[StageRecord] = field(default_factory=list)
    chosen: StageRecord | None = None
    model: FitModel | None = None
    stopped_early: bool = False

    @property
    def p(self) -> int:
        return self.chosen.p

    @property
    def knots(self) -> np.ndarray:
        return self.chosen.knots

    @property
    def coords(self) -> JuppCoords:
        return self.chosen.coords

    @property
    def objective_trace(self) -> np.ndarray:
        return np.array([s.objective for s in self.stages])

    @property
    def gcv_trace(self) -> np.ndarray:
        return np.array([s.gcv for s in self.stages])


def _knot_radius(lo, hi, search) -> float:
    """Minimum spacing enforced between knots: a quarter of the mean
    inter-knot distance when the full knot budget is spread over the
    domain."""
    return (hi - lo) / (4.0 * search.max_knots)


def _candidate_grid(lo, hi, existing, search) -> np.ndarray:
    """Equally spaced interior candidates minus exclusion zones around knots."""
    grid = np.linspace(lo, hi, search.grid_size + 2)[1:-1]
    if existing.size == 0:
        return grid
    dist = np.abs(grid[:, None] - existing[None, :]).min(axis=1)
    return grid[dist > _knot_radius(lo, hi, search)]


def _stage_record(coords: JuppCoords, model: FitModel) -> StageRecord:
    d = model.diagnostics
    return StageRecord(
        p=coords.p, knots=jupp_inverse(coords), coords=coords,
        objective=d.sse, gcv=d.gcv, df=d.df,
    )


def _scan(existing: np.ndarray, dataset: FunctionalDataset, config: PenaltyConfig,
          search: KnotSearchConfig):
    """Score the insertion of every grid candidate into the accepted knots.

    Row c of the returned (C, p + 1) array holds the log gap ratios of the
    knots with candidate c inserted, jupp of those knots; entry c of the
    scores is objective_f at those coordinates up to roundoff, or nan where
    objective_f would raise.  All candidates of a round are scored in one
    stacked evaluation.
    """
    lo, hi = dataset.domain
    order = search.order
    grid = _candidate_grid(lo, hi, existing, search)
    tau = np.sort(np.column_stack([np.broadcast_to(existing, (grid.size, existing.size)), grid]),
                  axis=1)
    # a zero gap (knots that coincide in floating point) gives a
    # non-finite ratio, which _fittable_rows turns away
    _, ratios = _gap_ratios(tau, lo, hi)
    kept, full = _fittable_rows(ratios, lo, hi, order)
    scores = np.full(grid.size, np.nan)
    scores[kept] = sse_stack(full, order, dataset, config)
    return ratios, scores


def add_knots_gradually(dataset: FunctionalDataset, config: PenaltyConfig,
                        search: KnotSearchConfig) -> FreeKnotResult:
    """Grow the interior knot vector one knot per round.

    Each round inserts every surviving grid candidate into the accepted
    knots, starts Gauss-Newton from the best insertion (the first of equal
    scores), and records the refined stage.  With fixed_p the final stage
    is selected; otherwise the search stops once the GCV score has failed
    to improve by _GCV_REL_TOL (relative) for _GCV_PATIENCE consecutive
    rounds, and the best-GCV stage is selected.  Knots are placed inside the
    dataset's domain.
    """
    lo, hi = dataset.domain
    order = search.order
    result = FreeKnotResult()
    coords = JuppCoords(np.empty(0), lo, hi)
    model = best_model = _fit_at(coords, dataset, config, order)
    best = _stage_record(coords, model)
    result.stages.append(best)
    bad_streak = 0
    for _ in range(search.max_knots):
        last = result.stages[-1]
        ratios, scores = _scan(last.knots, dataset, config, search)
        scored = np.flatnonzero(np.isfinite(scores))
        if scored.size == 0:
            failures = int(np.isnan(scores).sum())
            if failures:
                raise AllCandidatesSingularError(
                    f"all {failures} candidate knots failed at p={last.p + 1}; "
                    f"the last feasible stage has p={last.p} and knots "
                    f"{[float(x) for x in last.knots]}"
                )
            break  # grid exhausted by exclusion zones
        best_cand = JuppCoords(ratios[scored[np.argmin(scores[scored])]], lo, hi)
        refined = gauss_newton_refine(best_cand, dataset, config, search)
        model = refined.model
        record = _stage_record(refined.coords, model)
        result.stages.append(record)
        if record.gcv < best.gcv * (1.0 - _GCV_REL_TOL):
            best, best_model = record, model
            bad_streak = 0
        else:
            if record.gcv < best.gcv:
                best, best_model = record, model
            bad_streak += 1
            if not search.fixed_p and bad_streak >= _GCV_PATIENCE:
                result.stopped_early = True
                break
    if search.fixed_p:
        result.chosen, result.model = result.stages[-1], model
    else:
        result.chosen, result.model = best, best_model
    result.model.knot_search = result
    return result


def fit_free_knot(dataset: FunctionalDataset, config: PenaltyConfig,
                  search: KnotSearchConfig) -> FitModel:
    """Run the knot search and return the fit at the selected knot vector."""
    return add_knots_gradually(dataset, config, search).model
