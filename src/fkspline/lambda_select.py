"""GCV-driven selection of the two penalty weights over a log-spaced grid."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec
from .data import FunctionalDataset
from .errors import AllCellsFailedError, ConfigError, FkSplineError
from .freeknot import KnotSearchConfig, add_knots_gradually, gauss_newton_refine
from .penalty import PenaltyConfig, penalty_matrix
from .smoother import fit_coefficients

__all__ = ["LambdaGrid", "GridSearchResult", "gcv_grid_search"]

DEFAULT_EXPONENTS = tuple(range(-8, 5))


@dataclass(frozen=True)
class LambdaGrid:
    """Strictly positive candidate values shared by both penalty weights."""

    values: tuple[float, ...] = field(
        default_factory=lambda: tuple(10.0**l for l in DEFAULT_EXPONENTS)
    )

    def __post_init__(self):
        values = np.sort(np.asarray(self.values, dtype=float).reshape(-1))
        if values.size == 0:
            raise ConfigError("lambda grid must be nonempty")
        if values[0] <= 0 or not np.all(np.isfinite(values)):
            raise ConfigError("lambda grid values must be positive and finite")
        if np.unique(values).size != values.size:
            raise ConfigError("lambda grid values must be distinct")
        object.__setattr__(self, "values", tuple(float(v) for v in values))

    @classmethod
    def from_exponents(cls, exponents) -> "LambdaGrid":
        try:
            values = [10.0**float(l) for l in exponents]
        except OverflowError:
            raise ConfigError("lambda grid values must be positive and finite") from None
        return cls(np.array(values))

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass(eq=False)
class GridSearchResult:
    """Selected weights plus the full score table.

    scores[i, j] is the GCV at (lambda1_values[i], lambda2_values[j]); cells
    that failed numerically hold nan and are listed in failures.
    """

    lambda1: float
    lambda2: float
    gcv: float
    lambda1_values: tuple[float, ...]
    lambda2_values: tuple[float, ...]
    scores: np.ndarray
    df: np.ndarray
    sse: np.ndarray
    failures: list
    mode: str


def _select_best(scores: np.ndarray, l1_values, l2_values):
    """Argmin cell; exact ties go to the cell with the larger weight sum."""
    best = None
    for i, l1 in enumerate(l1_values):
        for j, l2 in enumerate(l2_values):
            s = scores[i, j]
            if not np.isfinite(s):
                continue
            if best is None or s < best[0] or (s == best[0] and l1 + l2 > best[1] + best[2]):
                best = (s, l1, l2, i, j)
    if best is None:
        raise AllCellsFailedError("every grid cell failed to produce a GCV score")
    return best


def _free_knot_warm_starts(dataset, search):
    """FS0 knot trajectory, p = 0 included, reused as starting points for every cell."""
    base = add_knots_gradually(dataset, PenaltyConfig(), search)
    return [stage.coords for stage in base.stages]


def gcv_grid_search(dataset: FunctionalDataset, grid: LambdaGrid | None = None,
                    spec: BasisSpec | None = None,
                    search: KnotSearchConfig | None = None,
                    mode: str = "fixed",
                    lambda1_pinned: float | None = None) -> GridSearchResult:
    """Minimize GCV over the Cartesian grid of penalty weights.

    mode "fixed" evaluates every cell at the pinned knot set of `spec`;
    mode "free" reruns the knot placement per cell, warm-started from the
    zero-penalty trajectory.  Pinning lambda1 (e.g. to 0 for a single
    second-derivative penalty) turns the search into a 1-D scan over
    lambda2.  Failed cells are recorded and skipped; if every cell fails the
    search raises.
    """
    grid = grid or LambdaGrid()
    if mode not in ("fixed", "free"):
        raise ConfigError(f"mode must be 'fixed' or 'free', got {mode!r}")
    if lambda1_pinned is None:
        l1_values = tuple(grid.values)
    else:
        if not 0 <= lambda1_pinned < np.inf:
            raise ConfigError("pinned lambda1 must be nonnegative and finite")
        l1_values = (float(lambda1_pinned),)
    l2_values = tuple(grid.values)
    if mode == "fixed":
        if spec is None:
            raise ConfigError("fixed-knots mode needs a basis spec")
        penalties = [penalty_matrix(spec, 1), penalty_matrix(spec, 2)]
    else:
        if search is None:
            raise ConfigError("free-knots mode needs a knot search config")
        warm_starts = _free_knot_warm_starts(dataset, search)

    shape = (len(l1_values), len(l2_values))
    scores = np.full(shape, np.nan)
    dfs = np.full(shape, np.nan)
    sses = np.full(shape, np.nan)
    failures = []
    for i, l1 in enumerate(l1_values):
        for j, l2 in enumerate(l2_values):
            config = PenaltyConfig(lambda1=float(l1), lambda2=float(l2))
            try:
                if mode == "fixed":
                    model = fit_coefficients(dataset, spec, config, penalties=penalties)
                else:
                    model = _fit_cell_free(dataset, config, search, warm_starts)
                d = model.diagnostics
                if d.gcv_degenerate:
                    raise FkSplineError("degenerate GCV denominator")
            except (FkSplineError, np.linalg.LinAlgError) as exc:
                failures.append((float(l1), float(l2), f"{type(exc).__name__}: {exc}"))
                continue
            scores[i, j] = d.gcv
            dfs[i, j] = d.df
            sses[i, j] = d.sse
    best_gcv, best_l1, best_l2, _, _ = _select_best(scores, l1_values, l2_values)
    return GridSearchResult(
        lambda1=float(best_l1), lambda2=float(best_l2), gcv=float(best_gcv),
        lambda1_values=l1_values, lambda2_values=l2_values,
        scores=scores, df=dfs, sse=sses, failures=failures, mode=mode,
    )


def _fit_cell_free(dataset, config, search, warm_starts):
    """Best fit for one cell: refine each warm-start knot set under this config."""
    fits = (gauss_newton_refine(coords, dataset, config, search).model for coords in warm_starts)
    return min(fits, key=lambda model: model.diagnostics.gcv)
