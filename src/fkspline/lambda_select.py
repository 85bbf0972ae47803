"""GCV-driven selection of the two penalty weights over a log-spaced grid."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec
from .data import FunctionalDataset
from .errors import (AllCellsFailedError, ConfigError, FkSplineError, NotPositiveDefiniteError,
                     as_instance, as_real)
from .freeknot import KnotSearchConfig, _Jobs, add_knots_gradually, refine_fits
from .penalty import PenaltyConfig
from .smoother import fit_spec, penalty_weights

__all__ = ["LambdaGrid", "GridSearchResult", "gcv_grid_search"]

DEFAULT_EXPONENTS = tuple(range(-8, 5))


@dataclass(frozen=True)
class LambdaGrid:
    """Strictly positive candidate values shared by both penalty weights.

    values is a number or an array of them, in any order and shape; each
    entry goes through errors.as_real, so anything but a finite real
    number is a ConfigError.
    """

    values: tuple[float, ...] = field(
        default_factory=lambda: tuple(10.0**l for l in DEFAULT_EXPONENTS)
    )

    def __post_init__(self):
        values = np.sort([as_real(v, "lambda grid value")
                          for v in np.ravel(np.asarray(self.values, dtype=object))])
        if values.size == 0:
            raise ConfigError("lambda grid must be nonempty")
        if values[0] <= 0:
            raise ConfigError("lambda grid values must be positive and finite")
        if np.any(values[1:] == values[:-1]):
            raise ConfigError("lambda grid values must be distinct")
        object.__setattr__(self, "values", tuple(float(v) for v in values))

    @classmethod
    def from_exponents(cls, exponents) -> "LambdaGrid":
        """The grid of 10**l for each finite number l of a sequence (errors.as_real)."""
        try:
            exponents = list(exponents)
        except TypeError:
            raise ConfigError(f"lambda grid exponents must be a sequence of numbers, "
                              f"got {exponents!r}") from None
        try:
            values = [10.0**as_real(l, "lambda grid exponent") for l in exponents]
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
    lambda2.  A weight on a derivative order the splines cannot carry raises
    DerivativeOrderTooHighError before any cell is fitted.  Failed cells are
    recorded and skipped; if every cell fails the search raises.

    A cell's GCV needs only its fit's sse and df, so every fit of the
    search, knot placement included, runs on the dataset's reduced data
    (FunctionalDataset.reduced): h x min(h, n) values for h points and n
    curves.  df and knots are those of the full data bit for bit; sse and
    GCV agree with the full data's to roundoff.
    """
    as_instance(dataset, FunctionalDataset, "dataset")
    grid = LambdaGrid() if grid is None else as_instance(grid, LambdaGrid, "grid")
    if mode not in ("fixed", "free"):
        raise ConfigError(f"mode must be 'fixed' or 'free', got {mode!r}")
    if lambda1_pinned is None:
        l1_values = tuple(grid.values)
    else:
        l1_values = (as_real(lambda1_pinned, "pinned lambda1", 0.0),)
    l2_values = tuple(grid.values)
    configs = [PenaltyConfig(lambda1=float(l1), lambda2=float(l2))
               for l1 in l1_values for l2 in l2_values]
    if mode == "fixed" and spec is None:
        raise ConfigError("fixed-knots mode needs a basis spec")
    if mode == "free" and search is None:
        raise ConfigError("free-knots mode needs a knot search config")
    # a penalty the splines cannot carry is a config error before any work
    order = (as_instance(spec, BasisSpec, "spec") if mode == "fixed"
             else as_instance(search, KnotSearchConfig, "search")).order
    weights = np.array([penalty_weights(config, order) for config in configs])
    dataset = dataset.reduced
    if mode == "fixed":
        fits = _fixed_fits(dataset, spec, weights)
    else:
        fits = _free_fits(dataset, search, configs)

    shape = (len(l1_values), len(l2_values))
    scores = np.full(shape, np.nan)
    dfs = np.full(shape, np.nan)
    sses = np.full(shape, np.nan)
    failures = []
    for (i, j), fit in zip(np.ndindex(shape), fits):
        if not isinstance(fit, Exception) and fit.gcv_degenerate:
            fit = FkSplineError("degenerate GCV denominator")
        if isinstance(fit, Exception):
            failures.append((l1_values[i], l2_values[j], f"{type(fit).__name__}: {fit}"))
            continue
        scores[i, j] = fit.gcv
        dfs[i, j] = fit.df
        sses[i, j] = fit.sse
    best_gcv, best_l1, best_l2, _, _ = _select_best(scores, l1_values, l2_values)
    return GridSearchResult(
        lambda1=float(best_l1), lambda2=float(best_l2), gcv=float(best_gcv),
        lambda1_values=l1_values, lambda2_values=l2_values,
        scores=scores, df=dfs, sse=sses, failures=failures, mode=mode,
    )


@dataclass(frozen=True)
class _CellFit:
    """The numbers a grid cell keeps of its fit."""

    gcv: float
    df: float
    sse: float
    gcv_degenerate: bool

    @classmethod
    def of(cls, d) -> "_CellFit":
        return cls(d.gcv, d.df, d.sse, d.gcv_degenerate)


def _fixed_fits(dataset, spec, weights) -> list:
    """Each cell's fit at the spec's knots, or the error the fit raised.

    Row c of weights holds cell c's penalty_weights; all cells are one
    stack on one basis (smoother.fit_spec), fitted to the dataset as given
    (gcv_grid_search passes the reduced one).
    """
    try:
        fits = fit_spec(dataset, spec, weights)
    except FkSplineError as exc:  # the sample grid does not fit the spec: no cell fits
        return [exc] * len(weights)
    return [NotPositiveDefiniteError(why) if why else _CellFit.of(fit[1]) for _, why, fit in fits]


def _free_fits(dataset, search, configs) -> list:
    """Each cell's best refined fit over the warm starts, or the error of the
    first warm start whose refinement raised.

    The warm starts are the stages of the zero-penalty knot search, p = 0
    included.  Each cell is one job (freeknot._Jobs), and every (warm
    start, cell) pair is refined by one freeknot.refine_fits call, the
    pairs of each knot count in lockstep; a cell keeps the first warm start
    of smallest GCV.  The warm-start search, the descents and the result fits all run
    on the dataset as given (gcv_grid_search passes the reduced one).
    """
    warm = [stage.coords.values
            for stage in add_knots_gradually(dataset, PenaltyConfig(), search).stages]
    cells = len(configs)
    jobs = _Jobs([dataset] * cells, configs, [dataset.domain] * cells, search.order)
    outcomes = [None] * (len(warm) * cells)
    for i, outcome, fit in refine_fits([start for start in warm for _ in configs],
                                       list(range(cells)) * len(warm), jobs, search):
        outcomes[i] = outcome.error if fit is None else _CellFit.of(fit[1])
    fits = []
    for c in range(cells):
        tried = outcomes[c::cells]
        failed = [fit for fit in tried if isinstance(fit, Exception)]
        fits.append(failed[0] if failed else min(tried, key=lambda fit: fit.gcv))
    return fits
