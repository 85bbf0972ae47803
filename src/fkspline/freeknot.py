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

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisSpec, _MAX_ORDER, _check_points, derivative_stack, make_basis_spec
from .data import FunctionalDataset
from .errors import (
    AllCandidatesSingularError,
    ConfigError,
    FkSplineError,
    LengthMismatchError,
    NonFiniteInputError,
    NonIncreasingKnotsError,
    NotPositiveDefiniteError,
    as_instance,
    as_integer,
    as_real,
    as_reals,
)
from .penalty import PenaltyConfig, _panel_rule
from .smoother import FitModel, fit_coefficients, fit_stack, penalty_weights

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
    "add_knots_lockstep",
    "fit_free_knot",
]


@dataclass(frozen=True)
class JuppCoords:
    """Unconstrained coordinates of an interior knot vector on [lo, hi]."""

    values: np.ndarray  # (p,) log gap ratios
    lo: float
    hi: float

    def __post_init__(self):
        values = as_reals(self.values, "log gap ratios", NonFiniteInputError).reshape(-1)
        object.__setattr__(self, "values", values)
        for name in ("lo", "hi"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        if not self.lo < self.hi:
            raise ConfigError(f"domain [{self.lo}, {self.hi}] has nonpositive length")
        _check_width(self.lo, self.hi)
        if not np.all(np.isfinite(values)):
            raise NonFiniteInputError("log gap ratios must be finite")

    @property
    def p(self) -> int:
        return self.values.size


def _check_width(lo: float, hi: float) -> None:
    if not math.isfinite(hi - lo):
        raise ConfigError(f"domain [{lo}, {hi}] is wider than the float range")


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
    # log of gap i relative to gap 0 is the cumulative sum of k; the ufunc methods
    # skip the Python wrappers of np.cumsum, .max() and .sum(), paid on every stack
    logw = np.concatenate([np.zeros(k.shape[:-1] + (1,)), np.add.accumulate(k, axis=-1)], axis=-1)
    logw -= np.maximum.reduce(logw, axis=-1, keepdims=True)
    w = np.exp(logw)
    cum = np.add.accumulate(w[..., :-1], axis=-1) / np.add.reduce(w, axis=-1, keepdims=True)
    return lo + (hi - lo) * cum


def jupp(knots, lo: float, hi: float) -> JuppCoords:
    """Map strictly increasing interior knots to log gap ratios.

    Component i is log((tau_{i+1} - tau_i) / (tau_i - tau_{i-1})) with the
    domain endpoints standing in for tau_0 and tau_{p+1}.
    """
    tau = as_reals(knots, "knots", NonFiniteInputError).reshape(-1)
    if not np.all(np.isfinite(tau)):
        raise NonFiniteInputError("knots must be finite")
    lo, hi = as_real(lo, "lo"), as_real(hi, "hi")
    _check_width(lo, hi)
    gaps, ratios = _gap_ratios(tau, lo, hi)
    if np.any(gaps <= 0):
        raise NonIncreasingKnotsError(
            "knots must be strictly increasing and strictly inside the domain"
        )
    return JuppCoords(values=ratios, lo=lo, hi=hi)


def jupp_inverse(coords: JuppCoords) -> np.ndarray:
    """Reconstruct the interior knots from log gap ratios.

    Stable for large components (see _knots_from_ratios).
    """
    return _knots_from_ratios(as_instance(coords, JuppCoords, "coords").values, coords.lo, coords.hi)


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
# Scan scores this many ulp (relative) above the best tie with it.
_TIE_ULPS = 4
# The scan's screen (_bordered) is within 2.9e-13 of the parent's sse of
# the exact score (largest over every candidate of pool seeds 0-63: fs0
# 3.8e-15, fs2 2.9e-13, alphas (1e-6, 0, 1e-5) 2.2e-13), so a window of
# _SCREEN_WINDOW times that sse keeps every possible winner with six orders
# of magnitude to spare; a Schur complement below _SCHUR_FLOOR of its
# diagonal is too near singular to trust.  A parent fitting the data to
# roundoff leaves no score to rank: _ROUNDOFF_FLOOR times the data's
# squared norm, added to the sse, then has every candidate fitted.
_SCREEN_WINDOW = 1e-6
_SCHUR_FLOOR = 1e-8
_ROUNDOFF_FLOOR = 1e-12


@dataclass(frozen=True)
class KnotSearchConfig:
    """Settings for the knot search driver and its Gauss-Newton refiner; order
    <= 32 (basis._MAX_ORDER), max_knots <= 1,000 and grid_size <= 10,000."""

    order: int = 4
    max_knots: int = 8
    grid_size: int = 50
    fixed_p: bool = False

    def __post_init__(self):
        # integral values are stored as int, as BasisSpec stores its order
        for name, least, most in (("order", 2, _MAX_ORDER), ("max_knots", 1, 1000),
                                  ("grid_size", 2, 10000)):
            object.__setattr__(self, name, as_integer(getattr(self, name), least, name, most=most))
        if not isinstance(self.fixed_p, bool):
            raise ConfigError(f"fixed_p must be a bool, got {self.fixed_p!r}")


def _spec(coords: JuppCoords, order: int) -> BasisSpec:
    return make_basis_spec(coords.lo, coords.hi, order, jupp_inverse(coords))


def objective_f(coords: JuppCoords, dataset: FunctionalDataset, config: PenaltyConfig,
                order: int = 4) -> float:
    """Residual sum of squares of the penalized fit at these knots.

    The coefficients are projected out exactly, so this equals the sse
    reported by the fit at the reconstructed knot vector.
    """
    spec = _spec(as_instance(coords, JuppCoords, "coords"), order)
    return fit_coefficients(dataset, spec, config).diagnostics.sse


@dataclass(frozen=True)
class GaussNewtonResult:
    """Refined coordinates, the fit there, plus convergence information."""

    coords: JuppCoords
    objective: float
    iterations: int
    converged: bool
    model: FitModel  # the penalized fit at coords
    step_failure: bool = False  # no damped step improved the objective


def _fittable_rows(ratios: np.ndarray, lo: np.ndarray, hi: np.ndarray, order: int):
    """The rows of log gap ratios (C, p) that a fit accepts, with their clamped knots.

    A row is accepted when its ratios are finite and the clamped knot vector
    of its knots (jupp_inverse) is strictly increasing from lo[c] to hi[c],
    the rule JuppCoords and make_basis_spec enforce.
    Returns the indices of those rows and their clamped knot vectors.
    """
    C, p = ratios.shape
    ok = np.logical_and.reduce(np.isfinite(ratios), axis=1)
    full = np.empty((C, p + 2 * order))
    full[:, :order], full[:, order + p:] = lo[:, None], hi[:, None]
    # a row that is not finite is given zero ratios, then refused
    full[:, order : order + p] = _knots_from_ratios(
        ratios if ok.all() else np.where(ok[:, None], ratios, 0.0), lo[:, None], hi[:, None])
    rising = full[:, order : order + p + 1] > full[:, order - 1 : order + p]
    kept = (ok & np.logical_and.reduce(rising, axis=1)).nonzero()[0]
    return kept, full if kept.size == C else full[kept]


def _by_size(rows, tags=None):
    """(indices, (len, size) stack) of the rows (1-D arrays) of each size (and
    tag), in a list in order of first appearance; a 2-D array of one tag is one stack."""
    if isinstance(rows, np.ndarray) and len(set(tags or [None])) == 1:
        return [(list(range(len(rows))), rows)] if len(rows) else []
    groups = {}
    for c, row in enumerate(rows):
        groups.setdefault((row.size, None if tags is None else tags[c]), []).append(c)
    return [(group, np.array([rows[c] for c in group]).reshape(len(group), p))
            for (p, _), group in groups.items()]


class _Jobs:
    """Each job's setup, built once per search and read by every stack (_fits).

    Job j fits datasets[j] under configs[j] on domains[j] = (lo[j], hi[j]),
    with penalty_weights weights[j] and errors[j], the FkSplineError any fit
    of job j raises (sample points outside the domain, a penalty order the
    splines cannot carry) or None; jobs on one dataset object share it
    (which)."""

    def __init__(self, datasets, configs, domains, order: int):
        index = {}
        self.which = np.array([index.setdefault(id(ds), len(index)) for ds in datasets], dtype=int)
        self.datasets = list({id(ds): ds for ds in datasets}.values())
        self.shapes = [ds.values.shape for ds in self.datasets]
        self.lo, self.hi = np.array(domains, dtype=float).reshape(-1, 2).T
        self.order = order
        self.weights = np.zeros((self.which.size, order))
        self.errors = [None] * self.which.size
        inside = set()  # the (dataset, domain) pairs whose sample points were checked
        for j, (dataset, config) in enumerate(zip(datasets, configs)):
            key = (self.which[j], self.lo[j], self.hi[j])
            try:
                if key not in inside:
                    _check_points(make_basis_spec(self.lo[j], self.hi[j], order), dataset.t)
                    inside.add(key)
                self.weights[j] = penalty_weights(config, order)
            except FkSplineError as exc:
                self.errors[j] = exc


def _fits(rows, jobs: _Jobs, owner, full: bool = False, mapped: bool = False, systems=None):
    """Penalized fits at rows of log gap ratios of any lengths, in stacks.

    Row c belongs to job owner[c] (_Jobs).  The rows of each length and
    data shape are checked by one _fittable_rows call (with mapped=True
    they are clamped knot vectors it accepted) and fitted as one stack
    (smoother.fit_stack, with systems[c] as row c's system when given).
    Yields (c, why, fit) for every row c, a group at a time in order of
    first appearance and each group's rows in row order: why is "" or the
    reason a fit at that row would raise, fit None where why is set, else
    fit_stack's fit.
    """
    owner = np.asarray(owner, dtype=int)
    tags = [jobs.shapes[d] for d in jobs.which[owner].tolist()] if len(jobs.shapes) > 1 else None
    for group, stack in _by_size(rows, tags):
        own, kept = owner[group], np.arange(len(group))
        if not mapped:
            kept, stack = _fittable_rows(stack, jobs.lo[own], jobs.hi[own], jobs.order)
            own = own[kept]
        fits = fit_stack(stack, jobs.order, jobs.datasets, jobs.weights[own], full=full,
                         which=jobs.which[own],
                         systems=None if systems is None else np.array([systems[c] for c in group]))
        fittable = set(kept.tolist())
        for i, c in enumerate(group):
            _, why, fit = next(fits) if i in fittable else (c, "knots cannot be fitted", None)
            yield c, why, fit


def _jacobian(points, owner, jobs: _Jobs):
    """Forward-difference normal equations at points (P, p) of one knot count.

    Point i (log gap ratios k) belongs to job owner[i].  One stack (_fits)
    holds the p + 1 rows of every point: k and k + step_j e_j, step_j =
    _FD_STEP * (1 + |k_j|), so column j of its Jacobian J is row j + 1's
    residual minus the point's residual r, over step_j.  Perturbed rows that
    cannot be fitted get backward steps, all in one second stack; a column
    failing both is zero.

    _fits yields a point's rows as one run, so each point is yielded as
    (i, why, normal) as soon as its run is in and only one point's rows are
    held at a time (and the rows of points that wait for backward steps):
    normal is (r'r, J'r, J'J), r'r the knot search's objective, or None
    where the stack refuses the point itself, why saying why.
    """
    p = points.shape[1]
    owner = np.asarray(owner, dtype=int)
    steps = _FD_STEP * (1.0 + np.abs(points))
    # row j + 1 of a point's run adds step_j to its component j
    rows = (points[:, None] + steps[:, None] * np.eye(p + 1, p, -1)).reshape(-1, p)

    def normal(i, forward, step):
        r = forward[0].ravel()
        # J is C-ordered (n, p), the layout its products are taken in, and
        # written a column at a time: stacking the p residuals first took
        # 2.7 times as long at p = 8 on 200 x 50 residuals
        jac = np.empty((r.size, p))
        for j, resid in enumerate(forward[1:]):  # a column failing both ways is r - r = 0
            np.divide((forward[0] if resid is None else resid).ravel() - r, step[j], out=jac[:, j])
        return i, "", (float(r @ r), jac.T @ r, jac.T @ jac)

    waiting = {}  # point -> its residuals and steps, backward where a forward row failed
    # each residual is taken out of its (residual, H) pair as it arrives, so
    # points waiting for backward steps keep no chunk's systems alive
    fits = ((c, why, None if fit is None else fit[0])
            for c, why, fit in _fits(rows, jobs, np.repeat(owner, p + 1)))
    for c, why, residual in fits:  # row c is row 0 of its point's run
        i = c // (p + 1)
        forward = [residual, *(fit for *_, fit in itertools.islice(fits, p))]
        failed = [resid is None for resid in forward[1:]]
        if why:
            yield i, why, None
        elif any(failed):
            waiting[i] = forward, np.where(failed, -steps[i], steps[i])
        else:
            yield normal(i, forward, steps[i])
    failed = [(i, j) for i, (forward, _) in waiting.items() for j in range(p)
              if forward[j + 1] is None]
    if failed:
        at, col = np.array(failed).T
        for c, _, fit in _fits(points[at] - steps[at] * np.eye(p)[col], jobs, owner[at]):
            i, j = failed[c]
            waiting[i][0][j + 1] = None if fit is None else fit[0]
    for i, (forward, step) in waiting.items():
        yield normal(i, forward, step)


@dataclass(frozen=True)
class _Outcome:
    """How the refinement of one start ended (refine_fits)."""

    k: np.ndarray  # log gap ratios of the best iterate
    iterations: int
    converged: bool
    step_failure: bool  # no damped step improved the objective
    error: FkSplineError | None  # what ended the refinement, or None
    system: tuple | None = None  # k's clamped knots and the H its trial built; None at the start


def _solve_rows(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions (C, p) of a stack of systems (C, p, p) with right-hand sides
    (C, p), in one stacked solve; a row whose system is singular is nan.

    When the stacked solve fails, each system is solved alone, so a
    singular system costs only its own row.
    """
    try:
        return np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for c, (system, b) in enumerate(zip(systems, rhs)):
            try:
                out[c] = np.linalg.solve(system, b)
            except np.linalg.LinAlgError:
                pass
        return out


def _proposals(at, k, g, jtj, mu, trials, owner, jobs: _Jobs, min_gap: np.ndarray):
    """The next damped step that can be fitted of descents at of one knot
    count, rows of _descend's state arrays (descent i of job owner[i]).

    Returns (found, k_new, delta, full): found[c] says whether descent at[c]
    has a step; k_new, delta and full hold each found step's ratios, the
    step and its clamped knots.  A step whose solve fails, whose knots
    cannot be fitted, or that brings two knots closer than its job's
    min_gap costs a trial: tenfold damping (mu and trials change in place).
    A descent whose 12 trials are spent has no step.  The damping levels
    mu, 10 mu, ... are tried in passes: a pass gives each pending descent
    max(1, budget // pending) of its remaining levels, budget = max(12,
    pending at the first pass), so a lone descent tries all its levels at
    once.  A pass solves every level's (J'J + mu I) delta = -g in one
    stacked solve (_solve_rows) and checks every step by one _fittable_rows
    call and one min_gap rule.  A descent takes its first feasible level,
    each level before it costing a trial, so the levels are running products
    (never 10**t) and each step, mu and trials are the sequential retries', bit for bit.
    """
    order, p = jobs.order, k.shape[1]
    found = np.zeros(at.size, dtype=bool)
    k_new, delta, full = (np.empty((at.size, size)) for size in (p, p, p + 2 * order))
    pending = (trials[at] < 12).nonzero()[0]
    budget = max(12, pending.size)
    while pending.size:
        share = max(1, budget // pending.size)
        pairs = at[pending]
        levels = np.minimum(share, 12 - trials[pairs])
        # column t is mu after t failed trials: mu times ten, t times over
        ladder = np.full((pending.size, share + 1), 10.0)
        ladder[:, 0] = mu[pairs]
        np.multiply.accumulate(ladder, axis=1, out=ladder)
        slot, level = (np.arange(share) < levels[:, None]).nonzero()  # each system's descent, level
        rows = pairs[slot]
        jobs_of = owner[rows]
        step = _solve_rows(jtj[rows] + np.multiply.outer(ladder[slot, level], np.eye(p)), -g[rows])
        # a singular system's nan step is not fittable
        ratios = k[rows] + step
        kept, knots = _fittable_rows(ratios, jobs.lo[jobs_of], jobs.hi[jobs_of], order)
        if p >= 2:
            # knots drifting together chase noise through high-leverage
            # spans; such trial points are treated as infeasible
            gaps = knots[:, order + 1 : order + p] - knots[:, order : order + p - 1]
            spaced = ~(gaps.min(axis=1) < min_gap[jobs_of[kept]])
            kept, knots = kept[spaced], knots[spaced]
        # each descent's first feasible level, share where it has none
        offsets, first = levels.cumsum() - levels, np.full(rows.size, share)
        first[kept] = level[kept]
        first = np.minimum.reduceat(first, offsets)
        hit, tried = first < levels, np.minimum(first, levels)
        mu[pairs] = ladder[np.arange(pending.size), tried]
        trials[pairs] += tried
        chosen = kept.searchsorted((offsets + tried)[hit])  # each hit's step, in kept
        hits = pending[hit]
        found[hits] = True
        k_new[hits], delta[hits], full[hits] = ratios[kept[chosen]], step[kept[chosen]], knots[chosen]
        pending = pending[~hit & (trials[pairs] < 12)]
    return found, k_new[found], delta[found], full[found]


def _norm(v: np.ndarray) -> float:
    """The 2-norm of v, finite for every finite v: numpy's, or, where its
    sum of squares overflows (data of magnitude 1e100 give gradients past
    1e154), numpy's of v over its largest magnitude, times that."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm):
        scale = float(np.abs(v).max())
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def _descend(k, owner, jobs: _Jobs, search: KnotSearchConfig, first) -> list:
    """Damped Gauss-Newton descent from starts of one knot count, in lockstep.

    Row i of k (P, p) starts a descent on the domain of job owner[i]
    (_Jobs) by the rule of gauss_newton_refine; its state is row i of
    arrays: k, the objective f, mu, iterations, trials, the flags, g, J'J
    and the clamped knots and H of its last accepted trial.  Each round
    makes one Jacobian stack (_jacobian; row 0 gives a start's objective),
    one proposal pass (_proposals) and one trial stack (_fits).  first[i]
    is None or start i's (r'r, J'r, J'J) from the scan (_scan), which then
    takes its place in the first Jacobian stack.  A start whose system that
    stack refuses ends with a NotPositiveDefiniteError.  Returns each
    start's _Outcome, in row order.
    """
    P, p = k.shape
    nb = p + search.order
    k, f, mu, trials = k.copy(), np.full(P, math.inf), np.full(P, _DAMPING), np.zeros(P, int)
    iterations = np.array([normal is not None for normal in first], dtype=int)
    converged, step_failure, moved = (np.zeros(P, dtype=bool) for _ in range(3))
    g, jtj = np.zeros((P, p)), np.zeros((P, p, p))
    knots, H = np.zeros((P, nb + search.order)), np.zeros((P, nb, nb))
    errors = [None] * P
    min_gap = _knot_radius(jobs.lo, jobs.hi, search)
    given = [(i, "", normal) for i, normal in enumerate(first) if normal is not None]
    jacobian = np.array([i for i, normal in enumerate(first) if normal is None], dtype=int)
    trial = np.zeros(0, dtype=int)
    while given or jacobian.size or trial.size:
        iterations[jacobian] += 1
        stacked = ((jacobian[c], why, normal) for c, why, normal
                   in (_jacobian(k[jacobian], owner[jacobian], jobs) if jacobian.size else ()))
        evaluated = []
        for i, why, normal in itertools.chain(given, stacked):
            if why:
                errors[i] = NotPositiveDefiniteError(why)
                continue
            rr, g[i], jtj[i] = normal
            if iterations[i] == 1:
                f[i] = rr
            if _norm(g[i]) <= 1e-14 * (1.0 + f[i]):
                converged[i] = True
            else:
                evaluated.append(i)
        trials[evaluated] = 0
        trial = np.concatenate([trial, np.array(evaluated, dtype=int)])
        if not trial.size:  # every descent has ended
            break
        found, k_new, delta, full = _proposals(trial, k, g, jtj, mu, trials, owner, jobs, min_gap)
        step_failure[trial[~found]] = True
        proposed = trial[found]
        f_new, H_new = np.full(proposed.size, np.nan), np.empty((proposed.size, nb, nb))
        for c, _, fit in _fits(full, jobs, owner[proposed], mapped=True):
            if fit is not None:
                r_new, H_new[c] = fit[0].ravel(), fit[1]
                f_new[c] = r_new @ r_new
        better = f_new < f[proposed]  # never where the trial stack refused the row
        trial = proposed[~better]
        mu[trial] *= 10.0
        trials[trial] += 1
        i = proposed[better]
        step_norm = np.abs(delta[better]).max(axis=1)
        rel_drop = (f[i] - f_new[better]) / np.maximum(f[i], 1e-300)
        k[i], f[i], knots[i], H[i] = k_new[better], f_new[better], full[better], H_new[better]
        moved[i] = True
        mu[i] = np.maximum(mu[i] / 10.0, 1e-12)
        done = (step_norm < _STEP_TOL) | (rel_drop < _OBJECTIVE_TOL)
        converged[i[done]] = True
        given, jacobian = [], i[~done & (iterations[i] < _MAX_ITERATIONS)]
    return [_Outcome(k[i], int(iterations[i]), bool(converged[i]), bool(step_failure[i]),
                     errors[i], (knots[i], H[i]) if moved[i] else None) for i in range(P)]


def gauss_newton_refine(coords: JuppCoords, dataset: FunctionalDataset,
                        config: PenaltyConfig, search: KnotSearchConfig) -> GaussNewtonResult:
    """Damped Gauss-Newton descent on the knot objective.

    Each iteration takes the residual and its forward-difference Jacobian
    from one stack (_jacobian) of the point and its p perturbed points, in
    the dataset's reduced space (FunctionalDataset.reduced), which keeps
    every norm and inner product the step uses.  The damping grows tenfold
    when a step fails to decrease the objective and shrinks tenfold on
    success.  The best iterate seen is returned, fitted on the full data
    (its sse is the objective).  This is the one-start case of refine_fits;
    a start that the dataset or config refuses raises that error, and then
    one whose knots no basis takes raises the basis error.
    """
    as_instance(coords, JuppCoords, "coords"), as_instance(dataset, FunctionalDataset, "dataset")
    as_instance(config, PenaltyConfig, "config")
    order = as_instance(search, KnotSearchConfig, "search").order
    jobs = _Jobs([dataset], [config], [(coords.lo, coords.hi)], order)
    if jobs.errors[0] is not None:
        raise jobs.errors[0]
    _spec(coords, order)  # raises the basis error of knots no basis takes
    ((_, outcome, fit),) = refine_fits([coords.values], [0], jobs, search)
    if outcome.error is not None:
        raise outcome.error
    best = JuppCoords(outcome.k, coords.lo, coords.hi)
    coeffs, diagnostics, _ = fit
    model = FitModel(_spec(best, order), config, coeffs, diagnostics)
    return GaussNewtonResult(
        coords=best, objective=model.diagnostics.sse, iterations=outcome.iterations,
        converged=outcome.converged, model=model, step_failure=outcome.step_failure,
    )


def refine_fits(starts, owner, jobs: _Jobs, search: KnotSearchConfig, first=None):
    """Refine every start, start i (a row of log gap ratios) of job
    owner[i], and fit each result.

    The starts of each knot count descend in lockstep (_descend), first[i]
    (when given) being start i's normal equations or None.  The starts
    are knots a basis takes (the callers checked or fitted them); a start
    ends at once with its job's error, and a start without knots has
    nothing to refine.
    Each result fit is what fit_coefficients reports at the result's knots,
    from one full=True stack per kind of end: results of an accepted trial
    pass their _Outcome.system as _fits' systems, so no knot vector is
    assembled twice; results at their start are assembled.
    Yields (i, outcome, fit) for every start i, one at a time in no set
    order: outcome is its _Outcome, fit (coefficients, FitDiagnostics,
    (B, H)) with the result's design and system, which the next scan of a
    knot search borders (_bordered), or None where outcome.error says why
    the start failed.
    """
    owner = np.asarray(owner, dtype=int)
    first = first or [None] * len(starts)
    outcomes = [_Outcome(start, 0, start.size == 0, False, jobs.errors[j])
                for start, j in zip(starts, owner.tolist())]
    todo = [i for i, outcome in enumerate(outcomes) if outcome.error is None and starts[i].size]
    for group, k in _by_size([starts[i] for i in todo]):  # one descent per knot count
        group = [todo[c] for c in group]
        for i, outcome in zip(group, _descend(k, owner[group], jobs, search,
                                              [first[i] for i in group])):
            outcomes[i] = outcome
    for i, outcome in enumerate(outcomes):
        if outcome.error is not None:
            yield i, outcome, None
    live = [i for i, outcome in enumerate(outcomes) if outcome.error is None]
    for carried in (False, True):
        ends = [i for i in live if (outcomes[i].system is not None) is carried]
        if not ends:
            continue
        rows = [outcomes[i].system[0] if carried else outcomes[i].k for i in ends]
        systems = [outcomes[i].system[1] for i in ends] if carried else None
        for c, why, fit in _fits(rows, jobs, owner[ends], full=True, mapped=carried,
                                 systems=systems):
            outcome = outcomes[ends[c]]
            if why:
                outcome = replace(outcome, error=NotPositiveDefiniteError(why))
            yield ends[c], outcome, fit


@dataclass(frozen=True)
class StageRecord:
    """One accepted stage of the gradual knot search.

    iterations, converged and step_failure are those of the stage's
    Gauss-Newton refinement (GaussNewtonResult); scanned counts the grid
    candidates its scan screened (the grid minus the exclusion zones) and
    fitted the ones the scan fitted exactly (_scan).  The p = 0 stage has
    no scan and no knots to refine and records 0, True, False, 0 and 0.
    """

    p: int
    knots: np.ndarray
    coords: JuppCoords
    objective: float
    gcv: float
    df: float
    iterations: int = 0
    converged: bool = True
    step_failure: bool = False
    scanned: int = 0
    fitted: int = 0


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


def _bordered(existing, system, full, q, dataset: FunctionalDataset, weights: np.ndarray,
              order: int):
    """Scores of knot insertions from the fit at the existing knots, and its window.

    system is that parent fit's design B and system H (a full fit of
    refine_fits: a knot search carries them from the fit of its last
    stage), None where the parent fit is refused.  Row c of full is a
    candidate's clamped knot vector, q[c] its new knot's index there.  The
    candidate's space is the parent's plus the refined B-spline g = N_j,
    j = q[c] - order // 2; penalties are norms of the spline, so its system
    is H bordered by one row and column (u, s), solved through the Schur
    complement s - u'H^-1 u.  One derivative_stack pass gives every g at
    the sample points and its penalized derivatives at its quadrature
    nodes, and one more the parent's derivatives at those nodes (none
    without a penalty).  A score is that fit's sse on the reduced data,
    nan where it is non-finite, its Schur complement is below _SCHUR_FLOOR
    or the parent fit is refused.  The window is the parent's sse plus the
    _ROUNDOFF_FLOOR term (0 when every score is nan).
    """
    t, Y = dataset.t, dataset.reduced.values
    lo, hi = dataset.domain
    if not full.size or system is None:
        return np.full(len(full), np.nan), 0.0
    B, H = system
    parent = np.concatenate([np.full(order, lo), existing, np.full(order, hi)])
    xi = np.take_along_axis(full, (q - order // 2)[:, None] + np.arange(order + 1), axis=1)
    orders = np.flatnonzero(weights > 0.0).tolist()
    with np.errstate(all="ignore"):
        # g's support spans are spans of the candidate's basis, so order
        # Gauss-Legendre nodes on each integrate B^(l) g^(l) exactly for every l
        at, w = _panel_rule(xi, order) if orders else (np.empty((len(xi), 0)), None)
        # g = N_j is the one B-spline of order on its order + 1 knots xi: one
        # pass gives it at the sample points and its derivatives at the nodes
        points = np.concatenate([np.broadcast_to(t, (len(xi), t.size)), at], axis=1)
        g, *gls = derivative_stack(xi, order, points, [0, *orders])
        g = g[:, 0, :t.size]
        u, s = g @ B, np.einsum("ch,ch->c", g, g)
        if orders:
            Bls = derivative_stack(parent[None], order, at.reshape(1, -1), orders)
            for l, gl, Bl in zip(orders, gls, Bls):
                gl = gl[:, 0, t.size:]
                gw = gl * (weights[l] * w)
                u += np.einsum("cp,icp->ci", gw, Bl.reshape(-1, *at.shape))
                s += np.einsum("cp,cp->c", gw, gl)
        solved = np.linalg.solve(H, np.concatenate([B.T @ Y, u.T], axis=1))
        c, z = solved[:, :Y.shape[1]], solved[:, Y.shape[1]:]
        r = Y - B @ c
        schur = s - np.einsum("ci,ic->c", u, z)
        v = g - (B @ z).T
        beta = (g @ Y - u @ c) / schur[:, None]
        sse = r.ravel() @ r.ravel()
        scores = (sse - 2.0 * np.einsum("cj,cj->c", beta, v @ r)
                  + np.einsum("ch,ch->c", v, v) * np.einsum("cj,cj->c", beta, beta))
    scores[~np.isfinite(scores) | ~(schur > _SCHUR_FLOOR * s)] = np.nan
    return scores, sse + _ROUNDOFF_FLOOR * (Y.ravel() @ Y.ravel())


def _scan(parents, live, jobs: _Jobs, search: KnotSearchConfig):
    """Score the insertion of every grid candidate into each live job's accepted knots.

    Row j inserts its candidates into the knots of parents[j] = (knots,
    system) on the domain of job live[j] (_Jobs), system the design and
    system matrix of the fit at those knots (_bordered).  A bordered screen
    per row (_bordered) scores them from that parent fit; then passes fit
    candidates exactly, all rows in one _jacobian call each: every unfitted
    candidate whose screen is nan or within _SCREEN_WINDOW of the best (the
    smallest exact score, before one exists the smallest screen), until a
    pass takes none.  The jobs move in lockstep, so every candidate has
    one knot count.  Returns (ratios, scores, fitted, best) per row: row c
    of ratios holds jupp of the knots with candidate c inserted; score c is
    the objective r'r there (_jacobian) if it was fitted, +inf if the screen
    shows it cannot be _first_best, nan where objective_f would raise;
    fitted counts the exact fits; best is (c, normal) for the candidate
    _first_best picks among the fitted ones, normal its (r'r, J'r, J'J)
    from _jacobian, so that its refinement starts with its first
    iteration's system in hand, or None if none was fitted.
    """
    order = search.order
    ratios, kept, screens, scores = [], [], [], []
    for j, ((existing, system), job) in enumerate(zip(parents, live)):
        dataset = jobs.datasets[jobs.which[job]]
        lo, hi = dataset.domain
        grid = _candidate_grid(lo, hi, existing, search)
        tau = np.sort(np.column_stack([np.broadcast_to(existing, (grid.size, existing.size)),
                                       grid]), axis=1)
        # a zero gap (knots that coincide in floating point) gives a
        # non-finite ratio, which _fittable_rows turns away
        ratios.append(_gap_ratios(tau, lo, hi)[1])
        rows, rows_full = _fittable_rows(ratios[j], np.full(grid.size, lo),
                                         np.full(grid.size, hi), order)
        kept.append(rows)
        screens.append(_bordered(existing, system, rows_full,
                                 order + np.searchsorted(existing, grid[rows]), dataset,
                                 jobs.weights[job], order))
        scores.append(np.full(grid.size, np.nan))
    checked = [np.zeros(rows.size, dtype=bool) for rows in kept]
    normals = [{} for _ in kept]  # fitted candidate -> its normal equations
    while True:
        picked = []
        for j, (bordered, window) in enumerate(screens):
            exact = scores[j][kept[j]]  # nan until fitted
            found = exact[np.isfinite(exact)]
            best = found.min() if found.size else np.fmin.reduce(bordered[~checked[j]],
                                                                 initial=np.inf)
            pick = np.flatnonzero(~checked[j] & ~(bordered > best + _SCREEN_WINDOW * window))
            checked[j][pick] = True
            picked.extend((j, kept[j][c]) for c in pick.tolist())
        if not picked:
            break
        for i, _, normal in _jacobian(np.array([ratios[j][c] for j, c in picked]),
                                      [live[j] for j, _ in picked], jobs):
            if normal is not None:
                j, c = picked[i]
                scores[j][c], normals[j][c] = normal[0], normal
    out = []
    for j, rows in enumerate(kept):
        scores[j][rows[~checked[j]]] = np.inf
        fit_at = np.flatnonzero(np.isfinite(scores[j]))
        winner = fit_at[_first_best(scores[j][fit_at])] if fit_at.size else None
        out.append((ratios[j], scores[j], int(checked[j].sum()),
                    None if winner is None else (winner, normals[j][winner])))
    return out


def _first_best(scores: np.ndarray) -> int:
    """Index of the first score within _TIE_ULPS ulp (relative) of the smallest.

    Candidates that fit the data alike, such as unpenalized order-2
    candidates inside one gap between sample points, score a few ulp apart
    in an order roundoff decides; the first of them wins in either space.
    """
    best = scores.min()
    return int(np.flatnonzero(scores <= best + _TIE_ULPS * np.finfo(float).eps * abs(best))[0])


@dataclass(eq=False)
class _Search:
    """The state of a job of add_knots_lockstep; its result's chosen stage is the best by GCV."""

    result: FreeKnotResult = field(default_factory=FreeKnotResult)
    model: FitModel | None = None  # the fit of the last stage
    system: tuple | None = None  # its design B and system H, which the next scan borders
    bad_streak: int = 0
    error: FkSplineError | None = None


def add_knots_lockstep(datasets, configs, search: KnotSearchConfig) -> list:
    """add_knots_gradually for every (dataset, config) job of one table
    (_Jobs), in lockstep: round 0 fits every job without interior knots as
    one batch (refine_fits), and each later round scans every live job's
    candidates as one stack (_scan) and refines their best insertions as
    one batch.  A job leaves when it fails, its grid is used up or its GCV
    rule stops it.  Returns each job's FreeKnotResult, or the FkSplineError
    its add_knots_gradually call raises: its outcome alone, bit for bit.
    datasets and configs are lists of one length; a search, dataset or
    config of the wrong type raises ConfigError."""
    order = as_instance(search, KnotSearchConfig, "search").order
    if len(as_instance(datasets, list, "datasets")) != len(as_instance(configs, list, "configs")):
        raise LengthMismatchError(f"{len(datasets)} datasets but {len(configs)} configs")
    for dataset, config in zip(datasets, configs):
        as_instance(dataset, FunctionalDataset, "dataset")
        as_instance(config, PenaltyConfig, "config")
    jobs = _Jobs(datasets, configs, [dataset.domain for dataset in datasets], order)
    searches = [_Search() for _ in datasets]
    live = list(range(len(searches)))
    for p in range(search.max_knots + 1):
        if not live:
            break
        # round 0 fits every job without interior knots: no scan, nothing to refine
        starts = [] if p else [(j, np.empty(0), None, {}) for j in live]
        scans = _scan([(searches[j].result.stages[-1].knots, searches[j].system) for j in live],
                      live, jobs, search) if p else []
        for j, (ratios, scores, fitted, best) in zip(live, scans):
            failures = int(np.isnan(scores).sum())
            if best is not None:
                c, normal = best
                starts.append((j, ratios[c], normal, {"scanned": scores.size, "fitted": fitted}))
            elif failures:  # else exclusion zones used up the grid
                last = searches[j].result.stages[-1]
                searches[j].error = AllCandidatesSingularError(
                    f"all {failures} candidate knots failed at p={last.p + 1}; "
                    f"the last feasible stage has p={last.p} and knots "
                    f"{[float(x) for x in last.knots]}"
                )
        for i, outcome, fit in refine_fits([start for _, start, *_ in starts],
                                           [j for j, *_ in starts], jobs, search,
                                           [normal for _, _, normal, _ in starts]):
            j, _, _, scan = starts[i]
            job = searches[j]
            job.error, result = outcome.error, job.result
            if fit is None:
                continue
            coords = JuppCoords(outcome.k, *datasets[j].domain)
            coeffs, diagnostics, job.system = fit
            job.model = FitModel(_spec(coords, order), configs[j], coeffs, diagnostics)
            d = job.model.diagnostics
            result.stages.append(StageRecord(
                p=coords.p, knots=np.array(job.model.spec.interior_knots), coords=coords,
                objective=d.sse, gcv=d.gcv, df=d.df, iterations=outcome.iterations,
                converged=outcome.converged, step_failure=outcome.step_failure, **scan))
            if result.chosen is None:  # the p = 0 stage
                result.chosen, result.model = result.stages[-1], job.model
                continue
            # GCV rule: a stage better by _GCV_REL_TOL resets the streak
            gcv, best = result.stages[-1].gcv, result.chosen.gcv
            job.bad_streak = 0 if gcv < best * (1.0 - _GCV_REL_TOL) else job.bad_streak + 1
            if gcv < best:
                result.chosen, result.model = result.stages[-1], job.model
            result.stopped_early = not search.fixed_p and job.bad_streak >= _GCV_PATIENCE
        live = [j for j, *_ in starts
                if searches[j].error is None and not searches[j].result.stopped_early]
    for job in searches:
        if job.error is None and search.fixed_p:
            job.result.chosen, job.result.model = job.result.stages[-1], job.model
    return [job.error or job.result for job in searches]


def add_knots_gradually(dataset: FunctionalDataset, config: PenaltyConfig,
                        search: KnotSearchConfig) -> FreeKnotResult:
    """Grow the interior knot vector one knot per round.

    Each round inserts every surviving grid candidate into the accepted
    knots, starts Gauss-Newton from the best insertion (the first of equal
    scores, equal up to a few ulp; _first_best), and records the refined
    stage.  With fixed_p the final stage is selected; otherwise the search
    stops once the GCV score has failed to improve by _GCV_REL_TOL
    (relative) for _GCV_PATIENCE consecutive rounds, and the best-GCV stage
    is selected.  This is the one-job case of add_knots_lockstep.
    """
    (result,) = add_knots_lockstep([dataset], [config], search)
    if isinstance(result, FkSplineError):
        raise result
    return result


def fit_free_knot(dataset: FunctionalDataset, config: PenaltyConfig,
                  search: KnotSearchConfig) -> FitModel:
    """Run the knot search and return the fit at the selected knot vector."""
    return add_knots_gradually(dataset, config, search).model
