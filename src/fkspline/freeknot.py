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
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, _check_points, derivative_stack, make_basis_spec
from .data import FunctionalDataset
from .errors import (
    AllCandidatesSingularError,
    ConfigError,
    FkSplineError,
    NonFiniteInputError,
    NonIncreasingKnotsError,
    NotPositiveDefiniteError,
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
        values = np.asarray(self.values, dtype=float).reshape(-1)
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
    """Settings for the knot search driver and its Gauss-Newton refiner."""

    order: int = 4
    max_knots: int = 8
    grid_size: int = 50
    fixed_p: bool = False

    def __post_init__(self):
        # integral values are stored as int, as BasisSpec stores its order
        for name, least in (("order", 2), ("max_knots", 1), ("grid_size", 2)):
            object.__setattr__(self, name, as_integer(getattr(self, name), least, name))
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
    return fit_coefficients(dataset, _spec(coords, order), config).diagnostics.sse


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
    finite = np.flatnonzero(np.all(np.isfinite(ratios), axis=1))
    lo, hi = lo[finite, None], hi[finite, None]
    ends = np.ones((finite.size, order))
    full = np.concatenate([lo * ends, _knots_from_ratios(ratios[finite], lo, hi), hi * ends],
                          axis=1)
    valid = np.all(np.diff(full[:, order - 1 : full.shape[1] - order + 1], axis=1) > 0, axis=1)
    return finite[valid], full[valid]


def _by_size(rows, tags=None):
    """The rows (1-D arrays) of each size (and tag), as their indices and one
    (len, size) stack of them; in order of first appearance."""
    groups = {}
    for c, row in enumerate(rows):
        groups.setdefault((row.size, None if tags is None else tags[c]), []).append(c)
    for (p, _), group in groups.items():
        yield group, np.array([rows[c] for c in group]).reshape(len(group), p)


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
    """Residuals and forward-difference Jacobians at a batch of points, as stacks.

    Point i (log gap ratios k) belongs to job owner[i].  One stack (_fits)
    holds the p + 1 rows of every point: k and k + step_i e_i, step_i =
    _FD_STEP * (1 + |k_i|), so column i is row i + 1 minus the point's
    residual over step_i.  Perturbed rows that cannot be fitted get
    backward steps, all in one second stack; a column failing both is zero.

    _fits yields a point's rows as one run, so each point is yielded as
    (i, why, fit) as soon as its run is in and only one point's rows are
    held at a time (and the rows of points that wait for backward steps):
    fit is (r, jac), r the point's raveled residual, or None where the
    stack refuses the point itself, why saying why.
    """
    owner = np.asarray(owner, dtype=int)
    steps = [_FD_STEP * (1.0 + np.abs(k)) for k in points]
    rows = [row for k, step in zip(points, steps)
            for row in k + np.vstack([np.zeros(k.size), np.diag(step)])]
    owners = [i for i, k in enumerate(points) for _ in range(k.size + 1)]

    def columns(i, forward, backward):
        r = forward[0].ravel()
        jac = np.zeros((r.size, points[i].size))
        for j in range(points[i].size):
            resid, step = forward[j + 1], steps[i][j]
            if resid is None:
                resid, step = backward.get(j), -step
            if resid is not None:
                jac[:, j] = (resid.ravel() - r) / step
        return i, "", (r, jac)

    waiting = {}
    # each residual is taken out of its (residual, H) pair as it arrives, so
    # points waiting for backward steps keep no chunk's systems alive
    fits = ((c, why, None if fit is None else fit[0])
            for c, why, fit in _fits(rows, jobs, owner[owners]))
    for c, why, residual in fits:  # row c is row 0 of its point's run
        i = owners[c]
        forward = [residual, *(fit for *_, fit in itertools.islice(fits, points[i].size))]
        if why:
            yield i, why, None
        elif any(resid is None for resid in forward[1:]):
            waiting[i] = forward
        else:
            yield columns(i, forward, {})
    failed = [(i, j) for i, forward in waiting.items() for j in range(len(forward) - 1)
              if forward[j + 1] is None]
    backward = {}
    if failed:
        back = [points[i] - np.diag(steps[i])[j] for i, j in failed]
        for c, _, fit in _fits(back, jobs, owner[[i for i, _ in failed]]):
            backward.setdefault(failed[c][0], {})[failed[c][1]] = None if fit is None else fit[0]
    for i, forward in waiting.items():
        yield columns(i, forward, backward.get(i, {}))


@dataclass(eq=False)
class _Descent:
    """State of one (start, config) pair's damped Gauss-Newton descent.

    The residual at k is not kept between rounds: row 0 of each Jacobian
    stack evaluates it again, and a few hundred pairs of (h, min(h, n))
    residuals would raise the peak memory of a grid search.  Once a trial
    is accepted, system holds the clamped knots of k and a copy of the H
    the trial stack built there, from which the result fit (refine_fits)
    rebuilds only the design and B'B.
    """

    k: np.ndarray  # log gap ratios of the best iterate
    job: int = 0  # the pair's job in its batch (_Jobs)
    f: float = math.inf  # objective at k
    mu: float = _DAMPING
    iterations: int = 0
    trials: int = 0  # damped steps tried in this iteration
    converged: bool = False
    step_failure: bool = False  # no damped step improved the objective
    g: np.ndarray | None = None  # gradient and Gauss-Newton matrix at k
    jtj: np.ndarray | None = None
    system: tuple | None = None  # (clamped knots, H) at k; None while k is the start
    error: Exception | None = None  # what ended the pair (see _descend)


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


def _proposals(batch, jobs: _Jobs, min_gap: np.ndarray) -> list:
    """Each pair's next damped step that can be fitted, (k_new, delta, its
    clamped knots), or None once its 12 trials are spent; in batch order.

    A step whose solve fails, whose knots cannot be fitted, or that brings
    two knots closer than its job's min_gap costs its pair a trial: tenfold
    damping.  The pairs of one p try their damping levels mu, 10 mu, ... in
    passes.  A pass gives each pending pair max(1, budget // pending) of its
    remaining levels, budget = max(12, the group's pair count): a lone pair
    tries all its levels at once, and a group of 12 pairs or more tries one level
    each first.  Every level's system (J'J + mu I) delta = -g is solved in
    one stacked solve (_solve_rows), and every step is checked by one
    _fittable_rows call and one min_gap rule.  A pair takes its first
    feasible level; each level before it multiplies its mu by ten and costs
    a trial, as the sequential retries do, so the levels are their products
    (repeated multiplication, never 10**t) and each step, mu and trials are
    theirs bit for bit.
    """
    steps = [None] * len(batch)
    for group, k in _by_size([pair.k for pair in batch]):
        pairs = [batch[i] for i in group]
        own = np.array([pair.job for pair in pairs], dtype=int)
        jtj, rhs = np.array([pair.jtj for pair in pairs]), -np.array([pair.g for pair in pairs])
        eye = np.eye(k.shape[1])
        pending = [i for i, pair in enumerate(pairs) if pair.trials < 12]
        budget = max(12, len(pending))
        while pending:
            share = max(1, budget // len(pending))
            rows, levels = [], []  # each system's pair and damping
            for i in pending:
                mu = pairs[i].mu
                for _ in range(min(share, 12 - pairs[i].trials)):
                    rows.append(i)
                    levels.append(mu)
                    mu *= 10.0
            at = np.array(rows)
            delta = _solve_rows(jtj[at] + np.multiply.outer(levels, eye), rhs[at])
            # a singular system's nan step is not fittable
            k_new = k[at] + delta
            jobs_of = own[at]
            kept, full = _fittable_rows(k_new, jobs.lo[jobs_of], jobs.hi[jobs_of], jobs.order)
            if k.shape[1] >= 2:
                # knots drifting together chase noise through high-leverage
                # spans; such trial points are treated as infeasible
                gaps = np.diff(full[:, jobs.order : full.shape[1] - jobs.order], axis=1)
                spaced = ~(gaps.min(axis=1) < min_gap[jobs_of[kept]])
                kept, full = kept[spaced], full[spaced]
            feasible = dict(zip(kept.tolist(), range(kept.size)))  # system -> row of full
            for c, i in enumerate(rows):  # each pair's levels in increasing order
                if steps[group[i]] is None:
                    if c in feasible:
                        steps[group[i]] = (k_new[c], delta[c], full[feasible[c]])
                    else:
                        pairs[i].mu *= 10.0
                        pairs[i].trials += 1
            pending = [i for i in pending if steps[group[i]] is None and pairs[i].trials < 12]
    return steps


def _normal_equations(r: np.ndarray, jac: np.ndarray):
    """The objective r'r, gradient J'r and Gauss-Newton matrix J'J at a
    point, from its residual and Jacobian (_jacobian): all that a descent
    keeps of them."""
    return float(r @ r), jac.T @ r, jac.T @ jac


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


def _error(check, *args) -> FkSplineError | None:
    """The FkSplineError that check(*args) raises, or None."""
    try:
        check(*args)
    except FkSplineError as exc:
        return exc
    return None


def _descend(starts, owner, jobs: _Jobs, search: KnotSearchConfig, first=None) -> list:
    """Damped Gauss-Newton descent from every start, in lockstep.

    Start i, on the domain of its job owner[i] (_Jobs), runs the rule of
    gauss_newton_refine on its own state (_Descent); each round makes one
    Jacobian stack (_jacobian; row 0 gives a start's objective), one
    proposal pass (_proposals) and one trial stack of the proposed knots
    (_fits).  An accepted trial's clamped knots and system H become its
    pair's system.  first[i], when given and not None, is start i's
    _normal_equations, from the scan's exact fit there (_scan): start i
    then has no rows in the first Jacobian stack.  A pair ends with
    pair.error set to its job's error, else to the error building its
    start's basis raises (checked once per distinct start), or where the
    stack refuses the system at its start.  Returns the pairs in input
    order.
    """
    errors = {id(start): _error(_spec, start, search.order)
              for start in {id(start): start for start in starts}.values()}
    pairs = [_Descent(start.values.copy(), job=j, error=jobs.errors[j] or errors[id(start)],
                      converged=start.p == 0)
             for start, j in zip(starts, np.asarray(owner, dtype=int).tolist())]
    min_gap = _knot_radius(jobs.lo, jobs.hi, search)
    live = [(pair, fit) for pair, fit in zip(pairs, first or [None] * len(pairs))
            if pair.error is None and pair.k.size]
    given = [(pair, "", fit) for pair, fit in live if fit is not None]
    jacobian = [pair for pair, fit in live if fit is None]
    trial = []
    while given or jacobian or trial:
        for pair in itertools.chain(jacobian, (pair for pair, *_ in given)):
            pair.iterations += 1
        stacked = _jacobian([pair.k for pair in jacobian], [pair.job for pair in jacobian],
                            jobs) if jacobian else ()
        for pair, why, normal in itertools.chain(given, (
                (jacobian[i], why, None if fit is None else _normal_equations(*fit))
                for i, why, fit in stacked)):
            if why:
                pair.error = NotPositiveDefiniteError(why)
                continue
            f, pair.g, jtj = normal
            if pair.iterations == 1:
                pair.f = f
            if _norm(pair.g) <= 1e-14 * (1.0 + pair.f):
                pair.converged = True
                continue
            pair.jtj = jtj
            pair.trials = 0
            trial.append(pair)
        given, jacobian, proposed = [], [], []
        for pair, step in zip(trial, _proposals(trial, jobs, min_gap)):
            if step is None:
                pair.step_failure = True
            else:
                proposed.append((pair, *step))
        trial = []
        for c, _, fit in _fits([knots for *_, knots in proposed], jobs,
                               [pair.job for pair, *_ in proposed], mapped=True):
            pair, k_new, delta, knots = proposed[c]
            r_new, H = (None, None) if fit is None else fit
            f_new = None if r_new is None else float(r_new.ravel() @ r_new.ravel())
            if f_new is None or not f_new < pair.f:
                pair.mu *= 10.0
                pair.trials += 1
                trial.append(pair)
                continue
            step_norm = float(np.max(np.abs(delta)))
            rel_drop = (pair.f - f_new) / max(pair.f, 1e-300)
            pair.k, pair.f, pair.system = k_new, f_new, (knots, H.copy())
            pair.mu = max(pair.mu / 10.0, 1e-12)
            if step_norm < _STEP_TOL or rel_drop < _OBJECTIVE_TOL:
                pair.converged = True
            elif pair.iterations < _MAX_ITERATIONS:
                jacobian.append(pair)
    return pairs


def gauss_newton_refine(coords: JuppCoords, dataset: FunctionalDataset,
                        config: PenaltyConfig, search: KnotSearchConfig) -> GaussNewtonResult:
    """Damped Gauss-Newton descent on the knot objective.

    Each iteration takes the residual and its forward-difference Jacobian
    from one stack (_jacobian) of the point and its p perturbed points, in
    the dataset's reduced space (FunctionalDataset.reduce), which keeps
    every norm and inner product the step uses.  The damping grows tenfold
    when a step fails to decrease the objective and shrinks tenfold on
    success.  The best iterate seen is returned, fitted on the full data
    (its sse is the objective).  This is the one-pair case of refine_fits.
    """
    jobs = _Jobs([dataset], [config], [(coords.lo, coords.hi)], search.order)
    ((_, pair, fit),) = refine_fits([coords], [0], jobs, search)
    if pair.error is not None:
        raise pair.error
    best = JuppCoords(pair.k, coords.lo, coords.hi)
    coeffs, diagnostics, _ = fit
    model = FitModel(_spec(best, search.order), config, coeffs, diagnostics)
    return GaussNewtonResult(
        coords=best, objective=model.diagnostics.sse, iterations=pair.iterations,
        converged=pair.converged, model=model, step_failure=pair.step_failure,
    )


def refine_fits(starts, owner, jobs: _Jobs, search: KnotSearchConfig, first=None):
    """Refine every start, start i of job owner[i], in lockstep (_descend); fit each result.

    first[i], when given, is start i's _normal_equations or None (_descend).
    Each result fit is what fit_coefficients reports at that pair's knots,
    from one full=True stack per kind of end: pairs that end on an accepted
    trial pass the system they carry (_Descent.system) as _fits' systems,
    so no knot vector is assembled twice; pairs that end at their start
    (round 0 of a search, or a warm start that converges or fails at once)
    are assembled.
    Yields (i, pair, fit) for every start i, one at a time in no set
    order: pair is its final _Descent, fit (coefficients, FitDiagnostics,
    (B, H)) with the result's design and system, which the next scan of a
    knot search borders (_bordered), or None where pair.error says why the
    pair failed.
    """
    pairs = _descend(starts, owner, jobs, search, first)
    for i, pair in enumerate(pairs):
        if pair.error is not None:
            yield i, pair, None
    live = [i for i, pair in enumerate(pairs) if pair.error is None]
    for carried in (False, True):
        ends = [i for i in live if (pairs[i].system is not None) is carried]
        if not ends:
            continue
        rows = [pairs[i].system[0] if carried else pairs[i].k for i in ends]
        systems = [pairs[i].system[1] for i in ends] if carried else None
        for c, why, fit in _fits(rows, jobs, [pairs[i].job for i in ends], full=True,
                                 mapped=carried, systems=systems):
            pair = pairs[ends[c]]
            if why:
                pair.error = NotPositiveDefiniteError(why)
            yield ends[c], pair, fit


@dataclass(frozen=True)
class StageRecord:
    """One accepted stage of the gradual knot search.

    iterations, converged and step_failure are those of the stage's
    Gauss-Newton refinement (GaussNewtonResult); scanned counts the grid
    candidates its scan scored (the grid minus the exclusion zones) and
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
    t, Y = dataset.t, dataset.reduced_values
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
        sse = np.einsum("ij,ij", r, r)
        scores = (sse - 2.0 * np.einsum("cj,cj->c", beta, v @ r)
                  + np.einsum("ch,ch->c", v, v) * np.einsum("cj,cj->c", beta, beta))
    scores[~np.isfinite(scores) | ~(schur > _SCHUR_FLOOR * s)] = np.nan
    return scores, sse + _ROUNDOFF_FLOOR * np.einsum("ij,ij", Y, Y)


def _scan(parents, live, jobs: _Jobs, search: KnotSearchConfig):
    """Score the insertion of every grid candidate into each live job's accepted knots.

    Row j inserts its candidates into the knots of parents[j] = (knots,
    system) on the domain of job live[j] (_Jobs), system the design and
    system matrix of the fit at those knots (_bordered).  A bordered screen
    per row (_bordered) scores them from that parent fit; then passes fit
    candidates exactly, all rows in one _jacobian call each: every unfitted
    candidate whose screen is nan or within _SCREEN_WINDOW of the best (the
    smallest exact score, before one exists the smallest screen), until a
    pass takes none.  Returns (ratios, scores, fitted, best) per row: row c
    of ratios holds jupp of the knots with candidate c inserted; score c is
    objective_f there up to roundoff if it was fitted, +inf if the screen
    shows it cannot be _first_best, nan where objective_f would raise;
    fitted counts the exact fits; best is (c, normal) for the candidate
    _first_best picks among the fitted ones, normal the _normal_equations
    of the residual and Jacobian _jacobian gives there, so that its
    refinement starts with its first iteration's system in hand, or None
    if none was fitted.  Each fit is reduced to its normal equations as it
    arrives, so no residual or Jacobian is held.
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
    normal = [{} for _ in kept]  # fitted candidate -> its normal equations
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
        for i, _, fit in _jacobian([ratios[j][c] for j, c in picked], [live[j] for j, _ in picked],
                                   jobs):
            if fit is not None:
                j, c = picked[i]
                residual = fit[0].reshape(len(jobs.datasets[jobs.which[live[j]]].t), -1)
                scores[j][c] = np.einsum("ij,ij->j", residual, residual).sum()
                normal[j][c] = _normal_equations(*fit)
    out = []
    for j, rows in enumerate(kept):
        scores[j][rows[~checked[j]]] = np.inf
        scored = np.flatnonzero(np.isfinite(scores[j]))
        winner = scored[_first_best(scores[j][scored])] if scored.size else None
        out.append((ratios[j], scores[j], int(checked[j].sum()),
                    None if winner is None else (winner, normal[j][winner])))
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
    its add_knots_gradually call raises: its outcome alone, bit for bit."""
    order = search.order
    jobs = _Jobs(datasets, configs, [dataset.domain for dataset in datasets], order)
    searches = [_Search() for _ in datasets]
    live = list(range(len(searches)))
    for p in range(search.max_knots + 1):
        if not live:
            break
        # round 0 fits every job without interior knots: no scan, nothing to refine
        starts = [] if p else [(j, JuppCoords(np.empty(0), *datasets[j].domain), None, {})
                               for j in live]
        scans = _scan([(searches[j].result.stages[-1].knots, searches[j].system) for j in live],
                      live, jobs, search) if p else []
        for j, (ratios, scores, fitted, best) in zip(live, scans):
            failures = int(np.isnan(scores).sum())
            if best is not None:
                c, normal = best
                starts.append((j, JuppCoords(ratios[c], *datasets[j].domain), normal,
                               {"scanned": scores.size, "fitted": fitted}))
            elif failures:  # else exclusion zones used up the grid
                last = searches[j].result.stages[-1]
                searches[j].error = AllCandidatesSingularError(
                    f"all {failures} candidate knots failed at p={last.p + 1}; "
                    f"the last feasible stage has p={last.p} and knots "
                    f"{[float(x) for x in last.knots]}"
                )
        for i, pair, fit in refine_fits([coords for _, coords, *_ in starts],
                                        [j for j, *_ in starts], jobs, search,
                                        [normal for _, _, normal, _ in starts]):
            j, start, _, scan = starts[i]
            job = searches[j]
            job.error, result = pair.error, job.result
            if fit is None:
                continue
            coords = JuppCoords(pair.k, start.lo, start.hi)
            coeffs, diagnostics, job.system = fit
            job.model = FitModel(_spec(coords, order), configs[j], coeffs, diagnostics)
            d = job.model.diagnostics
            result.stages.append(StageRecord(
                p=coords.p, knots=jupp_inverse(coords), coords=coords, objective=d.sse, gcv=d.gcv,
                df=d.df, iterations=pair.iterations, converged=pair.converged,
                step_failure=pair.step_failure, **scan))
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
