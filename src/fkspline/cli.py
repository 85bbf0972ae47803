"""Command line front end: simulate, fit, gcv, cluster, replicate.

Outputs are CSV for matrices/series and JSON for diagnostics.  Every file
carries the run record that stdout echoes (_outdir: CSV files as a leading
'#' comment, JSON files under a "config" key) and no timestamps, so a rerun
with the same flags is byte-identical.  Exit codes: 0 ok, 2 configuration error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .basis import make_basis_spec
from .cluster import (
    _check_k,
    _check_k_max,
    _check_kmeans,
    adjusted_rand_index,
    confusion_counts,
    elbow_curve,
    functional_kmeans,
    hierarchical_cluster,
    matched_confusion,
    rand_index,
)
from .data import FunctionalDataset
from .errors import ConfigError, DataError, DuplicateCellError, FkSplineError, ParseError
from .freeknot import KnotSearchConfig, add_knots_gradually, add_knots_lockstep
from .ingest import _read_rows, load_csv
from .lambda_select import LambdaGrid, gcv_grid_search
from .metrics import TailRegions, model_isse
from .simulate import GROUP_IDS, ScenarioConfig, benchmark_config, generate_scenario, group_means
from .smoother import VARIANTS, fit_coefficients, variant_config

THREADS_ENV = "FKSPLINE_THREADS"
METHODS = ("kmeans", "ward", "complete", "average")
_DENSE_POINTS = 200
# per-fit columns of replicate's fits.csv
_FIT_KEYS = ("df", "gcv", "sse", "isse", "isse_inf", "isse_sup")


# ---------------------------------------------------------------------------
# small IO helpers


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, comment: dict, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(comment, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_table(path: Path, comment: dict, key: str, index, ids: list[str], values) -> None:
    """One row per entry of index (already text): the entry, then one value per curve."""
    _write_csv(path, comment, [key] + ids,
               ([i] + [_fmt(v) for v in row] for i, row in zip(index, values)))


def _write_json(path: Path, resolved: dict, obj: dict) -> None:
    """obj with the run record under "config" and its seed under "seed"."""
    obj = {**obj, "config": resolved, "seed": resolved["seed"]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_dataset(path) -> tuple[FunctionalDataset, list[str]]:
    """The wide-layout dataset CSV at path, on the sample grid as read."""
    if path is None:
        raise ConfigError("--data is required")
    table = load_csv(path, "wide")
    if table.n_times < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {table.n_times}")
    finite = np.isfinite(table.values).all(axis=1)  # load_csv refuses non-finite times
    if not finite.all():
        label = table.time_labels[int(np.argmin(finite))]
        raise DataError(f"{path}: missing or non-finite cell in the row t={label}")
    return FunctionalDataset(t=table.time_index, values=table.values), table.series_ids


def _read_labels(path, curve_ids: list[str]) -> np.ndarray:
    """The label of each curve; every curve is named on one row only."""
    rows = [r for r in _read_rows(path) if r]
    mapping = {}  # curve id -> (row, label)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"{path}: row {i} has {len(row)} cells, expected 2", row=i)
        try:
            label = int(row[1])
        except ValueError as exc:
            raise ParseError(f"{path}: row {i}: {exc}", row=i, column=2) from exc
        curve = row[0].strip()
        if curve in mapping:
            raise DuplicateCellError(
                f"{path}: curve {curve} is labelled in row {mapping[curve][0]} and in row {i}")
        mapping[curve] = (i, label)
    try:
        return np.array([mapping[c][1] for c in curve_ids])
    except KeyError as exc:
        raise DataError(f"{path}: no label for curve {exc}") from exc


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _config_defaults(parser, args) -> None:
    """Make the values of the --config file the subcommand's defaults.

    Keys are flag dests.  A value is converted as its flag's text would be:
    a string or number goes through the flag's type and choices as
    str(value), and a bool can only set a switch.  A key that only another
    subcommand has is ignored, so one file can serve several subcommands.
    """
    cfg = _load_config_file(args.config)
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: {a.dest: a for a in sub._actions if a.default is not argparse.SUPPRESS}
             for name, sub in subparsers.items()}
    own = flags[args.subcommand]
    defaults = {}
    for key, value in cfg.items():
        if key in own:
            defaults[key] = _config_value(args.config, key, value, own[key])
        elif not any(key in dests for dests in flags.values()):
            raise ConfigError(f"config {args.config}: unknown key {key!r}")
    subparsers[args.subcommand].set_defaults(**defaults)


def _config_value(path, key, value, action):
    """value converted as the flag text str(value) would be; a bool only sets a switch."""
    switch = action.nargs == 0
    if isinstance(value, bool) and switch:
        return value
    if isinstance(value, (str, int, float)) and not isinstance(value, bool) and not switch:
        with contextlib.suppress(ValueError, argparse.ArgumentTypeError):
            converted = action.type(str(value)) if action.type else str(value)
            if action.choices is None or converted in action.choices:
                return converted
    raise ConfigError(f"config {path}: key {key!r} cannot take the value {json.dumps(value)}")


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in _comma_list(text)]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in _comma_list(text)]


def _parse_exponents(text: str) -> list[float]:
    """Either 'lo:hi' (inclusive integer range) or a comma list."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return [float(e) for e in range(int(lo), int(hi) + 1)]
    return _float_list(text)


def _choice_list(choices):
    """Flag type of a non-empty comma list of distinct items, all in choices."""
    def parse(text: str) -> list[str]:
        items = _comma_list(text)
        if not items or not set(items) <= set(choices) or len(set(items)) < len(items):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a comma list of distinct items of {','.join(choices)}")
        return items
    return parse


def _outdir(args, *flags, **values) -> tuple[Path, dict]:
    """The output directory and the run record, the resolved configuration
    every output carries: the subcommand, --seed, the values of the named
    flags (by dest) and the computed values.  The record is echoed before
    the directory is made."""
    record = {"subcommand": args.subcommand, "seed": args.seed,
              **{flag: getattr(args, flag) for flag in flags}, **values}
    print(json.dumps({"resolved_config": record}, sort_keys=True))
    out = Path(args.outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot make the output directory {out}: {exc}") from exc
    return out, record


def _threads(args) -> int:
    n = args.threads
    if n is None:
        value = os.environ.get(THREADS_ENV, "1")
        try:
            n = int(value)
        except ValueError:
            raise ConfigError(f"thread count must be an integer, got {value!r}") from None
    if n < 1:
        raise ConfigError("thread count must be at least 1")
    return n


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> None:
    if len(args.domain) != 2:
        raise ConfigError("--domain needs two comma-separated numbers")
    config = ScenarioConfig(
        groups=tuple(args.groups),
        curves_per_group=args.curves_per_group,
        points_per_curve=args.points,
        domain=tuple(args.domain),
        noise_sd=args.noise_sd,
        heteroscedastic=not args.homoscedastic,
        seed=args.seed,
    )
    scenario = generate_scenario(config)
    out, resolved = _outdir(args, **dataclasses.asdict(config))
    ids = [f"curve_{i + 1}" for i in range(scenario.dataset.n_curves)]
    t = scenario.dataset.t
    _write_table(out / "dataset.csv", resolved, "t", map(_fmt, t), ids, scenario.dataset.values)
    _write_csv(
        out / "labels.csv", resolved, ["curve_id", "label"],
        ([ids[j], str(int(scenario.labels[j]))] for j in range(len(ids))),
    )
    _write_table(out / "means.csv", resolved, "t", map(_fmt, t), ids, scenario.truth(t))


# ---------------------------------------------------------------------------
# fit


def _knot_count(args, free: bool = False) -> int:
    """Interior knot count that --nbasis asks for at --order; a free-knot
    search needs at least one knot."""
    p = args.nbasis - args.order
    if free and p < 1:
        raise ConfigError(f"nbasis {args.nbasis} leaves no free knots at order {args.order}")
    if p < 0:
        raise ConfigError(f"nbasis {args.nbasis} is below the order {args.order}")
    return p


def _knot_search(args, free: bool = False) -> KnotSearchConfig:
    return KnotSearchConfig(order=args.order, max_knots=_knot_count(args, free), fixed_p=True,
                            grid_size=args.grid_size)


def _placed(result, args):
    """The model of a knot search's result (or the error it raised), once it
    has placed every knot --nbasis asks for."""
    if isinstance(result, FkSplineError):
        raise result
    placed, p = result.chosen.p, _knot_count(args)
    if placed < p:  # exclusion zones used up the candidate grid
        raise ConfigError(f"the knot search placed {placed} of the {p} interior knots "
                          f"--nbasis {args.nbasis} asks for; use a --grid-size larger "
                          f"than {args.grid_size}")
    return result.model


def _fit_model(dataset, config, args, knots=None):
    """The fit on the given interior knots; without knots, a search for the
    knot count of --nbasis (or the fit without interior knots if it is 0),
    which must place them all."""
    p = _knot_count(args) if knots is None else 0
    if p > 0:
        return _placed(add_knots_gradually(dataset, config, _knot_search(args)), args)
    lo, hi = dataset.domain
    return fit_coefficients(dataset, make_basis_spec(lo, hi, args.order, knots or []), config)


def _discrete_tail_sse(t, residuals, tails: TailRegions):
    resid2 = residuals ** 2
    lower = resid2[(t >= tails.lower[0]) & (t <= tails.lower[1])].sum()
    upper = resid2[(t >= tails.upper[0]) & (t <= tails.upper[1])].sum()
    return float(lower), float(upper)


def _cmd_fit(args) -> None:
    dataset, curve_ids = _load_dataset(args.data)
    config = variant_config(args.variant, lambda1=args.lambda1, lambda2=args.lambda2)
    # the tail regions and the truth labels are checked before the fit,
    # which can be a whole free-knot search
    lo, hi = dataset.domain
    tails = TailRegions.fraction(lo, hi, args.tail_frac)
    if args.truth_labels is not None:
        labels = _read_labels(args.truth_labels, curve_ids)
        unknown = ~np.isin(labels, GROUP_IDS)
        if unknown.any():
            i = int(np.argmax(unknown))
            raise DataError(f"{args.truth_labels}: curve {curve_ids[i]} has group id "
                            f"{labels[i]}, expected one of {GROUP_IDS}")
    model = _fit_model(dataset, config, args, args.knots)
    if args.truth_labels is not None:
        isse = model_isse(model, lambda t: group_means(labels, t), tails)
        isse_kind = "quadrature_vs_truth"
    else:
        inf, sup = _discrete_tail_sse(dataset.t, model.diagnostics.residuals, tails)
        isse = {"isse": model.diagnostics.sse, "isse_inf": inf, "isse_sup": sup}
        isse_kind = "discrete_residual"
    out, resolved = _outdir(args, "data", "variant", "order", "tail_frac",
                            lambda1=config.lambda1, lambda2=config.lambda2,
                            n_basis=model.spec.n_basis, isse_kind=isse_kind)
    d = model.diagnostics
    _write_json(out / "fit.json", resolved, {
        "df": d.df,
        "gcv": d.gcv,
        "sse": d.sse,
        **isse,
        "isse_kind": isse_kind,
        "lambda1": config.lambda1,
        "lambda2": config.lambda2,
        "knots": [float(x) for x in model.spec.interior_knots],
        "n_basis": model.spec.n_basis,
    })
    _write_table(out / "coefficients.csv", resolved, "basis_index",
                 map(str, range(1, model.spec.n_basis + 1)), curve_ids, model.coeffs)
    dense = np.linspace(lo, hi, _DENSE_POINTS)
    _write_table(out / "curves.csv", resolved, "t", map(_fmt, dense), curve_ids,
                 model.predict(dense))


# ---------------------------------------------------------------------------
# gcv


def _cmd_gcv(args) -> None:
    dataset, _ = _load_dataset(args.data)
    grid = LambdaGrid.from_exponents(args.exponents)
    lo, hi = dataset.domain
    spec = None
    search = None
    if args.mode == "fixed":
        knots = args.knots
        if knots is None:
            knots = np.linspace(lo, hi, _knot_count(args) + 2)[1:-1]
        spec = make_basis_spec(lo, hi, args.order, knots)
    else:
        search = _knot_search(args, free=True)
    result = gcv_grid_search(dataset, grid=grid, spec=spec, search=search, mode=args.mode,
                             lambda1_pinned=args.pin_lambda1)
    out, resolved = _outdir(args, "data", "mode", "exponents", "order", "pin_lambda1",
                            n_basis=args.nbasis if spec is None else spec.n_basis)

    def rows():
        for i, l1 in enumerate(result.lambda1_values):
            for j, l2 in enumerate(result.lambda2_values):
                yield [
                    _fmt(l1), _fmt(l2), _fmt(result.scores[i, j]),
                    _fmt(result.df[i, j]), _fmt(result.sse[i, j]),
                ]

    _write_csv(out / "gcv_table.csv", resolved, ["lambda1", "lambda2", "gcv", "df", "sse"], rows())
    _write_json(out / "selected.json", resolved, {
        "lambda1": result.lambda1,
        "lambda2": result.lambda2,
        "gcv": result.gcv,
        "failures": [list(f) for f in result.failures],
    })


# ---------------------------------------------------------------------------
# cluster


def _cluster(model, method: str, k: int, seed: int, restarts: int):
    """Partition of the fitted curves into k clusters by the named method."""
    if method == "kmeans":
        return functional_kmeans(model, k, seed=seed, restarts=restarts)
    return hierarchical_cluster(model, k, linkage=method)


def _check_clustering(n_curves: int, k, k_max, restarts: int, seed: int, methods) -> None:
    """Raise, before any fit runs, what clustering n_curves fitted curves
    raises for these settings: an elbow curve up to k_max (unless None),
    then k clusters (None: the elbow's pick) by each of methods."""
    if k_max is not None:
        _check_k_max(k_max, n_curves)
        _check_kmeans(restarts, seed)
    if k is not None:
        _check_k(k, n_curves)
        if "kmeans" in methods:
            _check_kmeans(restarts, seed)


def _cmd_cluster(args) -> None:
    dataset, curve_ids = _load_dataset(args.data)
    config = variant_config(args.variant, lambda1=args.lambda1, lambda2=args.lambda2)
    # the labels and the clustering settings are checked before the fit,
    # which can be a whole free-knot search, and before any output is written
    truth = None if args.labels is None else _read_labels(args.labels, curve_ids)
    # --k, else the elbow's pick with --kmax (once traced), else 4
    k = 4 if args.k is None and args.kmax is None else args.k
    _check_clustering(dataset.n_curves, k, args.kmax, args.restarts, args.seed, [args.method])
    model = _fit_model(dataset, config, args, args.knots)
    out, resolved = _outdir(args, "data", "variant", "method", "k", "kmax", "restarts")
    elbow = None
    if args.kmax is not None:
        elbow = elbow_curve(model, args.kmax, seed=args.seed, restarts=args.restarts)
        _write_csv(
            out / "elbow.csv", resolved, ["k", "w"],
            ([str(k + 1), _fmt(elbow.w[k])] for k in range(args.kmax)),
        )
    if k is None:
        k = elbow.suggested_k
    result = _cluster(model, args.method, k, args.seed, args.restarts)
    _write_csv(
        out / "partition.csv", resolved, ["curve_id", "label"],
        ([curve_ids[i], str(int(result.partition.labels[i]))] for i in range(len(curve_ids))),
    )
    metrics = {
        "k": k,
        "method": args.method,
        "w": result.w,
        "suggested_k": elbow.suggested_k if elbow is not None else None,
        "elbow_low_confidence": elbow.low_confidence if elbow is not None else None,
    }
    if truth is not None:
        tp, tn, fp, fn = confusion_counts(result.partition.labels, truth)
        metrics.update({
            "rand_index": rand_index(result.partition.labels, truth),
            "adjusted_rand_index": adjusted_rand_index(result.partition.labels, truth),
            "confusion": {"tp": tp, "tn": tn, "fp": fp, "fn": fn},
            "clusters": matched_confusion(result.partition.labels, truth),
        })
    _write_json(out / "metrics.json", resolved, metrics)


# ---------------------------------------------------------------------------
# replicate


def _replicate_seeds(args, seeds) -> list:
    """Seeds of the simulate -> fit -> cluster pipeline (worker-safe): all
    (seed, variant) fits as one lockstep knot search, then each seed's ISSE
    and clustering in seed order, a fit's error raised when its turn comes."""
    scenarios = [generate_scenario(ScenarioConfig(noise_sd=args.noise_sd, seed=seed))
                 for seed in seeds]
    configs = [variant_config(variant) for variant in args.variants]
    searched = add_knots_lockstep([scenario.dataset for scenario in scenarios for _ in configs],
                                  configs * len(scenarios), _knot_search(args))
    results = []
    for seed, scenario in zip(seeds, scenarios):
        tails = TailRegions.fraction(*scenario.dataset.domain, args.tail_frac)
        out = {"seed": seed, "fits": {}, "clusters": {}}
        for variant in args.variants:
            model = _placed(searched.pop(0), args)
            d = model.diagnostics
            out["fits"][variant] = {"df": d.df, "gcv": d.gcv, "sse": d.sse,
                                    **model_isse(model, scenario.truth, tails)}
            for method in args.methods:
                result = _cluster(model, method, args.k, seed, args.restarts)
                out["clusters"][(variant, method)] = {
                    "ri": rand_index(result.partition.labels, scenario.labels),
                    "ari": adjusted_rand_index(result.partition.labels, scenario.labels),
                }
        results.append(out)
    return results


def _cmd_replicate(args) -> None:
    if args.replications < 1:
        raise ConfigError("need at least one replication")
    _knot_count(args, free=True)  # checked before the echo and any seed runs
    n_threads = _threads(args)
    scenario = ScenarioConfig(noise_sd=args.noise_sd, seed=args.seed)
    generate_scenario(scenario)  # a noise scale that overflows stops the run here
    TailRegions.fraction(*scenario.domain, args.tail_frac)
    _check_clustering(scenario.curves_per_group * len(scenario.groups), args.k, None,
                      args.restarts, args.seed, args.methods)
    out, resolved = _outdir(args, "replications", "variants", "methods", "k", "order",
                            "noise_sd", n_basis=args.nbasis, threads=n_threads)
    seeds = range(args.seed, args.seed + args.replications)
    # a pool forks all its workers at once, so it gets no more than the
    # seeds; each worker runs one contiguous chunk of them
    workers = min(n_threads, args.replications)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        n = args.replications
        chunks = [seeds[i * n // workers:(i + 1) * n // workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [res for chunk in pool.map(functools.partial(_replicate_seeds, args), chunks)
                       for res in chunk]
    else:
        results = _replicate_seeds(args, seeds)

    def cluster_rows():
        for res in results:
            for (variant, method), scores in res["clusters"].items():
                yield [str(res["seed"]), variant, method, _fmt(scores["ri"]), _fmt(scores["ari"])]

    _write_csv(out / "runs.csv", resolved, ["seed", "variant", "method", "ri", "ari"], cluster_rows())

    def fit_rows():
        for res in results:
            for variant, d in res["fits"].items():
                yield [str(res["seed"]), variant] + [_fmt(d[key]) for key in _FIT_KEYS]

    _write_csv(out / "fits.csv", resolved, ["seed", "variant", *_FIT_KEYS], fit_rows())
    from statistics import median  # np.median would import numpy.ma
    aggregate = {"ari": {}, "ri": {}, "isse_median": {}}
    for variant in args.variants:
        for method in args.methods:
            for score in ("ari", "ri"):
                values = [res["clusters"][(variant, method)][score] for res in results]
                aggregate[score][f"{variant}.{method}"] = {
                    "mean": float(np.mean(values)),
                    "sd": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
                }
        for key in ("isse", "isse_inf", "isse_sup", "df", "gcv"):
            values = [res["fits"][variant][key] for res in results]
            aggregate["isse_median"].setdefault(variant, {})[key] = float(median(values))
    _write_json(out / "aggregate.json", resolved, aggregate)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    """A fresh parser: --config values are set on it as defaults."""
    parser = argparse.ArgumentParser(
        prog="fkspline",
        description="Free-knot spline smoothing, regularization selection, and curve clustering",
    )
    subs = parser.add_subparsers(dest="subcommand")

    def add(name, help, parents=()):
        sub = subs.add_parser(name, help=help, parents=parents,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sub.add_argument("--outdir", default=".", help="output directory")
        sub.add_argument("--seed", type=int, default=0, help="random seed recorded in outputs")
        sub.add_argument("--config", help="JSON file with default values for any flag")
        return sub

    # parent parsers of the flags that several subcommands share
    data, spline, penalty, noise, tails, restarts = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    data.add_argument("--data", help="dataset CSV (t,curve_1,...)")
    data.add_argument("--knots", type=_float_list,
                      help="fixed interior knots (comma list) instead of a knot search")
    spline.add_argument("--order", type=int, default=4, help="spline order")
    spline.add_argument("--nbasis", type=int, default=12, help="number of basis functions")
    spline.add_argument("--grid-size", dest="grid_size", type=int, default=50,
                        help="knot candidates per search round")
    penalty.add_argument("--variant", choices=VARIANTS, default="fs2",
                         help="named penalty weights")
    penalty.add_argument("--lambda1", type=float,
                         help="first-derivative weight, overrides --variant")
    penalty.add_argument("--lambda2", type=float,
                         help="second-derivative weight, overrides --variant")
    noise.add_argument("--noise-sd", dest="noise_sd", type=float,
                       default=benchmark_config().noise_sd, help="noise standard deviation")
    tails.add_argument("--tail-frac", dest="tail_frac", type=float, default=0.1,
                       help="share of the domain in each tail region")
    restarts.add_argument("--restarts", type=int, default=20, help="k-means restarts")

    sim = add("simulate", "generate the four-group synthetic scenario", [noise])
    sim.add_argument("--groups", type=_int_list, default="1,2,3,4", help="comma list of group ids")
    sim.add_argument("--curves-per-group", dest="curves_per_group", type=int, default=50,
                     help="curves per group")
    sim.add_argument("--points", type=int, default=50, help="points per curve")
    sim.add_argument("--homoscedastic", action="store_true",
                     help="constant noise SD instead of mean-scaled")
    sim.add_argument("--domain", type=_float_list, default="0,5", help="lo,hi")
    sim.set_defaults(func=_cmd_simulate)

    fit = add("fit", "fit a spline family to a dataset CSV", [data, spline, penalty, tails])
    fit.add_argument("--truth-labels", dest="truth_labels",
                     help="labels CSV; enables quadrature ISSE against the scenario means")
    fit.set_defaults(func=_cmd_fit)

    gcv = add("gcv", "GCV grid search for the penalty weights", [data, spline])
    gcv.add_argument("--mode", choices=["fixed", "free"], default="fixed",
                     help="fixed knots, or a knot search in every grid cell")
    gcv.add_argument("--exponents", type=_parse_exponents, default="-8:4",
                     help="'lo:hi' or comma list of base-10 exponents")
    gcv.add_argument("--pin-lambda1", dest="pin_lambda1", type=float,
                     help="pin lambda1 (e.g. 0) and scan lambda2 only")
    gcv.set_defaults(func=_cmd_gcv)

    clu = add("cluster", "fit then cluster the curves", [data, spline, penalty, restarts])
    clu.add_argument("--method", choices=METHODS, default="kmeans", help="clustering method")
    clu.add_argument("--k", type=int,
                     help="cluster count; when unset, the elbow's pick with --kmax, else 4")
    clu.add_argument("--kmax", type=int, help="also trace the elbow curve up to this k")
    clu.add_argument("--labels", help="truth labels CSV for RI/ARI scoring")
    clu.set_defaults(func=_cmd_cluster)

    rep = add("replicate", "repeat simulate/fit/cluster over seeds",
              [spline, noise, restarts, tails])
    rep.add_argument("-R", "--replications", dest="replications", type=int, default=30,
                     help="number of seeds")
    rep.add_argument("--variants", type=_choice_list(VARIANTS), default="fs0,fs2",
                     help="comma list of " + ",".join(VARIANTS))
    rep.add_argument("--methods", type=_choice_list(METHODS), default="kmeans,ward",
                     help="comma list of " + ",".join(METHODS))
    rep.add_argument("--k", type=int, default=4, help="cluster count")
    rep.add_argument("--threads", type=int, help=f"worker count; when unset, ${THREADS_ENV} or 1")
    rep.set_defaults(func=_cmd_replicate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        if args.config is not None:
            # flags > config file > defaults: the file's values become the
            # defaults of a second parse
            _config_defaults(parser, args)
            args = parser.parse_args(argv)
        args.func(args)
    except FkSplineError as exc:
        code = 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, DataError) else 4
        return _fail(args, exc, code)
    return 0


def _fail(args, exc, code: int) -> int:
    report = {
        "module": getattr(args, "subcommand", None),
        "error": type(exc).__name__,
        "context": str(exc),
    }
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
