"""Command line front end: simulate, fit, gcv, cluster, replicate.

Outputs are CSV for matrices/series and JSON for diagnostics.  Every file
carries the resolved configuration (CSV files as a leading '#' comment,
JSON files under a "config" key) and no timestamps, so a rerun with the
same flags is byte-identical.  Exit codes: 0 ok, 2 configuration error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .basis import make_basis_spec
from .cluster import (
    adjusted_rand_index,
    confusion_counts,
    elbow_curve,
    functional_kmeans,
    hierarchical_cluster,
    matched_confusion,
    rand_index,
)
from .data import FunctionalDataset
from .errors import (
    ConfigError,
    DataError,
    FkSplineError,
    NumericalError,
    ParseError,
)
from .freeknot import KnotSearchConfig, fit_free_knot
from .ingest import _read_rows, load_csv
from .lambda_select import LambdaGrid, gcv_grid_search
from .metrics import TailRegions, model_isse
from .penalty import PenaltyConfig
from .simulate import GROUP_IDS, ScenarioConfig, benchmark_config, generate_scenario, group_means
from .smoother import fit_coefficients, variant_config

THREADS_ENV = "FKSPLINE_THREADS"
_DENSE_POINTS = 200


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


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_dataset(path) -> tuple[FunctionalDataset, list[str]]:
    """The wide-layout dataset CSV at path, on the sample grid as read."""
    table = load_csv(path, "wide")
    if table.n_times < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {table.n_times}")
    finite = np.isfinite(table.values).all(axis=1) & np.isfinite(table.time_index)
    if not finite.all():
        label = table.time_labels[int(np.argmin(finite))]
        raise DataError(f"{path}: missing or non-finite cell in the row t={label}")
    return FunctionalDataset(t=table.time_index, values=table.values), table.series_ids


def _read_labels(path, curve_ids: list[str]) -> np.ndarray:
    rows = [r for r in _read_rows(path) if r]
    mapping = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"{path}: row {i} has {len(row)} cells, expected 2", row=i)
        try:
            mapping[row[0].strip()] = int(row[1])
        except ValueError as exc:
            raise ParseError(f"{path}: row {i}: {exc}", row=i, column=2) from exc
    try:
        return np.array([mapping[c] for c in curve_ids])
    except KeyError as exc:
        raise DataError(f"{path}: no label for curve {exc}") from exc


def _load_config_file(path) -> dict:
    if path is None:
        return {}
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


def _resolve(args, key, default):
    """flags > config file > defaults."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    cfg = getattr(args, "_file_config", {})
    if key in cfg:
        return cfg[key]
    return default


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in str(text).split(",") if part.strip()]


def _parse_exponents(text: str) -> list[float]:
    """Either 'lo:hi' (inclusive integer range) or a comma list."""
    text = str(text).strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [float(x) for x in _comma_list(text)]


def _outdir(args) -> Path:
    out = Path(_resolve(args, "outdir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _threads(args) -> int:
    value = _resolve(args, "threads", None)
    if value is None:
        value = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(value)
    except ValueError:
        raise ConfigError(f"thread count must be an integer, got {value!r}") from None
    if n < 1:
        raise ConfigError("thread count must be at least 1")
    return n


def _echo(config: dict) -> None:
    print(json.dumps({"resolved_config": config}, sort_keys=True))


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> None:
    seed = int(_resolve(args, "seed", 0))
    groups = tuple(int(g) for g in _comma_list(_resolve(args, "groups", "1,2,3,4")))
    domain = [float(x) for x in _comma_list(_resolve(args, "domain", "0,5"))]
    if len(domain) != 2:
        raise ConfigError("--domain needs two comma-separated numbers")
    noise_sd = _resolve(args, "noise_sd", None)
    base = benchmark_config(seed=seed)
    config = ScenarioConfig(
        groups=groups,
        curves_per_group=int(_resolve(args, "curves_per_group", 50)),
        points_per_curve=int(_resolve(args, "points", 50)),
        domain=(domain[0], domain[1]),
        noise_sd=float(noise_sd) if noise_sd is not None else base.noise_sd,
        heteroscedastic=not bool(_resolve(args, "homoscedastic", False)),
        seed=seed,
    )
    scenario = generate_scenario(config)
    resolved = {
        "subcommand": "simulate",
        "groups": list(config.groups),
        "curves_per_group": config.curves_per_group,
        "points_per_curve": config.points_per_curve,
        "domain": list(config.domain),
        "noise_sd": config.noise_sd,
        "heteroscedastic": config.heteroscedastic,
        "seed": config.seed,
    }
    _echo(resolved)
    out = _outdir(args)
    ids = [f"curve_{i + 1}" for i in range(scenario.dataset.n_curves)]
    t = scenario.dataset.t
    _write_csv(
        out / "dataset.csv", resolved, ["t"] + ids,
        ([_fmt(t[i])] + [_fmt(v) for v in scenario.dataset.values[i]] for i in range(t.size)),
    )
    _write_csv(
        out / "labels.csv", resolved, ["curve_id", "label"],
        ([ids[j], str(int(scenario.labels[j]))] for j in range(len(ids))),
    )
    means = scenario.truth(t)
    _write_csv(
        out / "means.csv", resolved, ["t"] + ids,
        ([_fmt(t[i])] + [_fmt(v) for v in means[i]] for i in range(t.size)),
    )


# ---------------------------------------------------------------------------
# fit


def _penalty_from_args(args) -> PenaltyConfig:
    variant = str(_resolve(args, "variant", "fs2"))
    l1 = _resolve(args, "lambda1", None)
    l2 = _resolve(args, "lambda2", None)
    return variant_config(
        variant,
        lambda1=float(l1) if l1 is not None else None,
        lambda2=float(l2) if l2 is not None else None,
    )


def _fit_model(dataset, args, config):
    order = int(_resolve(args, "order", 4))
    knots_arg = _resolve(args, "knots", None)
    nbasis = int(_resolve(args, "nbasis", 12))
    lo, hi = dataset.domain
    if knots_arg is not None:
        knots = [float(x) for x in _comma_list(knots_arg)]
        spec = make_basis_spec(lo, hi, order, knots)
        return fit_coefficients(dataset, spec, config)
    p = nbasis - order
    if p < 0:
        raise ConfigError(f"nbasis {nbasis} is below the order {order}")
    if p == 0:
        spec = make_basis_spec(lo, hi, order, [])
        return fit_coefficients(dataset, spec, config)
    search = KnotSearchConfig(
        order=order, max_knots=p, fixed_p=True,
        grid_size=int(_resolve(args, "grid_size", 50)),
    )
    return fit_free_knot(dataset, config, search)


def _discrete_tail_sse(t, residuals, tails: TailRegions):
    resid2 = residuals ** 2
    lower = resid2[(t >= tails.lower[0]) & (t <= tails.lower[1])].sum()
    upper = resid2[(t >= tails.upper[0]) & (t <= tails.upper[1])].sum()
    return float(lower), float(upper)


def _cmd_fit(args) -> None:
    seed = int(_resolve(args, "seed", 0))
    dataset, curve_ids = _load_dataset(_require(args, "data"))
    config = _penalty_from_args(args)
    # the tail regions and the truth labels are checked before the fit,
    # which can be a whole free-knot search
    tail_frac = float(_resolve(args, "tail_frac", 0.1))
    lo, hi = dataset.domain
    tails = TailRegions.fraction(lo, hi, tail_frac)
    truth_labels_path = _resolve(args, "truth_labels", None)
    if truth_labels_path is not None:
        labels = _read_labels(truth_labels_path, curve_ids)
        unknown = ~np.isin(labels, GROUP_IDS)
        if unknown.any():
            i = int(np.argmax(unknown))
            raise DataError(f"{truth_labels_path}: curve {curve_ids[i]} has group id "
                            f"{labels[i]}, expected one of {GROUP_IDS}")
    model = _fit_model(dataset, args, config)
    if truth_labels_path is not None:
        isse = model_isse(model, lambda t: group_means(labels, t), tails)
        isse_kind = "quadrature_vs_truth"
    else:
        inf, sup = _discrete_tail_sse(dataset.t, model.diagnostics.residuals, tails)
        isse = {"isse": model.diagnostics.sse, "isse_inf": inf, "isse_sup": sup}
        isse_kind = "discrete_residual"
    resolved = {
        "subcommand": "fit",
        "data": str(_require(args, "data")),
        "variant": str(_resolve(args, "variant", "fs2")),
        "lambda1": config.lambda1,
        "lambda2": config.lambda2,
        "order": int(_resolve(args, "order", 4)),
        "n_basis": model.spec.n_basis,
        "tail_frac": tail_frac,
        "seed": seed,
        "isse_kind": isse_kind,
    }
    _echo(resolved)
    out = _outdir(args)
    d = model.diagnostics
    _write_json(out / "fit.json", {
        "config": resolved,
        "df": d.df,
        "gcv": d.gcv,
        "sse": d.sse,
        "isse": isse["isse"],
        "isse_inf": isse["isse_inf"],
        "isse_sup": isse["isse_sup"],
        "isse_kind": isse_kind,
        "lambda1": config.lambda1,
        "lambda2": config.lambda2,
        "knots": [float(x) for x in model.spec.interior_knots],
        "n_basis": model.spec.n_basis,
        "seed": seed,
    })
    _write_csv(
        out / "coefficients.csv", resolved, ["basis_index"] + curve_ids,
        ([str(i + 1)] + [_fmt(v) for v in model.coeffs[i]] for i in range(model.spec.n_basis)),
    )
    dense = np.linspace(lo, hi, _DENSE_POINTS)
    curves = model.predict(dense)
    _write_csv(
        out / "curves.csv", resolved, ["t"] + curve_ids,
        ([_fmt(dense[i])] + [_fmt(v) for v in curves[i]] for i in range(dense.size)),
    )


def _require(args, key):
    value = _resolve(args, key, None)
    if value is None:
        raise ConfigError(f"--{key.replace('_', '-')} is required")
    return value


# ---------------------------------------------------------------------------
# gcv


def _cmd_gcv(args) -> None:
    seed = int(_resolve(args, "seed", 0))
    dataset, _ = _load_dataset(_require(args, "data"))
    mode = str(_resolve(args, "mode", "fixed"))
    exponents = _parse_exponents(_resolve(args, "exponents", "-8:4"))
    grid = LambdaGrid.from_exponents(exponents)
    order = int(_resolve(args, "order", 4))
    nbasis = int(_resolve(args, "nbasis", 12))
    pin = _resolve(args, "pin_lambda1", None)
    lo, hi = dataset.domain
    spec = None
    search = None
    if mode == "fixed":
        knots_arg = _resolve(args, "knots", None)
        if knots_arg is not None:
            knots = [float(x) for x in _comma_list(knots_arg)]
        else:
            knots = np.linspace(lo, hi, nbasis - order + 2)[1:-1]
        spec = make_basis_spec(lo, hi, order, knots)
    else:
        p = max(1, nbasis - order)
        search = KnotSearchConfig(
            order=order, max_knots=p, fixed_p=True,
            grid_size=int(_resolve(args, "grid_size", 50)),
        )
    result = gcv_grid_search(
        dataset, grid=grid, spec=spec, search=search, mode=mode,
        lambda1_pinned=float(pin) if pin is not None else None,
    )
    resolved = {
        "subcommand": "gcv",
        "data": str(_require(args, "data")),
        "mode": mode,
        "exponents": [float(e) for e in exponents],
        "order": order,
        "n_basis": nbasis,
        "pin_lambda1": float(pin) if pin is not None else None,
        "seed": seed,
    }
    _echo(resolved)
    out = _outdir(args)

    def rows():
        for i, l1 in enumerate(result.lambda1_values):
            for j, l2 in enumerate(result.lambda2_values):
                yield [
                    _fmt(l1), _fmt(l2), _fmt(result.scores[i, j]),
                    _fmt(result.df[i, j]), _fmt(result.sse[i, j]),
                ]

    _write_csv(out / "gcv_table.csv", resolved, ["lambda1", "lambda2", "gcv", "df", "sse"], rows())
    _write_json(out / "selected.json", {
        "config": resolved,
        "lambda1": result.lambda1,
        "lambda2": result.lambda2,
        "gcv": result.gcv,
        "failures": [list(f) for f in result.failures],
        "seed": seed,
    })


# ---------------------------------------------------------------------------
# cluster


def _cmd_cluster(args) -> None:
    seed = int(_resolve(args, "seed", 0))
    dataset, curve_ids = _load_dataset(_require(args, "data"))
    config = _penalty_from_args(args)
    model = _fit_model(dataset, args, config)
    method = str(_resolve(args, "method", "kmeans"))
    restarts = int(_resolve(args, "restarts", 20))
    kmax = _resolve(args, "kmax", None)
    k_arg = _resolve(args, "k", None)
    out = _outdir(args)
    resolved = {
        "subcommand": "cluster",
        "data": str(_require(args, "data")),
        "variant": str(_resolve(args, "variant", "fs2")),
        "method": method,
        "k": int(k_arg) if k_arg is not None else None,
        "kmax": int(kmax) if kmax is not None else None,
        "restarts": restarts,
        "seed": seed,
    }
    _echo(resolved)
    elbow = None
    if kmax is not None:
        elbow = elbow_curve(model, int(kmax), seed=seed, restarts=restarts)
        _write_csv(
            out / "elbow.csv", resolved, ["k", "w"],
            ([str(k + 1), _fmt(elbow.w[k])] for k in range(int(kmax))),
        )
    if k_arg is not None:
        k = int(k_arg)
    elif elbow is not None:
        k = elbow.suggested_k
    else:
        k = 4
    if method == "kmeans":
        result = functional_kmeans(model, k, seed=seed, restarts=restarts)
    else:
        result = hierarchical_cluster(model, k, linkage=method)
    _write_csv(
        out / "partition.csv", resolved, ["curve_id", "label"],
        ([curve_ids[i], str(int(result.partition.labels[i]))] for i in range(len(curve_ids))),
    )
    metrics = {
        "config": resolved,
        "k": k,
        "method": method,
        "w": result.w,
        "seed": seed,
        "suggested_k": elbow.suggested_k if elbow is not None else None,
        "elbow_low_confidence": elbow.low_confidence if elbow is not None else None,
    }
    labels_path = _resolve(args, "labels", None)
    if labels_path is not None:
        truth = _read_labels(labels_path, curve_ids)
        tp, tn, fp, fn = confusion_counts(result.partition.labels, truth)
        metrics.update({
            "rand_index": rand_index(result.partition.labels, truth),
            "adjusted_rand_index": adjusted_rand_index(result.partition.labels, truth),
            "confusion": {"tp": tp, "tn": tn, "fp": fp, "fn": fn},
            "clusters": matched_confusion(result.partition.labels, truth),
        })
    _write_json(out / "metrics.json", metrics)


# ---------------------------------------------------------------------------
# replicate


def _replicate_one(task: dict) -> dict:
    """One seed of the simulate -> fit -> cluster pipeline (worker-safe)."""
    scenario = generate_scenario(ScenarioConfig(**task["scenario"]))
    dataset = scenario.dataset
    lo, hi = dataset.domain
    tails = TailRegions.fraction(lo, hi, task["tail_frac"])
    search = KnotSearchConfig(
        order=task["order"], max_knots=task["p"], fixed_p=True, grid_size=task["grid_size"],
    )
    out = {"seed": task["scenario"]["seed"], "fits": {}, "clusters": {}}
    for variant in task["variants"]:
        config = variant_config(variant)
        model = fit_free_knot(dataset, config, search)
        isse = model_isse(model, scenario.truth, tails)
        d = model.diagnostics
        out["fits"][variant] = {
            "df": d.df, "gcv": d.gcv, "sse": d.sse,
            "isse": isse["isse"], "isse_inf": isse["isse_inf"], "isse_sup": isse["isse_sup"],
        }
        for method in task["methods"]:
            if method == "kmeans":
                result = functional_kmeans(
                    model, task["k"], seed=task["scenario"]["seed"], restarts=task["restarts"],
                )
            else:
                result = hierarchical_cluster(model, task["k"], linkage=method)
            out["clusters"][(variant, method)] = {
                "ri": rand_index(result.partition.labels, scenario.labels),
                "ari": adjusted_rand_index(result.partition.labels, scenario.labels),
            }
    return out


def _cmd_replicate(args) -> None:
    seed = int(_resolve(args, "seed", 0))
    R = int(_resolve(args, "replications", 30))
    if R < 1:
        raise ConfigError("need at least one replication")
    variants = _comma_list(_resolve(args, "variants", "fs0,fs2"))
    methods = _comma_list(_resolve(args, "methods", "kmeans,ward"))
    for m in methods:
        if m not in ("kmeans", "ward", "complete", "average"):
            raise ConfigError(f"unknown method {m!r}")
    noise_sd = _resolve(args, "noise_sd", None)
    base = benchmark_config(seed=seed)
    order = int(_resolve(args, "order", 4))
    nbasis = int(_resolve(args, "nbasis", 12))
    p = nbasis - order
    if p < 1:
        raise ConfigError(f"nbasis {nbasis} leaves no free knots at order {order}")
    tasks = []
    for i in range(R):
        cfg = ScenarioConfig(
            noise_sd=float(noise_sd) if noise_sd is not None else base.noise_sd,
            heteroscedastic=base.heteroscedastic,
            seed=seed + i,
        )
        tasks.append({
            "scenario": dataclasses.asdict(cfg),
            "variants": variants,
            "methods": methods,
            "k": int(_resolve(args, "k", 4)),
            "order": order,
            "p": p,
            "grid_size": int(_resolve(args, "grid_size", 50)),
            "restarts": int(_resolve(args, "restarts", 20)),
            "tail_frac": float(_resolve(args, "tail_frac", 0.1)),
        })
    n_threads = _threads(args)
    resolved = {
        "subcommand": "replicate",
        "replications": R,
        "variants": variants,
        "methods": methods,
        "k": tasks[0]["k"],
        "order": order,
        "n_basis": nbasis,
        "noise_sd": tasks[0]["scenario"]["noise_sd"],
        "seed": seed,
        "threads": n_threads,
    }
    _echo(resolved)
    if n_threads > 1:
        with ProcessPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(_replicate_one, tasks))
    else:
        results = [_replicate_one(task) for task in tasks]
    out = _outdir(args)

    def cluster_rows():
        for res in results:
            for (variant, method), scores in res["clusters"].items():
                yield [str(res["seed"]), variant, method, _fmt(scores["ri"]), _fmt(scores["ari"])]

    _write_csv(out / "runs.csv", resolved, ["seed", "variant", "method", "ri", "ari"], cluster_rows())

    def fit_rows():
        for res in results:
            for variant, d in res["fits"].items():
                yield [str(res["seed"]), variant] + [
                    _fmt(d[key]) for key in ("df", "gcv", "sse", "isse", "isse_inf", "isse_sup")
                ]

    _write_csv(
        out / "fits.csv", resolved,
        ["seed", "variant", "df", "gcv", "sse", "isse", "isse_inf", "isse_sup"], fit_rows(),
    )
    aggregate = {"config": resolved, "seed": seed, "ari": {}, "ri": {}, "isse_median": {}}
    for variant in variants:
        for method in methods:
            aris = [res["clusters"][(variant, method)]["ari"] for res in results]
            ris = [res["clusters"][(variant, method)]["ri"] for res in results]
            key = f"{variant}.{method}"
            aggregate["ari"][key] = {"mean": float(np.mean(aris)), "sd": float(np.std(aris, ddof=1)) if len(aris) > 1 else 0.0}
            aggregate["ri"][key] = {"mean": float(np.mean(ris)), "sd": float(np.std(ris, ddof=1)) if len(ris) > 1 else 0.0}
        for key in ("isse", "isse_inf", "isse_sup", "df", "gcv"):
            values = [res["fits"][variant][key] for res in results]
            aggregate["isse_median"].setdefault(variant, {})[key] = float(np.median(values))
    _write_json(out / "aggregate.json", aggregate)


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--outdir", help="output directory (default .)")
    sub.add_argument("--seed", type=int, help="random seed recorded in outputs")
    sub.add_argument("--config", help="JSON file with default values for any flag")


def _basis_flags() -> argparse.ArgumentParser:
    """Dataset and spline basis flags shared by fit, gcv and cluster."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--data", help="dataset CSV (t,curve_1,...)")
    flags.add_argument("--order", type=int)
    flags.add_argument("--nbasis", type=int)
    flags.add_argument("--knots", help="fixed interior knots (comma list)")
    flags.add_argument("--grid-size", dest="grid_size", type=int)
    return flags


def _penalty_flags() -> argparse.ArgumentParser:
    """Penalty flags of the spline fit that fit and cluster run."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--variant", choices=["fs0", "fs1", "fs2"])
    flags.add_argument("--lambda1", type=float)
    flags.add_argument("--lambda2", type=float)
    return flags


def _build_parser() -> argparse.ArgumentParser:
    basis_flags, penalty_flags = _basis_flags(), _penalty_flags()
    parser = argparse.ArgumentParser(
        prog="fkspline",
        description="Free-knot spline smoothing, regularization selection, and curve clustering",
    )
    subs = parser.add_subparsers(dest="subcommand")

    sim = subs.add_parser("simulate", help="generate the four-group synthetic scenario")
    _add_common(sim)
    sim.add_argument("--groups", help="comma list of group ids (default 1,2,3,4)")
    sim.add_argument("--curves-per-group", dest="curves_per_group", type=int)
    sim.add_argument("--points", type=int, help="points per curve (default 50)")
    sim.add_argument("--noise-sd", dest="noise_sd", type=float)
    sim.add_argument("--homoscedastic", action="store_const", const=True,
                     help="constant noise SD instead of mean-scaled")
    sim.add_argument("--domain", help="lo,hi (default 0,5)")
    sim.set_defaults(func=_cmd_simulate)

    fit = subs.add_parser("fit", parents=[basis_flags, penalty_flags],
                          help="fit a spline family to a dataset CSV")
    _add_common(fit)
    fit.add_argument("--truth-labels", dest="truth_labels",
                     help="labels CSV; enables quadrature ISSE against the scenario means")
    fit.add_argument("--tail-frac", dest="tail_frac", type=float)
    fit.set_defaults(func=_cmd_fit)

    gcv = subs.add_parser("gcv", parents=[basis_flags],
                          help="GCV grid search for the penalty weights")
    _add_common(gcv)
    gcv.add_argument("--mode", choices=["fixed", "free"])
    gcv.add_argument("--exponents", help="'lo:hi' or comma list of base-10 exponents")
    gcv.add_argument("--pin-lambda1", dest="pin_lambda1", type=float,
                     help="pin lambda1 (e.g. 0) and scan lambda2 only")
    gcv.set_defaults(func=_cmd_gcv)

    clu = subs.add_parser("cluster", parents=[basis_flags, penalty_flags],
                          help="fit then cluster the curves")
    _add_common(clu)
    clu.add_argument("--method", choices=["kmeans", "ward", "complete", "average"])
    clu.add_argument("--k", type=int)
    clu.add_argument("--kmax", type=int, help="also trace the elbow curve up to this k")
    clu.add_argument("--restarts", type=int)
    clu.add_argument("--labels", help="truth labels CSV for RI/ARI scoring")
    clu.set_defaults(func=_cmd_cluster)

    rep = subs.add_parser("replicate", help="repeat simulate/fit/cluster over seeds")
    _add_common(rep)
    rep.add_argument("-R", "--replications", dest="replications", type=int)
    rep.add_argument("--variants", help="comma list (default fs0,fs2)")
    rep.add_argument("--methods", help="comma list of kmeans,ward,complete,average")
    rep.add_argument("--k", type=int)
    rep.add_argument("--order", type=int)
    rep.add_argument("--nbasis", type=int)
    rep.add_argument("--noise-sd", dest="noise_sd", type=float)
    rep.add_argument("--grid-size", dest="grid_size", type=int)
    rep.add_argument("--restarts", type=int)
    rep.add_argument("--tail-frac", dest="tail_frac", type=float)
    rep.add_argument("--threads", type=int, help=f"worker count (default ${THREADS_ENV} or 1)")
    rep.set_defaults(func=_cmd_replicate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        args._file_config = _load_config_file(getattr(args, "config", None))
        args.func(args)
    except ConfigError as exc:
        return _fail(args, exc, 2)
    except DataError as exc:
        return _fail(args, exc, 3)
    except NumericalError as exc:
        return _fail(args, exc, 4)
    except FkSplineError as exc:
        return _fail(args, exc, 4)
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
