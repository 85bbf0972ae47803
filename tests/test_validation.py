"""Hostile field values at the data and basis entry points: each call
succeeds or raises an FkSplineError, never a raw TypeError, ValueError,
IndexError or numpy warning (an error under this suite's filter)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkspline
from fkspline import (ConfigError, FkSplineError, FunctionalDataset, PenaltyConfig,
                      fit_coefficients, make_basis_spec, variant_config)
from fkspline.basis import BasisSpec, DesignMatrix, eval_design
from fkspline.cluster import Partition, elbow_curve, functional_kmeans, hierarchical_cluster
from fkspline.freeknot import KnotSearchConfig, StageRecord, fit_free_knot, jupp, jupp_inverse
from fkspline.ingest import RawSeriesTable, standardize, to_dataset
from fkspline.lambda_select import LambdaGrid, gcv_grid_search
from fkspline.metrics import TailRegions, model_isse
from fkspline.penalty import gram_matrix
from fkspline.simulate import ScenarioConfig, generate_scenario
from fkspline.smoother import FitModel, assemble_system

HOSTILE = [
    None, "ab", "0.5", b"1", True, math.nan, math.inf, -math.inf, 1e308, -1e308, -1.0, 0, 0.5,
    1, 2, 4.0, 2.5, 10**400, 1j, {"a": 1}, [], [0.5], [0.25, 0.75], [0.5, [1.0]],
    [[0.5], [0.25, 0.75]], np.zeros((2, 2, 2)), np.linspace(0.0, 1.0, 5), np.ones((5, 3)),
    [-1e308, 1e308], (0.0,), (0.0, 1.0), (1.0, 0.0), ("a", "b"), "fs2", "FS0", "fs9",
]

SPEC = make_basis_spec(0.0, 1.0, 4, [0.5])

CALLS = {
    "FunctionalDataset": lambda a, b, c, d: FunctionalDataset(t=a, values=b),
    "make_basis_spec": lambda a, b, c, d: make_basis_spec(a, b, c, d),
    "BasisSpec": lambda a, b, c, d: BasisSpec(a, b, c),
    "BasisSpec pair": lambda a, b, c, d: BasisSpec((a, b), c, d),
    "jupp": lambda a, b, c, d: jupp(a, b, c),
    "eval_design": lambda a, b, c, d: eval_design(SPEC, a, b),
    "variant_config": lambda a, b, c, d: variant_config(a, lambda1=b, lambda2=c),
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(call=st.sampled_from(sorted(CALLS)),
       args=st.lists(st.sampled_from(HOSTILE), min_size=4, max_size=4))
def test_entry_points_succeed_or_raise_typed_errors(call, args):
    try:
        CALLS[call](*args)
    except FkSplineError:
        pass


@pytest.mark.parametrize("call", [
    lambda: FunctionalDataset(t=np.arange(3.0), values="ab"),
    lambda: FunctionalDataset(t=np.arange(3.0), values=[[1.0, 2.0], [3.0]]),
    lambda: FunctionalDataset(t=np.arange(3.0), values=np.zeros((3, 2, 2))),
    lambda: make_basis_spec(None, 1, 4),
    lambda: make_basis_spec(0, 1, 4, "ab"),
    lambda: make_basis_spec(-1e308, 1e308, 4),
    lambda: BasisSpec((0.0,), 4),
    lambda: jupp("ab", 0, 1),
    lambda: jupp([0.5], None, 1),
    lambda: jupp([], -1e308, 1e308),
    lambda: eval_design(SPEC, "ab"),
    lambda: variant_config("fs2", lambda1="x"),
    lambda: variant_config(None),
    lambda: gcv_grid_search(DATASET, spec=SPEC, lambda1_pinned="x"),
    lambda: fkspline.standardize(TABLE, max_missing_frac=math.nan),
    lambda: fkspline.standardize(TABLE, max_missing_frac="x"),
    lambda: fkspline.integrated_sse(np.sin, np.cos, (0.0, 1.0), breakpoints="x"),
    lambda: fkspline.add_knots_lockstep([DATASET], [FS2, FS2], TINY_SEARCH),
    lambda: fkspline.group_means(np.ones((2, 2)), [0.5]),
], ids=["string-values", "ragged-values", "3d-values",
        "none-domain-end", "string-knots", "overflowing-domain-width", "one-end-domain",
        "string-jupp-knots", "none-jupp-lo", "overflowing-jupp-width", "string-points",
        "string-lambda1", "none-variant", "string-pinned-lambda1", "nan-missing-fraction",
        "string-missing-fraction", "string-breakpoints", "one-dataset-two-configs",
        "2d-labels"])
def test_each_named_fault_is_typed(call):
    with pytest.raises(FkSplineError):
        call()


@pytest.mark.parametrize("call, bound", [
    (lambda n: make_basis_spec(0.0, 1.0, n), 32),
    (lambda n: KnotSearchConfig(order=n), 32),
    (lambda n: KnotSearchConfig(max_knots=n), 1000),
    (lambda n: KnotSearchConfig(grid_size=n), 10000),
    (lambda n: fkspline.penalty_matrix(SPEC, 2, n), 1024),
    (lambda n: fkspline.integrated_sse(np.sin, np.cos, (0.0, 1.0), n), 2**16),
    (lambda n: fkspline.model_isse(MODEL, MODEL.predict, TAILS, n), 2**16),
    (lambda n: functional_kmeans(MODEL, 2, 0, n), 1000),
    (lambda n: elbow_curve(MODEL, 3, 0, n), 1000),
], ids=["basis-order", "search-order", "max-knots", "grid-size", "penalty-nodes",
        "isse-nodes", "model-isse-nodes", "kmeans-restarts", "elbow-restarts"])
def test_a_count_past_its_bound_is_refused_before_it_is_used(call, bound):
    # 1e308 passes an integer check: the bound refuses it before it sizes a
    # loop or an array (unbounded, it gave raw errors, ran past 5 s or past 2 GB)
    for n in (bound + 1, 1e308):
        with pytest.raises(FkSplineError, match=f"at most {bound}"):
            call(n)


def test_a_scenario_past_its_size_bound_is_refused_before_it_is_drawn():
    # 10**5 curves per group of 10**5 points asked for 298 GiB: a raw MemoryError
    for n in (500001, 1e308):
        with pytest.raises(ConfigError, match="at most 100000000"):
            ScenarioConfig(curves_per_group=n)


def test_a_grid_wider_than_the_float_range_is_taken_quietly():
    # the increasing check compares neighbours rather than subtracting them
    dataset = FunctionalDataset(t=[-1e308, 1e308], values=[1.0, 2.0])
    assert dataset.domain == (-1e308, 1e308)


DATASET = FunctionalDataset(t=np.linspace(0.0, 1.0, 8),
                            values=np.sin(np.linspace(0.0, 3.0, 16)).reshape(8, 2))
SEARCH = KnotSearchConfig(order=4, max_knots=2, grid_size=10)


@pytest.mark.parametrize("call", [
    lambda: fit_free_knot(DATASET, None, SEARCH),
    lambda: fit_free_knot(DATASET, variant_config("fs2"), None),
    lambda: fit_free_knot(None, variant_config("fs2"), SEARCH),
    lambda: gcv_grid_search(DATASET, grid="x", search=SEARCH, mode="free"),
    lambda: gcv_grid_search(DATASET, spec="x", mode="fixed"),
    lambda: fit_coefficients(None, SPEC, variant_config("fs2")),
    lambda: functional_kmeans(None, 2),
    lambda: gram_matrix(None),
    lambda: jupp_inverse(None),
    lambda: generate_scenario(None),
], ids=["fit-none-config", "fit-none-search", "fit-none-dataset", "gcv-string-grid",
        "gcv-string-spec", "coefficients-none-dataset", "kmeans-none-model",
        "gram-none-spec", "jupp-inverse-none", "scenario-none-config"])
def test_an_object_of_the_wrong_type_is_a_config_error(call):
    # the argument contract covers types: a wrong-typed object is refused
    # before any of its attributes is read
    with pytest.raises(ConfigError, match="must be a"):
        call()


def hollow_model():
    return FitModel(None, None, None, None)


def hollow_table():
    return RawSeriesTable(None, None, None, None, None)


@pytest.mark.parametrize("call", [
    lambda: functional_kmeans(hollow_model(), 2),
    lambda: elbow_curve(hollow_model(), 3),
    lambda: hierarchical_cluster(hollow_model(), 2),
    lambda: model_isse(hollow_model(), np.sin, TAILS),
    lambda: functional_kmeans(FitModel(SPEC, FS2, MODEL.coeffs[:, 0], MODEL.diagnostics), 2),
    lambda: assemble_system(DesignMatrix(None, None, 0, None), PenaltyConfig()),
    lambda: assemble_system(DesignMatrix(np.zeros((2, SPEC.n_basis)), np.zeros((2, 1)), 0, SPEC),
                                    FS2),
    lambda: standardize(hollow_table()),
    lambda: to_dataset(hollow_table()),
    lambda: standardize(RawSeriesTable(["a"], TABLE.time_labels, TABLE.time_index,
                                       TABLE.values[:, :1], np.ones((3, 1)))),
    lambda: to_dataset(RawSeriesTable(["a", "b", "c"], TABLE.time_labels, TABLE.time_index,
                                      TABLE.values, TABLE.mask)),
], ids=["kmeans-hollow-model", "elbow-hollow-model", "hierarchical-hollow-model",
        "isse-hollow-model", "kmeans-1d-coefficients", "assemble-hollow-design",
        "assemble-2d-points", "standardize-hollow-table", "dataset-hollow-table",
        "standardize-float-mask", "dataset-more-ids-than-columns"])
def test_a_hollow_or_misshapen_result_object_is_a_config_error(call):
    # FitModel, DesignMatrix and RawSeriesTable check their fields' types
    # and shapes when built, before an entry point reads them
    with pytest.raises(ConfigError):
        call()



# One row per callable of fkspline.__all__ (exception classes excluded),
# plus rows "Class.method" for methods of a SAMPLES object: each row holds
# the positional and keyword arguments of a valid call.  The contract test
# makes that call, then the call with each argument swapped for each value
# of SWAPS: each succeeds or raises an FkSplineError.  A count swapped for
# 1e308 meets its upper bound before it sizes a loop or an array.
CURVES = FunctionalDataset(t=np.linspace(0.0, 1.0, 12),
                           values=np.sin(np.outer(np.linspace(0.0, 3.0, 12), [1.0, 1.1, 3.0, 3.2])))
FS2 = variant_config("fs2")
TINY_SEARCH = KnotSearchConfig(order=4, max_knots=1, grid_size=4)
COORDS = jupp([0.5], 0.0, 1.0)
MODEL = fit_coefficients(CURVES, SPEC, FS2)
TAILS = TailRegions((0.0, 0.1), (0.9, 1.0))
SCENARIO = generate_scenario(ScenarioConfig(curves_per_group=2, points_per_curve=8))
STAGE = StageRecord(1, np.array([0.5]), COORDS, 1.0, 2.0, 5.0)
TABLE = RawSeriesTable(["a", "b"], ["1", "2", "3"], np.array([1.0, 2.0, 3.0]),
                       np.array([[1.0, 2.0], [2.0, 0.0], [4.0, 1.0]]), np.ones((3, 2), dtype=bool))
LABELS, OTHER_LABELS = np.array([1, 1, 2, 2]), np.array([1, 2, 2, 2])
SAMPLES = {"FitModel": MODEL, "Scenario": SCENARIO}
SWAPS = [None, "x", True, math.nan, math.inf, -math.inf, 1e308, -1.0, np.zeros((2, 2, 2)), []]


def contract_rows(csv_path) -> dict:
    ones = np.ones((1, 1))
    return {
        "FunctionalDataset": ((CURVES.t, CURVES.values), {}),
        "BasisSpec": (((0.0, 1.0), 4, (0.5,)), {}),
        "DesignMatrix": ((np.zeros((2, SPEC.n_basis)), np.zeros(2), 0, SPEC), {}),
        "make_basis_spec": ((0.0, 1.0, 4, [0.5]), {}),
        "eval_design": ((SPEC, CURVES.t, 1), {}),
        "eval_spline": ((SPEC, MODEL.coeffs, CURVES.t, 1), {}),
        "PenaltyMatrix": ((2, np.eye(5), SPEC), {}),
        "PenaltyConfig": ((1e-6, 1e-4, (0.0, 1e-6, 1e-4)), {}),
        "penalty_matrix": ((SPEC, 2, 32), {}),
        "gram_matrix": ((SPEC,), {}),
        "SystemMatrix": ((np.eye(5), np.eye(5), ()), {}),
        "FitDiagnostics": ((5.0, 1.0, 2.0, 0.1, np.ones(4), np.zeros((12, 4))), {}),
        "FitModel": ((SPEC, FS2, MODEL.coeffs, MODEL.diagnostics), {}),
        "FitModel.predict": ((CURVES.t, 1), {}),
        "assemble_system": ((eval_design(SPEC, CURVES.t), FS2), {}),
        "fit_coefficients": ((CURVES, SPEC, FS2), {}),
        "variant_config": (("fs2", 1e-6, 1e-4), {}),
        "TailRegions": (((0.0, 0.1), (0.9, 1.0)), {}),
        "integrated_sse": ((np.sin, np.cos, (0.0, 1.0), 32, [0.5]), {}),
        "local_isse": ((np.sin, np.cos, TAILS, 32, [0.5]), {}),
        "model_isse": ((MODEL, MODEL.predict, TAILS, 32), {}),
        "JuppCoords": ((np.array([0.1]), 0.0, 1.0), {}),
        "KnotSearchConfig": ((4, 1, 4, True), {}),
        "GaussNewtonResult": ((COORDS, 1.0, 2, True, MODEL, False), {}),
        "StageRecord": ((1, np.array([0.5]), COORDS, 1.0, 2.0, 5.0), {}),
        "FreeKnotResult": (([STAGE], STAGE, MODEL, False), {}),
        "jupp": (([0.5], 0.0, 1.0), {}),
        "jupp_inverse": ((COORDS,), {}),
        "objective_f": ((COORDS, CURVES, FS2, 4), {}),
        "gauss_newton_refine": ((COORDS, CURVES, FS2, TINY_SEARCH), {}),
        "add_knots_gradually": ((CURVES, FS2, TINY_SEARCH), {}),
        "add_knots_lockstep": (([CURVES], [FS2], TINY_SEARCH), {}),
        "fit_free_knot": ((CURVES, FS2, TINY_SEARCH), {}),
        "LambdaGrid": (((1e-4, 1e-2),), {}),
        "GridSearchResult": ((1.0, 1.0, 0.5, (1.0,), (1.0,), ones, ones, ones, [], "fixed"), {}),
        "gcv_grid_search": ((CURVES, LambdaGrid((1e-4, 1e-2)), SPEC, None, "fixed", 0.0), {}),
        "ScenarioConfig": (((1, 2), 2, 8, (0.0, 5.0), 0.1, True, 3), {}),
        "Scenario": ((SCENARIO.dataset, SCENARIO.labels, SCENARIO.config), {}),
        "Scenario.truth": ((CURVES.t,), {}),
        "Scenario.group_truth": ((2,), {}),
        "mean_function": ((1, CURVES.t), {}),
        "group_means": ((SCENARIO.labels, CURVES.t), {}),
        "generate_scenario": ((SCENARIO.config,), {}),
        "benchmark_config": ((3,), {"points_per_curve": 8}),
        "Partition": ((LABELS, 2), {}),
        "ClusterResult": ((Partition(LABELS, 2), np.ones((5, 2)), 1.0, 3, 0, "kmeans"), {}),
        "ElbowResult": ((np.ones(2), 2, True), {}),
        "functional_kmeans": ((MODEL, 2, 0, 2), {}),
        "hierarchical_cluster": ((MODEL, 2, "average"), {}),
        "elbow_curve": ((MODEL, 3, 0, 2), {}),
        "confusion_counts": ((LABELS, OTHER_LABELS), {}),
        "rand_index": ((LABELS, OTHER_LABELS), {}),
        "partitions_equal": ((LABELS, OTHER_LABELS), {}),
        "adjusted_rand_index": ((LABELS, OTHER_LABELS), {}),
        "matched_confusion": ((LABELS, OTHER_LABELS), {}),
        "RawSeriesTable": ((TABLE.series_ids, TABLE.time_labels, TABLE.time_index, TABLE.values,
                            TABLE.mask, {}), {}),
        "load_csv": ((csv_path, "wide"), {}),
        "standardize": ((TABLE, 0.5, "drop"), {}),
        "to_dataset": ((TABLE,), {}),
    }


def test_the_contract_table_covers_every_public_callable():
    # a new public name fails here until it has a row
    callables = {name for name in fkspline.__all__ if callable(getattr(fkspline, name))
                 and not (isinstance(getattr(fkspline, name), type)
                          and issubclass(getattr(fkspline, name), Exception))}
    assert {name for name in contract_rows("") if "." not in name} == callables
    assert len(set(fkspline.__all__)) == len(fkspline.__all__)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "wide.csv"
    path.write_text("t,a,b\n0,1,2\n1,2,0\n2,4,1\n")
    return str(path)


@pytest.mark.parametrize("name", sorted(contract_rows("")))
def test_every_public_callable_succeeds_or_raises_a_typed_error(name, csv_path):
    owner, _, method = name.partition(".")
    call = getattr(SAMPLES[owner], method) if method else getattr(fkspline, name)
    args, kwargs = contract_rows(csv_path)[name]
    call(*args, **kwargs)
    swapped = [(args[:i] + (bad,) + args[i + 1:], kwargs)
               for i in range(len(args)) for bad in SWAPS]
    swapped += [(args, {**kwargs, key: bad}) for key in kwargs for bad in SWAPS]
    raw = []
    for swapped_args, swapped_kwargs in swapped:
        try:
            call(*swapped_args, **swapped_kwargs)
        except FkSplineError:
            pass
        except Exception as exc:  # the contract allows no other
            raw.append(f"{swapped_args} {swapped_kwargs}: {type(exc).__name__}: {exc}")
    assert raw == []
