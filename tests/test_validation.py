"""Hostile field values at the data and basis entry points: each call
succeeds or raises an FkSplineError, never a raw TypeError, ValueError,
IndexError or numpy warning (an error under this suite's filter)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkspline import (ConfigError, FkSplineError, FunctionalDataset, fit_coefficients,
                      make_basis_spec, variant_config)
from fkspline.basis import BasisSpec, eval_design
from fkspline.cluster import functional_kmeans
from fkspline.freeknot import KnotSearchConfig, fit_free_knot, jupp, jupp_inverse
from fkspline.lambda_select import gcv_grid_search
from fkspline.penalty import gram_matrix
from fkspline.simulate import generate_scenario

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
], ids=["string-values", "ragged-values", "3d-values",
        "none-domain-end", "string-knots", "overflowing-domain-width", "one-end-domain",
        "string-jupp-knots", "none-jupp-lo", "overflowing-jupp-width", "string-points",
        "string-lambda1", "none-variant"])
def test_each_named_fault_is_typed(call):
    with pytest.raises(FkSplineError):
        call()


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
