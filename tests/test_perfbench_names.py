"""The benchmark names real fkspline functions and CLI flags.

``perfbench/spans.py`` wraps functions by module and attribute name; a
renamed or deleted function would make its span silently read zero.  The
``replicate`` workload runs the CLI; a renamed flag would make each of its
operations fail.  The modules are loaded from their files, since
``perfbench`` is not a package.  The ``knot_search`` workload times the
search on the data's row-space factor; a shortened run of it must fit what
the search on every curve fits.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fkspline import FunctionalDataset, cli
from fkspline.freeknot import KnotSearchConfig, fit_free_knot
from fkspline.simulate import benchmark_config, generate_scenario
from fkspline.smoother import variant_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_traced() -> dict:
    return load("spans").TRACED


@pytest.mark.parametrize("span, target", sorted(load_traced().items()))
def test_traced_name_resolves(span, target):
    module_name, attr = target
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: {module_name}.{attr} does not exist"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module_name}.{attr} is not callable"


@pytest.mark.parametrize("threads", [1, 2])
def test_replicate_workload_flags_parse(tmp_path, threads):
    workload = load("workloads").Replicate(tmp_path)
    args = cli._build_parser().parse_args(workload._argv(0, threads, tmp_path / "out"))
    assert args.subcommand == "replicate"
    assert args.threads == threads


def test_knot_search_matches_the_unreduced_search(monkeypatch):
    """The knot_search workload's fit, shortened: the search on the data's
    row-space factor places the knots and scores the GCV that the search on
    every curve does."""
    dataset = generate_scenario(benchmark_config(seed=0)).dataset
    assert dataset.n_curves > dataset.n_points
    search = KnotSearchConfig(order=4, max_knots=2, grid_size=10, fixed_p=True)
    reduced = fit_free_knot(dataset, variant_config("fs2"), search)
    assert dataset.row_basis is not None
    monkeypatch.setattr(FunctionalDataset, "row_basis", property(lambda self: None))
    plain = fit_free_knot(dataset, variant_config("fs2"), search)
    lo, hi = dataset.domain
    gap = np.abs(np.subtract(reduced.spec.interior_knots, plain.spec.interior_knots))
    assert gap.max() <= 1e-8 * (hi - lo)
    assert reduced.diagnostics.gcv == pytest.approx(plain.diagnostics.gcv, rel=1e-9)
