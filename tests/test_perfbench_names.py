"""The benchmark names real fkspline functions and CLI flags.

``perfbench/spans.py`` wraps functions by module and attribute name; a
renamed or deleted function would make its span silently read zero.  The
``replicate`` workload runs the CLI; a renamed flag would make each of its
operations fail.  The modules are loaded from their files, since
``perfbench`` is not a package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from fkspline import cli

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
