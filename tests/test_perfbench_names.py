"""The traced benchmark run names real fkspline functions.

``perfbench/spans.py`` wraps functions by module and attribute name; a
renamed or deleted function would make its span silently read zero.  The
module is loaded from its file, since ``perfbench`` is not a package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("span, target", sorted(load_traced().items()))
def test_traced_name_resolves(span, target):
    module_name, attr = target
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: {module_name}.{attr} does not exist"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module_name}.{attr} is not callable"
