"""The benchmark tracer's call sites exist in the program.

`bench/tracer.py` wraps module attributes by name and refuses to install
when one is missing, so a rename would otherwise surface only in a traced
bench run. The tracer file is imported read-only, for its TARGETS table.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _, _ in tracer.TARGETS]


@pytest.mark.parametrize("module,attr", trace_targets())
def test_trace_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr} is gone; bench/tracer.py would fail to install"
