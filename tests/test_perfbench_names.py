"""The benchmark's tracer wraps session2rec functions by name; a rename in
the library must fail here, not first in the traced benchmark run."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    tracing = runpy.run_path(str(TRACING))  # compiles in memory: no bytecode next to the benchmark
    return [(module, attr) for module, attr, _ in (*tracing["SPANNED"], *tracing["AGGREGATED"])]


@pytest.mark.parametrize("module, attr", _traced_names())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"session2rec.{module}"), attr, None))
