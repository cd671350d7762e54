"""The benchmark's span tracer wraps public functions by module attribute;
each one it names must exist on the package, or `--trace 1` fails."""

import importlib.util
import inspect
import sys
from pathlib import Path

from oscdamp import kernels

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_wraps_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [(target, attr) for target, attr, _, _ in spans.WRAPS
               if not callable(getattr(spans._resolve(target), attr, None))]
    assert spans.WRAPS and missing == []


def test_rk4_span_nsteps_is_third_parameter():
    """The tracer reads a span's step count from the third positional argument."""
    assert list(inspect.signature(kernels.rk4_span).parameters)[2] == "nsteps"
