"""The benchmark's span tracer wraps public functions by module attribute;
each one it names must exist on the package, and the attributes it reads
from their results must be there, or `--trace 1` fails."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from oscdamp import kernels, lmi

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # its dataclasses look it up
    spec.loader.exec_module(spans)
    return spans


def test_span_wraps_resolve(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = [(target, attr) for target, attr, _, _ in spans.WRAPS
               if not callable(getattr(spans._resolve(target), attr, None))]
    assert spans.WRAPS and missing == []


def test_rk4_span_nsteps_is_third_parameter():
    """The tracer reads a span's step count from the third positional argument."""
    assert list(inspect.signature(kernels.rk4_span).parameters)[2] == "nsteps"


def test_lmi_span_attributes_read_the_results(monkeypatch):
    """The SDP spans' attribute extractors run on real results: the canonical
    form's variable count and largest block, the solve's steps and status."""
    spans = load_spans(monkeypatch)
    p = lmi.LmiProblem()
    p.add_scalar("t")
    p.objective["t"] = 1.0
    con = p.add_constraint("psd", 2, const=[[0.0, 1.0], [1.0, 0.0]])
    con.terms.append(lmi.Term("t", np.eye(2), np.eye(2)))
    assert spans._canon_attrs((p,), {}, lmi.canonicalize(p)) == {"n_vars": 1, "max_block": 2}
    sol = lmi.solve_sdp(p)
    assert spans._sdp_attrs((p,), {}, sol) == {"iterations": sol.iterations,
                                                "status": "optimal"}
    assert sol.iterations > 0


def test_bare_pytest_imports_the_package_from_src():
    """`pytest` run in a checkout without PYTHONPATH finds the package under
    src/ (pyproject's pythonpath setting)."""
    root = SPANS.parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--collect-only", "tests/test_case.py"],
                         cwd=root, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
