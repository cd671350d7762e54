"""The benchmark's span tracer wraps public functions by module attribute;
each one it names must exist on the package, and the attributes it reads
from their results must be there, or `--trace 1` fails.  The benchmark's SDP
size curve and its set-up probe also import the package; each runs here once
at its smallest size."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from oscdamp import kernels, lmi
from conftest import load_report_set

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "oscdamp"


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_span_wraps_resolve(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    missing = [(target, attr) for target, attr, _, _ in spans.WRAPS
               if not callable(getattr(spans._resolve(target), attr, None))]
    assert spans.WRAPS and missing == []


def test_package_imports_are_used():
    """Every name a package module imports is read in that module (the
    `__future__` import aside).  A name kept only for the span tracer to wrap
    would record no span once its caller stopped using it, and a per-layer
    figure would read zero without any error."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


def _scope_stores(fn) -> dict:
    """The names function `fn` assigns in its own scope, each at its first
    line; those assigned in a function, lambda or class nested in it are
    theirs."""
    stores, stack = {}, list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] = min(node.lineno, stores.get(node.id, node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return stores


def test_package_locals_are_read():
    """Every local that a package function assigns is read in that function
    or in one nested in it (names starting with `_` aside).  A value that is
    computed and never read is work done for nothing."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            read.update(name for node in ast.walk(fn)
                        if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names)
            unread += [f"{path.name}:{line} {name}" for name, line in _scope_stores(fn).items()
                       if not name.startswith("_") and name not in read]
    assert unread == []


def test_rk4_span_nsteps_is_third_parameter():
    """The tracer reads a span's step count from the third positional argument."""
    assert list(inspect.signature(kernels.rk4_span).parameters)[2] == "nsteps"


def test_lmi_span_attributes_read_the_results(monkeypatch):
    """The SDP spans' attribute extractors run on real results: the canonical
    form's variable count and largest block, the solve's steps and status."""
    spans = load_perfbench(monkeypatch, "spans")
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
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--collect-only", "tests/test_case.py"],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


def test_sdp_size_curve_runs(monkeypatch, bundled_case):
    """The size curve assembles and solves the synthesis LMI through the
    package's public names; at N = 2 it reports its time and Newton steps."""
    curve = load_perfbench(monkeypatch, "sdp_curve")
    monkeypatch.setattr(curve, "SIZES", (2,))
    metrics = curve.size_curve(bundled_case)
    assert set(metrics) == set(curve.zero_curve()) == {"lmi.solve_s.n2",
                                                       "lmi.newton_steps.n2"}
    assert metrics["lmi.newton_steps.n2"] > 0


def test_setup_probe_runs():
    """The set-up probe imports the CLI, reads the bundled case and the
    pinned gains, and prints the time of each part."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"),
                          str(ROOT / "src" / "oscdamp" / "data" / "two_area.json"),
                          str(PERFBENCH / "reference_gains.json")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    times = json.loads(run.stdout)
    assert set(times) == {"import_s", "case_s", "gains_s"}
    assert all(t >= 0.0 for t in times.values())


def test_report_set_help_runs_nothing(monkeypatch, tmp_path, capsys):
    """`-h` and `--help` print the usage and exit 0; any other argument that
    starts with `-` exits 2.  Neither runs a command or makes a directory."""
    report_set = load_report_set()
    runs = []
    monkeypatch.setattr(report_set.subprocess, "run", lambda *a, **k: runs.append(a))
    monkeypatch.chdir(tmp_path)
    for argv, code in ((["-h"], 0), (["--help"], 0), (["-o"], 2), (["--out"], 2)):
        assert report_set.main(argv) == code
        out, err = capsys.readouterr()
        assert "Usage" in (out if code == 0 else err)
    assert runs == [] and list(tmp_path.iterdir()) == []


def test_report_set_uneven_case_differs_in_one_reactance(bundled_case):
    """The uneven case copy is a valid case that differs from the bundled one
    in one branch's reactance."""
    from oscdamp.case import parse_case, validate_case
    report_set = load_report_set()
    uneven = parse_case(report_set.uneven_case_text())
    assert validate_case(uneven) == []
    changed = [(a, b) for a, b in zip(bundled_case.branches, uneven.branches) if a != b]
    assert [(a.key(), b.x) for a, b in changed] == [(report_set.UNEVEN[1], report_set.UNEVEN[2])]
    assert changed[0][0].x != changed[0][1].x


def test_report_set_covers_every_subcommand():
    """The byte-identity report set runs every subcommand the CLI has, so a
    refactor that reaches any command's report is compared."""
    import argparse
    from oscdamp import cli
    report_set = load_report_set()
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert {args[0] for _, args in report_set.COMMANDS} == set(subparsers.choices)


def _names_read(paths) -> set:
    """Every name the modules at `paths` read: as a name, as an attribute or
    by importing it from a module."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _unread_package_names(private: bool, readers) -> list[str]:
    """The module-level functions and classes of the package modules, the
    `_private` ones or the public ones, that no module of `readers` reads."""
    read = _names_read(readers)
    return [f"{path.name}:{node.lineno} {node.name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__")
            and node.name.startswith("_") == private and node.name not in read]


def test_private_package_names_are_used():
    """Every module-level `_private` function or class of a package module
    is read by some package module.  One that only the tests call is a
    second copy of what they could call instead."""
    assert _unread_package_names(True, PACKAGE.glob("*.py")) == []


# public names that no package module, benchmark or tool reads, and why each stays
_READ_ELSEWHERE = {
    "bundled_case_text": "the accessor of the shipped case",
    "render_case": "the writer of the case generator of ROADMAP item 6",
    "verify_bound": "the sampled bound check that `design` runs under ROADMAP item 2",
}


def test_public_package_names_are_read():
    """Every module-level public function or class of a package module is
    read by some package module, benchmark or tool, or is listed with the
    reason it stays.  One that only the tests read is test code kept in the
    package."""
    readers = [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py"), *(ROOT / "tools").glob("*.py")]
    unread = _unread_package_names(False, readers)
    assert sorted(name.split()[1] for name in unread) == sorted(_READ_ELSEWHERE)


def test_readme_layout_names_every_module():
    """README's `## Layout` table has one row for each package module
    (`__init__` aside), and no row for a module that is gone."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in table.splitlines()
            if line.startswith("| `oscdamp.")]
    modules = [f"`oscdamp.{path.stem}`" for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"]
    assert sorted(rows) == modules
