import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscdamp
from oscdamp.cli import main, EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_DIVERGED
from conftest import (PINNED_GAINS, make_two_bus_text, pinned_gains,
                      reversed_machine_order_text)
from lmi_reference import read_sdpa


def strip_metadata(report_text: str) -> str:
    """A report's JSON without its `metadata` block, the part reruns may change."""
    doc = json.loads(report_text)
    doc.pop("metadata", None)
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.fixture()
def case_path(tmp_path):
    p = tmp_path / "two_area.json"
    p.write_text(oscdamp.bundled_case_text())
    return str(p)


_PINNED = ["--controllers", "all", "--gains", str(PINNED_GAINS)]
_MODE_CSV = ("re", "im", "freq_hz", "damping_pct", "class", "top_participant")
_SWEEP_CSV = ("fraction", "converged", "tie_flow_mw", "zeta_baseline_pct", "zeta_robust_pct",
              "freq_hz", "mode_class", "robust_mode_class", "baseline_error", "robust_error",
              "error")
_SCAN_CSV = ("from", "to", "circuit", "converged", "zeta_baseline_pct", "zeta_robust_pct",
             "islanded", "baseline_error", "robust_error", "error")


@pytest.mark.parametrize("argv, report, table, csv_name, columns", [
    (["pf"], "pf", "buses", "pf.csv", ("bus", "vm_pu", "va_rad", "p_pu", "q_pu")),
    (["modal"], "modal", "modes", "modes.csv", _MODE_CSV),
    (["modal", *_PINNED], "modal", "modes", "modes.csv", _MODE_CSV),
    (["design"], "design", "closed_loop_modes", "closed_loop_modes.csv", _MODE_CSV),
    # the power flow of the 1.15 point diverges: a row without most columns
    (["sweep", "--fractions", "0.5,1.0,1.15", *_PINNED], "sweep", "rows", "sweep.csv",
     _SWEEP_CSV),
    (["scan-n1", *_PINNED], "scan_n1", "rows", "scan_n1.csv", _SCAN_CSV),
], ids=["pf", "modal_open", "modal_gains", "design", "sweep", "scan_n1"])
def test_row_csvs_are_their_json_rows(case_path, tmp_path, argv, report, table, csv_name,
                                      columns):
    """A row table's CSV is its JSON rows: the header is the written columns,
    there is one line per row, and each cell is the JSON text of the row's
    value (the string itself for text, True/False for a flag, the JSON list
    for a list, empty for a key the row lacks), quoted where it holds a
    comma.  A scan row's branch gives its from, to and circuit."""
    out = tmp_path / "out"
    assert main([argv[0], "--case", case_path, *argv[1:], "--out", str(out)]) == EXIT_OK
    # every number as the text the JSON holds for it
    doc = json.loads((out / f"{report}.json").read_text(), parse_float=str,
                     parse_int=str, parse_constant=str)
    rows = doc["results"][table]
    if report == "scan_n1":
        rows = [dict(zip(("from", "to", "circuit"), r["branch"]), **r) for r in rows]
    lines = (out / csv_name).read_text().splitlines()
    assert lines[0] == ",".join(columns)
    assert len(lines) == len(rows) + 1

    def text(value):
        return f"[{', '.join(value)}]" if isinstance(value, list) else str(value)

    for cells, row in zip(csv.reader(lines[1:]), rows):
        assert cells == [text(row.get(c, "")) for c in columns]
    if report == "sweep":
        assert any(row["converged"] is False for row in rows)


def test_row_csvs_carry_the_failures(case_path, tmp_path):
    """Read back as CSV, an islanded outage names its buses and a diverged
    sweep point its error, as their JSON rows do, each in one cell."""
    out = tmp_path / "out"
    assert main(["sweep", "--case", case_path, "--fractions", "1.0,1.15",
                 "--out", str(out)]) == EXIT_OK
    assert main(["scan-n1", "--case", case_path, "--out", str(out)]) == EXIT_OK
    sweep = json.loads((out / "sweep.json").read_text())["results"]["rows"]
    scan = json.loads((out / "scan_n1.json").read_text())["results"]["rows"]
    with open(out / "sweep.csv", newline="") as f:
        diverged = list(csv.DictReader(f))[1]
    assert diverged["fraction"] == "1.15" and diverged["converged"] == "False"
    assert diverged["error"] == sweep[1]["error"]
    assert diverged["error"].startswith("power flow diverged after 25 iterations")
    with open(out / "scan_n1.csv", newline="") as f:
        outages = {(int(r["from"]), int(r["to"]), int(r["circuit"])): r
                   for r in csv.DictReader(f)}
    (row,) = [r for r in scan if r["branch"] == [20, 3, 1]]
    assert json.loads(outages[20, 3, 1]["islanded"]) == row["islanded"] == [1, 2, 10, 20]
    assert outages[20, 3, 1]["error"] == "" and outages[20, 3, 1]["converged"] == "False"


def test_modal_single_machine_no_interarea(tmp_path):
    p = tmp_path / "mini.json"
    p.write_text(make_two_bus_text())
    out = tmp_path / "out"
    assert main(["modal", "--case", str(p), "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "modal.json").read_text())
    assert all(m["class"] != "inter_area" for m in doc["results"]["modes"])


def test_report_idempotent(case_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["modal", "--case", case_path, "--out", str(out1)])
    main(["modal", "--case", case_path, "--out", str(out2)])
    t1 = strip_metadata((out1 / "modal.json").read_text())
    t2 = strip_metadata((out2 / "modal.json").read_text())
    assert t1 == t2
    assert (out1 / "modes.csv").read_text() == (out2 / "modes.csv").read_text()


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pf", "--case", str(bad)]) == EXIT_INPUT
    missing = tmp_path / "missing.json"
    assert main(["pf", "--case", str(missing)]) == EXIT_INPUT
    doc = json.loads(make_two_bus_text())
    doc["governors"][0]["r"] = 0.0
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc))
    assert main(["pf", "--case", str(invalid)]) == EXIT_INPUT


def test_case_with_e_max_is_input_error(tmp_path, capsys):
    """`e_max` is no longer part of the machine schema: a case that still
    carries it is refused as an input error."""
    doc = json.loads(oscdamp.bundled_case_text())
    doc["machines"][0]["e_max"] = 2.0
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    assert main(["pf", "--case", str(old)]) == EXIT_INPUT
    assert "unknown key(s) ['e_max']" in capsys.readouterr().err


def test_cli_import_loads_no_scipy(case_path, tmp_path):
    """numpy alone carries the CLI, the ringdown's matrix pencil included: a
    default simulate whose load-step segment is long enough for a ringdown
    estimate loads no scipy module.  A fresh interpreter, since this one
    holds scipy."""
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"duration": 10.0, "dt": 0.01, "events": [
        {"time": 0.5, "type": "step_load", "bus": 4, "dp_mw": 40.0, "dq_mvar": 10.0}]}))
    out = tmp_path / "out"
    src = str(Path(oscdamp.__file__).resolve().parents[1])
    code = ("import sys; from oscdamp.cli import main; "
            f"assert main(['simulate', '--case', {case_path!r}, '--scenario', "
            f"{str(scen)!r}, '--out', {str(out)!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip().splitlines()[-1] == "[]"
    ring = json.loads((out / "simulate.json").read_text())["results"]["ringdown"]
    assert list(ring) == ["delta_rel:4:1"]
    assert [(w["start_s"], w["end_s"]) for w in ring["delta_rel:4:1"]] == [(2.5, 10.0)]


def test_design_gains_independent_of_blas_threads():
    """The bundled design gives the same gain bits with 1 and 2 BLAS threads.
    Fresh interpreters, since OpenBLAS reads its thread count at load."""
    src = str(Path(oscdamp.__file__).resolve().parents[1])
    code = ("import sys, numpy as np, oscdamp; "
            "from oscdamp.case import parse_case; "
            "from oscdamp.powerflow import solve_power_flow, load_admittances, kron_reduce; "
            "from oscdamp.dynamics import initialize_from_power_flow; "
            "from oscdamp.synthesis import design_controllers; "
            "case = parse_case(oscdamp.bundled_case_text()); "
            "sol = solve_power_flow(case); "
            "eq = initialize_from_power_flow(case, sol, "
            "kron_reduce(case, load_admittances(case, sol))); "
            "np.save(sys.stdout.buffer, design_controllers(case, eq)[0].gains)")
    gains = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, check=True)
        gains.append(np.load(io.BytesIO(run.stdout)))
    assert np.array_equal(gains[0], gains[1])


def test_simulate_report_independent_of_blas_threads(case_path, tmp_path, bundled_design):
    """A short remedial simulate (trip, then controllers in service) writes
    the same report outside metadata with 1 and 2 BLAS threads; the RHS runs
    a BLAS matrix-vector product every evaluation.  Fresh interpreters, since
    OpenBLAS reads its thread count at load."""
    src = str(Path(oscdamp.__file__).resolve().parents[1])
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps(bundled_design[0].to_dict()))
    scen = tmp_path / "remedial.json"
    scen.write_text(json.dumps({"duration": 3.0, "dt": 0.005, "initial_active": "none",
                                "events": [
        {"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1},
        {"time": 2.0, "type": "activate_controllers", "machines": "all"}]}))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "oscdamp.cli", "simulate", "--case", case_path,
                        "--scenario", str(scen), "--gains", str(gains),
                        "--out", str(out)], env=env, capture_output=True, check=True)
        reports.append(_report_files(out))
    assert set(reports[0]) == {"simulate.json", "trajectory.csv"}
    assert reports[0] == reports[1]


def test_numeric_error_exit_code(tmp_path):
    doc = json.loads(make_two_bus_text(p_mw=5000.0, q_mvar=2500.0))
    p = tmp_path / "heavy.json"
    p.write_text(json.dumps(doc))
    assert main(["pf", "--case", str(p)]) == EXIT_NUMERIC


def test_design_command(case_path, tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--case", case_path, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "design.json").read_text())
    syn = doc["results"]["synthesis"]
    assert syn["status"] == "optimal"
    assert syn["closed_loop_max_re"] < 0
    assert len(doc["results"]["controllers"]["gains"]) == 4
    assert (out / "synthesis.dat-s").exists()
    worst = doc["results"]["closed_loop_min_damping"]
    assert worst["damping_pct"] > 15.0


def test_design_subset_structure(case_path, tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--case", case_path, "--out", str(out),
                 "--controllers", "2,3"]) == EXIT_OK
    doc = json.loads((out / "design.json").read_text())
    ctrl = doc["results"]["controllers"]
    gains = {m: g for m, g in zip(ctrl["machine_ids"], ctrl["gains"])}
    assert any(v != 0 for v in gains[2])
    assert any(v != 0 for v in gains[3])
    assert all(v == 0 for v in gains[1])
    assert all(v == 0 for v in gains[4])


@pytest.mark.parametrize("which", ["two_bus", "one_machine_subset"])
def test_design_without_coupling_rows_is_bounded(which, case_path, tmp_path, capsys):
    """A designed machine without coupling rows (the one machine of a case,
    or a one-machine subset) has no gamma that only its margin bounds, so
    the objective is finite and its gamma reads 0."""
    if which == "two_bus":
        mini = tmp_path / "mini.json"
        mini.write_text(make_two_bus_text())
        argv = ["design", "--case", str(mini)]
    else:
        argv = ["design", "--case", case_path, "--controllers", "2"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert "gamma [0.0]," in capsys.readouterr().out
    syn = json.loads((out / "design.json").read_text())["results"]["synthesis"]
    assert list(syn["gamma"].values()) == [0.0]
    assert syn["status"] == "optimal"
    assert 0.0 < syn["objective"] < 1e6


def test_design_refuses_uncertified_solution(case_path, tmp_path, capsys,
                                            uncertified_solve):
    out = tmp_path / "out"
    assert main(["design", "--case", case_path, "--out", str(out)]) == EXIT_NUMERIC
    assert "numerical failure: synthesis LMI solution fails its check" in capsys.readouterr().err
    assert not out.exists()


def test_design_rejects_governorless(case_path, tmp_path):
    doc = json.loads(Path(case_path).read_text())
    doc["governors"] = [g for g in doc["governors"] if g["machine"] != 4]
    p = Path(case_path).parent / "nogov.json"
    p.write_text(json.dumps(doc))
    assert main(["design", "--case", str(p), "--controllers", "1,4"]) == EXIT_INPUT


@pytest.mark.parametrize("command", ["modal", "simulate"])
def test_gains_for_ungoverned_machine_is_input_error(command, case_path, tmp_path, capsys,
                                                      bundled_design):
    """A nonzero gain row for a machine without a governor is refused, since
    the model would never apply it; the same gains with that row left out of
    --controllers run."""
    doc = json.loads(Path(case_path).read_text())
    doc["governors"] = [g for g in doc["governors"] if g["machine"] != 4]
    nogov = tmp_path / "nogov.json"
    nogov.write_text(json.dumps(doc))
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps(bundled_design[0].to_dict()))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"duration": 0.1, "dt": 0.01, "events": []}))
    extra = ["--scenario", str(scen), "--channels", "omega:1"] if command == "simulate" else []
    argv = [command, "--case", str(nogov), "--gains", str(gains), *extra]
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    assert "machine 4" in capsys.readouterr().err
    assert main(argv + ["--controllers", "1,2,3"]) == EXIT_OK


def test_simulate_command(case_path, tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "duration": 2.0, "dt": 0.01,
        "events": [{"time": 0.5, "type": "trip_line",
                    "from": 3, "to": 101, "circuit": 1}],
    }))
    out = tmp_path / "out"
    assert main(["simulate", "--case", case_path, "--scenario", str(scen),
                 "--out", str(out), "--channels", "delta_rel:3:1,xe:1"]) == EXIT_OK
    doc = json.loads((out / "simulate.json").read_text())
    assert not doc["results"]["divergent"]
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "time,delta_rel:3:1,xe:1"
    assert len(lines) == 202


def test_simulate_empty_events_flat(case_path, tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"duration": 1.0, "dt": 0.01, "events": []}))
    out = tmp_path / "out"
    assert main(["simulate", "--case", case_path, "--scenario", str(scen),
                 "--out", str(out), "--channels", "delta_rel:3:1"]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert max(vals) - min(vals) < 1e-9


def test_simulate_divergent_exit_code(case_path, tmp_path):
    scen = tmp_path / "scen.json"
    # grossly unstable step size: the run must be reported, not crash
    scen.write_text(json.dumps({
        "duration": 60.0, "dt": 0.5,
        "events": [{"time": 1.0, "type": "step_load", "bus": 14,
                    "dp_mw": 500.0, "dq_mvar": 100.0}],
    }))
    assert main(["simulate", "--case", case_path,
                 "--scenario", str(scen)]) == EXIT_DIVERGED


def test_sweep_degenerate_matches_modal(case_path, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--case", case_path, "--fractions", "1.0",
                 "--out", str(out)]) == EXIT_OK
    sweep = json.loads((out / "sweep.json").read_text())
    assert main(["modal", "--case", case_path, "--out", str(out)]) == EXIT_OK
    modal = json.loads((out / "modal.json").read_text())
    row = sweep["results"]["rows"][0]
    assert row["converged"]
    assert row["zeta_baseline_pct"] == pytest.approx(
        modal["results"]["min_damping"]["damping_pct"], abs=1e-9)


def test_sweep_rows_sorted_and_recorded(case_path, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--case", case_path, "--fractions", "1.05,0.95",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "sweep.json").read_text())["results"]["rows"]
    assert [r["fraction"] for r in rows] == [0.95, 1.05]
    assert all(r["converged"] for r in rows)


# the stacked stages of a sweep or a scan, and the points each call gets
_STACKED_STAGES = {"solve_power_flows": lambda cases, *args: len(cases),
                   "kron_reductions": lambda case, y_loads, ybuses: len(y_loads),
                   "initialize_from_power_flows": lambda cases, *args: len(cases),
                   "linearize_points": lambda eqs, *args: len(eqs)}


def _count_stacks(monkeypatch):
    """Record, per stacked stage of `cli`, the number of points of each call;
    the single-point linearization records its calls as stacks of one."""
    import oscdamp.cli as cli
    stacks = {}
    stages = {**_STACKED_STAGES, "linearize": lambda eq, *args: 1}
    for name, points in stages.items():
        def counted(*args, _run=getattr(cli, name), _name=name, _points=points):
            stacks.setdefault(_name, []).append(_points(*args))
            return _run(*args)
        monkeypatch.setattr(cli, name, counted)
    return stacks


def test_sweep_builds_and_linearizes_each_point_once(case_path, tmp_path,
                                                     monkeypatch, bundled_design):
    gains = tmp_path / "design.json"
    gains.write_text(json.dumps({"results": {"controllers": bundled_design[0].to_dict()}}))
    stacks = _count_stacks(monkeypatch)
    out = tmp_path / "out"
    assert main(["sweep", "--case", case_path, "--fractions", "0.95,1.05",
                 "--controllers", "all", "--gains", str(gains),
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "sweep.json").read_text())["results"]["rows"]
    assert all("zeta_robust_pct" in r for r in rows)
    # the two points go through one stacked call of each stage, and the
    # closed loop is derived, not linearized
    assert stacks == {name: [2] for name in _STACKED_STAGES}


def test_pipeline_builds_one_ybus(bundled_case, bundled_eq, monkeypatch):
    """An analysed point assembles its admittance matrix once: the Kron
    reduction reuses the power flow's, and gives the bits of a reduction
    that builds its own."""
    import oscdamp.cli as cli
    from oscdamp import powerflow
    calls = []
    build = powerflow.build_ybus
    monkeypatch.setattr(powerflow, "build_ybus", lambda case: calls.append(1) or build(case))
    _, eq = cli._pipeline(bundled_case)
    assert len(calls) == 1
    net, want = eq.network, bundled_eq.network
    assert np.array_equal(net.g, want.g) and np.array_equal(net.b, want.b)
    assert np.array_equal(net.emf_to_bus, want.emf_to_bus)
    assert np.array_equal(eq.state, bundled_eq.state)


def test_modal_tables_computed_only_when_read(case_path, tmp_path, monkeypatch,
                                              bundled_design):
    """`design` and `modal --controllers` read only the closed-loop table;
    each `sweep` point reads both."""
    import oscdamp.cli as cli
    gains = tmp_path / "design.json"
    gains.write_text(json.dumps({"results": {"controllers": bundled_design[0].to_dict()}}))
    calls = []
    modal = cli.modal_analysis
    monkeypatch.setattr(cli, "modal_analysis",
                        lambda *a, **k: calls.append(1) or modal(*a, **k))
    out = str(tmp_path / "out")
    for argv, expected in ((["design"], 1),
                           (["modal", "--controllers", "all", "--gains", str(gains)], 1),
                           (["sweep", "--fractions", "0.95,1.05", "--controllers", "all",
                             "--gains", str(gains)], 4)):
        calls.clear()
        assert main([*argv, "--case", case_path, "--out", out]) == EXIT_OK
        assert len(calls) == expected, argv


@pytest.mark.parametrize("command", ["modal", "sweep", "scan-n1", "simulate"])
def test_gains_missing_a_machine_is_input_error(command, case_path, tmp_path, capsys,
                                                bundled_design):
    ctrl = bundled_design[0].to_dict()
    ctrl = {k: v[:3] for k, v in ctrl.items()}          # machine 4 left out
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps(ctrl))
    # x3.0 has no power flow: the gains are checked before any point is built
    extra = {"sweep": ["--fractions", "3.0"],
             "simulate": ["--scenario", str(tmp_path / "scen.json")]}.get(command, [])
    (tmp_path / "scen.json").write_text(json.dumps({"duration": 0.1}))
    assert main([command, "--case", case_path, "--controllers", "all",
                 "--gains", str(gains), *extra]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error:" in err and "[4]" in err


@pytest.mark.parametrize("edit, path", [
    (lambda d: d.update(gains=[row[:2] for row in d["gains"]]), "controllers.gains[0]"),
    (lambda d: d.pop("machine_ids"), "controllers"),
    (lambda d: d["gains"][1].__setitem__(2, math.nan), "controllers.gains[1][2]"),
    (lambda d: d["gains"][0].__setitem__(0, "1.0"), "controllers.gains[0][0]"),
    (lambda d: d["gains"].pop(), "controllers.gains"),
    (lambda d: d["machine_ids"].__setitem__(1, 1), "controllers.machine_ids"),
    (lambda d: d["machine_ids"].__setitem__(0, 1.0), "controllers.machine_ids[0]"),
    (lambda d: d.update(note="x"), "controllers"),
], ids=["rows-of-two", "no-machine-ids", "nan-gain", "string-gain", "row-missing",
        "repeated-id", "float-id", "unknown-key"])
def test_malformed_gains_file_is_input_error(edit, path, case_path, tmp_path, capsys,
                                             bundled_design):
    """A `--gains` file is read strictly: distinct integer machine ids and
    one row of 5 finite numbers per id; anything else names the field."""
    doc = bundled_design[0].to_dict()
    edit(doc)
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps({"results": {"controllers": doc}}))
    assert main(["modal", "--case", case_path, "--gains", str(gains)]) == EXIT_INPUT
    assert f"input error: {path}:" in capsys.readouterr().err


def _full_point(case, areas, ctrl, band=(0.1, 3.0)):
    """What a sweep or scan row reports, from the full path: the power flow,
    every mode's participation and class, and the corridor of the point's
    own case."""
    from oscdamp.areas import two_areas, tie_flow_mw
    from oscdamp.dynamics import initialize_from_power_flow
    from oscdamp.powerflow import kron_reduce, load_admittances, solve_power_flow
    from oscdamp.smallsignal import (classify_table, closed_loop_matrix, linearize,
                                     min_damping, modal_analysis)
    sol = solve_power_flow(case)
    eq = initialize_from_power_flow(case, sol, kron_reduce(case, load_admittances(case, sol)))
    lay = eq.layout
    a = linearize(eq)

    def worst(m):
        table = classify_table(modal_analysis(m, lay.labels), lay.speed_indices, areas)
        return min_damping(table, *band)

    base = worst(a)
    row = {"converged": True, "tie_flow_mw": tie_flow_mw(case, sol, two_areas(case)[1]),
           "zeta_baseline_pct": 100 * base.damping_ratio, "freq_hz": base.frequency_hz,
           "mode_class": base.classification}
    if ctrl is not None:
        rob = worst(closed_loop_matrix(a, eq.plan, ctrl.gains_for(lay.machine_ids)))
        row.update(zeta_robust_pct=100 * rob.damping_ratio,
                   robust_mode_class=rob.classification)
    return row


@pytest.mark.parametrize("with_gains", [False, True])
def test_point_rows_equal_the_full_path(with_gains, case_path, tmp_path, bundled_case,
                                        bundled_areas, bundled_design):
    """Every sweep row and every connected N-1 row holds exactly (==) what
    the full modal table, classified mode by mode, gives at that point."""
    from oscdamp.case import apply_line_trip, scale_stress
    ctrl = bundled_design[0] if with_gains else None
    argv = ["--case", case_path]
    if with_gains:
        gains = tmp_path / "gains.json"
        gains.write_text(json.dumps(ctrl.to_dict()))
        argv += ["--gains", str(gains)]
    out = tmp_path / "out"
    assert main(["sweep", "--fractions", "0.9,1.0,1.1", *argv, "--out", str(out)]) == EXIT_OK
    assert main(["scan-n1", *argv, "--out", str(out)]) == EXIT_OK
    sweep = json.loads((out / "sweep.json").read_text())["results"]["rows"]
    scan = json.loads((out / "scan_n1.json").read_text())["results"]["rows"]
    assert [r["fraction"] for r in sweep] == [0.9, 1.0, 1.1]
    for r in sweep:
        assert r == {"fraction": r["fraction"],
                     **_full_point(scale_stress(bundled_case, r["fraction"]),
                                   bundled_areas, ctrl)}
    connected = [r for r in scan if r["converged"]]
    assert len(connected) == 4
    scan_keys = {"converged", "zeta_baseline_pct", "zeta_robust_pct"}
    for r in connected:
        full = _full_point(apply_line_trip(bundled_case, *r["branch"]), bundled_areas, ctrl)
        assert r == {"branch": r["branch"], **{k: v for k, v in full.items() if k in scan_keys}}


def test_stress_scaling_keeps_the_corridor(bundled_case):
    """A stressed case has the base case's machine areas and tie corridor,
    so a sweep reads them from the base case alone."""
    from oscdamp.areas import two_areas
    from oscdamp.case import scale_stress
    base = two_areas(bundled_case)
    assert base[1]
    for f in (0.9, 0.95, 1.0, 1.05, 1.1):
        assert two_areas(scale_stress(bundled_case, f)) == base


@pytest.mark.parametrize("argv, searches", [
    (["pf"], 4), (["modal"], 4), (["design"], 4),
    (["sweep", "--fractions", "0.9,0.95,1.0,1.05,1.1"], 4), (["scan-n1"], 0)],
    ids=["pf", "modal", "design", "sweep", "scan-n1"])
def test_partition_searches_per_command(argv, searches, case_path, tmp_path, monkeypatch):
    """A command that reads the area partition finds it once, with one
    Dijkstra search per generator bus (four on the bundled case); a sweep
    finds it on the base case alone, and an N-1 scan, which reads no area,
    runs none."""
    from oscdamp import areas
    calls = []
    measure = areas._electrical_distances
    monkeypatch.setattr(areas, "_electrical_distances",
                        lambda case, source: calls.append(source) or measure(case, source))
    assert main([*argv, "--case", case_path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == searches


@pytest.mark.parametrize("controllers", ["none", "gains", "design"])
@pytest.mark.parametrize("command", [["sweep", "--fractions", "0.9,1.0,1.1"], ["scan-n1"]],
                         ids=["sweep", "scan-n1"])
def test_device_part_built_once_per_command(command, controllers, case_path, tmp_path,
                                            monkeypatch, bundled_design):
    """A sweep or an N-1 scan builds one device part and one state layout,
    from the base case, whether its controllers are absent, given or
    designed; its points reuse them."""
    from oscdamp import dynamics, kernels
    builds, layouts = [], []
    init, layout = kernels.RhsPlan.__init__, dynamics.build_layout
    monkeypatch.setattr(kernels.RhsPlan, "__init__",
                        lambda self, *a: builds.append(1) or init(self, *a))
    monkeypatch.setattr(dynamics, "build_layout",
                        lambda case: layouts.append(1) or layout(case))
    argv = [*command, "--case", case_path, "--out", str(tmp_path / "out")]
    if controllers == "gains":
        gains = tmp_path / "gains.json"
        gains.write_text(json.dumps(bundled_design[0].to_dict()))
        argv += ["--gains", str(gains)]
    elif controllers == "design":
        argv += ["--controllers", "all"]
    assert main(argv) == EXIT_OK
    assert builds == [1] and layouts == [1]


def test_point_without_mode_in_band_is_converged(case_path, tmp_path, capsys,
                                                 bundled_design):
    """A point whose power flow converged but has no open-loop mode in the
    band is a converged row with a baseline_error, as the closed loop has a
    robust_error; its tie flow is still reported."""
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps(bundled_design[0].to_dict()))
    band = ["--band", "2.9", "3.0"]
    out = tmp_path / "out"
    assert main(["sweep", "--case", case_path, "--fractions", "1.0", *band,
                 "--gains", str(gains), "--out", str(out)]) == EXIT_OK
    assert "x1.0000: tie   399.8 MW  zeta none in the band" in capsys.readouterr().out
    (row,) = json.loads((out / "sweep.json").read_text())["results"]["rows"]
    message = "no oscillatory mode in [2.9, 3.0] Hz"
    assert row == {"fraction": 1.0, "converged": True, "tie_flow_mw": row["tie_flow_mw"],
                   "baseline_error": message, "robust_error": message}
    assert row["tie_flow_mw"] == pytest.approx(399.75, abs=0.01)
    assert (out / "sweep.csv").read_text().splitlines()[1] == \
        f'1.0,True,{row["tie_flow_mw"]},,,,,,"{message}","{message}",'
    assert main(["scan-n1", "--case", case_path, *band, "--out", str(out)]) == EXIT_OK
    assert "14 branches, 4 converged, 10 islanded" in capsys.readouterr().out
    rows = json.loads((out / "scan_n1.json").read_text())["results"]["rows"]
    assert [r for r in rows if r["converged"]] == [
        {"branch": r["branch"], "converged": True, "baseline_error": message}
        for r in rows if "islanded" not in r]


def test_scan_radial_case_all_island(tmp_path):
    p = tmp_path / "radial.json"
    p.write_text(make_two_bus_text())
    out = tmp_path / "out"
    assert main(["scan-n1", "--case", str(p), "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "scan_n1.json").read_text())
    assert doc["results"]["branches_total"] == 1
    assert doc["results"]["branches_converged"] == 0


def test_scan_islanding_outages_run_no_power_flow(case_path, tmp_path, monkeypatch):
    """An outage that cuts buses off from the slack bus is reported with those
    buses before any power flow; only the connected outages are solved, each
    pair of identical parallel circuits once, in one stacked power flow, and
    built and linearized in one stack."""
    stacks = _count_stacks(monkeypatch)
    out = tmp_path / "out"
    assert main(["scan-n1", "--case", case_path, "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "scan_n1.json").read_text())["results"]["rows"]
    islanded = {tuple(r["branch"]): r for r in rows if "islanded" in r}
    assert len(islanded) == 10
    assert stacks == {name: [2] for name in _STACKED_STAGES}
    assert all(r == {"branch": list(k), "converged": False, "islanded": r["islanded"]}
               for k, r in islanded.items())
    assert islanded[(3, 4, 1)]["islanded"] == [4]
    assert islanded[(20, 3, 1)]["islanded"] == [1, 2, 10, 20]


@pytest.mark.parametrize("x_101_13_c2, power_flows", [(None, 2), (0.12, 3)],
                         ids=["bundled", "uneven"])
def test_scan_analyses_each_network_once(x_101_13_c2, power_flows, tmp_path, monkeypatch,
                                         bundled_text, bundled_areas):
    """Tripping either circuit of an identical parallel pair leaves the same
    network, so the bundled scan with the pinned gains solves, builds and
    linearizes one point per pair, each stage as one stack.  In a copy whose
    101-13 circuit 2 has another reactance, the two 101-13 outages leave
    different networks and are solved apart.  Every connected row holds
    what the full path gives at its own trip."""
    from oscdamp.case import apply_line_trip, parse_case
    doc = json.loads(bundled_text)
    if x_101_13_c2 is not None:
        (br,) = [b for b in doc["branches"]
                 if (b["from"], b["to"], b["circuit"]) == (101, 13, 2)]
        br["x"] = x_101_13_c2
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    case = parse_case(path.read_text())
    stacks = _count_stacks(monkeypatch)
    out = tmp_path / "out"
    assert main(["scan-n1", "--case", str(path), "--controllers", "all",
                 "--gains", str(PINNED_GAINS), "--out", str(out)]) == EXIT_OK
    assert stacks == {name: [power_flows] for name in _STACKED_STAGES}
    rows = json.loads((out / "scan_n1.json").read_text())["results"]["rows"]
    connected = {tuple(r["branch"]): r for r in rows if r["converged"]}
    assert set(connected) == {(3, 101, 1), (3, 101, 2), (101, 13, 1), (101, 13, 2)}
    scan_keys = {"converged", "zeta_baseline_pct", "zeta_robust_pct"}
    for key, r in connected.items():
        full = _full_point(apply_line_trip(case, *key), bundled_areas, pinned_gains())
        assert r == {"branch": list(key), **{k: v for k, v in full.items() if k in scan_keys}}
    same = connected[(101, 13, 1)] == {**connected[(101, 13, 2)], "branch": [101, 13, 1]}
    assert same == (x_101_13_c2 is None)


def test_sweep_takes_no_full_eigendecomposition(case_path, tmp_path, monkeypatch):
    """A sweep with the pinned gains classifies its modes without
    np.linalg.eig."""
    def no_eig(*args, **kwargs):
        raise AssertionError("np.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    out = tmp_path / "out"
    assert main(["sweep", "--case", case_path, "--fractions", "0.9,1.0,1.1",
                 "--controllers", "all", "--gains", str(PINNED_GAINS),
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "sweep.json").read_text())["results"]["rows"]
    assert all("mode_class" in r and "robust_mode_class" in r for r in rows)


def test_singular_inverse_iteration_is_a_non_converged_row(case_path, tmp_path,
                                                           monkeypatch):
    """A sweep point whose inverse-iteration solve is singular is a
    non-converged row carrying the error; the sweep goes on."""
    import oscdamp.cli as cli
    from oscdamp.smallsignal import right_vector
    monkeypatch.setattr(cli, "right_vector",
                        lambda a, eigenvalue: right_vector(np.zeros_like(a), 0j))
    out = tmp_path / "out"
    assert main(["sweep", "--case", case_path, "--fractions", "0.95,1.05",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "sweep.json").read_text())["results"]["rows"]
    assert rows == [{"fraction": f, "converged": False,
                     "error": "inverse iteration at 0+0j: Singular matrix"}
                    for f in (0.95, 1.05)]


def test_scan_row_count(case_path, tmp_path):
    out = tmp_path / "out"
    assert main(["scan-n1", "--case", case_path, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "scan_n1.json").read_text())
    assert doc["results"]["branches_total"] == 14
    assert len(doc["results"]["rows"]) <= 14


def test_export_sdpa_command(case_path, tmp_path):
    out = tmp_path / "out"
    assert main(["export-sdpa", "--case", case_path, "--out", str(out)]) == EXIT_OK
    text = (out / "synthesis.dat-s").read_text()
    prob = read_sdpa(text)
    assert len(prob.variables) == int(text.splitlines()[0])


def test_modal_with_designed_controllers(case_path, tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--case", case_path, "--out", str(out)]) == EXIT_OK
    assert main(["modal", "--case", case_path, "--out", str(out),
                 "--gains", str(out / "design.json"),
                 "--controllers", "all"]) == EXIT_OK
    modal = json.loads((out / "modal.json").read_text())
    design = json.loads((out / "design.json").read_text())
    closed = modal["results"]["min_damping"]["damping_pct"]
    assert closed == pytest.approx(
        design["results"]["closed_loop_min_damping"]["damping_pct"], abs=1e-6)
    assert closed > 15.0


def test_simulate_with_gains_activation(case_path, tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--case", case_path, "--out", str(out)]) == EXIT_OK
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "duration": 14.0, "dt": 0.005, "initial_active": "none",
        "events": [
            {"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1},
            {"time": 10.0, "type": "activate_controllers", "machines": "all"},
        ]}))
    assert main(["simulate", "--case", case_path, "--scenario", str(scen),
                 "--out", str(out), "--gains", str(out / "design.json"),
                 "--controllers", "all", "--channels", "u:1,delta_rel:3:1"]) == EXIT_OK
    rows = [l.split(",") for l in
            (out / "trajectory.csv").read_text().strip().splitlines()[1:]]
    t = [float(r[0]) for r in rows]
    u1 = [float(r[1]) for r in rows]
    assert all(v == 0.0 for v, tt in zip(u1, t) if tt < 10.0)
    assert any(v != 0.0 for v, tt in zip(u1, t) if tt > 10.5)


def test_remedial_ringdown_per_segment_matches_modal(case_path, tmp_path):
    """The 30 s remedial simulate with the pinned gains reads one ringdown per
    event segment, each starting 2 s after its event.  In each, the mode
    nearest in frequency to the modal prediction on the tripped network (the
    open loop after the trip, the closed loop after the activation) has that
    prediction's damping ratio to within one percentage point."""
    from oscdamp.case import apply_line_trip, parse_case
    from oscdamp.cli import _pipeline, _mode_table
    from oscdamp.synthesis import ControllerSet
    from oscdamp.smallsignal import min_damping
    gains = Path(__file__).resolve().parents[1] / "perfbench" / "reference_gains.json"
    scen = tmp_path / "remedial.json"
    scen.write_text(json.dumps({"duration": 30.0, "dt": 0.005, "initial_active": "none",
                                "events": [
        {"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1},
        {"time": 10.0, "type": "activate_controllers", "machines": "all"}]}))
    out = tmp_path / "out"
    assert main(["simulate", "--case", case_path, "--scenario", str(scen),
                 "--controllers", "all", "--gains", str(gains),
                 "--channels", "delta_rel:3:1", "--out", str(out)]) == EXIT_OK
    windows = json.loads((out / "simulate.json").read_text())["results"]["ringdown"]
    trip_window, activation_window = windows["delta_rel:3:1"]
    assert (trip_window["start_s"], trip_window["end_s"]) == (3.0, 10.0)
    assert (activation_window["start_s"], activation_window["end_s"]) == (12.0, 30.0)

    ctrl = ControllerSet.from_dict(json.loads(gains.read_text())["results"]["controllers"])
    _, eq = _pipeline(apply_line_trip(parse_case(Path(case_path).read_text()), 3, 101, 1))
    open_table, closed_table = _mode_table(eq), _mode_table(eq, ctrl)
    for window, table in ((trip_window, open_table), (activation_window, closed_table)):
        predicted = min_damping(table, 0.1, 3.0)
        mode = min(window["modes"],
                   key=lambda m: abs(m["frequency_hz"] - predicted.frequency_hz))
        assert abs(mode["frequency_hz"] - predicted.frequency_hz) <= 0.05
        assert abs(mode["zeta"] - predicted.damping_ratio) <= 0.01
        assert 0.0 <= window["residual"] < 0.05


def test_unrealizable_ringdown_band_refused_before_the_run(case_path, tmp_path,
                                                           monkeypatch, capsys):
    """A ringdown band the pencil cannot use at the scenario's dt is refused
    before anything is integrated."""
    import oscdamp.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli, "simulate", no_run)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"duration": 30.0, "dt": 0.005}))
    assert main(["simulate", "--case", case_path, "--scenario", str(scen),
                 "--band", "0.1", "150"]) == EXIT_INPUT
    assert "ringdown band" in capsys.readouterr().err


def test_default_band_out_of_reach_reads_no_window(tmp_path, monkeypatch, capsys):
    """At a dt coarser than 1/6 s the default 0.1-3 Hz band lies past half
    the sample rate: a run that does not diverge gives each delta_rel
    channel an empty window list and exits 0.  A band given at that dt is
    still refused before the run, the default's values included."""
    import oscdamp.cli as cli
    case = tmp_path / "two_bus.json"
    case.write_text(make_two_bus_text())
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"duration": 30.0, "dt": 0.25, "events": [
        {"time": 1.0, "type": "step_load", "bus": 2, "dp_mw": 5.0}]}))
    out = tmp_path / "out"
    argv = ["simulate", "--case", str(case), "--scenario", str(scen)]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    results = json.loads((out / "simulate.json").read_text())["results"]
    assert not results["divergent"] and results["ringdown"] == {"delta_rel:1:1": []}

    def no_run(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli, "simulate", no_run)
    for band in (["0.1", "2.5"], ["0.1", "3.0"]):
        assert main([*argv, "--band", *band]) == EXIT_INPUT
        assert "ringdown band" in capsys.readouterr().err


def _report_files(out: Path) -> dict:
    """Every file of a report directory, the JSON without its metadata."""
    return {p.name: strip_metadata(p.read_text()) if p.suffix == ".json" else p.read_text()
            for p in out.iterdir()}


@pytest.mark.parametrize("command", ["modal", "sweep", "scan-n1", "simulate"])
def test_gains_put_controllers_in_service(command, case_path, tmp_path, bundled_design):
    """--gains alone runs with the gains in service, exactly as
    --controllers all --gains does; with --controllers none it is refused."""
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps(bundled_design[0].to_dict()))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"duration": 0.5, "dt": 0.01, "events": [
        {"time": 0.1, "type": "trip_line", "from": 3, "to": 101, "circuit": 1}]}))
    extra = {"sweep": ["--fractions", "1.0"],
             "simulate": ["--scenario", str(scen), "--channels", "u:1,delta_rel:3:1"]}
    argv = [command, "--case", case_path, "--gains", str(gains), *extra.get(command, [])]
    assert main([*argv, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main([*argv, "--controllers", "all", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert _report_files(tmp_path / "a") == _report_files(tmp_path / "b")
    assert main([*argv, "--controllers", "none"]) == EXIT_INPUT


def _set_h(doc, value):
    doc["machines"][0]["h"] = value


def _zero_ka(doc):
    """Ka = 0 puts the voltage reference |v| + Efd / Ka at infinity."""
    doc["exciters"][2]["ka"] = 0.0


_TRIP_AT_1 = {"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1}


@pytest.mark.parametrize("argv, scenario, case_edit", [
    (["sweep", "--fractions", "abc"], None, None),
    (["modal", "--controllers", "1,x"], None, None),
    (["design", "--controllers", "1,x"], None, None),
    (["design", "--beta-bar", "0.5"], None, None),
    (["design", "--bound-scale", "-1"], None, None),
    (["design", "--beta-bar", "inf"], None, None),
    (["design", "--bound-scale", "inf"], None, None),
    (["sweep", "--fractions", "1.0,inf"], None, None),
    (["simulate"], {"duration": 1.0, "events": [
        {"time": 0.5, "type": "trip_line", "to": 101, "circuit": 1}]}, None),
    (["simulate"], {"duration": "x"}, None),
    (["simulate", "--gains"], {"duration": 1.0, "initial_active": 5}, None),
    (["simulate", "--gains"], {"duration": 1.0, "events": [
        {"time": 0.5, "type": "activate_controllers", "machines": 3}]}, None),
    (["simulate"], {"duration": 1.0, "dt": 0.3}, None),
    (["simulate"], {"duration": 1.0, "dt": 0.3, "events": [_TRIP_AT_1]}, None),
    (["simulate"], {"duration": 1.0, "dt": 0.3, "events": [
        {"time": 0.95, "type": "activate_controllers"}]}, None),
    (["simulate"], {"duration": 1.0, "dt": math.nan}, None),
    (["simulate"], {"duration": math.inf}, None),
    (["simulate"], {"duration": 1.0, "events": 5}, None),
    (["simulate"], ["duration"], None),
    (["modal"], None, lambda doc: doc.update(buses=5)),
    (["modal"], None, lambda doc: doc.update(loads=[5])),
    (["modal"], None, lambda doc: _set_h(doc, math.nan)),
    (["modal"], None, lambda doc: doc["branches"][0].update(in_service="false")),
    (["modal", "--band", "3.0", "0.1"], None, None),
    (["modal", "--band", "nan", "2"], None, None),
    (["sweep", "--fractions", "1.0", "--band", "0.1", "inf"], None, None),
    (["simulate", "--band", "3.0", "0.1"], {"duration": 1.0}, None),
    (["simulate", "--band", "-1", "2"], {"duration": 1.0}, None),
    (["simulate", "--band", "nan", "2"], {"duration": 1.0}, None),
    (["simulate", "--band", "0.1", "150"], {"duration": 1.0}, None),
    (["simulate", "--band", "0", "2"], {"duration": 1.0}, None),
    (["simulate"], {"duration": 1.0, "events": [{**_TRIP_AT_1, "from": 3.9}]}, None),
    (["simulate"], {"duration": 1.0, "events": [{**_TRIP_AT_1, "circuit": "1"}]}, None),
    (["simulate"], {"duration": 1.0, "events": [{**_TRIP_AT_1, "to": True}]}, None),
    (["simulate"], {"duration": 1.0, "events": [{**_TRIP_AT_1, "circuit": True}]}, None),
    (["simulate"], {"duration": 1.0, "events": [{**_TRIP_AT_1, "note": "tie"}]}, None),
    (["simulate"], {"duration": 1.0, "events": [
        {"time": 0.5, "type": "step_load", "bus": 4, "dp_mw": "100"}]}, None),
    (["simulate", "--channels", "bogus:1"], {"duration": 1.0}, None),
    (["simulate", "--channels", "omega:9"], {"duration": 1.0}, None),
    (["simulate", "--channels", "omega:1:junk"], {"duration": 1.0}, None),
    (["simulate", "--channels", "delta_rel:3"], {"duration": 1.0}, None),
    (["simulate", "--channels", "bogus:1", "--out", "{out}"], {"duration": 1.0}, None),
    (["simulate", "--channels", "omega:1,omega:9", "--out", "{out}"], {"duration": 1.0}, None),
    (["design", "--out", "{out}"], None, lambda doc: doc.update(governors=[])),
    (["pf"], None, _zero_ka),
    (["modal"], None, _zero_ka),
    (["design"], None, _zero_ka),
    (["design", "--controllers", "1,1", "--out", "{out}"], None, None),
    (["export-sdpa", "--controllers", "2,3,2", "--out", "{out}"], None, None),
    (["modal", "--controllers", "1,1", "--gains"], None, None),
], ids=["fractions", "modal-controllers", "design-controllers", "beta-bar",
        "bound-scale", "beta-bar-infinite", "bound-scale-infinite",
        "fractions-infinite", "trip-without-from", "duration", "initial-active",
        "activate-machines", "duration-off-grid", "trip-past-grid",
        "activate-in-partial-step", "dt-nan", "duration-infinite", "events-not-list",
        "scenario-list", "case-buses-not-list", "case-load-not-object", "case-h-nan",
        "case-in-service-string", "modal-band-reversed", "modal-band-nan",
        "sweep-band-infinite", "simulate-band-reversed", "simulate-band-negative",
        "simulate-band-nan", "simulate-band-past-nyquist", "simulate-band-zero-lo",
        "trip-from-float", "trip-circuit-string", "trip-to-bool", "trip-circuit-bool", "event-unknown-key",
        "step-load-dp-string", "channel-unknown-kind", "channel-unknown-machine",
        "channel-trailing-part", "channel-missing-part",
        "channel-unknown-kind-out", "channel-unknown-machine-out",
        "case-without-governors", "pf-ka-zero", "modal-ka-zero", "design-ka-zero",
        "design-controllers-repeat", "export-sdpa-controllers-repeat",
        "modal-gains-controllers-repeat"])
def test_malformed_flags_and_scenarios_are_input_errors(argv, scenario, case_edit,
                                                        case_path, tmp_path, capsys,
                                                        bundled_design):
    extra = []
    if argv[-1] == "--gains":
        gains = tmp_path / "gains.json"
        gains.write_text(json.dumps(bundled_design[0].to_dict()))
        extra.append(str(gains))
    if scenario is not None:
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(scenario))       # NaN and Infinity as Python's json writes them
        extra += ["--scenario", str(scen)]
    if case_edit is not None:
        doc = json.loads(Path(case_path).read_text())
        case_edit(doc)
        Path(case_path).write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [str(out) if a == "{out}" else a for a in argv]
    assert main([argv[0], "--case", case_path, *argv[1:], *extra]) == EXIT_INPUT
    assert "input error:" in capsys.readouterr().err
    assert not out.exists()         # refused before anything ran


def test_band_from_zero_is_valid_outside_ringdown(case_path, tmp_path):
    """LO = 0 is a valid mode band; only the ringdown filter needs LO > 0,
    and a simulate with no delta_rel channel computes no ringdown."""
    assert main(["modal", "--case", case_path, "--band", "0", "3"]) == EXIT_OK
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"duration": 1.0}))
    assert main(["simulate", "--case", case_path, "--scenario", str(scen),
                 "--band", "0", "3", "--channels", "omega:1"]) == EXIT_OK


def test_export_sdpa_needs_no_solve(case_path, tmp_path):
    """export-sdpa writes the LMI that design solves, byte for byte, without
    solving it: also where the solve fails (Y numerically singular at
    beta-bar 50)."""
    assert main(["design", "--case", case_path, "--out", str(tmp_path / "d")]) == EXIT_OK
    assert main(["export-sdpa", "--case", case_path, "--out", str(tmp_path / "e")]) == EXIT_OK
    assert ((tmp_path / "e" / "synthesis.dat-s").read_text()
            == (tmp_path / "d" / "synthesis.dat-s").read_text())
    assert main(["design", "--case", case_path, "--beta-bar", "50"]) == EXIT_NUMERIC
    out = tmp_path / "b50"
    assert main(["export-sdpa", "--case", case_path, "--beta-bar", "50",
                 "--out", str(out)]) == EXIT_OK
    text = (out / "synthesis.dat-s").read_text()
    assert text.startswith("92\n")            # 23 variables per machine
    assert text != (tmp_path / "d" / "synthesis.dat-s").read_text()


def test_design_canonicalizes_once(case_path, tmp_path, monkeypatch):
    """design solves and exports one canonical form of its LMI."""
    from oscdamp import lmi
    calls = []
    canonicalize = lmi.canonicalize
    monkeypatch.setattr(lmi, "canonicalize",
                        lambda problem: calls.append(1) or canonicalize(problem))
    assert main(["design", "--case", case_path, "--out", str(tmp_path / "d")]) == EXIT_OK
    assert len(calls) == 1


def test_controllers_subset_applies_to_given_gains(case_path, tmp_path, bundled_design):
    """--controllers 2,3 --gains G puts only rows 2 and 3 of G in service: the
    same modes as G with rows 1 and 4 zeroed, and not those of all of G."""
    ctrl = bundled_design[0].to_dict()
    full, zeroed = tmp_path / "full.json", tmp_path / "zeroed.json"
    full.write_text(json.dumps(ctrl))
    ctrl["gains"] = [row if mid in (2, 3) else [0.0] * 5
                     for mid, row in zip(ctrl["machine_ids"], ctrl["gains"])]
    zeroed.write_text(json.dumps(ctrl))
    runs = {"subset": ["--controllers", "2,3", "--gains", str(full)],
            "zeroed": ["--gains", str(zeroed)],
            "all": ["--controllers", "all", "--gains", str(full)]}
    modes = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(["modal", "--case", case_path, "--out", str(out), *argv]) == EXIT_OK
        modes[name] = (out / "modes.csv").read_text()
    assert modes["subset"] == modes["zeroed"]
    assert modes["subset"] != modes["all"]


@pytest.mark.parametrize("scenario", [
    {"initial_active": [2, 7]},
    {"events": [{"time": 0.5, "type": "activate_controllers", "machines": [7]}]},
    {"events": [{"time": 0.5, "type": "deactivate_controllers", "machines": [1, 9]}]},
], ids=["initial-active", "activate", "deactivate"])
def test_scenario_naming_unknown_machine_is_input_error(scenario, case_path, tmp_path,
                                                        capsys, bundled_design):
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps(bundled_design[0].to_dict()))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"duration": 1.0, **scenario}))
    assert main(["simulate", "--case", case_path, "--scenario", str(scen),
                 "--gains", str(gains)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error:" in err and "lacks" in err


@pytest.mark.parametrize("command", ["modal", "sweep", "scan-n1", "simulate"])
def test_gains_for_a_machine_the_case_lacks_is_input_error(command, case_path, tmp_path,
                                                           capsys, bundled_design):
    """A nonzero gain row for a machine the case lacks is refused, naming the
    machine, since nothing would apply it; zeroed by --controllers, it runs."""
    ctrl = bundled_design[0].to_dict()
    ctrl["machine_ids"].append(9)
    ctrl["gains"].append([100.0, 1.0, 1.0, 1.0, 1.0])
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps(ctrl))
    # x3.0 has no power flow: the gains are checked before any point is built
    extra = {"sweep": ["--fractions", "3.0"],
             "simulate": ["--scenario", str(tmp_path / "scen.json")]}.get(command, [])
    (tmp_path / "scen.json").write_text(json.dumps({"duration": 0.1}))
    argv = [command, "--case", case_path, "--gains", str(gains), *extra]
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    assert "nonzero row for machine 9, which the case lacks" in capsys.readouterr().err
    if command == "modal":
        assert main(argv + ["--controllers", "1,2,3,4"]) == EXIT_OK


def test_machine_order_comes_from_the_case_alone(bundled_text, bundled_eq, tmp_path,
                                                 bundled_design):
    """The bundled case with its machines, governors, exciters and PSSs listed
    in reverse gives each machine the same equilibrium state, the same
    open-loop eigenvalues and, with given gains, the same closed-loop least
    damping: every layer takes its machine rows from the case."""
    from oscdamp.case import parse_case
    from oscdamp.cli import _pipeline
    from oscdamp.smallsignal import linearize
    rev_text = reversed_machine_order_text(bundled_text)
    rev = parse_case(rev_text)
    assert [m.id for m in rev.machines] == [4, 3, 2, 1]
    _, eq = _pipeline(rev)
    assert eq.layout.machine_ids == (4, 3, 2, 1)
    state = dict(zip(eq.layout.labels, eq.state))
    ref = dict(zip(bundled_eq.layout.labels, bundled_eq.state))
    assert state.keys() == ref.keys()
    for label, value in ref.items():
        assert state[label] == pytest.approx(value, rel=1e-12, abs=1e-14), label
    lam, lam_ref = np.linalg.eigvals(linearize(eq)), np.linalg.eigvals(linearize(bundled_eq))
    assert lam.size == lam_ref.size
    assert max(np.min(np.abs(lam - x)) for x in lam_ref) < 1e-10
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps(bundled_design[0].to_dict()))
    zeta = {}
    for name, text in (("bundled", bundled_text), ("reversed", rev_text)):
        case_file = tmp_path / f"{name}.json"
        case_file.write_text(text)
        out = tmp_path / name
        assert main(["modal", "--case", str(case_file), "--gains", str(gains),
                     "--out", str(out)]) == EXIT_OK
        worst = json.loads((out / "modal.json").read_text())["results"]["min_damping"]
        zeta[name] = worst["damping_pct"] / 100
    assert abs(zeta["reversed"] - zeta["bundled"]) < 1e-12
