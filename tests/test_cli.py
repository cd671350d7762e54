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
from conftest import make_two_bus_text
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


def test_pf_command(case_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pf", "--case", case_path, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "pf.json").read_text())
    assert abs(doc["results"]["tie_flow_mw"] - 400.0) < 5.0
    assert (out / "pf.csv").read_text().startswith("bus,vm_pu,va_rad,p_pu,q_pu")
    # every CSV number appears in the JSON
    assert len(doc["results"]["buses"]) == 13


def test_modal_command_baseline(case_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["modal", "--case", case_path, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "modal.json").read_text())
    worst = doc["results"]["min_damping"]
    assert worst["class"] == "inter_area"
    assert 0.4 <= worst["freq_hz"] <= 0.8
    assert 2.0 <= worst["damping_pct"] <= 12.0


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
    """numpy alone carries the CLI, the ringdown filter included: a default
    simulate long enough for a ringdown estimate loads no scipy module.  A
    fresh interpreter, since this one holds scipy."""
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"duration": 8.0, "dt": 0.01, "events": [
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


def test_sweep_builds_and_linearizes_each_point_once(case_path, tmp_path,
                                                     monkeypatch, bundled_design):
    import oscdamp.cli as cli
    gains = tmp_path / "design.json"
    gains.write_text(json.dumps({"results": {"controllers": bundled_design[0].to_dict()}}))
    calls = {"solve_power_flow": 0, "linearize": 0}
    for name in calls:
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "out"
    assert main(["sweep", "--case", case_path, "--fractions", "0.95,1.05",
                 "--controllers", "all", "--gains", str(gains),
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "sweep.json").read_text())["results"]["rows"]
    assert all("zeta_robust_pct" in r for r in rows)
    assert calls == {"solve_power_flow": 2, "linearize": 2}


def test_modal_tables_computed_only_when_read(case_path, tmp_path, monkeypatch,
                                              bundled_design):
    """`design` and `modal --controllers` read only the closed-loop table;
    each `sweep` point reads both."""
    import oscdamp.cli as cli
    gains = tmp_path / "design.json"
    gains.write_text(json.dumps({"results": {"controllers": bundled_design[0].to_dict()}}))
    calls = []
    modal = cli.modal_analysis
    monkeypatch.setattr(cli, "modal_analysis", lambda *a: calls.append(1) or modal(*a))
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
    buses before any power flow; only the connected outages are solved."""
    import oscdamp.cli as cli
    calls = []
    solve = cli.solve_power_flow
    monkeypatch.setattr(cli, "solve_power_flow", lambda case: calls.append(1) or solve(case))
    out = tmp_path / "out"
    assert main(["scan-n1", "--case", case_path, "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "scan_n1.json").read_text())["results"]["rows"]
    islanded = {tuple(r["branch"]): r for r in rows if "islanded" in r}
    assert len(islanded) == 10
    assert len(calls) == 4
    assert all(r == {"branch": list(k), "converged": False, "islanded": r["islanded"]}
               for k, r in islanded.items())
    assert islanded[(3, 4, 1)]["islanded"] == [4]
    assert islanded[(20, 3, 1)]["islanded"] == [1, 2, 10, 20]


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


_TRIP_AT_1 = {"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1}


@pytest.mark.parametrize("argv, scenario, case_edit", [
    (["sweep", "--fractions", "abc"], None, None),
    (["modal", "--controllers", "1,x"], None, None),
    (["design", "--controllers", "1,x"], None, None),
    (["design", "--beta-bar", "0.5"], None, None),
    (["design", "--bound-scale", "-1"], None, None),
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
], ids=["fractions", "modal-controllers", "design-controllers", "beta-bar",
        "bound-scale", "trip-without-from", "duration", "initial-active",
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
        "case-without-governors"])
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
