import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

import oscdamp
from oscdamp import synthesis
from oscdamp.case import parse_case
from oscdamp.powerflow import solve_power_flow, load_admittances, kron_reduce
from oscdamp.dynamics import initialize_from_power_flow
from oscdamp.synthesis import ControllerSet, design_controllers
from oscdamp.areas import two_areas

ROOT = Path(__file__).resolve().parents[1]
# the bundled-case gains the benchmark and the report set pin
PINNED_GAINS = ROOT / "perfbench" / "reference_gains.json"


def load_report_set():
    """`tools/report_set.py`, imported as a module."""
    spec = importlib.util.spec_from_file_location("report_set", ROOT / "tools" / "report_set.py")
    report_set = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_set)
    return report_set


def pinned_gains() -> ControllerSet:
    doc = json.loads(PINNED_GAINS.read_text())
    return ControllerSet.from_dict(doc["results"]["controllers"])


@pytest.fixture(scope="session")
def bundled_text():
    return oscdamp.bundled_case_text()


@pytest.fixture(scope="session")
def bundled_case(bundled_text):
    return parse_case(bundled_text)


@pytest.fixture(scope="session")
def bundled_sol(bundled_case):
    return solve_power_flow(bundled_case)


@pytest.fixture(scope="session")
def bundled_red(bundled_case, bundled_sol):
    return kron_reduce(bundled_case, load_admittances(bundled_case, bundled_sol))


@pytest.fixture(scope="session")
def bundled_eq(bundled_case, bundled_sol, bundled_red):
    return initialize_from_power_flow(bundled_case, bundled_sol, bundled_red)


@pytest.fixture(scope="session")
def bundled_areas(bundled_case):
    return two_areas(bundled_case)[0]


@pytest.fixture(scope="session")
def bundled_design(bundled_case, bundled_eq):
    """Default all-machine synthesis; shared because the solve is expensive."""
    return design_controllers(bundled_case, bundled_eq)


@pytest.fixture()
def uncertified_solve(monkeypatch):
    """The design's solve returns machine 0's gamma past its margin block
    (gamma < 1/beta^2), a point `check_solution` must refuse."""
    solve = synthesis.solve_sdp

    def solve_then_perturb(problem):
        sol = solve(problem)
        return dataclasses.replace(sol, values={**sol.values, "gamma0": 2.0})

    monkeypatch.setattr(synthesis, "solve_sdp", solve_then_perturb)


def make_two_bus_text(p_mw=50.0, q_mvar=20.0, x=0.1):
    """Minimal slack + PQ-load case with a single machine."""
    doc = {
        "base_mva": 100.0,
        "base_frequency_hz": 60.0,
        "buses": [
            {"id": 1, "kind": "slack", "voltage_setpoint": 1.0},
            {"id": 2, "kind": "pq"},
        ],
        "branches": [
            {"from": 1, "to": 2, "circuit": 1, "r": 0.0, "x": x, "b": 0.0},
        ],
        "machines": [
            {"id": 1, "bus": 1, "mva": 100.0, "h": 6.5, "d": 1.0,
             "xd": 1.8, "xq": 1.7, "xdp": 0.3, "xqp": 0.55,
             "td0p": 8.0, "tq0p": 0.4,
             "p_sched_mw": p_mw, "v_sched": 1.0},
        ],
        "governors": [
            {"machine": 1, "ke": 1.0, "te": 0.2, "t3": 0.3, "t4": 0.3,
             "t5": 8.0, "tm": 1.0, "r": 0.05},
        ],
        "loads": [{"bus": 2, "p_mw": p_mw, "q_mvar": q_mvar}],
    }
    return json.dumps(doc)


def reversed_machine_order_text(text: str) -> str:
    """The case `text` with its machines and their devices listed in reverse."""
    doc = json.loads(text)
    for section in ("machines", "governors", "exciters", "psss"):
        doc[section] = doc[section][::-1]
    return json.dumps(doc)


@pytest.fixture()
def two_bus_text():
    return make_two_bus_text()


@pytest.fixture()
def two_bus_case(two_bus_text):
    return parse_case(two_bus_text)
