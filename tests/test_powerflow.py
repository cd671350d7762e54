import dataclasses
import json
import math

import numpy as np
import pytest

from oscdamp.case import apply_line_trip, parse_case, scale_stress, unreachable_buses
from oscdamp.powerflow import (PowerFlowDiverged, build_ybus, solve_power_flow,
                               solve_power_flows, load_admittances, kron_reduce,
                               branch_flow, _scheduled_injections)
from oscdamp.dynamics import initialize_from_power_flow
from oscdamp.areas import two_areas, tie_flow_mw
from conftest import make_two_bus_text
from model_reference import reference_kron_reduce, reference_power_flow


def test_ybus_single_branch(two_bus_case):
    y = build_ybus(two_bus_case)
    assert y[0, 1] == pytest.approx(10j)
    assert y[1, 0] == pytest.approx(10j)
    assert y[0, 0] == pytest.approx(-10j)
    assert y[1, 1] == pytest.approx(-10j)


def test_ybus_empty_branch_set():
    doc = json.loads(make_two_bus_text())
    doc["branches"] = []
    doc["buses"][1]["shunt_susceptance"] = 0.5
    y = build_ybus(parse_case(json.dumps(doc)))
    assert y[0, 0] == 0.0
    assert y[1, 1] == pytest.approx(0.5j)
    assert y[0, 1] == 0.0


def test_ybus_trip_equals_stamp_removal(bundled_case):
    from oscdamp.case import apply_line_trip
    full = build_ybus(bundled_case)
    tripped = build_ybus(apply_line_trip(bundled_case, 3, 101, 1))
    i, j = bundled_case.bus_index[3], bundled_case.bus_index[101]
    ys = 1.0 / complex(0.011, 0.11)
    sh = 1j * 0.1925 / 2
    stamp = np.zeros_like(full)
    stamp[i, i] = ys + sh
    stamp[j, j] = ys + sh
    stamp[i, j] = -ys
    stamp[j, i] = -ys
    assert np.allclose(full - stamp, tripped, atol=1e-14)


def test_zero_injection_flat_profile():
    doc = json.loads(make_two_bus_text(p_mw=0.0, q_mvar=0.0))
    doc["machines"][0]["p_sched_mw"] = 0.0
    sol = solve_power_flow(parse_case(json.dumps(doc)))
    assert sol.iterations == 0
    assert np.allclose(sol.vm, 1.0)
    assert np.allclose(sol.va, 0.0)


def _hand_newton_two_bus(p, q, x, tol=1e-12):
    """Independent scalar Newton oracle for slack + single PQ bus over jx."""
    b = 1.0 / x
    v, th = 1.0, 0.0
    for _ in range(60):
        f1 = b * v * np.sin(th) + p          # P mismatch at bus 2
        f2 = -b * v * np.cos(th) + b * v * v + q
        j11 = b * v * np.cos(th)
        j12 = b * np.sin(th)
        j21 = b * v * np.sin(th)
        j22 = -b * np.cos(th) + 2 * b * v
        det = j11 * j22 - j12 * j21
        dth = (-f1 * j22 + f2 * j12) / det
        dv = (-f2 * j11 + f1 * j21) / det
        th += dth
        v += dv
        if max(abs(f1), abs(f2)) < tol:
            break
    return v, th


def test_two_bus_against_hand_newton():
    p_mw, q_mvar, x = 50.0, 20.0, 0.1
    sol = solve_power_flow(parse_case(make_two_bus_text(p_mw, q_mvar, x)),
                           tol=1e-12)
    v_ref, th_ref = _hand_newton_two_bus(p_mw / 100, q_mvar / 100, x)
    i = sol.bus_ids.index(2)
    assert sol.vm[i] == pytest.approx(v_ref, abs=1e-8)
    assert sol.va[i] == pytest.approx(th_ref, abs=1e-8)


def test_bundled_tie_flow(bundled_case, bundled_sol):
    tie = tie_flow_mw(bundled_case, bundled_sol, two_areas(bundled_case)[1])
    assert abs(tie - 400.0) <= 5.0


def test_power_balance(bundled_case, bundled_sol):
    # generation matches load plus network losses at the converged solution
    assert abs(np.sum(bundled_sol.p)
               + np.sum([b.shunt_susceptance * 0 for b in bundled_case.buses])) \
        == pytest.approx(abs(np.sum(bundled_sol.p)))
    p_load = sum(l.p_mw for l in bundled_case.loads) / bundled_case.base_mva
    p_gen = np.sum(bundled_sol.p) + p_load
    losses = p_gen - p_load
    assert losses > 0
    assert losses < 0.05 * p_gen


def test_newton_quadratic_convergence(bundled_case):
    mismatches = []
    for it in range(1, 7):
        try:
            sol = solve_power_flow(bundled_case, tol=1e-300, max_iter=it)
        except PowerFlowDiverged as exc:
            mismatches.append(exc.mismatch)
            continue
        mismatches.append(sol.max_mismatch)
    # successive mismatch ratios collapse toward zero near the solution
    ratios = [mismatches[k + 1] / mismatches[k] for k in range(3, 5)]
    assert ratios[-1] < 1e-3


def test_divergence_reported():
    doc = json.loads(make_two_bus_text(p_mw=5000.0, q_mvar=3000.0))
    with pytest.raises(PowerFlowDiverged):
        solve_power_flow(parse_case(json.dumps(doc)))


def test_nan_mismatch_is_divergence(bundled_case):
    """A NaN mismatch is not convergence: a case with a NaN load, built
    without validation, diverges at the first check.  A NaN tolerance, which
    no mismatch could meet, is refused."""
    nan_load = dataclasses.replace(bundled_case.loads[0], p_mw=math.nan)
    case = dataclasses.replace(bundled_case, loads=(nan_load, *bundled_case.loads[1:]))
    with pytest.raises(PowerFlowDiverged) as err:
        solve_power_flow(case)
    assert err.value.iterations == 0 and math.isnan(err.value.mismatch)
    for tol in (math.nan, 0.0):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            solve_power_flow(bundled_case, tol=tol)


@pytest.mark.parametrize("fraction", [0.5, 0.9, 1.0, 1.1])
def test_tie_flow_is_the_sum_of_branch_flows(bundled_case, fraction):
    """The corridor's flow is the sum of `branch_flow` over its branches,
    bit for bit."""
    case = scale_stress(bundled_case, fraction)
    sol = solve_power_flow(case)
    ties = two_areas(case)[1]
    assert len(ties) > 1
    total = 0.0
    for key in ties:
        total += branch_flow(case, sol, *key).real
    assert tie_flow_mw(case, sol, ties) == total * case.base_mva


def _connected_outages(case):
    return [tripped for tripped in (apply_line_trip(case, *br.key())
                                    for br in case.in_service_branches())
            if not unreachable_buses(tripped)]


def _alone(case, **kwargs):
    """The reference's outcome for one case: its solution or its error."""
    try:
        return reference_power_flow(case, **kwargs)
    except PowerFlowDiverged as exc:
        return exc


@pytest.mark.parametrize("max_iter", [25, 2])
def test_stacked_power_flows_are_each_case_alone(bundled_case, max_iter):
    """One stack holds the bundled case at six stress fractions (5, 5, 6 and
    7 iterations, then the cap with a finite and with a 5e5 mismatch), the
    case with bus 4's one branch out (a singular Jacobian at the first
    iteration), and the connected outages of the bundled case and of its copy
    with an uneven 101-13 circuit 2.  Each outcome is what the one-case
    Newton loop gives for that case alone, bit for bit, and its error the
    same error."""
    (radial,) = [br for br in bundled_case.branches if 4 in (br.from_bus, br.to_bus)]
    uneven = dataclasses.replace(bundled_case, branches=tuple(
        dataclasses.replace(br, x=0.12) if br.key() == (101, 13, 2) else br
        for br in bundled_case.branches))
    cases = ([scale_stress(bundled_case, f) for f in (0.5, 0.9, 1.0, 1.12, 1.15, 1.2)]
             + [apply_line_trip(bundled_case, *radial.key())]
             + _connected_outages(bundled_case) + _connected_outages(uneven))
    outcomes = solve_power_flows(cases, max_iter=max_iter)
    assert len(outcomes) == len(cases) == 15
    want = [_alone(case, max_iter=max_iter) for case in cases]
    if max_iter == 25:
        assert [w.iterations for w in want[:7]] == [5, 5, 6, 7, 25, 25, 0]
        assert 1 < want[4].mismatch < 1e3 and 1e5 < want[5].mismatch < 1e6
    for got, ref in zip(outcomes, want):
        assert type(got) is type(ref)
        if isinstance(ref, PowerFlowDiverged):
            assert (str(got), got.iterations, got.mismatch) == \
                (str(ref), ref.iterations, ref.mismatch)
            assert type(got.__cause__) is type(ref.__cause__)
            continue
        for field in ("vm", "va", "p", "q", "ybus"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
        assert (got.bus_ids, got.iterations, got.max_mismatch) == \
            (ref.bus_ids, ref.iterations, ref.max_mismatch)
    assert isinstance(outcomes[6].__cause__, np.linalg.LinAlgError)
    with pytest.raises(PowerFlowDiverged) as alone:     # a stack of one stops too
        solve_power_flow(cases[6], max_iter=max_iter)
    assert isinstance(alone.value.__cause__, np.linalg.LinAlgError)
    # the stress points hold the base case's branch records: one Ybus
    if max_iter == 25:
        assert all(sol.ybus is outcomes[0].ybus for sol in outcomes[1:4])


def test_power_flow_stack_needs_shared_buses(bundled_case, two_bus_case):
    """A stack's cases share their buses: other ids, kinds or order are
    refused, and an empty stack has no outcome."""
    assert solve_power_flows([]) == []
    pv_kind = dataclasses.replace(bundled_case.buses[2], kind="pv")
    for other in (two_bus_case,
                  dataclasses.replace(bundled_case, buses=bundled_case.buses[::-1]),
                  dataclasses.replace(bundled_case, buses=(*bundled_case.buses[:2], pv_kind,
                                                           *bundled_case.buses[3:]))):
        with pytest.raises(ValueError, match="share their buses"):
            solve_power_flows([bundled_case, other])


def test_tie_branches_measure_each_generator_bus_once(bundled_case, monkeypatch):
    """The machine areas and the corridor come from the same distances: one
    Dijkstra search per generator bus."""
    from oscdamp import areas
    calls = []
    measure = areas._electrical_distances
    monkeypatch.setattr(areas, "_electrical_distances",
                        lambda case, source: calls.append(source) or measure(case, source))
    two_areas(bundled_case)
    assert sorted(calls) == sorted({m.bus for m in bundled_case.machines})
    assert len(calls) == 4


def test_tie_flow_refuses_an_out_of_service_tie(bundled_case, bundled_sol):
    ties = two_areas(bundled_case)[1]
    tripped = apply_line_trip(bundled_case, *ties[0])
    with pytest.raises(ValueError, match="not in service"):
        tie_flow_mw(tripped, bundled_sol, ties)


def test_pf_csv_round_trip(bundled_text, bundled_sol, tmp_path):
    """`pf` writes pf.csv with a header and one line per bus."""
    from oscdamp.cli import main
    case = tmp_path / "two_area.json"
    case.write_text(bundled_text)
    assert main(["pf", "--case", str(case), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "pf.csv").read_text().strip().splitlines()
    assert lines[0] == "bus,vm_pu,va_rad,p_pu,q_pu"
    assert len(lines) == len(bundled_sol.bus_ids) + 1


def test_kron_two_machines_one_bus():
    doc = {
        "base_mva": 100.0, "base_frequency_hz": 60.0,
        "buses": [{"id": 1, "kind": "slack", "voltage_setpoint": 1.0},
                  {"id": 2, "kind": "pq"}],
        "branches": [{"from": 1, "to": 2, "circuit": 1, "r": 0.0, "x": 0.5, "b": 0.0}],
        "machines": [
            {"id": 1, "bus": 1, "mva": 100.0, "h": 5.0, "d": 0.0, "xd": 1.0,
             "xq": 1.0, "xdp": 0.2, "xqp": 0.2, "td0p": 8.0, "tq0p": 0.4,
             "p_sched_mw": 0.0, "v_sched": 1.0},
            {"id": 2, "bus": 1, "mva": 100.0, "h": 5.0, "d": 0.0, "xd": 1.0,
             "xq": 1.0, "xdp": 0.4, "xqp": 0.4, "td0p": 8.0, "tq0p": 0.4,
             "p_sched_mw": 0.0, "v_sched": 1.0}],
        "loads": [],
    }
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    y = red.g + 1j * red.b
    # hand circuit reduction: internal nodes through ya, yb into one bus node
    # (no load, no other shunts): Y_red = [[ya,0],[0,yb]] - [ya,yb]'[ya,yb]/(ya+yb)
    ya, yb = 1 / 0.2j, 1 / 0.4j
    expected = np.array([[ya - ya * ya / (ya + yb), -ya * yb / (ya + yb)],
                         [-ya * yb / (ya + yb), yb - yb * yb / (ya + yb)]])
    assert np.allclose(y, expected, atol=1e-12)


def _shared_bus(case):
    """The case with its second machine moved onto the first one's bus."""
    first, second, *rest = case.machines
    return dataclasses.replace(
        case, machines=(first, dataclasses.replace(second, bus=first.bus), *rest))


def _stepped_load(y_load):
    """The load shunts after a load step at the fifth bus."""
    y = y_load.copy()
    y[4] += complex(0.3, -0.05)
    return y


@pytest.mark.parametrize("variant, loads", [
    (lambda case: case, lambda y: y),
    (lambda case: apply_line_trip(case, 3, 101, 1), lambda y: y),
    (lambda case: case, _stepped_load),
    (_shared_bus, lambda y: y),
], ids=["bundled", "tripped", "load-step", "two-machines-one-bus"])
def test_kron_reduce_is_the_augmented_form_bit_for_bit(bundled_case, bundled_sol,
                                                       variant, loads):
    """The block form of the reduction gives the bits of the augmented-matrix
    form: the reduced conductance and susceptance and the EMF-to-bus map."""
    case = variant(bundled_case)
    y_load = loads(load_admittances(bundled_case, bundled_sol))
    red, ref = kron_reduce(case, y_load), reference_kron_reduce(case, y_load)
    for name in ("g", "b", "emf_to_bus"):
        assert getattr(red, name).tobytes() == getattr(ref, name).tobytes(), name
    assert red.n_machines == ref.n_machines == len(case.machines)


def test_kron_symmetry(bundled_red):
    assert np.max(np.abs(bundled_red.g - bundled_red.g.T)) < 1e-10
    assert np.max(np.abs(bundled_red.b - bundled_red.b.T)) < 1e-10


def test_kron_preserves_equilibrium_injections(bundled_case, bundled_sol, bundled_red):
    """Machine currents through the reduced network equal full-network currents."""
    from oscdamp.powerflow import machine_internal_admittances
    from oscdamp.dynamics import initialize_from_power_flow, _machine_outputs
    eq = initialize_from_power_flow(bundled_case, bundled_sol, bundled_red)
    emf = (eq.edp + 1j * eq.eqp) * np.exp(1j * (eq.delta - np.pi / 2))
    i_red = (bundled_red.g + 1j * bundled_red.b) @ emf
    # full-network oracle: machine current from its terminal phasor and output
    (p_out,), (q_out,) = _machine_outputs([bundled_case], [bundled_sol])
    vc = bundled_sol.voltage()
    for k, m in enumerate(bundled_case.machines):
        v = vc[bundled_case.bus_index[m.bus]]
        i_full = np.conj(complex(p_out[k], q_out[k]) / v)
        assert abs(i_red[k] - i_full) < 1e-8


def test_kron_bus_map_reproduces_pf_voltages(bundled_eq, bundled_sol):
    """The EMF-to-bus-voltage map of the reduction returns the solved bus
    voltages at the equilibrium EMFs."""
    eq = bundled_eq
    emf = (eq.edp + 1j * eq.eqp) * np.exp(1j * (eq.delta - np.pi / 2))
    assert np.max(np.abs(eq.network.emf_to_bus @ emf - bundled_sol.voltage())) < 1e-9


def test_branch_flows_balance_bus_injections(bundled_case, bundled_sol):
    """At every bus the pi-model flows into its branches, read from either
    end, plus its shunt equal the solved net injection."""
    vc = bundled_sol.voltage()
    for bus in bundled_case.buses:
        s_out = sum(branch_flow(bundled_case, bundled_sol, bus.id,
                                br.to_bus if br.from_bus == bus.id else br.from_bus,
                                br.circuit)
                    for br in bundled_case.in_service_branches()
                    if bus.id in (br.from_bus, br.to_bus))
        i = bundled_case.bus_index[bus.id]
        s_out += abs(vc[i]) ** 2 * np.conj(1j * bus.shunt_susceptance)
        assert abs(s_out - complex(bundled_sol.p[i], bundled_sol.q[i])) < 1e-9


def test_kron_electrical_power_matches_pf(bundled_case, bundled_sol, bundled_red):
    from oscdamp.dynamics import initialize_from_power_flow, _machine_outputs
    from model_reference import electrical_power
    eq = initialize_from_power_flow(bundled_case, bundled_sol, bundled_red)
    pe = electrical_power(bundled_red, eq.delta, eq.eqp, eq.edp)
    (p_out,), _ = _machine_outputs([bundled_case], [bundled_sol])
    assert np.max(np.abs(pe - p_out)) < 1e-6


def _operating_point(case):
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol), sol.ybus)
    return sol, red, initialize_from_power_flow(case, sol, red)


def test_bus_order_comes_from_the_case(bundled_case):
    """Listing the buses in reverse order changes no bus voltage, reduced
    network or equilibrium state: each layer reads bus rows from the case."""
    reversed_case = dataclasses.replace(bundled_case, buses=bundled_case.buses[::-1])
    assert list(reversed_case.bus_index) == [b.id for b in bundled_case.buses[::-1]]
    (sol, red, eq), (sol_r, red_r, eq_r) = (_operating_point(bundled_case),
                                            _operating_point(reversed_case))
    v, v_r = sol.voltage(), sol_r.voltage()
    for bus_id, i in bundled_case.bus_index.items():
        assert abs(v[i] - v_r[reversed_case.bus_index[bus_id]]) < 1e-12
    assert np.max(np.abs(red.g - red_r.g)) < 1e-12
    assert np.max(np.abs(red.b - red_r.b)) < 1e-12
    assert eq.layout == eq_r.layout
    assert np.max(np.abs(eq.state - eq_r.state)) < 1e-12


def test_loads_sharing_a_bus_are_summed(bundled_case):
    """Two loads on one bus inject, and shunt at the solved voltage, what
    their per-load terms sum to."""
    first, *rest = bundled_case.loads
    halves = (dataclasses.replace(first, p_mw=600.0, q_mvar=150.0),
              dataclasses.replace(first, p_mw=first.p_mw - 600.0,
                                  q_mvar=first.q_mvar - 150.0))
    case = dataclasses.replace(bundled_case, loads=(*halves, *rest))
    sol = solve_power_flow(case)
    s_ref = np.zeros(len(case.buses), dtype=complex)
    y_ref = np.zeros(len(case.buses), dtype=complex)
    for m in case.machines:
        s_ref[case.bus_index[m.bus]] += m.p_sched_mw / case.base_mva
    for l in case.loads:
        i = case.bus_index[l.bus]
        s_l = complex(l.p_mw, l.q_mvar) / case.base_mva
        s_ref[i] -= s_l
        y_ref[i] += np.conj(s_l) / sol.vm[i] ** 2
    s, _ = _scheduled_injections(case)
    assert np.allclose(s, s_ref, rtol=1e-15, atol=1e-15)
    assert np.allclose(load_admittances(case, sol), y_ref, rtol=1e-15, atol=1e-15)
