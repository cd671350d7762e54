import json
import math

import numpy as np
import pytest
import scipy.linalg

from oscdamp import kernels, simulator
from oscdamp.case import scale_stress
from oscdamp.powerflow import solve_power_flow, branch_flow
from oscdamp.simulator import (Scenario, Event, ScenarioError, parse_scenario,
                               simulate, measure, ringdown_damping)
from oscdamp.smallsignal import linearize


def test_parse_scenario_round():
    text = json.dumps({
        "duration": 20.0, "dt": 0.005,
        "events": [
            {"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1},
            {"time": 10.0, "type": "activate_controllers", "machines": "all"},
        ],
        "initial_active": "none",
    })
    sc = parse_scenario(text)
    assert sc.duration == 20.0
    assert sc.events[0].action == "trip_line"
    assert sc.events[1].time == 10.0
    assert sc.initial_active == "none"


def test_parse_scenario_rejects_unknown():
    with pytest.raises(ScenarioError, match="unknown"):
        parse_scenario(json.dumps({"duration": 1.0, "extra": 1}))
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps({"duration": 1.0,
                                   "events": [{"time": 0.5, "type": "meteor"}]}))
    with pytest.raises(ScenarioError, match="outside"):
        parse_scenario(json.dumps({"duration": 1.0,
                                   "events": [{"time": 5.0, "type": "trip_line",
                                               "from": 1, "to": 2, "circuit": 1}]}))


def test_equilibrium_hold(bundled_case):
    res = simulate(bundled_case, None, Scenario(duration=10.0, dt=0.005))
    assert not res.divergent
    assert np.max(np.abs(res.states - res.states[0])) < 1e-6


def test_grid_length(bundled_case):
    res = simulate(bundled_case, None, Scenario(duration=2.0, dt=0.01))
    assert res.time.size == 201
    assert res.states.shape[0] == 201


def test_determinism_bitwise(bundled_case, bundled_design):
    ctrl, _ = bundled_design
    sc = Scenario(duration=3.0, dt=0.005,
                  events=(Event(1.0, "trip_line", (3, 101, 1)),))
    a = simulate(bundled_case, ctrl, sc)
    b = simulate(bundled_case, ctrl, sc)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.pe_sys, b.pe_sys)


def test_rk4_empirical_order(bundled_case):
    """Richardson step-halving on a smooth disturbed run."""
    event = (Event(0.2, "step_load", (4, 30.0, 10.0)),)
    finals = []
    for dt in (0.02, 0.01, 0.005):
        res = simulate(bundled_case, None,
                       Scenario(duration=2.0, dt=dt, events=event))
        assert not res.divergent
        finals.append(res.states[-1])
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = math.log2(e1 / e2)
    assert order >= 3.7


def test_event_state_continuity(bundled_case):
    sc = Scenario(duration=3.0, dt=0.005,
                  events=(Event(1.0, "trip_line", (3, 101, 1)),))
    res = simulate(bundled_case, None, sc)
    k = int(round(1.0 / 0.005))
    step_sizes = np.linalg.norm(np.diff(res.states, axis=0), axis=1)
    # the step across the event is not an outlier: states carry continuously
    assert step_sizes[k] < 10 * np.median(step_sizes[k:k + 50]) + 1e-9


def test_off_grid_event_time(bundled_case):
    sc = Scenario(duration=1.0, dt=0.005,
                  events=(Event(0.1234, "step_load", (4, 20.0, 5.0)),))
    res = simulate(bundled_case, None, sc)
    assert not res.divergent
    assert res.time.size == 201
    assert res.event_log[0]["time"] == pytest.approx(0.1234)


def test_valve_clamp_through_simulation(bundled_case):
    sc = Scenario(duration=5.0, dt=0.005,
                  events=(Event(0.5, "step_load", (14, 2000.0, 300.0)),))
    res = simulate(bundled_case, None, sc)
    for mid in res.machine_ids:
        xe = measure(res, f"xe:{mid}")
        assert np.all(xe >= 0.0)
        assert np.all(xe <= 1.0)


def test_measure_identities(bundled_case):
    res = simulate(bundled_case, None, Scenario(duration=1.0, dt=0.01))
    assert np.all(measure(res, "delta_rel:3:3") == 0.0)
    for ch in ("pm:1", "pe:1", "omega:2", "vm:3", "u:4"):
        series = measure(res, ch)
        assert np.max(np.abs(series - series[0])) < 1e-6    # constant at equilibrium
    with pytest.raises(ScenarioError):
        measure(res, "delta_rel:77:1")
    with pytest.raises(ScenarioError):
        measure(res, "nonsense:1")


def test_tie_flow_matches_power_flow_at_start(bundled_case):
    res = simulate(bundled_case, None, Scenario(duration=0.5, dt=0.005))
    sol = solve_power_flow(bundled_case, tol=1e-12)
    for circuit in (1, 2):
        series = measure(res, f"flow:3:101:{circuit}")
        expected = branch_flow(bundled_case, sol, 3, 101, circuit).real * 100.0
        assert series[0] == pytest.approx(expected, abs=1e-4)


def test_tripped_branch_flow_zeroes(bundled_case):
    sc = Scenario(duration=2.0, dt=0.005,
                  events=(Event(1.0, "trip_line", (3, 101, 1)),))
    res = simulate(bundled_case, None, sc)
    series = measure(res, "flow:3:101:1")
    assert abs(series[0]) > 10.0
    assert np.all(series[res.time >= 1.0] == 0.0)


def test_linear_regime_agreement(bundled_case, bundled_sol, bundled_red):
    from oscdamp.dynamics import initialize_from_power_flow
    eq = initialize_from_power_flow(bundled_case, bundled_sol, bundled_red)
    a = linearize(eq)
    rng = np.random.default_rng(9)
    direction = rng.standard_normal(eq.model.n_states)
    direction /= np.linalg.norm(direction)
    dt_out = 0.01
    n_steps = 300
    prop = scipy.linalg.expm(a * dt_out)
    for alpha in (1e-2, 1e-3):
        y = eq.state + alpha * direction
        from oscdamp import kernels
        traj = np.zeros((n_steps, eq.model.n_states))
        m, net = eq.model, eq.network
        kernels.rk4_span(y, dt_out / 2, 2 * n_steps, m.plan, net.g, net.b,
                         out=np.zeros((2 * n_steps, m.n_states)), out_offset=0)
        # rebuild trajectory at dt_out for comparison
        y = eq.state + alpha * direction
        z = direction.copy()
        errs = []
        refs = []
        for k in range(n_steps):
            kernels.rk4_span(y, dt_out / 2, 2, m.plan, net.g, net.b)
            z = prop @ z
            errs.append(np.linalg.norm((y - eq.state) / alpha - z))
            refs.append(np.linalg.norm(z))
        assert np.linalg.norm(errs) <= 0.05 * np.linalg.norm(refs)


def test_divergence_marked_not_raised(bundled_case):
    # a step size far beyond the stability limit blows up; the result is
    # flagged divergent with the failure time recorded
    res = simulate(bundled_case, None,
                   Scenario(duration=50.0, dt=0.5,
                            events=(Event(1.0, "step_load", (14, 500.0, 100.0)),)))
    assert res.divergent
    assert res.divergence_time is not None
    assert np.all(np.isfinite(res.states[0]))


def test_activation_reference_is_predisturbance(bundled_case, bundled_design):
    ctrl, _ = bundled_design
    st = scale_stress(bundled_case, 1.0558, [4, 14], [1, 2, 3, 4])
    sc = Scenario(duration=12.0, dt=0.005,
                  events=(Event(1.0, "trip_line", (3, 101, 1)),
                          Event(10.0, "activate_controllers", ("all",))),
                  initial_active="none")
    res = simulate(st, ctrl, sc)
    acts = [e for e in res.event_log if e["action"] == "activate_controllers"]
    assert acts[0]["reference"] == "pre_disturbance_equilibrium"
    assert np.all(res.u[res.time < 10.0] == 0.0)
    assert np.any(res.u[res.time > 10.0] != 0.0)


def test_activation_reference_after_settling(bundled_case, bundled_design):
    ctrl, _ = bundled_design
    # a 0.01 MW load step reads settled from about 3 s on: activated at 8 s,
    # the settled state on the new network becomes the reference; activated
    # half a second after the step, the pre-disturbance equilibrium stays
    for t_act, reference in ((8.0, "settled_state"),
                             (1.5, "pre_disturbance_equilibrium")):
        sc = Scenario(duration=t_act + 0.5, dt=0.01,
                      events=(Event(1.0, "step_load", (4, 0.01, 0.0)),
                              Event(t_act, "activate_controllers", ("all",))),
                      initial_active="none")
        res = simulate(bundled_case, ctrl, sc)
        acts = [e for e in res.event_log if e["action"] == "activate_controllers"]
        assert acts[0]["reference"] == reference


@pytest.mark.parametrize("events, reductions", [
    ((), 1),
    ((Event(1.0, "trip_line", (3, 101, 1)),), 2),
])
def test_one_reduction_per_network(bundled_case, monkeypatch, events, reductions):
    """The pre-disturbance network is reduced once, for the equilibrium and
    the first segment alike; each network event reduces once more."""
    calls = []
    reduce = simulator.kron_reduce
    monkeypatch.setattr(simulator, "kron_reduce",
                        lambda *a, **kw: calls.append(1) or reduce(*a, **kw))
    simulate(bundled_case, None, Scenario(duration=2.0, dt=0.01, events=events))
    assert len(calls) == reductions


def test_ringdown_synthetic_damped():
    dt = 0.01
    t = np.arange(0, 40, dt)
    zeta, f = 0.05, 0.6
    om = 2 * math.pi * f
    sigma = zeta * om / math.sqrt(1 - zeta ** 2)
    series = np.exp(-sigma * t) * np.sin(om * math.sqrt(1 - zeta ** 2) * t)
    est = ringdown_damping(series, dt, (0.3, 1.2))
    assert est["frequency_hz"] == pytest.approx(f, abs=0.05)
    assert abs(est["zeta"] - zeta) <= 0.005


def test_ringdown_undamped():
    dt = 0.01
    t = np.arange(0, 40, dt)
    series = np.sin(2 * math.pi * 0.6 * t)
    est = ringdown_damping(series, dt, (0.3, 1.2))
    assert abs(est["zeta"]) <= 0.002


def test_ringdown_needs_enough_cycles():
    with pytest.raises(ValueError):
        ringdown_damping(np.sin(np.arange(100) * 0.01), 0.01, (0.4, 0.8))


def test_ringdown_cross_checks_modal(bundled_case, bundled_sol, bundled_red,
                                     bundled_areas):
    """Damping estimated from a ringdown agrees with the modal prediction."""
    from oscdamp.dynamics import initialize_from_power_flow
    from oscdamp.smallsignal import modal_analysis, min_damping
    eq = initialize_from_power_flow(bundled_case, bundled_sol, bundled_red)
    table = modal_analysis(linearize(eq),
                           eq.model.layout.labels)
    dominant = min_damping(table, 0.3, 0.9)
    sc = Scenario(duration=40.0, dt=0.005,
                  events=(Event(0.5, "step_load", (4, 40.0, 10.0)),))
    res = simulate(bundled_case, None, sc)
    d31 = measure(res, "delta_rel:3:1")
    tail = d31[res.time >= 3.0]
    est = ringdown_damping(tail - tail[-1], 0.005,
                           (0.6 * dominant.frequency_hz,
                            1.5 * dominant.frequency_hz))
    assert abs(est["zeta"] - dominant.damping_ratio) <= 0.02
    assert est["frequency_hz"] == pytest.approx(dominant.frequency_hz, rel=0.15)


def test_sim_csv(bundled_case):
    res = simulate(bundled_case, None, Scenario(duration=0.1, dt=0.01))
    text = res.to_csv(["delta_rel:3:1", "omega:1"])
    lines = text.strip().splitlines()
    assert lines[0] == "time,delta_rel:3:1,omega:1"
    assert len(lines) == res.time.size + 1


def test_deactivate_controllers_event(bundled_case, bundled_design):
    ctrl, _ = bundled_design
    sc = Scenario(duration=2.0, dt=0.01,
                  events=(Event(1.0, "deactivate_controllers", ("all",)),),
                  initial_active="all")
    res = simulate(bundled_case, ctrl, sc)
    # at equilibrium u stays zero either way; the active mask change is logged
    assert res.event_log[0]["action"] == "deactivate_controllers"
    assert np.max(np.abs(res.u)) < 1e-8


def test_derived_channels_match_per_step_reference(bundled_case, bundled_design,
                                                    monkeypatch):
    """Channels derived per event segment equal a step-by-step evaluation on
    each step's network and controller setting (u bit for bit).  The second
    scenario activates the controllers once the system has settled after a
    load step, so the later segments carry a new reference ``xref``."""
    seen = {}
    derive = simulator._derived_channels

    def spy(model, gains, states, tgrid, segments):
        seen.update(model=model, gains=gains, states=states, tgrid=tgrid,
                    segments=segments)
        return derive(model, gains, states, tgrid, segments)

    monkeypatch.setattr(simulator, "_derived_channels", spy)
    ctrl, _ = bundled_design
    scenarios = [
        Scenario(duration=3.0, events=(
            Event(0.5037, "step_load", (4, 50.0, 10.0)),
            Event(1.0, "trip_line", (3, 101, 1)),
            Event(2.0, "deactivate_controllers", ((1,),)))),
        Scenario(duration=16.5, dt=0.01, events=(
            Event(1.0, "step_load", (4, 0.05, 0.0)),
            Event(15.5, "activate_controllers", ("all",))),
            initial_active="none"),
    ]
    for sc in scenarios:
        res = simulate(bundled_case, ctrl, sc)
        model, gains, segments = seen["model"], seen["gains"], seen["segments"]
        lay = model.layout
        design_ix = [[lay.idx(m, s) for s in ("delta", "omega", "pm", "xm", "xe")]
                     for m in lay.machine_ids]     # every bundled machine is governed
        eqp_ix = [lay.idx(m, "eqp") for m in lay.machine_ids]
        edp_ix = [lay.idx(m, "edp") for m in lay.machine_ids]
        scale = np.array([bundled_case.base_mva / m.mva for m in bundled_case.machines])
        xq_corr = np.array([m.xqp - m.xdp for m in bundled_case.machines]) * scale
        bounds = [sg.t_start for sg in segments] + [np.inf]
        seg = 0
        for k, t in enumerate(seen["tgrid"]):
            while t >= bounds[seg + 1] - 1e-12:
                seg += 1
            sg = segments[seg]
            y = seen["states"][k]
            eqp, edp = y[eqp_ix], y[edp_ix]
            e_re, e_im, _, _, i_d, i_q = kernels.network_currents(
                y[lay.delta_indices], eqp, edp, sg.network.g, sg.network.b)
            pe = edp * i_d + eqp * i_q + xq_corr * i_d * i_q
            u = sg.active * np.einsum("ij,ij->i", gains, y[design_ix] - sg.xref)
            assert np.allclose(res.pe_sys[k], pe, rtol=1e-12, atol=1e-12)
            assert np.allclose(res.bus_voltage[k],
                               sg.network.emf_to_bus @ (e_re + 1j * e_im),
                               rtol=1e-12, atol=1e-12)
            assert np.array_equal(res.u[k], u)
        assert seg == len(segments) - 1
    acts = [e for e in res.event_log if e["action"] == "activate_controllers"]
    assert acts[0]["reference"] == "settled_state"
    assert not np.array_equal(segments[-1].xref, segments[0].xref)


def test_initial_active_machine_list(bundled_case, bundled_design):
    ctrl, _ = bundled_design
    sc = Scenario(duration=6.0, dt=0.01,
                  events=(Event(0.5, "trip_line", (3, 101, 1)),),
                  initial_active=(2, 3))
    res = simulate(bundled_case, ctrl, sc)
    ids = list(res.machine_ids)
    post = res.time > 1.0
    assert np.any(res.u[post][:, ids.index(2)] != 0.0)
    assert np.any(res.u[post][:, ids.index(3)] != 0.0)
    assert np.all(res.u[:, ids.index(1)] == 0.0)
    assert np.all(res.u[:, ids.index(4)] == 0.0)


def test_flow_channel_reversed_orientation(bundled_case):
    res = simulate(bundled_case, None, Scenario(duration=0.2, dt=0.01))
    fwd = measure(res, "flow:3:101:1")
    rev = measure(res, "flow:101:3:1")
    # opposite ends differ only by the series loss and charging
    assert fwd[0] > 0 > rev[0]
    assert abs(fwd[0] + rev[0]) < 0.05 * abs(fwd[0])


def test_ringdown_too_few_peaks():
    dt = 0.01
    t = np.arange(0, 40, dt)
    overdamped = np.exp(-4.0 * t) * np.sin(2 * math.pi * 0.6 * t)
    with pytest.raises(ValueError, match="peaks"):
        ringdown_damping(overdamped, dt, (0.3, 1.2))
