import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oscdamp
from oscdamp import kernels, simulator
from oscdamp.case import CaseError, parse_case, scale_stress
from oscdamp.powerflow import solve_power_flow, branch_flow
from oscdamp.simulator import (Scenario, Event, ScenarioError, parse_scenario,
                               simulate, measure, ringdown_damping)
from oscdamp.smallsignal import linearize
from model_reference import network_currents
from conftest import PINNED_GAINS, reversed_machine_order_text


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


def test_event_past_last_grid_time_fires_on_it(bundled_case):
    """A duration that passes as whole steps may still end a few ns past the
    last grid time; an event there fires on the last row, not in a step
    past the end of the trajectory."""
    sc = Scenario(duration=4.000000003, dt=0.01,
                  events=(Event(4.000000003, "trip_line", (3, 101, 1)),))
    res = simulate(bundled_case, None, sc)
    assert res.time.size == 401 and not res.divergent
    assert res.event_log[0]["time"] == res.time[-1]


@pytest.mark.parametrize("events, message", [
    ((Event(19.0, "step_load", (999, 10.0, 0.0)),), "step_load references unknown bus 999"),
    ((Event(19.0, "trip_line", (3, 999, 1)),), "branch 3-999 circuit 1 not found"),
    ((Event(1.0, "trip_line", (3, 101, 1)), Event(19.0, "trip_line", (101, 3, 1))),
     "branch 101-3 circuit 1 already out of service"),
], ids=["unknown-bus", "unknown-branch", "second-trip"])
def test_event_the_case_cannot_take_is_refused_before_any_step(bundled_case, monkeypatch,
                                                              events, message):
    """A load step on a bus the case lacks, or a trip of a branch it lacks or
    has already switched out, is refused before the first RK4 step, however
    late the event."""
    calls = []
    span = kernels.rk4_span
    monkeypatch.setattr(kernels, "rk4_span",
                        lambda *args, **kwargs: calls.append(1) or span(*args, **kwargs))
    with pytest.raises(CaseError, match=message):
        simulate(bundled_case, None, Scenario(duration=20.0, dt=0.01, events=events))
    assert calls == []


def test_events_out_of_time_order_are_refused(bundled_case, monkeypatch):
    """Events fire in list order, so a library-built scenario whose trip
    comes after a later load step is refused before any step, naming the
    trip; events at equal times stay allowed, and a scenario file may list
    its events in any order, because parsing sorts them."""
    trip, step = Event(0.5, "trip_line", (3, 101, 1)), Event(1.5, "step_load", (4, 20.0, 5.0))
    calls = []
    span = kernels.rk4_span
    monkeypatch.setattr(kernels, "rk4_span",
                        lambda *args, **kwargs: calls.append(1) or span(*args, **kwargs))
    with pytest.raises(ScenarioError, match=r"trip_line at t=0\.5 comes after step_load at t=1\.5"):
        simulate(bundled_case, None, Scenario(duration=2.0, dt=0.01, events=(step, trip)))
    assert calls == []
    Scenario(duration=2.0, dt=0.01, events=(trip, step, Event(1.5, "trip_line", (3, 101, 2)),
                                            Event(1.5, "activate_controllers", ("all",)))
             ).validate()
    doc = {"duration": 2.0, "dt": 0.01, "events": [
        {"time": 1.5, "type": "step_load", "bus": 4, "dp_mw": 20.0, "dq_mvar": 5.0},
        {"time": 0.5, "type": "trip_line", "from": 3, "to": 101, "circuit": 1}]}
    assert parse_scenario(json.dumps(doc)).events == (trip, step)


def test_valve_clamp_through_simulation(bundled_case):
    sc = Scenario(duration=5.0, dt=0.005,
                  events=(Event(0.5, "step_load", (14, 2000.0, 300.0)),))
    res = simulate(bundled_case, None, sc)
    for mid in res.layout.machine_ids:
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
    direction = rng.standard_normal(eq.state.size)
    direction /= np.linalg.norm(direction)
    dt_out = 0.01
    n_steps = 300
    prop = scipy.linalg.expm(a * dt_out)
    for alpha in (1e-2, 1e-3):
        y = eq.state + alpha * direction
        from oscdamp import kernels
        traj = np.zeros((n_steps, eq.state.size))
        net = eq.network
        kernels.rk4_span(y, dt_out / 2, 2 * n_steps, eq.plan, net.g, net.b,
                         out=np.zeros((2 * n_steps, eq.state.size)), out_offset=0)
        # rebuild trajectory at dt_out for comparison
        y = eq.state + alpha * direction
        z = direction.copy()
        errs = []
        refs = []
        for k in range(n_steps):
            kernels.rk4_span(y, dt_out / 2, 2, eq.plan, net.g, net.b)
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
    st = scale_stress(bundled_case, 1.0558)
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


def test_segments_carry_their_case_and_loads(bundled_case, monkeypatch):
    """A load step after a trip reduces the tripped case, with the load
    shunts of the trip's network plus the step at its bus alone."""
    calls = []
    reduce = simulator.kron_reduce
    monkeypatch.setattr(simulator, "kron_reduce",
                        lambda case, y_load, *a: calls.append((case, y_load.copy()))
                        or reduce(case, y_load, *a))
    simulate(bundled_case, None, Scenario(
        duration=2.0, dt=0.01, events=(Event(0.5, "trip_line", (3, 101, 1)),
                                       Event(1.0, "step_load", (4, 50.0, 10.0)))))
    (case0, y0), (tripped, y_trip), (stepped, y_step) = calls
    assert case0 is bundled_case and stepped is tripped
    assert not tripped.find_branch(3, 101, 1).in_service
    assert np.array_equal(y_trip, y0)
    at = [b.id for b in bundled_case.buses].index(4)
    changed = np.flatnonzero(y_step != y0)
    assert changed.tolist() == [at] and y_step[at].real > y0[at].real


def test_activation_on_the_undisturbed_network_keeps_the_equilibrium(bundled_case,
                                                                      bundled_design):
    """Activated at the undisturbed equilibrium, the system reads settled, but
    its network has not changed: the reference stays the pre-disturbance one."""
    ctrl, _ = bundled_design
    res = simulate(bundled_case, ctrl, Scenario(
        duration=1.0, dt=0.01, initial_active="none",
        events=(Event(0.5, "activate_controllers", ("all",)),)))
    acts = [e for e in res.event_log if e["action"] == "activate_controllers"]
    assert acts[0]["reference"] == "pre_disturbance_equilibrium"


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
                           eq.layout.labels)
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

    def spy(plan, gains, states, segments):
        seen.update(gains=gains, states=states, segments=segments)
        return derive(plan, gains, states, segments)

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
        res.pe_sys      # the derived channels are computed on their first read
        gains, segments, lay = seen["gains"], seen["segments"], res.layout
        design_ix = [[lay.idx(m, s) for s in ("delta", "omega", "pm", "xm", "xe")]
                     for m in lay.machine_ids]     # every bundled machine is governed
        eqp_ix = [lay.idx(m, "eqp") for m in lay.machine_ids]
        edp_ix = [lay.idx(m, "edp") for m in lay.machine_ids]
        scale = np.array([bundled_case.base_mva / m.mva for m in bundled_case.machines])
        xq_corr = np.array([m.xqp - m.xdp for m in bundled_case.machines]) * scale
        # one segment per fired event, in order, after the initial one
        bounds = [0.0] + [e["time"] for e in res.event_log] + [np.inf]
        assert len(bounds) == len(segments) + 1
        seg = 0
        for k, t in enumerate(res.time):
            while t >= bounds[seg + 1] - 1e-12:
                seg += 1
                assert segments[seg].first_row == k
            sg = segments[seg]
            y = seen["states"][k]
            eqp, edp = y[eqp_ix], y[edp_ix]
            e_re, e_im, _, _, i_d, i_q = network_currents(
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
    ids = list(res.layout.machine_ids)
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


def test_ringdown_overdamped_trace():
    """A heavily damped trace that is flat after a few seconds: the pencil
    still recovers its one mode, zeta = 4 / sqrt(16 + (1.2 pi)^2)."""
    dt = 0.01
    t = np.arange(0, 40, dt)
    overdamped = np.exp(-4.0 * t) * np.sin(2 * math.pi * 0.6 * t)
    est = ringdown_damping(overdamped, dt, (0.3, 1.2))
    assert abs(est["zeta"] - 4.0 / math.sqrt(16.0 + (1.2 * math.pi) ** 2)) <= 0.005
    assert est["frequency_hz"] == pytest.approx(0.6, abs=0.05)


def test_ringdown_reports_every_mode_in_the_band():
    """Two modes in the band come back largest amplitude first, the top-level
    figures are the first one's, and a mode outside the band is left out."""
    dt = 0.01
    t = np.arange(0, 40, dt)
    series = (np.exp(-0.2 * t) * np.cos(2 * math.pi * 0.5 * t)
              + 0.3 * np.exp(-0.5 * t) * np.cos(2 * math.pi * 1.1 * t)
              + 0.5 * np.cos(2 * math.pi * 2.0 * t))
    est = ringdown_damping(series, dt, (0.3, 1.5))
    assert [round(m["frequency_hz"], 3) for m in est["modes"]] == [0.5, 1.1]
    assert [m["amplitude"] for m in est["modes"]] == pytest.approx([1.0, 0.3], rel=1e-3)
    zetas = [0.2 / math.hypot(0.2, 2 * math.pi * 0.5), 0.5 / math.hypot(0.5, 2 * math.pi * 1.1)]
    assert [m["zeta"] for m in est["modes"]] == pytest.approx(zetas, abs=1e-4)
    assert (est["frequency_hz"], est["zeta"]) == (est["modes"][0]["frequency_hz"],
                                                  est["modes"][0]["zeta"])
    assert 0.0 <= est["residual"] < 1e-3


def test_ringdown_long_trace():
    """A trace long enough that the Hankel matrix reaches its column cap
    still gives its mode's damping."""
    dt = 0.01
    t = np.arange(0, 300, dt)
    zeta, f = 0.01, 0.6
    om = 2 * math.pi * f
    series = np.exp(-zeta * om * t) * np.sin(om * math.sqrt(1 - zeta ** 2) * t)
    assert t.size // 13 // 3 > simulator._RINGDOWN_MAX_COLUMNS     # decimated by 13
    est = ringdown_damping(series, dt, (0.3, 1.2))
    assert est["frequency_hz"] == pytest.approx(f, abs=0.005)
    assert abs(est["zeta"] - zeta) <= 0.0005


def test_ringdown_flat_trace_has_no_mode():
    with pytest.raises(ValueError, match="no oscillatory mode"):
        ringdown_damping(np.full(4000, 0.7), 0.01, (0.3, 1.2))


@pytest.mark.parametrize("band", [(0.0, 1.0), (1.0, 0.5), (0.3, 50.0), (math.nan, 1.0)],
                         ids=["zero-lo", "reversed", "at-nyquist", "nan"])
def test_ringdown_refuses_unrealizable_band(band):
    """The filter needs 0 < LO < HI < fs/2; anything else is an input error,
    not a missing estimate."""
    series = np.sin(2 * math.pi * 0.6 * np.arange(0, 40, 0.01))
    with pytest.raises(ScenarioError, match="ringdown band"):
        ringdown_damping(series, 0.01, band)


@pytest.mark.parametrize("diverging_call, bad_step, div_time, first_unrecorded, logged", [
    (1, 20, 0.21, 21, False),       # whole steps before the event
    (2, 0, 0.505, 51, False),       # first half of the split step
    (3, 0, 0.51, 51, True),         # second half of the split step
    (4, 10, 0.62, 62, True),        # whole steps after the event
], ids=["whole-before", "first-half", "second-half", "whole-after"])
def test_every_divergence_exit(bundled_case, monkeypatch, diverging_call, bad_step,
                               div_time, first_unrecorded, logged):
    """An RK4 span that reports divergence ends the run wherever it falls:
    the result is marked divergent at the grid time after the failed step
    (the event time when the step up to an off-grid event fails), every row
    from the failed step on holds the diverged state, and the event is logged
    only if it fired before the failure."""
    calls, diverged = [], []
    span = kernels.rk4_span

    def failing(y, h, nsteps, plan, gmat, bmat, control=None, out=None, out_offset=0):
        calls.append(nsteps)
        if len(calls) != diverging_call:
            return span(y, h, nsteps, plan, gmat, bmat, control, out, out_offset)
        span(y, h, bad_step, plan, gmat, bmat, control, out, out_offset)
        y += 1e7                            # the state after the failed step
        diverged.append(y.copy())
        return bad_step

    monkeypatch.setattr(kernels, "rk4_span", failing)
    sc = Scenario(duration=1.0, dt=0.01,
                  events=(Event(0.505, "trip_line", (3, 101, 1)),))
    res = simulate(bundled_case, None, sc)
    assert res.divergent
    assert res.divergence_time == pytest.approx(div_time, abs=1e-12)
    assert np.all(res.states[first_unrecorded:] == diverged[0])
    assert np.all(np.abs(res.states[:first_unrecorded]) < 1e3)
    assert any(e["action"] == "trip_line" for e in res.event_log) == logged
    assert len(calls) == diverging_call


def test_reversed_machine_order_measures_the_same_channels(bundled_case, bundled_text,
                                                           bundled_design):
    """A run of the case with its machines and their devices listed in
    reverse reads, through `measure`, the same series for each machine and
    bus: the channels find their columns through the case's `machine_index`."""
    rev = parse_case(reversed_machine_order_text(bundled_text))
    sc = Scenario(duration=1.0, dt=0.01, events=(Event(0.1, "step_load", (4, 50.0, 10.0)),))
    runs = [simulate(case, bundled_design[0], sc) for case in (bundled_case, rev)]
    for ch in ("pe:1", "u:2", "vm:4"):
        ref, got = (measure(r, ch) for r in runs)
        assert np.ptp(ref) > 1e-3, ch          # the channel moves
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10, err_msg=ch)


def _count_derived_passes(monkeypatch) -> list:
    """Patch `simulator._derived_channels` with a spy; the returned list
    gets one entry per call."""
    calls, derive = [], simulator._derived_channels

    def spy(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(simulator, "_derived_channels", spy)
    return calls


_EVENTS = Scenario(duration=3.0, dt=0.01, initial_active="none", events=(
    Event(0.5037, "step_load", (4, 50.0, 10.0)),
    Event(1.0023, "trip_line", (3, 101, 1)),
    Event(2.0, "activate_controllers", ((2, 3),)),
    Event(2.5, "deactivate_controllers", ((2,),))))


def test_state_only_simulate_runs_no_derived_pass(tmp_path, monkeypatch):
    """`cmd_simulate` with channels read from the states alone never runs the
    derived pass, and writes the report and CSV of a run that derives every
    channel right after the integration."""
    from oscdamp import cli
    case_path, scenario = tmp_path / "case.json", tmp_path / "scenario.json"
    case_path.write_text(oscdamp.bundled_case_text())
    scenario.write_text(json.dumps({
        "duration": 3.0, "dt": 0.01, "initial_active": "none",
        "events": [{"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1},
                   {"time": 2.0, "type": "activate_controllers", "machines": "all"}]}))
    argv = ["simulate", "--case", str(case_path), "--scenario", str(scenario),
            "--controllers", "all", "--gains", str(PINNED_GAINS),
            "--channels", "delta_rel:3:1,omega:1,omega:4,xe:3"]
    calls = _count_derived_passes(monkeypatch)
    assert cli.main([*argv, "--out", str(tmp_path / "lazy")]) == cli.EXIT_OK
    assert len(calls) == 0

    def simulate_then_derive(*args):
        res = simulate(*args)
        res.pe_sys      # every derived field, at once
        return res

    monkeypatch.setattr(cli, "simulate", simulate_then_derive)
    assert cli.main([*argv, "--out", str(tmp_path / "eager")]) == cli.EXIT_OK
    assert len(calls) == 1
    lazy, eager = tmp_path / "lazy", tmp_path / "eager"
    reports = [json.loads((d / "simulate.json").read_text()) for d in (lazy, eager)]
    for doc in reports:
        doc.pop("metadata")
    assert reports[0] == reports[1]
    assert (lazy / "trajectory.csv").read_bytes() == (eager / "trajectory.csv").read_bytes()


def test_derived_fields_run_one_pass_in_any_order(bundled_case, bundled_design,
                                                  monkeypatch):
    """Whichever derived field is read first, the pass runs once for all four,
    and later reads, `measure` and `to_csv` reuse it."""
    calls = _count_derived_passes(monkeypatch)
    sc = Scenario(duration=0.5, dt=0.01, events=(Event(0.2, "trip_line", (3, 101, 1)),))
    names = ("pe_sys", "pm_sys", "u", "bus_voltage")
    for order in itertools.permutations(names):
        res = simulate(bundled_case, bundled_design[0], sc)
        assert len(calls) == 0
        first = {name: getattr(res, name) for name in order}
        assert len(calls) == 1
        for name in names:
            assert getattr(res, name) is first[name]
        res.to_csv(["pe:1", "pm:2", "u:3", "vm:4", "flow:3:101:2"])
        assert len(calls) == 1
        calls.clear()


def test_derived_fields_equal_an_explicit_pass(bundled_case, bundled_design):
    """On a run through every event kind, the fields read on demand are the
    bits of `_derived_channels` called on the run's plan, gains, states and
    segments."""
    res = simulate(bundled_case, bundled_design[0], _EVENTS)
    want = simulator._derived_channels(res.plan, res.gains, res.states.copy(),
                                       res.segments)
    assert len(res.segments) == len(_EVENTS.events) + 1
    for name, ref in zip(("pe_sys", "pm_sys", "u", "bus_voltage"), want):
        got = getattr(res, name)
        assert got.shape == ref.shape and got.dtype == ref.dtype, name
        assert got.tobytes() == ref.tobytes(), name
    assert np.any(res.u != 0.0)


def test_state_only_simulate_holds_little_more_than_its_states(bundled_case):
    """A run that nobody reads a derived channel of peaks, under
    `tracemalloc`, below 1.5 times its recorded states: the derived pass,
    which evaluates the network at every recorded state and keeps four more
    trajectories, does not run with it."""
    sc = Scenario(duration=10.0, dt=0.005, events=(Event(1.0, "trip_line", (3, 101, 1)),))
    simulate(bundled_case, None, Scenario(duration=0.1, dt=0.005))     # warm caches
    tracemalloc.start()
    try:
        res = simulate(bundled_case, None, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.divergent
    assert peak < 1.5 * res.states.nbytes, (peak, res.states.nbytes)
