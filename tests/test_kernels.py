"""The RHS plan against a per-machine reference, and stacked shapes.

The parity tests compare :mod:`oscdamp.kernels` with a reference written here
from the elementary forms in ``model_reference`` (``rotor_rhs``,
``two_axis_rhs``, ``governor_turbine_rhs``, ``network_currents``), the
exciter and PSS equations, the anti-windup hold and a plain RK4 loop with the
valve clamp and the divergence check.  Its device constants come from the
case records, and of :class:`kernels.RhsPlan` it reads only the equilibrium
references; ``test_electrical_power_term_by_term_oracle`` checks its network
currents against a brute-force sum.  Besides the bundled case, where every
machine has a governor and an exciter, a variant with missing devices checks
the constants of absent devices, and constructed states drive every limiter
branch.

The workspace evaluator must give the bits of the allocating evaluation of
the same operator form (``model_reference.reference_bind`` and
``reference_rk4_span``) for every shape and dtype it takes, and no array it
returns may share memory with its workspace.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oscdamp
from oscdamp import kernels
from oscdamp.case import parse_case
from oscdamp.powerflow import solve_power_flow, load_admittances, kron_reduce
from oscdamp.dynamics import SLOT_NAMES, build_design_matrices, initialize_from_power_flow
from oscdamp.smallsignal import closed_loop_matrix, linearize
from oscdamp.smallsignal import COMPLEX_STEP
from model_reference import (network_currents, rotor_rhs, two_axis_rhs,
                             governor_turbine_rhs, reference_bind, reference_rk4_span)

PSS = {"ks": 20.0, "tw": 10.0, "t1": 0.05, "t2": 0.02, "t3": 3.0, "t4": 5.4,
       "vmin": -0.2, "vmax": 0.2}


@pytest.fixture(scope="module")
def partial_case():
    """Bundled case with no governor on machine 4, neither exciter nor PSS on
    machine 2, and PSSs on machines 1 and 3."""
    doc = json.loads(oscdamp.bundled_case_text())
    doc["governors"] = [g for g in doc["governors"] if g["machine"] != 4]
    doc["exciters"] = [e for e in doc["exciters"] if e["machine"] != 2]
    doc["psss"] = [dict(machine=m, **PSS) for m in (1, 3)]
    return parse_case(json.dumps(doc))


@pytest.fixture(scope="module")
def partial_eq(partial_case):
    sol = solve_power_flow(partial_case)
    red = kron_reduce(partial_case, load_admittances(partial_case, sol))
    return initialize_from_power_flow(partial_case, sol, red)


@pytest.fixture(scope="module")
def nogov_eq():
    """Bundled case with no governor at all: the plan has no valve state."""
    doc = json.loads(oscdamp.bundled_case_text())
    doc["governors"] = []
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    return initialize_from_power_flow(case, sol, kron_reduce(case, load_admittances(case, sol)))


def _model_args(eq, control=None):
    return eq.plan, eq.network.g, eq.network.b, control


def _reference(eq, control=None):
    return reference_bind(eq.plan, eq.network.g, eq.network.b, control)


def _all_in_service(eq, gains):
    return kernels.Control(gains, eq.plan.design_states(eq.state),
                           np.ones(len(eq.layout.machine_ids)))


def _reference_rhs(y, case, eq, control=None, seen=None):
    """dy of one state, machine by machine, from the elementary forms and the
    case's device records, on the network the operating point was
    initialized on.  Only the equilibrium references (valve command, exciter
    reference, and the mechanical power and field voltage of absent devices)
    are read from the plan.  The limiter branches that act are added to the
    set `seen`: pss_min, pss_max, efd_min, efd_max, hold_shut, hold_open."""
    seen = set() if seen is None else seen
    plan, lay = eq.plan, eq.layout
    n, w0 = len(case.machines), case.omega0
    dy = np.zeros_like(y)
    delta, eqp, edp = (y[[lay.idx(m.id, s) for m in case.machines]]
                       for s in ("delta", "eqp", "edp"))
    e_re, e_im, i_re, i_im, i_d, i_q = network_currents(
        delta, eqp, edp, eq.network.g, eq.network.b)
    for k, m in enumerate(case.machines):
        at = {s: lay.idx(m.id, s) for s in SLOT_NAMES if lay.has(m.id, s)}
        gov, exc, pss = case.governor_for(m.id), case.exciter_for(m.id), case.pss_for(m.id)
        scale = case.base_mva / m.mva
        xd, xq, xdp, xqp = m.xd * scale, m.xq * scale, m.xdp * scale, m.xqp * scale
        omega = y[at["omega"]]
        if gov is not None:
            pm, xm, xe = y[[at["pm"], at["xm"], at["xe"]]]
        else:
            pm, xm, xe = plan.const[k], 0.0, 0.0
        efd = y[at["efd"]] if exc is not None else plan.const[n + k]
        pe_sys = edp[k] * i_d[k] + eqp[k] * i_q[k] + (xqp - xdp) * i_d[k] * i_q[k]
        dy[[at["delta"], at["omega"]]] = rotor_rhs(
            delta[k], omega, pm, pe_sys / (m.mva / case.base_mva), m.h, m.d, w0)
        dy[[at["eqp"], at["edp"]]] = two_axis_rhs(
            eqp[k], edp[k], i_d[k], i_q[k], efd, xd, xq, xdp, xqp, m.td0p, m.tq0p)

        vpss = 0.0
        if pss is not None:
            z1, z2, z3 = y[[at["z1"], at["z2"], at["z3"]]]
            u1 = pss.ks * (omega / w0)
            y1 = u1 - z1                                        # washout
            y2 = z2 + pss.t1 / pss.t2 * (y1 - z2)               # lead-lag 1
            y3 = z3 + pss.t3 / pss.t4 * (y2 - z3)               # lead-lag 2
            dy[[at["z1"], at["z2"], at["z3"]]] = (
                y1 / pss.tw, (y1 - z2) / pss.t2, (y2 - z3) / pss.t4)
            vpss = min(max(y3, pss.vmin), pss.vmax)
            seen.update({"pss_min"} if y3 < pss.vmin else {"pss_max"} if y3 > pss.vmax else ())

        if exc is not None:
            # terminal voltage behind the transient reactance
            vt = abs(complex(e_re[k], e_im[k]) - 1j * xdp * complex(i_re[k], i_im[k]))
            raw = exc.ka * (plan.vref[k] - vt + vpss)
            efd_cmd = min(max(raw, exc.efd_min), exc.efd_max)
            seen.update({"efd_min"} if raw < exc.efd_min else
                        {"efd_max"} if raw > exc.efd_max else ())
            dy[at["efd"]] = (efd_cmd - efd) / exc.ta

        if gov is not None:
            x5 = np.array([delta[k], omega, pm, xm, xe])
            pc = plan.const[k]                                  # pcref, the equilibrium pm
            if control is not None:
                pc = pc + control.active[k] * (control.gains[k] @ (x5 - control.xref[k]))
            d_pm, d_xm, d_xe = governor_turbine_rhs(pm, xm, xe, omega, pc, gov, w0)
            if (xe >= 1.0 and d_xe > 0.0) or (xe <= 0.0 and d_xe < 0.0):
                seen.add("hold_open" if xe >= 1.0 else "hold_shut")
                d_xe = 0.0                                      # anti-windup hold
            dy[[at["pm"], at["xm"], at["xe"]]] = d_pm, d_xm, d_xe
    return dy


def _reference_span(y, h, nsteps, case, eq, out=None):
    """Plain RK4 on the reference RHS with the valve clamp and the divergence
    check; -1, or the first step after which y left the divergence limit."""
    xe_ix = [eq.layout.idx(m.id, "xe") for m in case.machines
             if case.governor_for(m.id) is not None]
    for k in range(nsteps):
        k1 = _reference_rhs(y, case, eq)
        k2 = _reference_rhs(y + 0.5 * h * k1, case, eq)
        k3 = _reference_rhs(y + 0.5 * h * k2, case, eq)
        k4 = _reference_rhs(y + h * k3, case, eq)
        y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[xe_ix] = np.clip(y[xe_ix], 0.0, 1.0)
        if not np.all(np.abs(y) < kernels.DIVERGENCE_LIMIT):
            return k
        if out is not None:
            out[k] = y
    return -1


def test_rhs_parity(bundled_case, bundled_eq):
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = bundled_eq.state + 0.1 * rng.standard_normal(bundled_eq.state.size)
        d_plan = kernels.rhs(y, *_model_args(bundled_eq))
        assert np.allclose(d_plan, _reference_rhs(y, bundled_case, bundled_eq), rtol=1e-12, atol=1e-12)


def test_rhs_parity_with_controllers(bundled_case, bundled_eq, bundled_design):
    ctrl, _ = bundled_design
    control = kernels.Control(ctrl.gains, bundled_eq.plan.design_states(bundled_eq.state),
                              np.ones(len(bundled_eq.layout.machine_ids)))
    rng = np.random.default_rng(1)
    y = bundled_eq.state + 0.05 * rng.standard_normal(bundled_eq.state.size)
    d_plan = kernels.rhs(y, *_model_args(bundled_eq, control))
    assert np.allclose(d_plan, _reference_rhs(y, bundled_case, bundled_eq, control), rtol=1e-12, atol=1e-10)


def test_span_parity(bundled_case, bundled_eq):
    rng = np.random.default_rng(2)
    y0 = bundled_eq.state + 0.02 * rng.standard_normal(bundled_eq.state.size)
    out_plan = np.zeros((200, bundled_eq.state.size))
    out_ref = np.zeros((200, bundled_eq.state.size))
    r1 = kernels.rk4_span(y0.copy(), 0.005, 200, *_model_args(bundled_eq), out=out_plan,
                          out_offset=0)
    r2 = _reference_span(y0.copy(), 0.005, 200, bundled_case, bundled_eq, out_ref)
    assert r1 == r2 == -1
    assert np.allclose(out_plan, out_ref, rtol=1e-10, atol=1e-10)


def test_divergence_detection(bundled_eq):
    y = bundled_eq.state.copy()
    # absurd step size destabilizes RK4 and must be flagged, not raised
    step = kernels.rk4_span(y, 5.0, 400, *_model_args(bundled_eq))
    assert step >= 0


def test_valve_clamp_invariant(bundled_eq):
    lay = bundled_eq.layout
    y = bundled_eq.state.copy()
    # kick speeds hard so valves run against their limits
    y[lay.speed_indices] += 5.0
    out = np.zeros((2000, bundled_eq.state.size))
    kernels.rk4_span(y, 0.005, 2000, *_model_args(bundled_eq), out=out, out_offset=0)
    for mid in lay.machine_ids:
        xe = out[:, lay.idx(mid, "xe")]
        assert np.all(xe >= 0.0)
        assert np.all(xe <= 1.0)
        assert xe.min() == 0.0 or xe.max() == 1.0   # the kick actually hit a limit


def test_partial_device_rhs_parity(partial_case, partial_eq):
    rng = np.random.default_rng(3)
    control = kernels.Control(100.0 * rng.standard_normal((len(partial_eq.layout.machine_ids), 5)),
                              partial_eq.plan.design_states(partial_eq.state),
                              np.array([1.0, 0.0, 1.0, 0.0]))
    for scale in (0.01, 0.1, 1.0):      # 1.0 drives the limiters
        y = partial_eq.state + scale * rng.standard_normal(partial_eq.state.size)
        d_plan = kernels.rhs(y, *_model_args(partial_eq, control))
        assert np.allclose(d_plan, _reference_rhs(y, partial_case, partial_eq, control),
                           rtol=1e-12, atol=1e-10)


def test_partial_device_span_parity(partial_case, partial_eq):
    rng = np.random.default_rng(4)
    y0 = partial_eq.state + 0.02 * rng.standard_normal(partial_eq.state.size)
    out_plan = np.zeros((200, partial_eq.state.size))
    out_ref = np.zeros((200, partial_eq.state.size))
    r1 = kernels.rk4_span(y0.copy(), 0.005, 200, *_model_args(partial_eq), out=out_plan,
                          out_offset=0)
    r2 = _reference_span(y0.copy(), 0.005, 200, partial_case, partial_eq, out_ref)
    assert r1 == r2 == -1
    assert np.allclose(out_plan, out_ref, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("kick", [20.0, -5.0])
def test_span_parity_through_valve_limits(bundled_case, bundled_eq, kick):
    """A speed kick drives every valve onto a limit (shut for +20 rad/s, wide
    open for -5 rad/s), where the clamp and the anti-windup hold act."""
    lay = bundled_eq.layout
    y0 = bundled_eq.state.copy()
    y0[lay.speed_indices] += kick
    out_plan = np.zeros((400, bundled_eq.state.size))
    out_ref = np.zeros((400, bundled_eq.state.size))
    r1 = kernels.rk4_span(y0.copy(), 0.005, 400, *_model_args(bundled_eq), out=out_plan,
                          out_offset=0)
    r2 = _reference_span(y0.copy(), 0.005, 400, bundled_case, bundled_eq, out_ref)
    assert r1 == r2 == -1
    assert np.allclose(out_plan, out_ref, rtol=1e-10, atol=1e-10)
    xe = out_ref[:, [lay.idx(m, "xe") for m in lay.machine_ids]]
    assert np.all(xe.min(axis=0) == 0.0) if kick > 0 else np.all(xe.max(axis=0) == 1.0)


@pytest.mark.parametrize("which", ["bundled", "partial"])
def test_stacked_rhs_matches_rows(which, bundled_eq, partial_eq):
    eq = bundled_eq if which == "bundled" else partial_eq
    rng = np.random.default_rng(5)
    ys = eq.state + 0.1 * rng.standard_normal((16, eq.state.size))
    stacked = kernels.rhs(ys, *_model_args(eq))
    rows = np.array([kernels.rhs(y, *_model_args(eq)) for y in ys])
    assert stacked.shape == ys.shape
    assert np.allclose(stacked, rows, rtol=1e-12, atol=1e-12)
    # a one-row stack is the single-state call, bit for bit
    one = kernels.rhs(ys[:1], *_model_args(eq))
    assert one.shape == (1, eq.state.size)
    assert np.array_equal(one[0], rows[0])


def test_stacked_span_matches_rows(partial_eq):
    rng = np.random.default_rng(6)
    ys = partial_eq.state + 0.02 * rng.standard_normal((3, partial_eq.state.size))
    ys[1, partial_eq.layout.speed_indices] += 20.0   # this row runs into the valve limits
    out = np.zeros((100, 3, partial_eq.state.size))
    stacked = ys.copy()
    assert kernels.rk4_span(stacked, 0.005, 100, *_model_args(partial_eq), out=out,
                            out_offset=0) == -1
    for b in range(3):
        y = ys[b].copy()
        out_b = np.zeros((100, partial_eq.state.size))
        assert kernels.rk4_span(y, 0.005, 100, *_model_args(partial_eq), out=out_b,
                                out_offset=0) == -1
        assert np.allclose(out[:, b], out_b, rtol=1e-10, atol=1e-10)
    xe = out[:, 1, [partial_eq.layout.idx(m, "xe") for m in (1, 2, 3)]]
    assert xe.min() == 0.0 or xe.max() == 1.0     # the clamp acted on row 1
    assert np.all((xe >= 0.0) & (xe <= 1.0))


def test_stacked_span_reports_first_divergent_row(bundled_case, bundled_eq):
    lay = bundled_eq.layout
    ys = np.tile(bundled_eq.state, (2, 1))
    ys[1, lay.idx(1, "delta")] += 9.9e5     # rotor 1 runs past the limit
    ys[1, lay.idx(1, "omega")] += 1e5
    first = _reference_span(ys[1].copy(), 0.005, 400, bundled_case, bundled_eq)
    assert 0 < first < 399
    assert kernels.rk4_span(ys, 0.005, 400, *_model_args(bundled_eq)) == first
    assert np.allclose(ys[0], bundled_eq.state, atol=1e-6)   # the quiet row


def test_plan_built_once_per_model(bundled_case, bundled_eq, monkeypatch):
    """The model builds its plan when it is initialized; evaluating,
    linearizing and simulating it build no other."""
    from oscdamp.simulator import Scenario, Event, simulate
    from oscdamp.smallsignal import linearize
    builds = []
    init = kernels.RhsPlan.__init__
    monkeypatch.setattr(kernels.RhsPlan, "__init__",
                        lambda self, *a: builds.append(1) or init(self, *a))
    kernels.rhs(bundled_eq.state, bundled_eq.plan, bundled_eq.network.g,
                bundled_eq.network.b)
    linearize(bundled_eq)
    assert builds == []
    simulate(bundled_case, None, Scenario(duration=0.1, dt=0.01,
                                          events=(Event(0.05, "trip_line", (3, 101, 1)),)))
    assert builds == [1]


def _terminal_voltage(y, case, eq):
    """Each machine's terminal voltage behind its transient reactance."""
    lay = eq.layout
    delta, eqp, edp = (y[[lay.idx(m.id, s) for m in case.machines]]
                       for s in ("delta", "eqp", "edp"))
    e_re, e_im, i_re, i_im, _, _ = network_currents(delta, eqp, edp,
                                                    eq.network.g, eq.network.b)
    xdp = np.array([m.system_reactances(case.base_mva)[2] for m in case.machines])
    return np.hypot(e_re + xdp * i_im, e_im - xdp * i_re)


def _limiter_state(eq, case, branch):
    """A state near the equilibrium at which one limiter branch acts.  The
    PSS washout state z1 drives the PSS output past a limit, and the EMFs of
    the excited machines move their terminal voltages by the clamped output,
    so that the field commands stay inside their range and only the PSS
    clamp acts; the transient EMF eqp moves the terminal voltage so that the
    field command leaves its range; a speed offset pushes valves held at a
    limit outwards."""
    lay, y = eq.layout, eq.state.copy()
    pss = [m.id for m in case.machines if case.pss_for(m.id) is not None]
    gov = [m.id for m in case.machines if case.governor_for(m.id) is not None]
    if branch in ("pss_min", "pss_max"):
        y[[lay.idx(m, "z1") for m in pss]] = 1.0 if branch == "pss_min" else -1.0
        exc = [k for k, m in enumerate(case.machines) if case.exciter_for(m.id) is not None]
        target = eq.plan.vref[exc] + [
            0.0 if m.id not in pss else getattr(case.pss_for(m.id), "v" + branch[4:])
            for m in (case.machines[k] for k in exc)]
        at = [lay.idx(case.machines[k].id, "eqp") for k in exc]
        for _ in range(50):
            y[at] += target - _terminal_voltage(y, case, eq)[exc]
    elif branch in ("efd_min", "efd_max"):
        y[[lay.idx(m.id, "eqp") for m in case.machines]] += 0.3 if branch == "efd_min" else -0.3
    else:
        shut = branch == "hold_shut"
        y[[lay.idx(m, "xe") for m in gov]] = 0.0 if shut else 1.0
        y[[lay.idx(m, "omega") for m in gov]] += 30.0 if shut else -30.0
    return y


@pytest.mark.parametrize("branch", ["pss_min", "pss_max", "efd_min", "efd_max",
                                    "hold_shut", "hold_open"])
@pytest.mark.parametrize("which", ["bundled", "partial"])
def test_limiter_branches_match_reference(which, branch, bundled_case, bundled_eq,
                                          partial_case, partial_eq, bundled_design):
    """Each nonlinear branch of the RHS (PSS clamp, field-command clamp,
    anti-windup hold, at either limit) acts at a constructed state, and there
    the plan agrees with the per-machine reference, with and without the
    controllers in service."""
    case, eq = (bundled_case, bundled_eq) if which == "bundled" else (partial_case, partial_eq)
    y = _limiter_state(eq, case, branch)
    control = kernels.Control(bundled_design[0].gains, eq.plan.design_states(eq.state),
                              np.ones(len(case.machines)))
    for ctl in (None, control):
        seen = set()
        ref = _reference_rhs(y, case, eq, ctl, seen)
        assert branch in seen
        if branch.startswith("pss"):
            assert not {"efd_min", "efd_max"} & seen
        got = kernels.rhs(y, *_model_args(eq, ctl))
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-10)
        assert np.array_equal(got, _reference(eq, ctl)(y))


@pytest.mark.parametrize("which", ["bundled", "partial"])
def test_state_matrices_match_the_per_device_form(which, bundled_eq, partial_eq):
    """linearize and closed_loop_matrix agree to roundoff with the state
    matrices that the per-device RHS of commit a7276f0 (the last before the
    operator form) gave at the same equilibria and gains."""
    eq = bundled_eq if which == "bundled" else partial_eq
    ref = np.load(Path(__file__).parent / "data" / "state_matrices_a7276f0.npz")
    a = linearize(eq)
    for got, want in ((a, ref[f"{which}_open"]),
                      (closed_loop_matrix(a, eq.plan, ref["gains"]),
                       ref[f"{which}_closed"])):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("which", ["bundled", "partial"])
def test_design_matrices_are_the_operator_rows(which, bundled_case, bundled_eq,
                                               partial_case, partial_eq):
    """build_design_matrices is the slice of the plan's operator on each
    governed machine's design states: the same a, the valve command column
    b and the electrical-power column g, and nothing else in those rows."""
    case, eq = (bundled_case, bundled_eq) if which == "bundled" else (partial_case, partial_eq)
    plan, ns = eq.plan, eq.state.size
    governed = 0
    for k, m in enumerate(case.machines):
        if case.governor_for(m.id) is None:
            continue
        dm = build_design_matrices(m, case.governor_for(m.id), case.omega0)
        ix = plan.ix5[k]
        assert np.array_equal(plan.m[np.ix_(ix, ix)], dm.a)
        assert np.array_equal(plan.b_pc[governed], dm.b[2:])
        assert plan.m[ix[1], ns + k] == dm.g[1] / plan.sout[k]     # pe column, system base
        rest = plan.m[ix].copy()
        rest[:, ix] = 0.0
        rest[1, ns + k] = 0.0
        assert not rest.any()
        governed += 1
    assert governed == plan.gov.size > 0


@pytest.mark.parametrize("kind", ["state", "stack", "complex_stack"])
@pytest.mark.parametrize("which", ["bundled", "partial", "nogov"])
def test_evaluator_is_the_allocating_form_bit_for_bit(which, kind, bundled_eq, partial_eq,
                                                      nogov_eq, bundled_design):
    """A real state, a real stack and linearize's complex stack give the
    bits of the allocating evaluation, with and without the controllers."""
    eq = {"bundled": bundled_eq, "partial": partial_eq, "nogov": nogov_eq}[which]
    ns = eq.state.size
    rng = np.random.default_rng(7)
    y = {"state": lambda: eq.state + 0.1 * rng.standard_normal(ns),
         "stack": lambda: eq.state + 0.1 * rng.standard_normal((16, ns)),
         "complex_stack": lambda: eq.state + 1j * COMPLEX_STEP * np.eye(ns)}[kind]()
    for ctl in (None, _all_in_service(eq, bundled_design[0].gains)):
        got = kernels.rhs(y, *_model_args(eq, ctl))
        want = _reference(eq, ctl)(y)
        assert got.dtype == want.dtype and got.shape == y.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("which", ["bundled", "partial", "nogov"])
def test_span_is_the_allocating_form_bit_for_bit(which, bundled_eq, partial_eq, nogov_eq,
                                                 bundled_design):
    """6,000 RK4 steps: the bundled case with every controller in service,
    the partial case with two in service and a speed kick that opens its
    valves onto their limit, and a case without any governor."""
    eq = {"bundled": bundled_eq, "partial": partial_eq, "nogov": nogov_eq}[which]
    rng = np.random.default_rng(8)
    y0 = eq.state + 0.02 * rng.standard_normal(eq.state.size)
    control = None
    if which != "nogov":
        control = _all_in_service(eq, bundled_design[0].gains)
    if which == "partial":
        control = control._replace(active=np.array([1.0, 0.0, 1.0, 0.0]))
        y0[eq.layout.speed_indices] -= 5.0
    out, out_ref = np.zeros((2, 6000, eq.state.size))
    args = (0.005, 6000, *_model_args(eq, control))
    assert kernels.rk4_span(y0.copy(), *args, out=out) == -1
    assert reference_rk4_span(y0.copy(), *args, out=out_ref) == -1
    assert np.array_equal(out, out_ref)
    if which == "partial":
        assert out[:, eq.plan.ix_xe].max() == 1.0      # the clamp and the hold acted


def test_no_workspace_buffer_escapes(bundled_eq, bundled_design):
    """What the evaluator returns is the caller's: two successive results
    keep their own values, and one bound evaluator called alternately with
    a real state, a real stack and a complex stack gives the bits of fresh
    binds, however its workspaces were used in between."""
    eq, rng = bundled_eq, np.random.default_rng(9)
    args = _model_args(eq, _all_in_service(eq, bundled_design[0].gains))
    ns = eq.state.size
    y1, y2 = eq.state + 0.1 * rng.standard_normal((2, ns))
    r1 = kernels.rhs(y1, *args)
    kept = r1.copy()
    r2 = kernels.rhs(y2, *args)
    assert not np.shares_memory(r1, r2)
    assert np.array_equal(r1, kept) and not np.array_equal(r1, r2)

    f = eq.plan.bind(*args[1:])
    states = [y1, eq.state + 0.1 * rng.standard_normal((5, ns)),
              eq.state + 1j * COMPLEX_STEP * np.eye(ns), y2,
              eq.state + 0.1 * rng.standard_normal((5, ns))]
    got = [f(y) for y in states + states[::-1]]
    nets = [f.network(y) for y in states]
    for y, r in zip(states + states[::-1], got):
        assert np.array_equal(r, eq.plan.bind(*args[1:])(y))
    for y, (e, pe) in zip(states, nets):
        e_fresh, pe_fresh = eq.plan.bind(*args[1:]).network(y)
        assert np.array_equal(e, e_fresh) and np.array_equal(pe, pe_fresh)
    arrays = got + [a for pair in nets for a in pair]
    assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays)
                   for b in arrays[k + 1:])
