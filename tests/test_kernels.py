"""The RHS plan against a per-machine reference, and stacked shapes.

The parity tests compare :mod:`oscdamp.kernels` with a reference written here
from the elementary forms in :mod:`oscdamp.dynamics` (``rotor_rhs``,
``two_axis_rhs``, ``governor_turbine_rhs``), the exciter and PSS equations,
the anti-windup hold and a plain RK4 loop with the valve clamp and the
divergence check.  The reference never touches :class:`kernels.RhsPlan`; its
network currents come from :func:`kernels.network_currents`, which
``test_electrical_power_term_by_term_oracle`` checks against a brute-force
sum.  Besides the bundled case, where every machine has a governor and an
exciter, a variant with missing devices checks the plan's gathers of
absent-device constants.
"""

import json

import numpy as np
import pytest

import oscdamp
from oscdamp import kernels
from oscdamp.case import GovernorParams, parse_case
from oscdamp.powerflow import solve_power_flow, load_admittances, kron_reduce
from oscdamp.dynamics import (initialize_from_power_flow, rotor_rhs,
                              two_axis_rhs, governor_turbine_rhs)
from oscdamp.kernels import PF, PI

PSS = {"ks": 20.0, "tw": 10.0, "t1": 0.05, "t2": 0.02, "t3": 3.0, "t4": 5.4,
       "vmin": -0.2, "vmax": 0.2}


@pytest.fixture(scope="module")
def partial_eq():
    """Bundled case with no governor on machine 4, neither exciter nor PSS on
    machine 2, and PSSs on machines 1 and 3."""
    doc = json.loads(oscdamp.bundled_case_text())
    doc["governors"] = [g for g in doc["governors"] if g["machine"] != 4]
    doc["exciters"] = [e for e in doc["exciters"] if e["machine"] != 2]
    doc["psss"] = [dict(machine=m, **PSS) for m in (1, 3)]
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    return initialize_from_power_flow(case, sol, red)


def _model_args(eq, control=None):
    return eq.model.plan, eq.network.g, eq.network.b, control


def _reference_rhs(y, eq, control=None):
    """dy of one state, machine by machine, from the elementary forms, on the
    network the operating point was initialized on."""
    model = eq.model
    pf, pi, w0 = model.pf, model.pi, model.omega0
    dy = np.zeros_like(y)
    delta, eqp, edp = (y[pi[:, col]] for col in (PI.I_DELTA, PI.I_EQP, PI.I_EDP))
    e_re, e_im, i_re, i_im, i_d, i_q = kernels.network_currents(
        delta, eqp, edp, eq.network.g, eq.network.b)
    for k in range(model.n_machines):
        p, ix = pf[k], pi[k]
        omega = y[ix[PI.I_OMEGA]]
        if ix[PI.HAS_GOV]:
            pm, xm, xe = y[ix[[PI.I_PM, PI.I_XM, PI.I_XE]]]
        else:
            pm, xm, xe = p[PF.PMCONST], 0.0, 0.0
        efd = y[ix[PI.I_EFD]] if ix[PI.HAS_EXC] else p[PF.EFDCONST]
        pe_sys = (edp[k] * i_d[k] + eqp[k] * i_q[k]
                  + (p[PF.XQP] - p[PF.XDP]) * i_d[k] * i_q[k])
        dy[ix[[PI.I_DELTA, PI.I_OMEGA]]] = rotor_rhs(
            delta[k], omega, pm, pe_sys / p[PF.SOUT], p[PF.H], p[PF.D], w0)
        dy[ix[[PI.I_EQP, PI.I_EDP]]] = two_axis_rhs(
            eqp[k], edp[k], i_d[k], i_q[k], efd, p[PF.XD], p[PF.XQ],
            p[PF.XDP], p[PF.XQP], p[PF.TD0P], p[PF.TQ0P])

        vpss = 0.0
        if ix[PI.HAS_PSS]:
            z1, z2, z3 = y[ix[[PI.I_Z1, PI.I_Z2, PI.I_Z3]]]
            u1 = p[PF.KS] * (omega / w0)
            y1 = u1 - z1                                        # washout
            y2 = z2 + p[PF.TP1] / p[PF.TP2] * (y1 - z2)         # lead-lag 1
            y3 = z3 + p[PF.TP3] / p[PF.TP4] * (y2 - z3)         # lead-lag 2
            dy[ix[[PI.I_Z1, PI.I_Z2, PI.I_Z3]]] = (
                y1 / p[PF.TW], (y1 - z2) / p[PF.TP2], (y2 - z3) / p[PF.TP4])
            vpss = min(max(y3, p[PF.VSMIN]), p[PF.VSMAX])

        if ix[PI.HAS_EXC]:
            # terminal voltage behind the transient reactance
            vt = abs(complex(e_re[k], e_im[k])
                     - 1j * p[PF.XDP] * complex(i_re[k], i_im[k]))
            efd_cmd = min(max(p[PF.KA] * (p[PF.VREF] - vt + vpss),
                              p[PF.EFDMIN]), p[PF.EFDMAX])
            dy[ix[PI.I_EFD]] = (efd_cmd - efd) / p[PF.TA]

        if ix[PI.HAS_GOV]:
            x5 = np.array([delta[k], omega, pm, xm, xe])
            pc = p[PF.PCREF]
            if control is not None:
                pc = pc + control.active[k] * (control.gains[k] @ (x5 - control.xref[k]))
            gov = GovernorParams(machine=k, ke=p[PF.KE], te=p[PF.TE], t3=p[PF.T3],
                                 t4=p[PF.T4], t5=p[PF.T5], tm=p[PF.TM],
                                 r=p[PF.RDROOP])
            d_pm, d_xm, d_xe = governor_turbine_rhs(pm, xm, xe, omega, pc, gov, w0)
            if (xe >= 1.0 and d_xe > 0.0) or (xe <= 0.0 and d_xe < 0.0):
                d_xe = 0.0                                      # anti-windup hold
            dy[ix[[PI.I_PM, PI.I_XM, PI.I_XE]]] = d_pm, d_xm, d_xe
    return dy


def _reference_span(y, h, nsteps, eq, out=None):
    """Plain RK4 on the reference RHS with the valve clamp and the divergence
    check; -1, or the first step after which y left the divergence limit."""
    pi = eq.model.pi
    xe_ix = pi[pi[:, PI.HAS_GOV] == 1, PI.I_XE]
    for k in range(nsteps):
        k1 = _reference_rhs(y, eq)
        k2 = _reference_rhs(y + 0.5 * h * k1, eq)
        k3 = _reference_rhs(y + 0.5 * h * k2, eq)
        k4 = _reference_rhs(y + h * k3, eq)
        y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[xe_ix] = np.clip(y[xe_ix], 0.0, 1.0)
        if not np.all(np.abs(y) < kernels.DIVERGENCE_LIMIT):
            return k
        if out is not None:
            out[k] = y
    return -1


def test_rhs_parity(bundled_eq):
    model = bundled_eq.model
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = bundled_eq.state + 0.1 * rng.standard_normal(model.n_states)
        d_plan = kernels.rhs(y, *_model_args(bundled_eq))
        assert np.allclose(d_plan, _reference_rhs(y, bundled_eq), rtol=1e-12, atol=1e-12)


def test_rhs_parity_with_controllers(bundled_eq, bundled_design):
    model = bundled_eq.model
    ctrl, _ = bundled_design
    control = kernels.Control(ctrl.gains, bundled_eq.x5, np.ones(model.n_machines))
    rng = np.random.default_rng(1)
    y = bundled_eq.state + 0.05 * rng.standard_normal(model.n_states)
    d_plan = kernels.rhs(y, *_model_args(bundled_eq, control))
    assert np.allclose(d_plan, _reference_rhs(y, bundled_eq, control), rtol=1e-12, atol=1e-10)


def test_span_parity(bundled_eq):
    model = bundled_eq.model
    rng = np.random.default_rng(2)
    y0 = bundled_eq.state + 0.02 * rng.standard_normal(model.n_states)
    out_plan = np.zeros((200, model.n_states))
    out_ref = np.zeros((200, model.n_states))
    r1 = kernels.rk4_span(y0.copy(), 0.005, 200, *_model_args(bundled_eq), out=out_plan,
                          out_offset=0)
    r2 = _reference_span(y0.copy(), 0.005, 200, bundled_eq, out_ref)
    assert r1 == r2 == -1
    assert np.allclose(out_plan, out_ref, rtol=1e-10, atol=1e-10)


def test_divergence_detection(bundled_eq):
    model = bundled_eq.model
    y = bundled_eq.state.copy()
    # absurd step size destabilizes RK4 and must be flagged, not raised
    step = kernels.rk4_span(y, 5.0, 400, *_model_args(bundled_eq))
    assert step >= 0


def test_valve_clamp_invariant(bundled_eq):
    model = bundled_eq.model
    lay = model.layout
    y = bundled_eq.state.copy()
    # kick speeds hard so valves run against their limits
    y[lay.speed_indices] += 5.0
    out = np.zeros((2000, model.n_states))
    kernels.rk4_span(y, 0.005, 2000, *_model_args(bundled_eq), out=out, out_offset=0)
    for mid in lay.machine_ids:
        xe = out[:, lay.idx(mid, "xe")]
        assert np.all(xe >= 0.0)
        assert np.all(xe <= 1.0)
        assert xe.min() == 0.0 or xe.max() == 1.0   # the kick actually hit a limit


def test_partial_device_rhs_parity(partial_eq):
    model = partial_eq.model
    rng = np.random.default_rng(3)
    control = kernels.Control(100.0 * rng.standard_normal((model.n_machines, 5)),
                              partial_eq.x5, np.array([1.0, 0.0, 1.0, 0.0]))
    for scale in (0.01, 0.1, 1.0):      # 1.0 drives the limiters
        y = partial_eq.state + scale * rng.standard_normal(model.n_states)
        d_plan = kernels.rhs(y, *_model_args(partial_eq, control))
        assert np.allclose(d_plan, _reference_rhs(y, partial_eq, control),
                           rtol=1e-12, atol=1e-10)


def test_partial_device_span_parity(partial_eq):
    model = partial_eq.model
    rng = np.random.default_rng(4)
    y0 = partial_eq.state + 0.02 * rng.standard_normal(model.n_states)
    out_plan = np.zeros((200, model.n_states))
    out_ref = np.zeros((200, model.n_states))
    r1 = kernels.rk4_span(y0.copy(), 0.005, 200, *_model_args(partial_eq), out=out_plan,
                          out_offset=0)
    r2 = _reference_span(y0.copy(), 0.005, 200, partial_eq, out_ref)
    assert r1 == r2 == -1
    assert np.allclose(out_plan, out_ref, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("kick", [20.0, -5.0])
def test_span_parity_through_valve_limits(bundled_eq, kick):
    """A speed kick drives every valve onto a limit (shut for +20 rad/s, wide
    open for -5 rad/s), where the clamp and the anti-windup hold act."""
    model = bundled_eq.model
    lay = model.layout
    y0 = bundled_eq.state.copy()
    y0[lay.speed_indices] += kick
    out_plan = np.zeros((400, model.n_states))
    out_ref = np.zeros((400, model.n_states))
    r1 = kernels.rk4_span(y0.copy(), 0.005, 400, *_model_args(bundled_eq), out=out_plan,
                          out_offset=0)
    r2 = _reference_span(y0.copy(), 0.005, 400, bundled_eq, out_ref)
    assert r1 == r2 == -1
    assert np.allclose(out_plan, out_ref, rtol=1e-10, atol=1e-10)
    xe = out_ref[:, [lay.idx(m, "xe") for m in lay.machine_ids]]
    assert np.all(xe.min(axis=0) == 0.0) if kick > 0 else np.all(xe.max(axis=0) == 1.0)


@pytest.mark.parametrize("which", ["bundled", "partial"])
def test_stacked_rhs_matches_rows(which, bundled_eq, partial_eq):
    eq = bundled_eq if which == "bundled" else partial_eq
    model = eq.model
    rng = np.random.default_rng(5)
    ys = eq.state + 0.1 * rng.standard_normal((16, model.n_states))
    stacked = kernels.rhs(ys, *_model_args(eq))
    rows = np.array([kernels.rhs(y, *_model_args(eq)) for y in ys])
    assert stacked.shape == ys.shape
    assert np.allclose(stacked, rows, rtol=1e-12, atol=1e-12)
    # a one-row stack is the single-state call, bit for bit
    one = kernels.rhs(ys[:1], *_model_args(eq))
    assert one.shape == (1, model.n_states)
    assert np.array_equal(one[0], rows[0])


def test_stacked_span_matches_rows(partial_eq):
    model = partial_eq.model
    rng = np.random.default_rng(6)
    ys = partial_eq.state + 0.02 * rng.standard_normal((3, model.n_states))
    ys[1, model.layout.speed_indices] += 20.0   # this row runs into the valve limits
    out = np.zeros((100, 3, model.n_states))
    stacked = ys.copy()
    assert kernels.rk4_span(stacked, 0.005, 100, *_model_args(partial_eq), out=out,
                            out_offset=0) == -1
    for b in range(3):
        y = ys[b].copy()
        out_b = np.zeros((100, model.n_states))
        assert kernels.rk4_span(y, 0.005, 100, *_model_args(partial_eq), out=out_b,
                                out_offset=0) == -1
        assert np.allclose(out[:, b], out_b, rtol=1e-10, atol=1e-10)
    xe = out[:, 1, [model.layout.idx(m, "xe") for m in (1, 2, 3)]]
    assert xe.min() == 0.0 or xe.max() == 1.0     # the clamp acted on row 1
    assert np.all((xe >= 0.0) & (xe <= 1.0))


def test_stacked_span_reports_first_divergent_row(bundled_eq):
    model = bundled_eq.model
    lay = model.layout
    ys = np.tile(bundled_eq.state, (2, 1))
    ys[1, lay.idx(1, "delta")] += 9.9e5     # rotor 1 runs past the limit
    ys[1, lay.idx(1, "omega")] += 1e5
    first = _reference_span(ys[1].copy(), 0.005, 400, bundled_eq)
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
    bundled_eq.rhs_norm()
    linearize(bundled_eq)
    assert builds == []
    simulate(bundled_case, None, Scenario(duration=0.1, dt=0.01,
                                          events=(Event(0.05, "trip_line", (3, 101, 1)),)))
    assert builds == [1]
