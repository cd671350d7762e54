import dataclasses
import json
import math

import numpy as np
import pytest

from oscdamp.case import parse_case
from oscdamp.powerflow import (solve_power_flow, load_admittances, kron_reduce,
                               ReducedNetwork)
from oscdamp.dynamics import (rotor_rhs, governor_turbine_rhs, two_axis_rhs,
                              electrical_power, build_design_matrices,
                              initialize_from_power_flow, InitializationError)
from conftest import make_two_bus_text

W0 = 2 * math.pi * 60


def test_rotor_equilibrium():
    assert rotor_rhs(0.3, 0.0, 0.8, 0.8, h=6.5, d=1.0, omega0=W0) == (0.0, 0.0)


def test_rotor_acceleration_arithmetic():
    _, d_omega = rotor_rhs(0.0, 0.0, 0.6, 0.5, h=6.5, d=0.0, omega0=W0)
    assert d_omega == pytest.approx(0.1 * W0 / 13.0, rel=1e-12)


def test_rotor_inertia_scaling():
    _, d1 = rotor_rhs(0.0, 0.0, 0.6, 0.5, h=5.0, d=0.0, omega0=W0)
    _, d2 = rotor_rhs(0.0, 0.0, 0.6, 0.5, h=10.0, d=0.0, omega0=W0)
    assert d1 == pytest.approx(2 * d2, rel=1e-12)


@pytest.fixture()
def gov(two_bus_case):
    return two_bus_case.governor_for(1)


def test_governor_unity_dc_gain(gov):
    p = 0.7
    derivs = governor_turbine_rhs(p, p, p, 0.0, p, gov, W0)
    assert np.allclose(derivs, 0.0, atol=1e-15)


def test_governor_valve_step_slope(gov):
    # valve response to a command step has initial slope step / Te
    step = 0.1
    p = 0.5
    _, _, d_xe = governor_turbine_rhs(p, p, p, 0.0, p + step, gov, W0)
    assert d_xe == pytest.approx(step / gov.te, rel=1e-12)


def test_governor_droop_path(gov):
    p = 0.5
    omega = 0.2
    _, _, d_xe_base = governor_turbine_rhs(p, p, p, 0.0, p, gov, W0)
    _, _, d_xe = governor_turbine_rhs(p, p, p, omega, p, gov, W0)
    assert d_xe - d_xe_base == pytest.approx(-gov.ke * omega / (gov.te * gov.r * W0),
                                             rel=1e-12)


def test_two_axis_field_equilibrium():
    i_d = 0.4
    eqp = 1.0
    efd = eqp + (1.8 - 0.3) * i_d
    d_eqp, _ = two_axis_rhs(eqp, 0.2, i_d, 0.1, efd, 1.8, 1.7, 0.3, 0.55, 8.0, 0.4)
    assert d_eqp == pytest.approx(0.0, abs=1e-15)


def test_two_axis_edp_exponential_decay():
    # with xq == xqp the d-axis EMF decays as exp(-t / tq0p)
    tq0p = 0.4
    edp0 = 0.3
    d_edp0 = two_axis_rhs(1.0, edp0, 0.1, 0.2, 2.0, 1.8, 1.7, 0.3, 1.7, 8.0, tq0p)[1]
    assert d_edp0 == pytest.approx(-edp0 / tq0p, rel=1e-12)
    # closed-form oracle over a short horizon via dense Euler refinement
    dt, n = 1e-5, 20000
    edp = edp0
    for _ in range(n):
        edp += dt * two_axis_rhs(1.0, edp, 0.1, 0.2, 2.0, 1.8, 1.7, 0.3, 1.7, 8.0, tq0p)[1]
    assert edp == pytest.approx(edp0 * math.exp(-dt * n / tq0p), rel=1e-4)


def _random_reduced(rng, n=3, lossless=False):
    g = rng.standard_normal((n, n))
    g = 0.5 * (g + g.T)
    if lossless:
        g = np.zeros((n, n))
    b = rng.standard_normal((n, n))
    b = 0.5 * (b + b.T)
    return ReducedNetwork(g=g, b=b, machine_ids=tuple(range(1, n + 1)))


def test_electrical_power_decoupled():
    red = ReducedNetwork(g=np.zeros((3, 3)), b=np.zeros((3, 3)),
                         machine_ids=(1, 2, 3))
    pe = electrical_power(red, np.array([0.1, 0.5, -0.2]),
                          np.array([1.0, 1.1, 0.9]), np.array([0.2, 0.1, 0.3]))
    assert np.allclose(pe, 0.0)


def test_electrical_power_lossless_antisymmetry():
    rng = np.random.default_rng(5)
    red = _random_reduced(rng, n=2, lossless=True)
    pe = electrical_power(red, rng.standard_normal(2),
                          rng.standard_normal(2), rng.standard_normal(2))
    assert pe[0] == pytest.approx(-pe[1], abs=1e-12)


def test_electrical_power_lossless_conservation():
    rng = np.random.default_rng(6)
    for _ in range(20):
        red = _random_reduced(rng, n=4, lossless=True)
        pe = electrical_power(red, rng.standard_normal(4),
                              rng.standard_normal(4), rng.standard_normal(4))
        assert abs(np.sum(pe)) < 1e-10


def test_electrical_power_term_by_term_oracle():
    rng = np.random.default_rng(11)
    red = _random_reduced(rng, n=3)
    delta = rng.standard_normal(3)
    eqp = rng.standard_normal(3)
    edp = rng.standard_normal(3)
    pe = electrical_power(red, delta, eqp, edp)
    # brute-force re-summation of the four EMF product terms
    for i in range(3):
        total = 0.0
        for j in range(3):
            dij = delta[i] - delta[j]
            c, s = math.cos(dij), math.sin(dij)
            gij, bij = red.g[i, j], red.b[i, j]
            total += eqp[i] * eqp[j] * (gij * c + bij * s)
            total += eqp[i] * edp[j] * (bij * c - gij * s)
            total += edp[i] * eqp[j] * (-bij * c + gij * s)
            total += edp[i] * edp[j] * (gij * c + bij * s)
        assert pe[i] == pytest.approx(total, abs=1e-12)


def test_design_matrix_printed_entries(bundled_case):
    m = bundled_case.machines[0]
    gov = bundled_case.governor_for(m.id)
    dm = build_design_matrices(m, gov, W0)
    assert dm.a[0, 1] == 1.0
    assert dm.a[0, 0] == 0.0
    ke, te, t3, t4, t5, tm, r = gov.ke, gov.te, gov.t3, gov.t4, gov.t5, gov.tm, gov.r
    assert dm.a[2, 1] == pytest.approx(-ke * t3 * t4 / (tm * te * t5 * r * W0))
    assert dm.b[2] == pytest.approx(t3 * t4 / (tm * te * t5))
    assert dm.b[3] == pytest.approx(t3 / (tm * te))
    assert dm.b[4] == pytest.approx(1.0 / te)
    assert np.allclose(dm.g, [0.0, -W0 / (2 * m.h), 0.0, 0.0, 0.0])


def test_design_g_entry_value():
    doc = json.loads(make_two_bus_text())
    doc["machines"][0]["h"] = 6.5
    case = parse_case(json.dumps(doc))
    dm = build_design_matrices(case.machines[0], case.governor_for(1), W0)
    assert dm.g[1] == pytest.approx(-W0 / 13.0)
    assert dm.g[1] == pytest.approx(-28.9993, abs=1e-3)


def test_design_matrices_match_fd_jacobian(bundled_case):
    """Central differences of the governor/rotor equations with Pe frozen."""
    m = bundled_case.machines[1]
    gov = bundled_case.governor_for(m.id)
    dm = build_design_matrices(m, gov, W0)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(5)
    pc, pe = 0.63, 0.6

    def rhs(x):
        d_delta, d_omega = rotor_rhs(x[0], x[1], x[2], pe, m.h, m.d, W0)
        d_pm, d_xm, d_xe = governor_turbine_rhs(x[2], x[3], x[4], x[1], pc, gov, W0)
        return np.array([d_delta, d_omega, d_pm, d_xm, d_xe])

    jac = np.empty((5, 5))
    for j in range(5):
        h = 1e-6 * max(1.0, abs(x0[j]))
        xp, xm_ = x0.copy(), x0.copy()
        xp[j] += h
        xm_[j] -= h
        jac[:, j] = (rhs(xp) - rhs(xm_)) / (2 * h)
    assert np.allclose(jac, dm.a, rtol=1e-6, atol=1e-9)
    # the affine parts line up with the same model
    assert np.allclose(rhs(x0), dm.a @ x0 + dm.b * pc + dm.g * pe, atol=1e-12)


def test_initialization_fixed_point(bundled_eq):
    assert bundled_eq.rhs_norm() < 1e-8


def test_equilibrium_angles_and_emfs_read_the_state(bundled_case, bundled_eq):
    """delta, eqp and edp are the state's entries, not a second copy."""
    layout = bundled_eq.model.layout
    for name in ("delta", "eqp", "edp"):
        at = [layout.idx(m.id, name) for m in bundled_case.machines]
        assert np.array_equal(getattr(bundled_eq, name), bundled_eq.state[at])
        with pytest.raises(AttributeError):
            setattr(bundled_eq, name, np.zeros(len(at)))


def test_initialization_fixed_point_after_trip(bundled_case):
    from oscdamp.case import apply_line_trip
    tripped = apply_line_trip(bundled_case, 3, 101, 1)
    sol = solve_power_flow(tripped)
    red = kron_reduce(tripped, load_admittances(tripped, sol))
    eq = initialize_from_power_flow(tripped, sol, red)
    assert eq.rhs_norm() < 1e-8


def test_zero_output_machine_is_boundary():
    doc = json.loads(make_two_bus_text(p_mw=0.0, q_mvar=0.0))
    doc["machines"][0]["p_sched_mw"] = 0.0
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    eq = initialize_from_power_flow(case, sol, red)
    assert eq.boundary_machines == (1,)
    lay = eq.model.layout
    assert eq.state[lay.idx(1, "xe")] == 0.0


def test_valve_ceiling_violation():
    # machine rated 100 MVA asked for ~120 MW plus losses: valve beyond 1
    doc = json.loads(make_two_bus_text(p_mw=120.0, q_mvar=10.0))
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    with pytest.raises(InitializationError, match="valve"):
        initialize_from_power_flow(case, sol, red)


def test_control_input_unity_chain(bundled_eq):
    model = bundled_eq.model
    lay = model.layout
    for k, mid in enumerate(lay.machine_ids):     # every bundled machine is governed
        assert model.plan.pcref[k] == bundled_eq.state[lay.idx(mid, "pm")]
        assert model.plan.pcref[k] == bundled_eq.state[lay.idx(mid, "xe")]
    # the initialized model is immutable: its plan is the one parameter record,
    # and every array of the plan is read-only
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.plan = None
    arrays = [a for a in vars(model.plan).values() if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        model.plan.pcref[0] = 0.0


def test_exciter_limit_violation_at_equilibrium():
    doc = json.loads(make_two_bus_text(p_mw=90.0, q_mvar=40.0))
    doc["exciters"] = [{"machine": 1, "ka": 200.0, "ta": 0.02,
                        "efd_min": -0.5, "efd_max": 0.5}]
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    with pytest.raises(InitializationError, match="field voltage"):
        initialize_from_power_flow(case, sol, red)
