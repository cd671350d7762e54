import dataclasses
import json
import math

import numpy as np
import pytest

from oscdamp import kernels
from oscdamp.case import apply_line_trip, parse_case, scale_stress, unreachable_buses
from oscdamp.powerflow import (solve_power_flow, solve_power_flows, load_admittances,
                               kron_reduce, ReducedNetwork)
from oscdamp.dynamics import (build_design_matrices, device_model,
                              initialize_from_power_flow, initialize_from_power_flows,
                              InitializationError)
from model_reference import (rotor_rhs, governor_turbine_rhs, two_axis_rhs,
                             electrical_power, reference_equilibrium)
from conftest import make_two_bus_text, reversed_machine_order_text

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
    return ReducedNetwork(g=g, b=b)


def test_electrical_power_decoupled():
    red = ReducedNetwork(g=np.zeros((3, 3)), b=np.zeros((3, 3)))
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


def rhs_norm(eq) -> float:
    """Largest state derivative of the model at the operating point's state."""
    return float(np.max(np.abs(kernels.rhs(eq.state, eq.plan, eq.network.g, eq.network.b))))


def test_initialization_fixed_point(bundled_eq):
    assert rhs_norm(bundled_eq) < 1e-8


def test_equilibrium_angles_and_emfs_read_the_state(bundled_case, bundled_eq):
    """delta, eqp and edp are the state's entries, not a second copy."""
    layout = bundled_eq.layout
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
    assert rhs_norm(eq) < 1e-8


def test_zero_output_machine_is_boundary():
    doc = json.loads(make_two_bus_text(p_mw=0.0, q_mvar=0.0))
    doc["machines"][0]["p_sched_mw"] = 0.0
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    eq = initialize_from_power_flow(case, sol, red)
    lay = eq.layout
    assert [eq.state[lay.idx(1, s)] for s in ("pm", "xm", "xe")] == [0.0, 0.0, 0.0]


def test_valve_ceiling_violation():
    # machine rated 100 MVA asked for ~120 MW plus losses: valve beyond 1
    doc = json.loads(make_two_bus_text(p_mw=120.0, q_mvar=10.0))
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    with pytest.raises(InitializationError, match="valve"):
        initialize_from_power_flow(case, sol, red)


def test_control_input_unity_chain(bundled_eq):
    lay = bundled_eq.layout
    for k, mid in enumerate(lay.machine_ids):     # every bundled machine is governed
        assert bundled_eq.plan.const[k] == bundled_eq.state[lay.idx(mid, "pm")]
        assert bundled_eq.plan.const[k] == bundled_eq.state[lay.idx(mid, "xe")]
    # the initialized model is immutable: its plan is the one parameter record,
    # and every array of the plan is read-only
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundled_eq.plan = None
    arrays = [a for a in vars(bundled_eq.plan).values() if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        bundled_eq.plan.const[0] = 0.0


def test_exciter_limit_violation_at_equilibrium():
    doc = json.loads(make_two_bus_text(p_mw=90.0, q_mvar=40.0))
    doc["exciters"] = [{"machine": 1, "ka": 200.0, "ta": 0.02,
                        "efd_min": -0.5, "efd_max": 0.5}]
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    with pytest.raises(InitializationError, match="field voltage"):
        initialize_from_power_flow(case, sol, red)


def _sweep_and_outage_points(case):
    """The bundled sweep fractions, then every outage that islands no bus."""
    points = [(f"x{f}", scale_stress(case, f)) for f in (0.5, 0.9, 1.0, 1.1)]
    for br in case.in_service_branches():
        variant = apply_line_trip(case, *br.key())
        if not unreachable_buses(variant):
            points.append((f"trip {br.key()}", variant))
    return points


def test_shared_device_part_gives_each_point_its_own_plan(bundled_case):
    """Stress scaling and a trip change no device: every point initialized on
    the base case's device part has the equilibrium state and every plan
    array (shape, dtype, bits, read-only) of a plan built for the point, and
    shares the device arrays instead of copying them."""
    model = device_model(bundled_case)
    points = _sweep_and_outage_points(bundled_case)
    assert sum(name.startswith("trip") for name, _ in points) == 4
    for name, case in points:
        sol = solve_power_flow(case)
        red = kron_reduce(case, load_admittances(case, sol), sol.ybus)
        (shared,) = initialize_from_power_flows([case], [sol], [red], model)
        fresh = initialize_from_power_flow(case, sol, red)
        assert shared.layout == fresh.layout, name
        assert shared.state.dtype == fresh.state.dtype, name
        assert np.array_equal(shared.state, fresh.state), name
        got, want = ({k: v for k, v in vars(eq.plan).items() if isinstance(v, np.ndarray)}
                     for eq in (shared, fresh))
        assert got.keys() == want.keys() and {"m", "c", "const", "vref"} <= got.keys()
        for k, v in got.items():
            assert v.shape == want[k].shape and v.dtype == want[k].dtype, (name, k)
            assert np.array_equal(v, want[k]), (name, k)
            assert not v.flags.writeable, (name, k)
        assert shared.plan.m is model.m and shared.plan.pre is model.pre


def test_device_part_holds_no_operating_point(bundled_case):
    """A device part has no references or constants until `at` gives them,
    and the columns of the constants it keeps for `at` own their data, so
    the scatter they were cut from is freed."""
    model = device_model(bundled_case)
    assert model.c is None and model.const is None and model.vref is None
    assert model.m_const.base is None and model.m.base is None and model.pre.base is None


@pytest.mark.parametrize("variant", ["bundled", "partial", "no governors"])
def test_stacked_initialization_is_the_scalar_reference_bit_for_bit(variant, bundled_text):
    """Over points × machines, each point of a stress sweep from 0.5 to 1.14
    (whose top points need a valve opening past 1) has the equilibrium
    state, mechanical powers, field voltages and exciter references of the
    machine-by-machine back-solve on complex scalars, bit for bit, and its
    error; also with machines that lack a governor, an exciter or a PSS."""
    doc = json.loads(bundled_text)
    if variant == "partial":
        doc["governors"] = [g for g in doc["governors"] if g["machine"] != 4]
        doc["exciters"] = [e for e in doc["exciters"] if e["machine"] != 2]
    elif variant == "no governors":
        doc["governors"] = []
    base = parse_case(json.dumps(doc))
    model = device_model(base)
    cases = [scale_stress(base, 0.5 + 0.02 * i) for i in range(33)]
    points = [(c, s) for c, s in zip(cases, solve_power_flows(cases))
              if not isinstance(s, Exception)]
    nets = [kron_reduce(c, load_admittances(c, s), s.ybus) for c, s in points]
    eqs = initialize_from_power_flows([c for c, _ in points], [s for _, s in points],
                                      nets, model)
    failed = 0
    for eq, (case, sol) in zip(eqs, points):
        try:
            want = reference_equilibrium(case, sol, model.layout)
        except InitializationError as exc:
            assert type(eq) is InitializationError and str(eq) == str(exc)
            failed += 1
            continue
        n = len(case.machines)
        got = (eq.state, eq.plan.const[:n], eq.plan.const[n:2 * n], eq.plan.vref)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert len(points) > 25 and (failed > 0) == (variant != "no governors")


@pytest.mark.parametrize("variant", ["no governor", "no exciter", "no pss", "reversed"])
def test_device_part_of_other_devices_is_refused(variant, bundled_case, bundled_text,
                                                 bundled_sol, bundled_red):
    """The device part of a case whose machines or devices differ is refused,
    not initialized into a plan with slots nothing sets."""
    if variant == "reversed":
        other = parse_case(reversed_machine_order_text(bundled_text))
    else:
        field = {"no governor": "governors", "no exciter": "exciters",
                 "no pss": "psss"}[variant]
        assert getattr(bundled_case, field)
        other = dataclasses.replace(bundled_case, **{field: getattr(bundled_case, field)[1:]})
    with pytest.raises(ValueError, match="not of this case"):
        initialize_from_power_flows([bundled_case], [bundled_sol], [bundled_red],
                                    device_model(other))
    with pytest.raises(ValueError, match="not of this case"):
        initialize_from_power_flows([other], [bundled_sol], [bundled_red],
                                    device_model(bundled_case))
