import dataclasses
import json
import math

import numpy as np
import pytest

from oscdamp.case import parse_case, scale_stress, apply_line_trip
from oscdamp.kernels import Control
from oscdamp.powerflow import solve_power_flow, load_admittances, kron_reduce
from oscdamp.dynamics import initialize_from_power_flow, build_design_matrices
from oscdamp.smallsignal import (Mode, NonEquilibriumError, NoOscillatoryMode,
                                 linearize, closed_loop_matrix, modal_analysis,
                                 classify_mode, classify_table, min_damping,
                                 INTER_AREA, LOCAL, CONTROL, REAL)
from conftest import make_two_bus_text


def test_linearize_requires_equilibrium(bundled_eq):
    with pytest.raises(NonEquilibriumError):
        linearize(dataclasses.replace(bundled_eq, state=bundled_eq.state + 0.5))


def test_linearize_recovers_linear_system(bundled_eq):
    """On the governor block the model is linear, so the matrix is exact to roundoff."""
    a_full = linearize(bundled_eq)
    lay = bundled_eq.model.layout
    case_machine = 1
    rows = [lay.idx(case_machine, s) for s in ("pm", "xm", "xe")]
    cols = [lay.idx(case_machine, s) for s in ("delta", "omega", "pm", "xm", "xe")]
    sub = a_full[np.ix_(rows, cols)]
    # compare with the analytic governor rows
    import oscdamp
    case = parse_case(oscdamp.bundled_case_text())
    dm = build_design_matrices(case.machines[0], case.governor_for(1), case.omega0)
    assert np.allclose(sub, dm.a[2:, :], rtol=1e-6, atol=1e-8)


def test_linearize_matches_column_reference(bundled_eq, bundled_design):
    """The complex-step matrix agrees with one central difference per column
    to the truncation error of the difference."""
    ctrl, _ = bundled_design
    control = Control(ctrl.gains, bundled_eq.x5, np.ones(bundled_eq.model.n_machines))
    rhs = bundled_eq.model.plan.bind(bundled_eq.network.g, bundled_eq.network.b, control)
    x0 = bundled_eq.state
    ref = np.empty((x0.size, x0.size))
    for j in range(x0.size):
        h = 1e-6 * max(1.0, abs(x0[j]))
        yp, ym = x0.copy(), x0.copy()
        yp[j] += h
        ym[j] -= h
        ref[:, j] = (rhs(yp) - rhs(ym)) / (2.0 * h)
    assert np.allclose(linearize(bundled_eq, control), ref, rtol=1e-9, atol=1e-5)


def _equilibrium(case):
    sol = solve_power_flow(case)
    return initialize_from_power_flow(case, sol, kron_reduce(case, load_admittances(case, sol)))


def _valve_limit_case():
    """Two-bus case whose machine sits at zero output: its valve is shut."""
    doc = json.loads(make_two_bus_text(p_mw=0.0, q_mvar=0.0))
    doc["machines"][0]["p_sched_mw"] = 0.0
    return parse_case(json.dumps(doc))


def _closed_loop_pair(eq, gains):
    """The derived closed-loop matrix and the linearization of the model with
    the gains in service (active where a row is nonzero, reference at the
    equilibrium)."""
    control = Control(gains, eq.x5, np.any(gains != 0.0, axis=1).astype(float))
    derived = closed_loop_matrix(linearize(eq), eq.model.plan, gains)
    return derived, linearize(eq, control)


@pytest.mark.parametrize("variant", ["bundled", "x0.9", "x1.1", "trip-3-101-1",
                                     "no-gov-4-zero-row-1", "no-gov-1", "valve-limit"])
def test_closed_loop_matrix_matches_linearize(bundled_text, bundled_case,
                                              bundled_design, variant):
    ctrl, _ = bundled_design
    gains = ctrl.gains_for(tuple(m.id for m in bundled_case.machines))
    if variant.startswith("no-gov"):
        ungoverned = int(variant.split("-")[2])
        doc = json.loads(bundled_text)
        doc["governors"] = [g for g in doc["governors"] if g["machine"] != ungoverned]
        case = parse_case(json.dumps(doc))
        if variant.endswith("zero-row-1"):
            gains[0] = 0.0
    elif variant == "valve-limit":
        case = _valve_limit_case()
        gains = gains[:1]
    else:
        case = {"bundled": bundled_case,
                "x0.9": scale_stress(bundled_case, 0.9),
                "x1.1": scale_stress(bundled_case, 1.1),
                "trip-3-101-1": apply_line_trip(bundled_case, 3, 101, 1)}[variant]
    derived, linearized = _closed_loop_pair(_equilibrium(case), gains)
    assert np.max(np.abs(derived - linearized)) <= 1e-12 * np.max(np.abs(linearized))


def test_closed_loop_matrix_at_valve_limit(bundled_design):
    """With the valve shut at the equilibrium the anti-windup hold does not
    act on the derivative there, so the xe row keeps its analytic slope:
    -ke/(te r omega0) on omega in open loop, plus the feedback k_omega/te in
    closed loop, in the derived matrix and the linearization alike."""
    case = _valve_limit_case()
    eq = _equilibrium(case)
    assert eq.boundary_machines == (1,)
    gains = bundled_design[0].gains[:1]
    gov = case.governor_for(1)
    slope = -gov.ke / (gov.te * gov.r * case.omega0)
    lay = eq.model.layout
    xe, omega = lay.idx(1, "xe"), lay.idx(1, "omega")
    assert linearize(eq)[xe, omega] == pytest.approx(slope, rel=1e-12)
    closed = slope + gains[0, 1] / gov.te
    for a in _closed_loop_pair(eq, gains):
        assert a[xe, omega] == pytest.approx(closed, rel=1e-12)


def test_single_machine_block_equals_analytic():
    doc = json.loads(make_two_bus_text())
    case = parse_case(doc if isinstance(doc, str) else json.dumps(json.loads(make_two_bus_text())))
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    eq = initialize_from_power_flow(case, sol, red)
    a_full = linearize(eq)
    lay = eq.model.layout
    idx = [lay.idx(1, s) for s in ("delta", "omega", "pm", "xm", "xe")]
    block = a_full[np.ix_(idx, idx)]
    dm = build_design_matrices(case.machines[0], case.governor_for(1), case.omega0)
    # single machine: Pe does not depend on its own angle, the block is exact
    assert np.allclose(block, dm.a, rtol=1e-6, atol=1e-6)


def test_modal_formula_oracle():
    sigma, om = -0.1, 2 * math.pi * 0.6
    a = np.array([[sigma, om], [-om, sigma]])
    table = modal_analysis(a)
    assert len(table) == 1
    m = table.modes[0]
    assert m.frequency_hz == pytest.approx(0.6, rel=1e-12)
    assert m.damping_ratio == pytest.approx(0.1 / math.hypot(sigma, om), rel=1e-12)
    assert m.damping_ratio == pytest.approx(0.0265, abs=2e-4)


def test_modal_real_eigenvalue():
    table = modal_analysis(np.array([[-2.0]]))
    m = table.modes[0]
    assert m.frequency_hz == 0.0
    assert m.damping_ratio == 1.0
    assert not m.is_oscillatory


def test_participation_identity_for_diagonal():
    table = modal_analysis(np.diag([-1.0, -2.0, -3.0]))
    for m in table.modes:
        assert np.max(m.participation) == pytest.approx(1.0)
        assert np.sum(m.participation) == pytest.approx(1.0)


def test_participation_rows_sum_to_one(bundled_eq):
    a = linearize(bundled_eq)
    for m in modal_analysis(a):
        assert np.sum(m.participation) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("loop", ["open", "closed"])
def test_participation_matches_lapack_left_eigenvectors(bundled_eq, bundled_design,
                                                        loop):
    """Participation from the rows of the inverse right-eigenvector matrix
    equals that from LAPACK's own left eigenvectors: the per-mode
    normalization cancels their scale."""
    import scipy.linalg
    a = linearize(bundled_eq)
    if loop == "closed":
        layout = bundled_eq.model.layout
        a = closed_loop_matrix(a, bundled_eq.model.plan,
                               bundled_design[0].gains_for(layout.machine_ids))
    w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
    table = modal_analysis(a)
    assert len(table) == np.sum(w.imag >= 0.0)
    for m in table:
        i = int(np.argmin(np.abs(w - m.eigenvalue)))
        ref = np.abs(vl[:, i] * vr[:, i])
        assert np.allclose(m.participation, ref / ref.sum(), rtol=0.0, atol=1e-12)


def test_eigen_residuals(bundled_eq):
    a = linearize(bundled_eq)
    norm_a = np.linalg.norm(a, 2)
    for m in modal_analysis(a):
        res = np.linalg.norm(a @ m.right - m.eigenvalue * m.right)
        assert res <= 1e-8 * norm_a * np.linalg.norm(m.right)


def test_damping_invariant_under_time_scaling(bundled_eq):
    a = linearize(bundled_eq)
    t1 = modal_analysis(a)
    t2 = modal_analysis(3.7 * a)
    z1 = sorted(m.damping_ratio for m in t1)
    z2 = sorted(m.damping_ratio for m in t2)
    assert np.allclose(z1, z2, atol=1e-7)


def _mode_with_speed_shape(shape, n_extra=2):
    n = len(shape) + n_extra
    v = np.zeros(n, dtype=complex)
    v[:len(shape)] = shape
    return Mode(eigenvalue=-0.1 + 4j, frequency_hz=4 / (2 * np.pi),
                damping_ratio=0.025, right=v, participation=np.ones(n) / n)


def test_classify_antiphase_across_areas():
    m = _mode_with_speed_shape([1.0, -1.0])
    cls = classify_mode(m, np.array([0, 1]), {1: 0, 2: 1}, (1, 2))
    assert cls == INTER_AREA


def test_classify_same_area_is_local():
    m = _mode_with_speed_shape([1.0, -0.9, 0.05, 0.04])
    cls = classify_mode(m, np.array([0, 1, 2, 3]), {1: 0, 2: 0, 3: 1, 4: 1},
                        (1, 2, 3, 4))
    assert cls == LOCAL


def test_classify_low_speed_content_is_control():
    n = 10
    v = np.ones(n, dtype=complex)
    v[:2] = 0.01
    m = Mode(eigenvalue=-1 + 10j, frequency_hz=10 / (2 * np.pi),
             damping_ratio=0.1, right=v, participation=np.ones(n) / n)
    assert classify_mode(m, np.array([0, 1]), {1: 0, 2: 1}, (1, 2)) == CONTROL


def test_classify_real_mode():
    m = Mode(eigenvalue=complex(-2.0), frequency_hz=0.0, damping_ratio=1.0,
             right=np.ones(3, dtype=complex), participation=np.ones(3) / 3)
    assert classify_mode(m, np.array([0]), {1: 0}, (1,)) == REAL


def test_classify_invariant_to_eigenvector_scaling():
    rng = np.random.default_rng(0)
    for _ in range(10):
        scale = rng.standard_normal() + 1j * rng.standard_normal()
        m1 = _mode_with_speed_shape([1.0, -0.8 + 0.1j])
        m2 = _mode_with_speed_shape([scale * 1.0, scale * (-0.8 + 0.1j)])
        args = (np.array([0, 1]), {1: 0, 2: 1}, (1, 2))
        assert classify_mode(m1, *args) == classify_mode(m2, *args)


def test_bundled_interarea_band(bundled_eq, bundled_areas):
    a = linearize(bundled_eq)
    table = classify_table(modal_analysis(a, bundled_eq.model.layout.labels),
                           bundled_eq.model.layout.speed_indices,
                           bundled_areas, bundled_eq.model.layout.machine_ids)
    inter = [m for m in table
             if m.is_oscillatory and 0.4 <= m.frequency_hz <= 0.8]
    assert inter, "expected a swing pair in the low-frequency band"
    worst = min_damping(table)
    assert worst.classification == INTER_AREA


def test_min_damping_selection():
    a = np.zeros((4, 4))
    a[0:2, 0:2] = [[-0.05, 1.0], [-1.0, -0.05]]         # zeta = 5%
    a[2:4, 2:4] = [[-0.8, 4.0], [-4.0, -0.8]]           # zeta = 20%
    table = modal_analysis(a)
    worst = min_damping(table, 0.01, 3.0)
    assert worst.damping_ratio == pytest.approx(0.05, abs=2e-3)


def test_min_damping_band_exclusion():
    a = np.array([[-0.05, 1.0], [-1.0, -0.05]])
    table = modal_analysis(a)
    with pytest.raises(NoOscillatoryMode):
        min_damping(table, 2.0, 3.0)


def test_mode_csv_shape(bundled_eq):
    a = linearize(bundled_eq)
    table = modal_analysis(a, bundled_eq.model.layout.labels)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "re,im,freq_hz,damping_pct,class,top_participant"
    assert len(lines) == len(table.modes) + 1


def test_zero_eigenvalue_sign_is_not_reported():
    """A structural zero eigenvalue reads the same whichever sign roundoff gave it."""
    rng = np.random.default_rng(8)
    t = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    csvs = []
    for eps in (1e-9, -1e-9):
        core = np.diag([0.0, 0.0, eps, -2.0])
        core[:2, :2] = [[-0.1, 4.0], [-4.0, -0.1]]
        a = t @ core @ np.linalg.inv(t)
        csvs.append(modal_analysis(a, ("a", "b", "c", "d")).to_csv())
    assert csvs[0] == csvs[1]
    assert "\n0,0,0,100,," in csvs[0]
