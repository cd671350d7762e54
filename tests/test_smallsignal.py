import json
import math

import numpy as np
import pytest

from oscdamp.case import parse_case
from oscdamp.powerflow import solve_power_flow, build_ybus, kron_reduce
from oscdamp.dynamics import initialize_from_power_flow, build_design_matrices
from oscdamp.smallsignal import (Mode, NonEquilibriumError, NoOscillatoryMode,
                                 linearize, modal_analysis, classify_mode,
                                 classify_table, min_damping, INTER_AREA,
                                 LOCAL, CONTROL, REAL)
from conftest import make_two_bus_text


def test_linearize_requires_equilibrium(bundled_eq):
    with pytest.raises(NonEquilibriumError):
        linearize(bundled_eq.model, bundled_eq.state + 0.5)


def test_linearize_recovers_linear_system(bundled_eq):
    """On the governor block the model is linear, so FD is exact to roundoff."""
    a_full = linearize(bundled_eq.model, bundled_eq.state)
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
    """The stacked evaluation reproduces one central difference per column."""
    model = bundled_eq.model.copy()
    ctrl, _ = bundled_design
    model.set_controllers(ctrl.gains, bundled_eq.x5)
    x0 = bundled_eq.state
    ref = np.empty((x0.size, x0.size))
    for j in range(x0.size):
        h = 1e-6 * max(1.0, abs(x0[j]))
        yp, ym = x0.copy(), x0.copy()
        yp[j] += h
        ym[j] -= h
        ref[:, j] = (model.rhs(yp) - model.rhs(ym)) / (2.0 * h)
    assert np.allclose(linearize(model, x0), ref, rtol=1e-9, atol=1e-5)


def test_single_machine_block_equals_analytic():
    doc = json.loads(make_two_bus_text())
    case = parse_case(doc if isinstance(doc, str) else json.dumps(json.loads(make_two_bus_text())))
    sol = solve_power_flow(case)
    red = kron_reduce(build_ybus(case), case, sol)
    eq = initialize_from_power_flow(case, sol, red)
    a_full = linearize(eq.model, eq.state)
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
    a = linearize(bundled_eq.model, bundled_eq.state)
    for m in modal_analysis(a):
        assert np.sum(m.participation) == pytest.approx(1.0, abs=1e-10)


def test_eigen_residuals(bundled_eq):
    a = linearize(bundled_eq.model, bundled_eq.state)
    norm_a = np.linalg.norm(a, 2)
    for m in modal_analysis(a):
        res = np.linalg.norm(a @ m.right - m.eigenvalue * m.right)
        assert res <= 1e-8 * norm_a * np.linalg.norm(m.right)


def test_damping_invariant_under_time_scaling(bundled_eq):
    a = linearize(bundled_eq.model, bundled_eq.state)
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
    a = linearize(bundled_eq.model, bundled_eq.state)
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
    a = linearize(bundled_eq.model, bundled_eq.state)
    table = modal_analysis(a, bundled_eq.model.layout.labels)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "re,im,freq_hz,damping_pct,class,top_participant"
    assert len(lines) == len(table.modes) + 1
