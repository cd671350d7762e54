import dataclasses
import json
import math

import numpy as np
import pytest

from oscdamp.case import parse_case, scale_stress, apply_line_trip, unreachable_buses
from oscdamp.kernels import Control
from oscdamp.powerflow import (KronReductionError, PowerFlowDiverged, solve_power_flow,
                               solve_power_flows, load_admittances, kron_reduce,
                               kron_reductions)
from oscdamp.dynamics import (InitializationError, device_model, initialize_from_power_flow,
                              initialize_from_power_flows, build_design_matrices)
from oscdamp.smallsignal import (Mode, NonEquilibriumError, NoOscillatoryMode,
                                 EigenvectorError, linearize, linearize_points,
                                 closed_loop_matrix,
                                 modal_analysis, right_vector, classify_mode,
                                 classify_table, min_damping, INTER_AREA, LOCAL, CONTROL,
                                 REAL, ZERO_EIGENVALUE_TOL, INVERSE_ITERATION_SHIFT)
from conftest import make_two_bus_text, pinned_gains
from model_reference import reference_equilibrium, reference_kron_reduce


def test_linearize_requires_equilibrium(bundled_eq):
    with pytest.raises(NonEquilibriumError):
        linearize(dataclasses.replace(bundled_eq, state=bundled_eq.state + 0.5))


def test_linearize_refuses_a_non_finite_rhs(bundled_text):
    """An exciter with Ka = 0 (which `validate_case` refuses; built here
    without it) puts its voltage reference at infinity, so the RHS at the
    operating point is NaN: that is no equilibrium either."""
    doc = json.loads(bundled_text)
    doc["exciters"][0]["ka"] = 0.0
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    with np.errstate(divide="ignore", invalid="ignore"):
        eq = initialize_from_power_flow(case, sol,
                                        kron_reduce(case, load_admittances(case, sol)))
        with pytest.raises(NonEquilibriumError, match="nan"):
            linearize(eq)


def test_linearize_recovers_linear_system(bundled_eq):
    """On the governor block the model is linear, so the matrix is exact to roundoff."""
    a_full = linearize(bundled_eq)
    lay = bundled_eq.layout
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
    control = Control(ctrl.gains, bundled_eq.plan.design_states(bundled_eq.state),
                      np.ones(len(bundled_eq.layout.machine_ids)))
    rhs = bundled_eq.plan.bind(bundled_eq.network.g, bundled_eq.network.b, control)
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
    control = Control(gains, eq.plan.design_states(eq.state),
                      np.any(gains != 0.0, axis=1).astype(float))
    derived = closed_loop_matrix(linearize(eq), eq.plan, gains)
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
    lay = eq.layout
    assert [eq.state[lay.idx(1, s)] for s in ("pm", "xm", "xe")] == [0.0, 0.0, 0.0]
    gains = bundled_design[0].gains[:1]
    gov = case.governor_for(1)
    slope = -gov.ke / (gov.te * gov.r * case.omega0)
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
    lay = eq.layout
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
        layout = bundled_eq.layout
        a = closed_loop_matrix(a, bundled_eq.plan,
                               bundled_design[0].gains_for(layout.machine_ids))
    w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
    table = modal_analysis(a)
    assert len(table) == np.sum(w.imag >= 0.0)
    for m in table:
        i = int(np.argmin(np.abs(w - m.eigenvalue)))
        ref = np.abs(vl[:, i] * vr[:, i])
        assert np.allclose(m.participation, ref / ref.sum(), rtol=0.0, atol=1e-12)


def _reference_modes(a):
    """The modes of `a` one by one in scalar arithmetic, the reference for
    the array pass of modal_analysis: (eigenvalue, frequency, damping ratio,
    participation), sorted by damping ratio."""
    w, vr = np.linalg.eig(a)
    vl = np.linalg.inv(vr)
    modes = []
    for i in range(len(w)):
        lam = w[i]
        if lam.imag < 0.0:
            continue
        if abs(lam) < ZERO_EIGENVALUE_TOL:
            lam = 0j
        mag = abs(lam)
        part = np.abs(vl[i] * vr[:, i])
        modes.append((complex(lam), float(abs(lam.imag) / (2.0 * np.pi)),
                      1.0 if mag == 0.0 else float(-lam.real / mag), part / part.sum()))
    return sorted(modes, key=lambda m: m[2])


def _test_matrices(case, eq, design):
    """Open- and closed-loop state matrices of the bundled case, of two
    stressed variants and of a line trip, and a matrix with a structural
    zero eigenvalue."""
    gains = design[0].gains_for(eq.layout.machine_ids)
    out = []
    for variant in (eq, *map(_equilibrium, (scale_stress(case, 0.9), scale_stress(case, 1.1),
                                            apply_line_trip(case, 3, 101, 1)))):
        a = linearize(variant)
        out += [a, closed_loop_matrix(a, variant.plan, gains)]
    t = np.random.default_rng(8).standard_normal((4, 4)) + 4.0 * np.eye(4)
    core = np.diag([0.0, 0.0, 1e-9, -2.0])
    core[:2, :2] = [[-0.1, 4.0], [-4.0, -0.1]]
    return out + [t @ core @ np.linalg.inv(t)]


def test_table_is_the_per_mode_reference(bundled_case, bundled_eq, bundled_design):
    """The table's eigenvalues, frequencies and damping ratios are the bits
    of the per-mode scalar reference, in its order; the participation
    factors agree to roundoff and name the same top participant; and the
    least-damped mode in a band is the reference's first one there."""
    for a in _test_matrices(bundled_case, bundled_eq, bundled_design):
        table, ref = modal_analysis(a), _reference_modes(a)
        assert [(m.eigenvalue, m.frequency_hz, m.damping_ratio) for m in table] == \
            [r[:3] for r in ref]
        for m, r in zip(table, ref):
            assert np.allclose(m.participation, r[3], rtol=1e-13, atol=0.0)
            assert m.top_participant == f"x{int(np.argmax(r[3]))}"
        for band in ((0.1, 3.0), (0.3, 0.9), (1.0, 2.0)):
            inside = [r for r in ref if r[0].imag != 0.0 and band[0] <= r[1] <= band[1]]
            if inside:
                assert min_damping(table, *band).eigenvalue == inside[0][0]


@pytest.mark.parametrize("loop", ["open", "closed"])
def test_lean_tables_hold_the_full_table_values(bundled_eq, bundled_design, loop):
    """Without participation factors the table holds the eigenvalues,
    frequencies and damping ratios of the full one, in its order and bit for
    bit, and no eigenvectors; its least-damped mode has no top participant."""
    a, labels = linearize(bundled_eq), bundled_eq.layout.labels
    if loop == "closed":
        a = closed_loop_matrix(a, bundled_eq.plan,
                               bundled_design[0].gains_for(bundled_eq.layout.machine_ids))
    full = modal_analysis(a, labels)
    worst = min_damping(full)
    lean = modal_analysis(a, labels, participation=False)
    for field in ("eigenvalues", "frequency_hz", "damping_ratio"):
        assert np.array_equal(getattr(lean, field), getattr(full, field))
    assert lean.participation is None and lean.right is None
    m = min_damping(lean)
    assert (m.eigenvalue, m.frequency_hz, m.damping_ratio) == \
        (worst.eigenvalue, worst.frequency_hz, worst.damping_ratio)
    assert m.participation is None and m.top_participant == ""


def test_eigen_residuals(bundled_eq):
    a = linearize(bundled_eq)
    norm_a = np.linalg.norm(a, 2)
    for m in modal_analysis(a):
        res = np.linalg.norm(a @ m.right - m.eigenvalue * m.right)
        assert res <= 1e-8 * norm_a * np.linalg.norm(m.right)


def test_inverse_iteration_class_is_the_eig_class(bundled_case, bundled_areas):
    """The right eigenvector of one inverse-iteration solve gives every
    oscillatory mode the class LAPACK's eigenvector gives it, open loop and
    with the pinned gains: at each stress fraction 0.5, 0.55, ..., 1.15 whose
    power flow converges, and at each connected N-1 outage."""
    gains = pinned_gains()
    points = [scale_stress(bundled_case, round(0.5 + 0.05 * i, 2)) for i in range(14)]
    points += [trip for trip in (apply_line_trip(bundled_case, *br.key())
                                 for br in bundled_case.in_service_branches())
               if not unreachable_buses(trip)]
    analysed = 0
    for case in points:
        try:
            eq = _equilibrium(case)
        except PowerFlowDiverged:
            continue
        analysed += 1
        keys = (eq.layout.speed_indices, bundled_areas)
        a = linearize(eq)
        for m in (a, closed_loop_matrix(a, eq.plan, gains.gains_for(eq.layout.machine_ids))):
            table = classify_table(modal_analysis(m), *keys)
            oscillatory = [mode for mode in table if mode.is_oscillatory]
            assert oscillatory
            for mode in oscillatory:
                v = right_vector(m, mode.eigenvalue)
                assert classify_mode(dataclasses.replace(mode, right=v), *keys) == \
                    mode.classification
    assert analysed == 13 + 4           # x1.15 has no power flow


def _same_outcome(got, want, fields):
    """`got` is `want`: the same error type and message, or equal (==) bit
    for bit in every one of `fields`."""
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want) and type(got.__cause__) is type(want.__cause__)
        return
    for field in fields:
        g, w = field(got), field(want)
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def _alone(build, *args):
    """A single-point call's result, or the error it raises."""
    try:
        return build(*args)
    except (KronReductionError, InitializationError, NonEquilibriumError,
            EigenvectorError) as exc:
        return exc


def test_stacked_points_are_each_point_alone(bundled_case):
    """One stack holds the bundled case at stress fractions 0.9-1.12 (x1.12
    needs a valve opening past 1) and the connected outages of the bundled
    case and of its copy with an uneven 101-13 circuit 2, each point on its
    own network.  Through the stacked Kron reduction (plus a point whose
    elimination block is singular), initialization, linearization (plus a
    point off its equilibrium) and inverse iteration (plus a singular
    shift), each point's outcome is what it gives alone, bit for bit, and
    its error the same error.  The equilibria are also the machine-by-
    machine complex-scalar back-solve's bits."""
    uneven = dataclasses.replace(bundled_case, branches=tuple(
        dataclasses.replace(br, x=0.12) if br.key() == (101, 13, 2) else br
        for br in bundled_case.branches))
    cases = [scale_stress(bundled_case, f) for f in (0.9, 0.95, 1.0, 1.05, 1.1, 1.12)]
    cases += [trip for c in (bundled_case, uneven) for trip in
              (apply_line_trip(c, *br.key()) for br in c.in_service_branches())
              if not unreachable_buses(trip)]
    sols = solve_power_flows(cases)
    assert len(cases) == 6 + 4 + 4 and not any(isinstance(s, Exception) for s in sols)
    model = device_model(bundled_case)

    # Kron reduction; one more point has a bus cut off without a load
    y_loads = [load_admittances(c, s) for c, s in zip(cases, sols)]
    ybuses = [s.ybus for s in sols]
    cut = next(i for i, b in enumerate(bundled_case.buses)
               if b.id not in {m.bus for m in bundled_case.machines})
    island = ybuses[0].copy()
    island[cut, :] = island[:, cut] = 0.0
    loads = y_loads[0].copy()
    loads[cut] = 0.0
    nets = kron_reductions(bundled_case, y_loads + [loads], ybuses + [island])
    kron_fields = [lambda r: r.g, lambda r: r.b, lambda r: r.emf_to_bus]
    for net, case, y_load, ybus in zip(nets, cases + [bundled_case], y_loads + [loads],
                                       ybuses + [island]):
        _same_outcome(net, _alone(kron_reduce, case, y_load, ybus), kron_fields)
    assert isinstance(nets[-1].__cause__, np.linalg.LinAlgError)
    for net, case, y_load in zip(nets, cases, y_loads):
        _same_outcome(net, reference_kron_reduce(case, y_load), kron_fields[:2])
    nets = nets[:-1]

    # initialization: x1.12 stops at machine 3's valve
    eqs = initialize_from_power_flows(cases, sols, nets, model)
    eq_fields = [lambda e: e.state, lambda e: e.plan.c, lambda e: e.plan.vref,
                 lambda e: e.plan.const]
    for eq, case, sol, net in zip(eqs, cases, sols, nets):
        _same_outcome(eq, initialize_from_power_flows([case], [sol], [net], model)[0],
                      eq_fields)
        want = _alone(reference_equilibrium, case, sol, model.layout)
        if isinstance(want, Exception):
            _same_outcome(eq, want, ())
            continue
        n = len(case.machines)
        got = (eq.state, eq.plan.const[:n], eq.plan.const[n:2 * n], eq.plan.vref)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert [type(e).__name__ for e in eqs[4:6]] == ["Equilibrium", "InitializationError"]
    assert str(eqs[5]).startswith("machine 3: equilibrium requires valve opening")

    # linearization; one more point is off its equilibrium
    eqs = [eq for eq in eqs if not isinstance(eq, Exception)]
    off = dataclasses.replace(eqs[0], state=eqs[0].state + 1e-3)
    mats = linearize_points(eqs + [off])
    for a, eq in zip(mats, eqs + [off]):
        _same_outcome(a, _alone(linearize, eq), [lambda a: a])
    assert isinstance(mats[-1], NonEquilibriumError)
    mats = mats[:-1]

    # inverse iteration at each least-damped mode; one more shift is singular
    lams = [min_damping(modal_analysis(a, participation=False)).eigenvalue for a in mats]
    zero = np.zeros_like(mats[0])
    vectors = right_vector(np.array(mats + [zero]), np.array(lams + [0j]))
    for v, a, lam in zip(vectors, mats + [zero], lams + [0j]):
        _same_outcome(v, _alone(right_vector, a, lam), [lambda v: v])
    assert str(vectors[-1]) == "inverse iteration at 0+0j: Singular matrix"


@pytest.mark.parametrize("loop", ["open", "closed"])
def test_inverse_iteration_residuals(bundled_eq, loop):
    """The inverse-iteration vector of every oscillatory mode meets the bound
    `test_eigen_residuals` sets for LAPACK's."""
    a = linearize(bundled_eq)
    if loop == "closed":
        a = closed_loop_matrix(a, bundled_eq.plan,
                               pinned_gains().gains_for(bundled_eq.layout.machine_ids))
    norm_a = np.linalg.norm(a, 2)
    for m in modal_analysis(a):
        if m.is_oscillatory:
            v = right_vector(a, m.eigenvalue)
            res = np.linalg.norm(a @ v - m.eigenvalue * v)
            assert res <= 1e-8 * norm_a * np.linalg.norm(v)


def test_singular_inverse_iteration_is_an_eigenvector_error():
    """A shift that lands on an eigenvalue exactly makes the solve singular:
    that is an EigenvectorError naming the eigenvalue."""
    omega = 2.0
    a = omega * (1.0 + INVERSE_ITERATION_SHIFT) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(EigenvectorError, match="inverse iteration at 0\\+2j"):
        right_vector(a, complex(0.0, omega))


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
    cls = classify_mode(m, np.array([0, 1]), [0, 1])
    assert cls == INTER_AREA


def test_classify_same_area_is_local():
    m = _mode_with_speed_shape([1.0, -0.9, 0.05, 0.04])
    cls = classify_mode(m, np.array([0, 1, 2, 3]), [0, 0, 1, 1])
    assert cls == LOCAL


def test_classify_low_speed_content_is_control():
    n = 10
    v = np.ones(n, dtype=complex)
    v[:2] = 0.01
    m = Mode(eigenvalue=-1 + 10j, frequency_hz=10 / (2 * np.pi),
             damping_ratio=0.1, right=v, participation=np.ones(n) / n)
    assert classify_mode(m, np.array([0, 1]), [0, 1]) == CONTROL


def test_classify_real_mode():
    m = Mode(eigenvalue=complex(-2.0), frequency_hz=0.0, damping_ratio=1.0,
             right=np.ones(3, dtype=complex), participation=np.ones(3) / 3)
    assert classify_mode(m, np.array([0]), [0]) == REAL


def test_classify_invariant_to_eigenvector_scaling():
    rng = np.random.default_rng(0)
    for _ in range(10):
        scale = rng.standard_normal() + 1j * rng.standard_normal()
        m1 = _mode_with_speed_shape([1.0, -0.8 + 0.1j])
        m2 = _mode_with_speed_shape([scale * 1.0, scale * (-0.8 + 0.1j)])
        args = (np.array([0, 1]), [0, 1])
        assert classify_mode(m1, *args) == classify_mode(m2, *args)


def test_bundled_interarea_band(bundled_eq, bundled_areas):
    a = linearize(bundled_eq)
    table = classify_table(modal_analysis(a, bundled_eq.layout.labels),
                           bundled_eq.layout.speed_indices,
                           bundled_areas)
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


def test_mode_csv_shape(bundled_text, bundled_eq, tmp_path):
    """`modal` writes modes.csv with a header and one line per mode of the
    open-loop table."""
    from oscdamp.cli import main
    case = tmp_path / "two_area.json"
    case.write_text(bundled_text)
    assert main(["modal", "--case", str(case), "--out", str(tmp_path / "out")]) == 0
    table = modal_analysis(linearize(bundled_eq), bundled_eq.layout.labels)
    lines = (tmp_path / "out" / "modes.csv").read_text().strip().splitlines()
    assert lines[0] == "re,im,freq_hz,damping_pct,class,top_participant"
    assert len(lines) == len(table.modes) + 1


def test_zero_eigenvalue_sign_is_not_reported():
    """A structural zero eigenvalue reads the same whichever sign roundoff
    gave it, in the row and CSV line a report writes for it: a -0.0 would
    show."""
    from oscdamp.cli import _MODE_COLUMNS, _csv, _mode_dict
    rng = np.random.default_rng(8)
    t = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    zero_lines = []
    for eps in (1e-9, -1e-9):
        core = np.diag([0.0, 0.0, eps, -2.0])
        core[:2, :2] = [[-0.1, 4.0], [-4.0, -0.1]]
        a = t @ core @ np.linalg.inv(t)
        rows = [_mode_dict(m) for m in modal_analysis(a, ("a", "b", "c", "d"))]
        lines = _csv(_MODE_COLUMNS, rows).splitlines()[1:]
        zero_lines += [line for line, r in zip(lines, rows)
                       if abs(complex(r["re"], r["im"])) < ZERO_EIGENVALUE_TOL]
    assert len(zero_lines) == 2 and zero_lines[0] == zero_lines[1]
    assert zero_lines[0].startswith("0.0,0.0,0.0,100.0,,")
