import math

import numpy as np
import pytest

from oscdamp import kernels
from oscdamp.case import CaseError
from oscdamp.powerflow import (ReducedNetwork, solve_power_flow, load_admittances,
                               kron_reduce)
from oscdamp.dynamics import initialize_from_power_flow
from oscdamp.synthesis import (SynthesisError, coupling_bounds, coupling_rows,
                               coupling_disturbance, verify_bound,
                               design_controllers, ControllerSet)


def test_coupling_weights_decoupled():
    red = ReducedNetwork(g=np.zeros((3, 3)), b=np.zeros((3, 3)),
                         machine_ids=(1, 2, 3))
    b = coupling_bounds(red, np.ones(3), np.ones(3))
    assert np.all(b.total == 0.0)


def test_coupling_weights_two_machine_hand_value():
    bij = 0.7
    e = 1.2
    red = ReducedNetwork(g=np.zeros((2, 2)),
                         b=np.array([[0.0, bij], [bij, 0.0]]),
                         machine_ids=(1, 2))
    bounds = coupling_bounds(red, np.array([e, e]), np.zeros(2))
    # lone q-axis component: 4 e^2 * e * |b| * (e * |b|)
    assert bounds.w_qq[0, 1] == pytest.approx(4 * e ** 4 * bij ** 2, rel=1e-12)
    assert np.all(bounds.w_qd == 0)
    assert np.all(bounds.w_dq == 0)
    assert np.all(bounds.w_dd == 0)
    assert bounds.w_qq[0, 0] == 0.0


def test_coupling_weights_monotone_in_susceptance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b0 = np.abs(rng.standard_normal((3, 3)))
        b0 = 0.5 * (b0 + b0.T)
        red1 = ReducedNetwork(g=np.zeros((3, 3)), b=b0, machine_ids=(1, 2, 3))
        b1 = b0.copy()
        b1[0, 1] = b1[1, 0] = b1[0, 1] * (1.0 + rng.random())
        red2 = ReducedNetwork(g=np.zeros((3, 3)), b=b1, machine_ids=(1, 2, 3))
        eq = 1.0 + rng.random(3)
        ed = rng.random(3)
        w1 = coupling_bounds(red1, eq, ed).total
        w2 = coupling_bounds(red2, eq, ed).total
        assert np.all(w2 + 1e-15 >= w1)
        assert np.all(w1 >= 0)


def test_rows_vanish_without_coupling():
    red = ReducedNetwork(g=np.zeros((2, 2)), b=np.zeros((2, 2)),
                         machine_ids=(1, 2))
    rows = coupling_rows(coupling_bounds(red, np.ones(2), np.ones(2)))
    assert all(r.shape[0] == 0 for r in rows)


def test_rows_reproduce_quadratic_form(bundled_red, bundled_eq):
    e_max_q = 1.3 * np.abs(bundled_eq.eqp)
    e_max_d = np.maximum(1.3 * np.abs(bundled_eq.edp), 0.1)
    scale = np.array([100.0 / 900.0] * 4)
    bounds = coupling_bounds(bundled_red, e_max_q, e_max_d, power_scale=scale)
    rows = coupling_rows(bounds)
    w = bounds.scaled_total
    rng = np.random.default_rng(1)
    for _ in range(1000):
        dx = rng.standard_normal(20)
        dd = dx[np.arange(4) * 5]
        for i in range(4):
            lhs = float(dx @ rows[i].T @ rows[i] @ dx)
            rhs = float(sum(w[i, j] * (dd[i] - dd[j]) ** 2 for j in range(4)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_rows_permutation_consistency(bundled_red, bundled_eq):
    e_max_q = 1.3 * np.abs(bundled_eq.eqp)
    e_max_d = np.maximum(1.3 * np.abs(bundled_eq.edp), 0.1)
    bounds = coupling_bounds(bundled_red, e_max_q, e_max_d)
    rows_sub = coupling_rows(bounds, subset=[2, 0])
    # machine 2 is local index 0 in the permuted stack; identity still holds
    rng = np.random.default_rng(2)
    dx = rng.standard_normal(10)
    dd = dx[[0, 5]]
    w = bounds.scaled_total[np.ix_([2, 0], [2, 0])]
    lhs = float(dx @ rows_sub[0].T @ rows_sub[0] @ dx)
    assert lhs == pytest.approx(w[0, 1] * (dd[0] - dd[1]) ** 2, rel=1e-12)


def test_disturbance_zero_at_equilibrium(bundled_red, bundled_eq):
    h = coupling_disturbance(bundled_red, bundled_eq.delta,
                             bundled_eq.delta[None], bundled_eq.eqp[None],
                             bundled_eq.edp[None])
    assert np.allclose(h, 0.0, atol=1e-12)


def test_verify_bound_clean_on_bundled(bundled_red, bundled_eq):
    e_max_q = 1.3 * np.abs(bundled_eq.eqp)
    e_max_d = np.maximum(1.3 * np.abs(bundled_eq.edp), 0.1)
    bounds = coupling_bounds(bundled_red, e_max_q, e_max_d)
    assert verify_bound(bounds, bundled_red, bundled_eq.delta,
                        samples=20000, seed=3) == 0


def test_verify_bound_falsification():
    """A deep cut in the weights must surface violations.

    The four-way component split gives the formal bound a structural margin
    of about 4x in power (so halving the weights still cannot be violated);
    a 0.2 factor crosses the tight envelope near an in-phase configuration.
    """
    red = ReducedNetwork(g=np.zeros((2, 2)),
                         b=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         machine_ids=(1, 2))
    bounds = coupling_bounds(red, np.ones(2), np.zeros(2) + 1e-9)
    delta_eq = np.zeros(2)
    assert verify_bound(bounds, red, delta_eq, samples=30000, seed=4,
                        angle_range=0.3) == 0
    assert verify_bound(bounds, red, delta_eq, samples=30000, seed=4,
                        angle_range=0.3, weight_factor=0.5) == 0
    assert verify_bound(bounds, red, delta_eq, samples=30000, seed=4,
                        angle_range=0.3, weight_factor=0.2) > 0


def test_single_machine_design_solvable(two_bus_case):
    sol = solve_power_flow(two_bus_case)
    red = kron_reduce(two_bus_case, load_admittances(two_bus_case, sol))
    eq = initialize_from_power_flow(two_bus_case, sol, red)
    ctrl, res = design_controllers(two_bus_case, eq, bound_scale=1.0)
    assert res.solution.status == "optimal"
    # one machine has no coupling rows: no gamma, no margin block, and a
    # finite objective; gamma reads 0
    assert "gamma0" not in {v.name for v in res.lmi.problem.variables}
    assert not any(c.name.startswith("margin") for c in res.lmi.problem.constraints)
    assert 0.0 < res.solution.objective < 1e6
    assert res.summary()["gamma"] == {"1": 0.0}
    eigs = res.closed_loop_eigs[1]
    assert np.max(eigs.real) < 0.0
    assert np.any(ctrl.gains[0] != 0.0)


def test_subset_design_structure(bundled_case, bundled_eq):
    ctrl, res = design_controllers(bundled_case, bundled_eq,
                                   subset=[2, 3])
    assert res.lmi.subset == (2, 3)
    ids = list(ctrl.machine_ids)
    assert np.any(ctrl.gains[ids.index(2)] != 0.0)
    assert np.any(ctrl.gains[ids.index(3)] != 0.0)
    assert np.all(ctrl.gains[ids.index(1)] == 0.0)
    assert np.all(ctrl.gains[ids.index(4)] == 0.0)
    # variables for excluded machines are absent from the LMI
    names = {v.name for v in res.lmi.problem.variables}
    assert "Y2" not in names or len(res.lmi.subset) > 2 or "Y1" in names
    assert len([n for n in names if n.startswith("Y")]) == 2


def test_governorless_machine_rejected(bundled_case, bundled_eq):
    import dataclasses
    stripped = dataclasses.replace(
        bundled_case,
        governors=tuple(g for g in bundled_case.governors if g.machine != 4))
    with pytest.raises(CaseError, match="machine 4"):
        design_controllers(stripped, bundled_eq, subset=[1, 4])


def test_design_refuses_uncertified_solution(bundled_case, bundled_eq, uncertified_solve):
    """The check of the solution gates the gains: a point that fails it
    gives no controllers, and the error names the block and its eigenvalue."""
    with pytest.raises(SynthesisError, match=r"block margin0 has smallest eigenvalue -1\.0"):
        design_controllers(bundled_case, bundled_eq)


def test_gain_locality(bundled_design):
    ctrl, res = bundled_design
    for i, mid in enumerate(res.lmi.subset):
        y = res.solution.values[f"Y{i}"]
        l_row = np.array([res.solution.values[f"L{i}_{k}"] for k in range(5)])
        rebuilt = l_row @ np.linalg.inv(y)
        # the deployed gain derives only from machine mid's own blocks,
        # modulo the internal per-unit speed scaling
        scale = np.array([1.0, 2 * math.pi * 60, 1.0, 1.0, 1.0])
        assert np.allclose(res.gains[i], rebuilt / scale, rtol=1e-12)
        assert np.array_equal(res.gains[i], ctrl.gains_for((mid,))[0])


def test_zero_gain_zero_control(bundled_design, bundled_eq):
    """The governor feedback the simulator evaluates is zero at the operating
    point's own equilibrium, the reference it acts about: the design states
    the plan reads from the state."""
    ctrl, _ = bundled_design
    lay, y = bundled_eq.layout, bundled_eq.state
    x5 = np.array([[y[lay.idx(m, s)] for s in ("delta", "omega", "pm", "xm", "xe")]
                   for m in lay.machine_ids])     # every bundled machine is governed
    xref = bundled_eq.plan.design_states(y)
    assert np.array_equal(xref, x5)
    assert np.all(kernels.feedback(ctrl.gains, x5 - xref) == 0.0)


def test_closed_loop_hurwitz(bundled_design):
    _, res = bundled_design
    for eigs in res.closed_loop_eigs.values():
        assert np.max(eigs.real) < 0.0


def test_controller_set_round_trip(bundled_design):
    ctrl, _ = bundled_design
    doc = ctrl.to_dict()
    assert set(doc) == {"machine_ids", "gains"}
    # files written before the reference was dropped still carry x_ref
    for d in (doc, {**doc, "x_ref": np.zeros((4, 5)).tolist()}):
        again = ControllerSet.from_dict(d)
        assert again.machine_ids == ctrl.machine_ids
        assert np.array_equal(again.gains, ctrl.gains)


def test_synthesis_summary_fields(bundled_design):
    _, res = bundled_design
    s = res.summary()
    assert s["status"] == "optimal"
    assert s["bound_scale"] == pytest.approx(0.01)
    assert s["closed_loop_max_re"] < 0
    assert len(s["gains"]) == 4
