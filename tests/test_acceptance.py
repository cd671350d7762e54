"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities.  Tolerances are fixed here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from oscdamp import kernels
from oscdamp.case import scale_stress, apply_line_trip
from oscdamp.powerflow import solve_power_flow, load_admittances, kron_reduce
from oscdamp.dynamics import initialize_from_power_flow, build_design_matrices
from oscdamp.smallsignal import (linearize, modal_analysis, classify_table,
                                 min_damping)
from oscdamp.synthesis import coupling_bounds, coupling_rows, verify_bound
from oscdamp.simulator import Scenario, Event, simulate, measure
from oscdamp.areas import two_areas, tie_flow_mw
from oscdamp.lmi import LmiProblem, Term, solve_sdp, check_solution, export_sdpa
from lmi_reference import read_sdpa

BAND = (0.1, 3.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _closed_loop(eq, controllers):
    """The controllers in service wherever a gain row is nonzero, referenced
    to the equilibrium."""
    gains = controllers.gains_for(eq.layout.machine_ids)
    return kernels.Control(gains, eq.plan.design_states(eq.state),
                           np.any(gains != 0.0, axis=1).astype(float))


def _min_mode(case, controllers=None, areas=None):
    sol = solve_power_flow(case)
    red = kron_reduce(case, load_admittances(case, sol))
    eq = initialize_from_power_flow(case, sol, red)
    control = None if controllers is None else _closed_loop(eq, controllers)
    table = modal_analysis(linearize(eq, control), eq.layout.labels)
    if areas is not None:
        classify_table(table, eq.layout.speed_indices, areas)
    return min_damping(table, *BAND), sol


def test_criterion_1_base_case_structure(bundled_case, bundled_areas):
    t0 = time.monotonic()
    worst, _ = _min_mode(bundled_case, areas=bundled_areas)
    elapsed = time.monotonic() - t0
    ok = (worst.classification == "inter_area"
          and 0.4 <= worst.frequency_hz <= 0.8
          and 0.02 <= worst.damping_ratio <= 0.12
          and elapsed < 5.0)
    _report(1, ok, f"baseline minimum mode {worst.frequency_hz:.3f} Hz, "
                   f"zeta {100 * worst.damping_ratio:.2f}%, "
                   f"{worst.classification}, runtime {elapsed:.2f} s")


def test_criterion_2_robust_improvement(bundled_case, bundled_eq, bundled_areas):
    from oscdamp.synthesis import design_controllers
    worst_base, _ = _min_mode(bundled_case, areas=bundled_areas)
    t0 = time.monotonic()
    ctrl, res = design_controllers(bundled_case, bundled_eq)
    worst_rob, _ = _min_mode(bundled_case, ctrl, bundled_areas)
    elapsed = time.monotonic() - t0
    z0, z1 = worst_base.damping_ratio, worst_rob.damping_ratio
    ok = (z1 >= 2.0 * z0 and z1 >= 0.15 and elapsed < 30.0)
    _report(2, ok, f"minimum zeta {100 * z0:.2f}% -> {100 * z1:.2f}% "
                   f"({z1 / z0:.2f}x), runtime {elapsed:.1f} s incl. SDP solve")


def test_criterion_3_topology_robustness(bundled_case, bundled_design,
                                         bundled_areas):
    ctrl, _ = bundled_design
    stressed = scale_stress(bundled_case, 1.0558)
    tripped = apply_line_trip(stressed, 3, 101, 1)
    pre, _ = _min_mode(stressed)
    post, _ = _min_mode(tripped)
    post_rob, _ = _min_mode(tripped, ctrl)
    drop = 100 * (pre.damping_ratio - post.damping_ratio)
    ok = (drop >= 2.0 and post_rob.damping_ratio >= 0.10)
    _report(3, ok, f"baseline zeta {100 * pre.damping_ratio:.2f}% -> "
                   f"{100 * post.damping_ratio:.2f}% after the trip "
                   f"(drop {drop:.2f} points); robust keeps "
                   f"{100 * post_rob.damping_ratio:.2f}%")


def test_criterion_4_stress_sweep(bundled_case, bundled_design):
    ctrl, _ = bundled_design
    fractions = [0.90, 0.9333, 0.9667, 1.0, 1.0333, 1.0667, 1.10]
    ties, z_base, z_rob = [], [], []
    for f in fractions:
        stressed = scale_stress(bundled_case, f)
        worst, sol = _min_mode(stressed)
        ties.append(tie_flow_mw(stressed, sol, two_areas(stressed)[1]))
        z_base.append(worst.damping_ratio)
        worst_r, _ = _min_mode(stressed, ctrl)
        z_rob.append(worst_r.damping_ratio)
    rho = scipy.stats.spearmanr(ties, z_base).statistic
    ok = (rho <= -0.8 and min(z_rob) >= 0.05)
    _report(4, ok, f"{len(fractions)} points, spearman(tie, zeta) = {rho:.3f}, "
                   f"robust floor {100 * min(z_rob):.2f}%")


def test_criterion_5_activation_scenario(bundled_case, bundled_design):
    ctrl, _ = bundled_design
    stressed = scale_stress(bundled_case, 1.0558)
    scenario = Scenario(duration=30.0, dt=0.005,
                        events=(Event(1.0, "trip_line", (3, 101, 1)),
                                Event(10.0, "activate_controllers", ("all",))),
                        initial_active="none")
    t0 = time.monotonic()
    res = simulate(stressed, ctrl, scenario)
    elapsed = time.monotonic() - t0
    d31 = measure(res, "delta_rel:3:1")
    early = d31[(res.time >= 5.0) & (res.time <= 10.0)]
    late = d31[(res.time >= 20.0) & (res.time <= 30.0)]
    ratio = np.ptp(late) / np.ptp(early)
    ok = (not res.divergent and ratio < 0.25 and elapsed < 60.0)
    _report(5, ok, f"peak-to-peak of delta3-delta1: {np.ptp(early):.4f} rad on "
                   f"[5,10] s -> {np.ptp(late):.5f} rad on [20,30] s "
                   f"(ratio {ratio:.4f}); runtime {elapsed:.1f} s at dt=5 ms")


def test_criterion_6_bound_soundness(bundled_red, bundled_eq):
    e_max_q = 1.3 * np.abs(bundled_eq.eqp)
    e_max_d = np.maximum(1.3 * np.abs(bundled_eq.edp), 0.1)
    bounds = coupling_bounds(bundled_red, e_max_q, e_max_d)
    violations = verify_bound(bounds, bundled_red, bundled_eq.delta,
                              samples=100_000, angle_range=np.pi / 3, seed=0)
    rows = coupling_rows(bounds)
    w = bounds.scaled_total
    rng = np.random.default_rng(1)
    worst_residual = 0.0
    for _ in range(1000):
        dx = rng.standard_normal(20)
        dd = dx[np.arange(4) * 5]
        for i in range(4):
            lhs = float(dx @ rows[i].T @ rows[i] @ dx)
            rhs = float(sum(w[i, j] * (dd[i] - dd[j]) ** 2 for j in range(4)))
            worst_residual = max(worst_residual,
                                 abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = (violations == 0 and worst_residual <= 1e-12)
    _report(6, ok, f"{violations} bound violations in 1e5 samples; "
                   f"coupling-row identity residual {worst_residual:.2e}")


def test_criterion_7_numerical_cross_checks(bundled_case, bundled_eq,
                                            bundled_design):
    ctrl, res = bundled_design
    checks = []

    # analytic design matrices vs central-difference Jacobians
    from model_reference import rotor_rhs, governor_turbine_rhs
    w0 = bundled_case.omega0
    worst_rel = 0.0
    for m in bundled_case.machines:
        gov = bundled_case.governor_for(m.id)
        dm = build_design_matrices(m, gov, w0)
        rng = np.random.default_rng(m.id)
        x0 = rng.standard_normal(5)

        def rhs(x):
            dd, dw = rotor_rhs(x[0], x[1], x[2], 0.6, m.h, m.d, w0)
            dp, dxm, dxe = governor_turbine_rhs(x[2], x[3], x[4], x[1], 0.55,
                                                gov, w0)
            return np.array([dd, dw, dp, dxm, dxe])

        for j in range(5):
            h = 1e-6 * max(1.0, abs(x0[j]))
            xp, xm_ = x0.copy(), x0.copy()
            xp[j] += h
            xm_[j] -= h
            col = (rhs(xp) - rhs(xm_)) / (2 * h)
            denom = np.maximum(np.abs(dm.a[:, j]), 1.0)
            worst_rel = max(worst_rel, float(np.max(np.abs(col - dm.a[:, j]) / denom)))
    checks.append(("design matrices vs FD", worst_rel <= 1e-6,
                   f"{worst_rel:.2e}"))

    # modal eigen-residuals
    a_full = linearize(bundled_eq)
    norm_a = np.linalg.norm(a_full, 2)
    worst_eig = max(np.linalg.norm(a_full @ m.right - m.eigenvalue * m.right)
                    / (norm_a * np.linalg.norm(m.right))
                    for m in modal_analysis(a_full))
    checks.append(("eigen residuals", worst_eig <= 1e-8, f"{worst_eig:.2e}"))

    # SDP solution certified independently, plus an SDPA round-trip cross-check
    chk = check_solution(res.lmi.problem, res.solution)
    toy = LmiProblem()
    toy.add_scalar("t")
    toy.objective["t"] = 1.0
    con = toy.add_constraint("psd", 2, const=[[0.0, 1.0], [1.0, 0.0]])
    con.terms.append(Term("t", np.eye(2), np.eye(2)))
    rt = solve_sdp(read_sdpa(export_sdpa(toy)))
    sdp_ok = (min(chk.min_eigs) >= -1e-9 and rt.status == "optimal"
              and abs(rt.values["x1"] - 1.0) <= 1e-5)
    checks.append(("SDP certification + SDPA cross-check", sdp_ok,
                   f"min block eig {min(chk.min_eigs):.2e}, toy optimum "
                   f"{rt.values['x1']:.8f}"))

    # RK4 empirical order on a smooth disturbed run
    finals = []
    for dt in (0.02, 0.01, 0.005):
        r = simulate(bundled_case, None,
                     Scenario(duration=2.0, dt=dt,
                              events=(Event(0.2, "step_load", (4, 30.0, 10.0)),)))
        finals.append(r.states[-1])
    order = math.log2(np.linalg.norm(finals[0] - finals[1])
                      / np.linalg.norm(finals[1] - finals[2]))
    checks.append(("RK4 empirical order", order >= 3.7, f"{order:.2f}"))

    # closed-loop convergence from 50 random perturbed starts, integrated as one stack
    control = _closed_loop(bundled_eq, ctrl)
    rng = np.random.default_rng(42)
    starts = []
    for _ in range(50):
        d = rng.standard_normal(bundled_eq.state.size)
        d *= 0.1 / np.linalg.norm(d)
        starts.append(bundled_eq.state + d)
    y = np.array(starts)
    net = bundled_eq.network
    bad = kernels.rk4_span(y, 0.005, 6000, bundled_eq.plan.bind(net.g, net.b, control))
    diverged = bad >= 0
    worst_dev = float(np.max(np.linalg.norm(y - bundled_eq.state, axis=1)))
    checks.append(("50-perturbation convergence", not diverged and worst_dev < 1e-3,
                   f"worst residual {worst_dev:.2e} after 30 s"))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name} {'ok' if good else 'FAILED'} ({info})"
                       for name, good, info in checks)
    _report(7, ok, detail)


def test_criterion_8_n1_scan_contract(bundled_case, bundled_design,
                                      bundled_areas):
    ctrl, _ = bundled_design
    rows = []
    for br in bundled_case.in_service_branches():
        tripped = apply_line_trip(bundled_case, *br.key())
        row = {"branch": br.key()}
        try:
            worst, _ = _min_mode(tripped)
            worst_r, _ = _min_mode(tripped, ctrl)
            row.update(converged=True,
                       zeta_baseline=worst.damping_ratio,
                       zeta_robust=worst_r.damping_ratio)
        except Exception as exc:
            row.update(converged=False, error=type(exc).__name__)
        rows.append(row)
    n_conv = sum(1 for r in rows if r["converged"])
    improved = all(r["zeta_robust"] > r["zeta_baseline"]
                   for r in rows if r["converged"])
    ok = (len(rows) == 14 and n_conv >= 1 and improved
          and all("converged" in r for r in rows))
    _report(8, ok, f"{len(rows)} outages scanned, {n_conv} converged, "
                   f"robust beats baseline on every converged row: {improved}")
