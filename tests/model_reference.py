"""Elementary forms of the model equations, written here from the device
equations as the independent reference for the operator form in
:mod:`oscdamp.kernels` (scalar arguments; one machine at a time), and the
allocating evaluation of that operator form (``reference_network``,
``reference_phi``, ``reference_bind``, ``reference_rk4_span``): each step a
new array, as the workspace evaluator must reproduce bit for bit.  The Kron
reduction's augmented-matrix form (``reference_kron_reduce``) is the
reference for the block form of :func:`oscdamp.powerflow.kron_reduce`, and
the one-case Newton loop (``reference_power_flow``) the reference for the
stacked iteration of :func:`oscdamp.powerflow.solve_power_flows`.  The
machine-by-machine back-solve on complex scalars (``reference_equilibrium``)
is the reference for the real-part arithmetic over points × machines of
:func:`oscdamp.dynamics.initialize_from_power_flows`."""

import math

import numpy as np

from oscdamp.kernels import DIVERGENCE_LIMIT, network_operator
from oscdamp.case import PowerSystemCase
from oscdamp.powerflow import (PowerFlowDiverged, PowerFlowSolution, ReducedNetwork,
                               _scheduled_injections, build_ybus,
                               machine_internal_admittances)
from oscdamp.dynamics import InitializationError, _machine_outputs


def network_currents(delta, eqp, edp, gmat, bmat):
    """EMF components in the synchronous frame, the reduced-network currents
    and their d/q projections, per machine over the last axis."""
    sd, cd = np.sin(delta), np.cos(delta)
    e_re = edp * sd + eqp * cd
    e_im = eqp * sd - edp * cd
    i_re = e_re @ gmat.T - e_im @ bmat.T
    i_im = e_im @ gmat.T + e_re @ bmat.T
    i_d = i_re * sd - i_im * cd
    i_q = i_re * cd + i_im * sd
    return e_re, e_im, i_re, i_im, i_d, i_q


def rotor_rhs(delta, omega_r, pm, pe, h, d, omega0):
    d_delta = omega_r
    d_omega = -(d / (2 * h)) * omega_r + (omega0 / (2 * h)) * (pm - pe)
    return d_delta, d_omega


def governor_turbine_rhs(pm, xm, xe, omega_r, pc, gov, omega0):
    ke, te, t3, t4, t5, tm, r = gov.ke, gov.te, gov.t3, gov.t4, gov.t5, gov.tm, gov.r
    d_pm = (-ke * t3 * t4 / (tm * te * t5 * r * omega0) * omega_r
            - pm / t5 + (1 - t4 / tm) * xm / t5
            + t4 / (tm * t5) * (1 - t3 / te) * xe
            + t3 * t4 / (tm * te * t5) * pc)
    d_xm = (-ke * t3 / (tm * te * r * omega0) * omega_r
            - xm / tm + (1 - t3 / te) * xe / tm + t3 / (tm * te) * pc)
    d_xe = -ke / (te * r * omega0) * omega_r - xe / te + pc / te
    return d_pm, d_xm, d_xe


def two_axis_rhs(eqp, edp, i_d, i_q, efd, xd, xq, xdp, xqp, td0p, tq0p):
    d_eqp = (-eqp - (xd - xdp) * i_d + efd) / td0p
    d_edp = (-edp + (xq - xqp) * i_q) / tq0p
    return d_eqp, d_edp


def electrical_power(reduced, delta, eqp, edp):
    """Per-machine electrical power (system base) from the reduced network.

    Four-term EMF product form evaluated at absolute angles; the transient
    saliency correction is not part of this quantity.
    """
    *_, i_d, i_q = network_currents(delta, eqp, edp, reduced.g, reduced.b)
    return edp * i_d + eqp * i_q


# --- the allocating operator form --------------------------------------------

def _clip(x, lo, hi):
    c = np.minimum(np.maximum(x.real, lo), hi)
    return c if x.dtype.kind != "c" else np.where(c == x.real, x, c)


def _sincos(x):
    if x.dtype.kind != "c":
        return np.sin(x), np.cos(x)
    sa, ca, chb, shb = np.sin(x.real), np.cos(x.real), np.cosh(x.imag), np.sinh(x.imag)
    return sa * chb + 1j * (ca * shb), ca * chb - 1j * (sa * shb)


def _modulus(re, im):
    return np.hypot(re, im) if re.dtype.kind != "c" else np.sqrt(re * re + im * im)


def reference_network(plan, y, net):
    """EMFs, currents ``[i_re, i_im, i_im, -i_re]``, their d/q projections,
    the electrical power and the PSS outputs of ``y`` through the plan's
    gathers, each a new array."""
    n = plan.sout.size
    v = y @ plan.pre
    s, c = _sincos(v[..., :2 * n])
    e = v[..., 2 * n:4 * n] * s + v[..., 4 * n:6 * n] * c
    i = e @ net
    idq = i[..., :2 * n] * s - i[..., 2 * n:] * c
    p = v[..., 2 * n:4 * n] * idq
    pe = p[..., :n] + p[..., n:] + plan.xq_corr * idq[..., :n] * idq[..., n:]
    return e, i, idq, pe, v[..., 6 * n:]


def reference_phi(plan, y, net):
    """φ = pe, [i_d, i_q], efd_cmd of ``y``, each a new array."""
    e, i, idq, pe, y3 = reference_network(plan, y, net)
    n = pe.shape[-1]
    vt = e + plan.xdp2 * i[..., 2 * n:]
    vt = _modulus(vt[..., :n], vt[..., n:])
    vpss = _clip(y3, plan.vsmin, plan.vsmax)
    return pe, idq, _clip(plan.ka * (plan.vref - vt + vpss), plan.efdmin, plan.efdmax)


def reference_bind(plan, gmat, bmat, control=None):
    """The RHS ``y -> dy`` of the plan, allocating every intermediate."""
    mt, c = plan.m.T, plan.c
    if control is not None:
        fb = plan.feedback_matrix(control.active[:, None] * control.gains)
        xs = np.zeros(c.size)
        xs[plan.ix5_gov] = control.xref[plan.gov]
        m = plan.m.copy()
        m[:, :c.size] += fb
        mt, c = m.T, c - fb @ xs
    net, ix_xe = network_operator(gmat, bmat), plan.ix_xe

    def f(y):
        dy = np.concatenate((y, *reference_phi(plan, y, net)), axis=-1) @ mt + c
        xe = y[..., ix_xe].real
        if np.minimum.reduce(np.minimum(xe, 1.0 - xe), axis=None, initial=np.inf) <= 0.0:
            d = dy[..., ix_xe].real
            hold = ((xe >= 1.0) & (d > 0.0)) | ((xe <= 0.0) & (d < 0.0))
            dy[..., ix_xe] = np.where(hold, 0.0, dy[..., ix_xe])
        return dy
    return f


def reference_rk4_span(y, h, nsteps, plan, gmat, bmat, control=None, out=None):
    """RK4 on :func:`reference_bind`'s RHS with the valve clamp and the
    divergence check of :func:`oscdamp.kernels.rk4_span`."""
    f = reference_bind(plan, gmat, bmat, control)
    ix_xe = plan.ix_xe
    shut, open_ = np.zeros(ix_xe.size), np.ones(ix_xe.size)
    half, sixth = 0.5 * h, h / 6.0
    for k in range(nsteps):
        k1 = f(y)
        k2 = f(y + half * k1)
        k3 = f(y + half * k2)
        k4 = f(y + h * k3)
        y += sixth * (k1 + k4 + 2.0 * (k2 + k3))
        y[..., ix_xe] = np.minimum(np.maximum(y[..., ix_xe], shut), open_)
        if not np.maximum.reduce(np.abs(y), axis=None) < DIVERGENCE_LIMIT:
            return k
        if out is not None:
            out[k] = y
    return -1


def reference_kron_reduce(case, y_load, ybus=None):
    """The Kron reduction over the augmented admittance: Ybus plus the load
    shunts, and one internal node per machine joined to its bus by 1/(j x'd),
    filled machine by machine; the three blocks are read back out of it."""
    if ybus is None:
        ybus = build_ybus(case)
    n = len(case.buses)
    m = len(case.machines)
    y_int = machine_internal_admittances(case)

    aug = np.zeros((n + m, n + m), dtype=complex)
    aug[:n, :n] = ybus + np.diag(y_load)
    for k, mach in enumerate(case.machines):
        i = [b.id for b in case.buses].index(mach.bus)
        kk = n + k
        aug[kk, kk] += y_int[k]
        aug[i, i] += y_int[k]
        aug[kk, i] -= y_int[k]
        aug[i, kk] -= y_int[k]

    keep = np.arange(n, n + m)
    elim = np.arange(n)
    y_kk = aug[np.ix_(keep, keep)]
    y_ke = aug[np.ix_(keep, elim)]
    y_ee = aug[np.ix_(elim, elim)]
    x = np.linalg.solve(y_ee, y_ke.T)
    reduced = y_kk - y_ke @ x
    return ReducedNetwork(g=reduced.real.copy(), b=reduced.imag.copy(), emf_to_bus=-x)


def reference_power_flow(case: PowerSystemCase, tol: float = 1e-10,
                         max_iter: int = 25) -> PowerFlowSolution:
    """Full Newton power flow in polar coordinates from a flat start.

    Raises PowerFlowDiverged when the iteration cap is hit or the update
    produces non-finite voltages (infeasible operating point).
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    y = build_ybus(case)
    n = len(case.buses)
    kinds = [b.kind for b in case.buses]
    slack = [i for i, k in enumerate(kinds) if k == "slack"]
    if len(slack) != 1:
        raise ValueError(f"expected exactly one slack bus, found {len(slack)}")
    pv = np.array([i for i, k in enumerate(kinds) if k == "pv"], dtype=int)
    pq = np.array([i for i, k in enumerate(kinds) if k == "pq"], dtype=int)
    pvpq = np.concatenate([pv, pq]).astype(int)

    s_spec, vset = _scheduled_injections(case)
    vm = np.ones(n)
    va = np.zeros(n)
    vm[pv] = vset[pv]
    vm[slack[0]] = vset[slack[0]]
    va[slack[0]] = 0.0

    # the Jacobian's rows (P at pv and pq buses, Q at pq buses) and columns
    # (angle at pv and pq buses, magnitude at pq buses) as flat indexes into
    # the interleaved real views of dS/dva and dS/dvm, row-major (n, 2n):
    # entry (i, j) has its real part at 2 n i + 2 j and its imaginary one next
    row = np.concatenate((2 * n * pvpq, 2 * n * pq + 1))[:, None]
    at_va, at_vm = row + 2 * pvpq, row + 2 * pq

    def mismatch(vc):
        s_calc = vc * np.conj(y @ vc)
        ds = s_calc - s_spec
        return np.concatenate([ds.real[pvpq], ds.imag[pq]])

    iterations = 0
    vc = vm * np.exp(1j * va)
    g = mismatch(vc)
    max_mis = float(np.max(np.abs(g))) if g.size else 0.0
    while not max_mis <= tol:          # NaN too: the guard below raises
        if iterations >= max_iter or not np.isfinite(max_mis):
            raise PowerFlowDiverged(iterations, max_mis)
        # MATPOWER-style complex power flow Jacobian, split into real blocks
        ibus = y @ vc
        diag_v = np.diag(vc)
        diag_i = np.diag(ibus)
        diag_e = np.diag(vc / np.abs(vc))
        ds_dva = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
        ds_dvm = diag_v @ np.conj(y @ diag_e) + np.conj(diag_i) @ diag_e
        jac = np.concatenate((ds_dva.view(float).take(at_va),
                              ds_dvm.view(float).take(at_vm)), axis=1)
        try:
            dx = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowDiverged(iterations, max_mis) from exc
        va[pvpq] += dx[: len(pvpq)]
        vm[pq] += dx[len(pvpq):]
        iterations += 1
        vc = vm * np.exp(1j * va)
        g = mismatch(vc)
        max_mis = float(np.max(np.abs(g)))

    s_calc = vc * np.conj(y @ vc)
    return PowerFlowSolution(
        ybus=y, bus_ids=tuple(case.bus_index), vm=vm.copy(), va=va.copy(),
        p=s_calc.real.copy(), q=s_calc.imag.copy(),
        iterations=iterations, max_mismatch=max_mis)



def reference_equilibrium(case, sol, layout):
    """The equilibrium state over `layout` and each machine's mechanical
    power (machine base), field voltage and exciter reference (0 without an
    exciter), one machine at a time on complex scalars; raises the first
    machine's InitializationError."""
    n = len(case.machines)
    y0 = np.zeros(layout.n_states)
    (p_out,), (q_out,) = _machine_outputs([case], [sol])
    vc = sol.voltage()
    pm_ref, efd_ref, vref = np.zeros(n), np.zeros(n), np.zeros(n)
    for k, m in enumerate(case.machines):
        v = vc[case.bus_index[m.bus]]
        s = complex(p_out[k], q_out[k])
        cur = np.conj(s / v)
        xd, xq, xdp, xqp = m.system_reactances(case.base_mva)
        xq_eff = xq - xqp + xdp
        dlt = float(np.angle(v + 1j * xq_eff * cur))
        rot = np.exp(-1j * (dlt - math.pi / 2))
        e = (v + 1j * xdp * cur) * rot
        idq = cur * rot
        i_d, i_q = idq.real, idq.imag
        edp_k, eqp_k = e.real, e.imag
        efd = eqp_k + (xd - xdp) * i_d
        pe = edp_k * i_d + eqp_k * i_q + (xqp - xdp) * i_d * i_q
        y0[layout.idx(m.id, "delta")] = dlt
        y0[layout.idx(m.id, "eqp")] = eqp_k
        y0[layout.idx(m.id, "edp")] = edp_k
        pm_m = pe / (m.mva / case.base_mva)
        if case.governor_for(m.id) is not None:
            if pm_m > 1.0 + 1e-9:
                raise InitializationError(
                    f"machine {m.id}: equilibrium requires valve opening "
                    f"{pm_m:.4f} > 1 (infeasible dispatch)")
            if pm_m < -1e-9:
                raise InitializationError(
                    f"machine {m.id}: equilibrium requires valve opening "
                    f"{pm_m:.4f} < 0 (infeasible dispatch)")
            pm_m = min(max(pm_m, 0.0), 1.0)
            for slot in ("pm", "xm", "xe"):
                y0[layout.idx(m.id, slot)] = pm_m
        pm_ref[k] = pm_m
        exc = case.exciter_for(m.id)
        if exc is not None:
            if not (exc.efd_min + 1e-12 <= efd <= exc.efd_max - 1e-12):
                raise InitializationError(
                    f"machine {m.id}: equilibrium field voltage {efd:.4f} outside "
                    f"limits [{exc.efd_min}, {exc.efd_max}]")
            y0[layout.idx(m.id, "efd")] = efd
            vref[k] = abs(v) + efd / exc.ka
        efd_ref[k] = efd
    return y0, pm_ref, efd_ref, vref
