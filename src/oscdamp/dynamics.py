"""Nonlinear multi-machine model: rotor, steam governor/turbine chain, two-axis
electrical dynamics, static exciter, speed-input PSS.

Machine-side quantities (mechanical power, valve opening, control input) live
on each machine's own MVA base so the physical valve range stays [0, 1];
network-side quantities (EMFs, currents, electrical power over the reduced
network) are on the system base.  The conversion factor is stored per machine.

State layout is machine-major with the fixed slot order
[delta, omega_r, eqp, edp, pm, xm, xe, efd, z1, z2, z3]; the governor, exciter
and PSS slots exist only when the corresponding device is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .case import PowerSystemCase, Machine, GovernorParams
from .powerflow import PowerFlowSolution, ReducedNetwork
from . import kernels
from .kernels import PF, PI


class InitializationError(Exception):
    """Equilibrium violates a hard device limit (infeasible dispatch)."""


SLOT_NAMES = ("delta", "omega", "eqp", "edp", "pm", "xm", "xe", "efd", "z1", "z2", "z3")


@dataclass(frozen=True)
class StateLayout:
    machine_ids: tuple[int, ...]
    labels: tuple[str, ...]
    index: dict            # (machine_id, slot_name) -> state index
    n_states: int

    def idx(self, machine_id: int, slot: str) -> int:
        return self.index[(machine_id, slot)]

    def has(self, machine_id: int, slot: str) -> bool:
        return (machine_id, slot) in self.index

    @property
    def speed_indices(self) -> np.ndarray:
        return np.array([self.idx(m, "omega") for m in self.machine_ids], dtype=int)

    @property
    def delta_indices(self) -> np.ndarray:
        return np.array([self.idx(m, "delta") for m in self.machine_ids], dtype=int)


def build_layout(case: PowerSystemCase) -> StateLayout:
    labels: list[str] = []
    index: dict = {}
    for m in case.machines:
        slots = ["delta", "omega", "eqp", "edp"]
        if case.governor_for(m.id) is not None:
            slots += ["pm", "xm", "xe"]
        if case.exciter_for(m.id) is not None:
            slots += ["efd"]
        if case.pss_for(m.id) is not None:
            slots += ["z1", "z2", "z3"]
        for s in slots:
            index[(m.id, s)] = len(labels)
            labels.append(f"m{m.id}:{s}")
    return StateLayout(machine_ids=tuple(m.id for m in case.machines),
                       labels=tuple(labels), index=index, n_states=len(labels))


@dataclass(frozen=True)
class DesignModel:
    """Per-machine 5-state governor/turbine design matrices over [delta, omega, pm, xm, xe]."""

    machine_id: int
    a: np.ndarray   # (5, 5)
    b: np.ndarray   # (5,)
    g: np.ndarray   # (5,)


def build_design_matrices(machine: Machine, gov: GovernorParams,
                          omega0: float) -> DesignModel:
    h, d = machine.h, machine.d
    ke, te, t3, t4, t5, tm, r = gov.ke, gov.te, gov.t3, gov.t4, gov.t5, gov.tm, gov.r
    a = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, -d / (2 * h), omega0 / (2 * h), 0.0, 0.0],
        [0.0, -ke * t3 * t4 / (tm * te * t5 * r * omega0), -1.0 / t5,
         (tm - t4) / (t5 * tm), t4 * (te - t3) / (tm * t5 * te)],
        [0.0, -ke * t3 / (tm * te * r * omega0), 0.0, -1.0 / tm, (te - t3) / (tm * te)],
        [0.0, -ke / (te * r * omega0), 0.0, 0.0, -1.0 / te],
    ])
    b = np.array([0.0, 0.0, t3 * t4 / (tm * te * t5), t3 / (tm * te), 1.0 / te])
    g = np.array([0.0, -omega0 / (2 * h), 0.0, 0.0, 0.0])
    return DesignModel(machine_id=machine.id, a=a, b=b, g=g)


def design_rhs(dm: DesignModel, x5: np.ndarray, pc: float, pe_m: float) -> np.ndarray:
    """Time derivative of the 5-state design model (pe_m on the machine base)."""
    return dm.a @ x5 + dm.b * pc + dm.g * pe_m


# --- elementary right-hand sides (documenting/unit-test form) -----------------

def rotor_rhs(delta: float, omega_r: float, pm: float, pe: float,
              h: float, d: float, omega0: float) -> tuple[float, float]:
    d_delta = omega_r
    d_omega = -(d / (2 * h)) * omega_r + (omega0 / (2 * h)) * (pm - pe)
    return d_delta, d_omega


def governor_turbine_rhs(pm: float, xm: float, xe: float, omega_r: float,
                         pc: float, gov: GovernorParams,
                         omega0: float) -> tuple[float, float, float]:
    ke, te, t3, t4, t5, tm, r = gov.ke, gov.te, gov.t3, gov.t4, gov.t5, gov.tm, gov.r
    d_pm = (-ke * t3 * t4 / (tm * te * t5 * r * omega0) * omega_r
            - pm / t5 + (1 - t4 / tm) * xm / t5
            + t4 / (tm * t5) * (1 - t3 / te) * xe
            + t3 * t4 / (tm * te * t5) * pc)
    d_xm = (-ke * t3 / (tm * te * r * omega0) * omega_r
            - xm / tm + (1 - t3 / te) * xe / tm + t3 / (tm * te) * pc)
    d_xe = -ke / (te * r * omega0) * omega_r - xe / te + pc / te
    return d_pm, d_xm, d_xe


def two_axis_rhs(eqp: float, edp: float, i_d: float, i_q: float, efd: float,
                 xd: float, xq: float, xdp: float, xqp: float,
                 td0p: float, tq0p: float) -> tuple[float, float]:
    d_eqp = (-eqp - (xd - xdp) * i_d + efd) / td0p
    d_edp = (-edp + (xq - xqp) * i_q) / tq0p
    return d_eqp, d_edp


def electrical_power(reduced: ReducedNetwork, delta: np.ndarray,
                     eqp: np.ndarray, edp: np.ndarray) -> np.ndarray:
    """Per-machine electrical power (system base) from the reduced network.

    Four-term EMF product form evaluated at absolute angles; the transient
    saliency correction is not part of this quantity.
    """
    *_, i_d, i_q = kernels.network_currents(delta, eqp, edp, reduced.g, reduced.b)
    return edp * i_d + eqp * i_q


# --- assembled simulation model ------------------------------------------------

@dataclass
class SimModel:
    """Packed parameter arrays plus network coupling; consumed by the kernels."""

    layout: StateLayout
    omega0: float
    pf: np.ndarray          # (n_mach, kernels.NPF) float params
    pi: np.ndarray          # (n_mach, kernels.NPI) int params
    gmat: np.ndarray        # (n_mach, n_mach)
    bmat: np.ndarray        # (n_mach, n_mach)
    gains: np.ndarray       # (n_mach, 5) feedback over [delta, omega, pm, xm, xe]
    xref: np.ndarray        # (n_mach, 5) controller reference states
    active: np.ndarray      # (n_mach,) 1.0 while the machine's controller is in service

    @property
    def n_machines(self) -> int:
        return self.pf.shape[0]

    @property
    def n_states(self) -> int:
        return self.layout.n_states

    def rhs(self, y: np.ndarray) -> np.ndarray:
        return kernels.rhs(y, self.pf, self.pi, self.gains, self.xref,
                           self.active, self.gmat, self.bmat, self.omega0)

    def with_network(self, reduced: ReducedNetwork) -> "SimModel":
        out = self.copy()
        out.gmat = reduced.g.copy()
        out.bmat = reduced.b.copy()
        return out

    def copy(self) -> "SimModel":
        return SimModel(layout=self.layout, omega0=self.omega0,
                        pf=self.pf.copy(), pi=self.pi.copy(),
                        gmat=self.gmat.copy(), bmat=self.bmat.copy(),
                        gains=self.gains.copy(), xref=self.xref.copy(),
                        active=self.active.copy())

    def set_controllers(self, gains: np.ndarray, xref: np.ndarray,
                        active: np.ndarray | bool = True) -> None:
        self.gains = np.asarray(gains, dtype=float).copy()
        self.xref = np.asarray(xref, dtype=float).copy()
        if isinstance(active, (bool, int, float)):
            self.active = np.full(self.n_machines, 1.0 if active else 0.0)
        else:
            self.active = np.asarray(active, dtype=float).copy()

    def design_state(self, y: np.ndarray, k: int) -> np.ndarray:
        """[delta, omega, pm, xm, xe] for machine k (pm from the constant when ungoverned)."""
        pi = self.pi
        x5 = np.empty(5)
        x5[0] = y[pi[k, PI.I_DELTA]]
        x5[1] = y[pi[k, PI.I_OMEGA]]
        if pi[k, PI.HAS_GOV]:
            x5[2] = y[pi[k, PI.I_PM]]
            x5[3] = y[pi[k, PI.I_XM]]
            x5[4] = y[pi[k, PI.I_XE]]
        else:
            x5[2] = self.pf[k, PF.PMCONST]
            x5[3] = 0.0
            x5[4] = 0.0
        return x5


def assemble_model(case: PowerSystemCase, reduced: ReducedNetwork) -> SimModel:
    layout = build_layout(case)
    n = len(case.machines)
    pf = np.zeros((n, kernels.NPF))
    pi = np.full((n, kernels.NPI), -1, dtype=np.int64)
    for k, m in enumerate(case.machines):
        scale = case.base_mva / m.mva
        pf[k, PF.H] = m.h
        pf[k, PF.D] = m.d
        pf[k, PF.SOUT] = m.mva / case.base_mva
        pf[k, PF.XD] = m.xd * scale
        pf[k, PF.XQ] = m.xq * scale
        pf[k, PF.XDP] = m.xdp * scale
        pf[k, PF.XQP] = m.xqp * scale
        pf[k, PF.TD0P] = m.td0p
        pf[k, PF.TQ0P] = m.tq0p
        for slot_col, slot in ((PI.I_DELTA, "delta"), (PI.I_OMEGA, "omega"),
                               (PI.I_EQP, "eqp"), (PI.I_EDP, "edp"),
                               (PI.I_PM, "pm"), (PI.I_XM, "xm"), (PI.I_XE, "xe"),
                               (PI.I_EFD, "efd"), (PI.I_Z1, "z1"),
                               (PI.I_Z2, "z2"), (PI.I_Z3, "z3")):
            if layout.has(m.id, slot):
                pi[k, slot_col] = layout.idx(m.id, slot)
        gov = case.governor_for(m.id)
        pi[k, PI.HAS_GOV] = 1 if gov is not None else 0
        if gov is not None:
            pf[k, PF.KE] = gov.ke
            pf[k, PF.TE] = gov.te
            pf[k, PF.T3] = gov.t3
            pf[k, PF.T4] = gov.t4
            pf[k, PF.T5] = gov.t5
            pf[k, PF.TM] = gov.tm
            pf[k, PF.RDROOP] = gov.r
        exc = case.exciter_for(m.id)
        pi[k, PI.HAS_EXC] = 1 if exc is not None else 0
        if exc is not None:
            pf[k, PF.KA] = exc.ka
            pf[k, PF.TA] = exc.ta
            pf[k, PF.EFDMIN] = exc.efd_min
            pf[k, PF.EFDMAX] = exc.efd_max
        pss = case.pss_for(m.id)
        pi[k, PI.HAS_PSS] = 1 if pss is not None else 0
        if pss is not None:
            pf[k, PF.KS] = pss.ks
            pf[k, PF.TW] = pss.tw
            pf[k, PF.TP1] = pss.t1
            pf[k, PF.TP2] = pss.t2
            pf[k, PF.TP3] = pss.t3
            pf[k, PF.TP4] = pss.t4
            pf[k, PF.VSMIN] = pss.vmin
            pf[k, PF.VSMAX] = pss.vmax
    return SimModel(layout=layout, omega0=case.omega0, pf=pf, pi=pi,
                    gmat=reduced.g.copy(), bmat=reduced.b.copy(),
                    gains=np.zeros((n, 5)), xref=np.zeros((n, 5)),
                    active=np.zeros(n))


@dataclass(frozen=True)
class ControlInput:
    machine: int
    pc_ref: float      # dispatch reference, machine-base p.u.
    u: float = 0.0     # auxiliary signal; total command is pc_ref + u


@dataclass
class Equilibrium:
    """Initialized operating point: configured model plus the fixed-point state."""

    model: SimModel
    state: np.ndarray
    control_inputs: tuple[ControlInput, ...]
    boundary_machines: tuple[int, ...]
    delta: np.ndarray
    eqp: np.ndarray
    edp: np.ndarray
    pe_sys: np.ndarray
    x5: np.ndarray          # (n_mach, 5) design-state equilibrium rows

    def rhs_norm(self) -> float:
        return float(np.max(np.abs(self.model.rhs(self.state))))


def _machine_bus_outputs(case: PowerSystemCase, sol: PowerFlowSolution):
    """Allocate solved bus P/Q generation to the machines on each bus."""
    p_out = np.zeros(len(case.machines))
    q_out = np.zeros(len(case.machines))
    by_bus: dict[int, list[int]] = {}
    for k, m in enumerate(case.machines):
        by_bus.setdefault(m.bus, []).append(k)
    load_p = {b.id: 0.0 for b in case.buses}
    load_q = {b.id: 0.0 for b in case.buses}
    for l in case.loads:
        load_p[l.bus] += l.p_mw / case.base_mva
        load_q[l.bus] += l.q_mvar / case.base_mva
    for bus_id, ks in by_bus.items():
        i = sol.index_of(bus_id)
        p_gen = sol.p[i] + load_p[bus_id]
        q_gen = sol.q[i] + load_q[bus_id]
        mvas = np.array([case.machines[k].mva for k in ks])
        scheds = np.array([case.machines[k].p_sched_mw / case.base_mva for k in ks])
        # scheduled P plus a rating-proportional share of the residual (slack pickup)
        resid = p_gen - scheds.sum()
        for j, k in enumerate(ks):
            p_out[k] = scheds[j] + resid * mvas[j] / mvas.sum()
            q_out[k] = q_gen * mvas[j] / mvas.sum()
    return p_out, q_out


def initialize_from_power_flow(case: PowerSystemCase, sol: PowerFlowSolution,
                               reduced: ReducedNetwork) -> Equilibrium:
    """Back-solve machine states from the converged power flow.

    The returned state is an exact fixed point of the assembled model: machine
    EMFs reproduce the power-flow currents through the reduced network, the
    governor chain sits at its unity-gain steady state, and exciter references
    absorb the required field voltage.
    """
    model = assemble_model(case, reduced)
    layout = model.layout
    n = len(case.machines)
    y0 = np.zeros(layout.n_states)
    p_out, q_out = _machine_bus_outputs(case, sol)
    vc = sol.voltage()
    ctrl: list[ControlInput] = []
    boundary: list[int] = []
    delta = np.zeros(n)
    eqp = np.zeros(n)
    edp = np.zeros(n)
    pe_sys = np.zeros(n)
    x5 = np.zeros((n, 5))

    for k, m in enumerate(case.machines):
        i = sol.index_of(m.bus)
        v = vc[i]
        s = complex(p_out[k], q_out[k])
        cur = np.conj(s / v)
        pfk = model.pf[k]
        xq_eff = pfk[PF.XQ] - pfk[PF.XQP] + pfk[PF.XDP]
        dlt = float(np.angle(v + 1j * xq_eff * cur))
        rot = np.exp(-1j * (dlt - math.pi / 2))
        e = (v + 1j * pfk[PF.XDP] * cur) * rot
        idq = cur * rot
        i_d, i_q = idq.real, idq.imag
        edp_k, eqp_k = e.real, e.imag
        efd = eqp_k + (pfk[PF.XD] - pfk[PF.XDP]) * i_d
        pe = edp_k * i_d + eqp_k * i_q + (pfk[PF.XQP] - pfk[PF.XDP]) * i_d * i_q

        delta[k], eqp[k], edp[k], pe_sys[k] = dlt, eqp_k, edp_k, pe
        y0[layout.idx(m.id, "delta")] = dlt
        y0[layout.idx(m.id, "eqp")] = eqp_k
        y0[layout.idx(m.id, "edp")] = edp_k

        pm_m = pe / pfk[PF.SOUT]
        x5[k] = [dlt, 0.0, pm_m, pm_m, pm_m]
        if model.pi[k, PI.HAS_GOV]:
            if pm_m > 1.0 + 1e-9:
                raise InitializationError(
                    f"machine {m.id}: equilibrium requires valve opening "
                    f"{pm_m:.4f} > 1 (infeasible dispatch)")
            if pm_m < -1e-9:
                raise InitializationError(
                    f"machine {m.id}: equilibrium requires valve opening "
                    f"{pm_m:.4f} < 0 (infeasible dispatch)")
            if pm_m <= 1e-12 or pm_m >= 1.0 - 1e-12:
                boundary.append(m.id)
                pm_m = min(max(pm_m, 0.0), 1.0)
                x5[k, 2:] = pm_m
            y0[layout.idx(m.id, "pm")] = pm_m
            y0[layout.idx(m.id, "xm")] = pm_m
            y0[layout.idx(m.id, "xe")] = pm_m
            ctrl.append(ControlInput(machine=m.id, pc_ref=pm_m))
            model.pf[k, PF.PCREF] = pm_m
        else:
            model.pf[k, PF.PMCONST] = pm_m
            ctrl.append(ControlInput(machine=m.id, pc_ref=pm_m))

        if model.pi[k, PI.HAS_EXC]:
            exc = case.exciter_for(m.id)
            if not (exc.efd_min + 1e-12 <= efd <= exc.efd_max - 1e-12):
                raise InitializationError(
                    f"machine {m.id}: equilibrium field voltage {efd:.4f} outside "
                    f"limits [{exc.efd_min}, {exc.efd_max}]")
            y0[layout.idx(m.id, "efd")] = efd
            model.pf[k, PF.VREF] = abs(v) + efd / exc.ka
        else:
            model.pf[k, PF.EFDCONST] = efd
        # PSS washout states are zero at any speed equilibrium

    model.xref = x5.copy()
    return Equilibrium(model=model, state=y0, control_inputs=tuple(ctrl),
                       boundary_machines=tuple(boundary), delta=delta,
                       eqp=eqp, edp=edp, pe_sys=pe_sys, x5=x5)
