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
from dataclasses import dataclass, field

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


# --- elementary right-hand sides (the reference form the kernel tests use) -----

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

@dataclass(frozen=True)
class SimModel:
    """Packed parameter arrays and the one RHS plan built from them.
    Immutable: the arrays are read-only, and the network and controller
    setting of a call are arguments, not fields."""

    layout: StateLayout
    omega0: float
    pf: np.ndarray          # (n_mach, kernels.NPF) float params
    pi: np.ndarray          # (n_mach, kernels.NPI) int params
    plan: kernels.RhsPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.pf, self.pi):
            a.flags.writeable = False
        object.__setattr__(self, "plan", kernels.RhsPlan(self.pf, self.pi, self.omega0))

    @property
    def n_machines(self) -> int:
        return self.pf.shape[0]

    @property
    def n_states(self) -> int:
        return self.layout.n_states


def _pack_parameters(case: PowerSystemCase, layout: StateLayout):
    """The float and integer parameter matrices, without the equilibrium
    references (PCREF, PMCONST, VREF, EFDCONST)."""
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
    return pf, pi


@dataclass
class Equilibrium:
    """Initialized operating point: the model, its fixed-point state and the
    reduced network it was initialized on."""

    model: SimModel
    network: ReducedNetwork
    state: np.ndarray
    boundary_machines: tuple[int, ...]
    x5: np.ndarray          # (n_mach, 5) design-state equilibrium rows

    # rotor angles and transient EMFs, read from the state through the plan's
    # per-machine indices (rows delta, omega, eqp, edp, ...)
    @property
    def delta(self) -> np.ndarray:
        return self.state[self.model.plan.ix_mach[0]]

    @property
    def eqp(self) -> np.ndarray:
        return self.state[self.model.plan.ix_mach[2]]

    @property
    def edp(self) -> np.ndarray:
        return self.state[self.model.plan.ix_mach[3]]

    def rhs_norm(self) -> float:
        dy = kernels.rhs(self.state, self.model.plan, self.network.g, self.network.b)
        return float(np.max(np.abs(dy)))


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
    absorb the required field voltage.  The model is built last, once its
    parameters hold these references.
    """
    layout = build_layout(case)
    pf, pi = _pack_parameters(case, layout)
    n = len(case.machines)
    y0 = np.zeros(layout.n_states)
    p_out, q_out = _machine_bus_outputs(case, sol)
    vc = sol.voltage()
    boundary: list[int] = []
    x5 = np.zeros((n, 5))

    for k, m in enumerate(case.machines):
        i = sol.index_of(m.bus)
        v = vc[i]
        s = complex(p_out[k], q_out[k])
        cur = np.conj(s / v)
        pfk = pf[k]
        xq_eff = pfk[PF.XQ] - pfk[PF.XQP] + pfk[PF.XDP]
        dlt = float(np.angle(v + 1j * xq_eff * cur))
        rot = np.exp(-1j * (dlt - math.pi / 2))
        e = (v + 1j * pfk[PF.XDP] * cur) * rot
        idq = cur * rot
        i_d, i_q = idq.real, idq.imag
        edp_k, eqp_k = e.real, e.imag
        efd = eqp_k + (pfk[PF.XD] - pfk[PF.XDP]) * i_d
        pe = edp_k * i_d + eqp_k * i_q + (pfk[PF.XQP] - pfk[PF.XDP]) * i_d * i_q

        y0[layout.idx(m.id, "delta")] = dlt
        y0[layout.idx(m.id, "eqp")] = eqp_k
        y0[layout.idx(m.id, "edp")] = edp_k

        pm_m = pe / pfk[PF.SOUT]
        x5[k] = [dlt, 0.0, pm_m, pm_m, pm_m]
        if pi[k, PI.HAS_GOV]:
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
            pf[k, PF.PCREF] = pm_m
        else:
            pf[k, PF.PMCONST] = pm_m

        if pi[k, PI.HAS_EXC]:
            exc = case.exciter_for(m.id)
            if not (exc.efd_min + 1e-12 <= efd <= exc.efd_max - 1e-12):
                raise InitializationError(
                    f"machine {m.id}: equilibrium field voltage {efd:.4f} outside "
                    f"limits [{exc.efd_min}, {exc.efd_max}]")
            y0[layout.idx(m.id, "efd")] = efd
            pf[k, PF.VREF] = abs(v) + efd / exc.ka
        else:
            pf[k, PF.EFDCONST] = efd
        # PSS washout states are zero at any speed equilibrium

    model = SimModel(layout=layout, omega0=case.omega0, pf=pf, pi=pi)
    return Equilibrium(model=model, network=reduced, state=y0,
                       boundary_machines=tuple(boundary), x5=x5)
