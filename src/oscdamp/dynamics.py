"""Nonlinear multi-machine model: rotor, steam governor/turbine chain, two-axis
electrical dynamics, static exciter, speed-input PSS.

Machine-side quantities (mechanical power, valve opening, control input) live
on each machine's own MVA base so the physical valve range stays [0, 1];
network-side quantities (EMFs, currents, electrical power over the reduced
network) are on the system base.  The conversion factor is stored per machine.

State layout is machine-major with the slot order of `kernels.SLOT_NAMES`;
the governor, exciter and PSS slots exist only when the corresponding device
is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .case import PowerSystemCase, Machine, GovernorParams
from .powerflow import PowerFlowSolution, ReducedNetwork, bus_loads
from . import kernels


class InitializationError(Exception):
    """Equilibrium violates a hard device limit (infeasible dispatch)."""


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
        present = {"machine": True, "governor": case.governor_for(m.id) is not None,
                   "exciter": case.exciter_for(m.id) is not None,
                   "pss": case.pss_for(m.id) is not None}
        for s, device in zip(kernels.SLOT_NAMES, kernels.SLOT_DEVICES):
            if present[device]:
                index[(m.id, s)] = len(labels)
                labels.append(f"m{m.id}:{s}")
    return StateLayout(machine_ids=tuple(m.id for m in case.machines),
                       labels=tuple(labels), index=index, n_states=len(labels))


def device_model(case: PowerSystemCase) -> kernels.RhsPlan:
    """The device part of the case's RHS plan, over the case's layout; its
    `at` gives the plan of an operating point."""
    return kernels.RhsPlan(case, build_layout(case))


@dataclass(frozen=True)
class DesignModel:
    """Per-machine 5-state governor/turbine design matrices over [delta, omega, pm, xm, xe]."""

    machine_id: int
    a: np.ndarray   # (5, 5)
    b: np.ndarray   # (5,)
    g: np.ndarray   # (5,)


def build_design_matrices(machine: Machine, gov: GovernorParams,
                          omega0: float) -> DesignModel:
    """The machine's rows of the model operator over its design states."""
    a, b, g = kernels.design_rows(machine.h, machine.d, omega0, gov)
    return DesignModel(machine_id=machine.id, a=np.array(a), b=np.array(b),
                       g=np.array(g))


@dataclass(frozen=True)
class Equilibrium:
    """Initialized operating point: the model's RHS plan (its parameter
    record, whose state layout is the point's `layout`), the fixed-point state
    and the reduced network it was initialized on.  Immutable: the plan's
    arrays are read-only, and the network and controller setting of an RHS
    call are arguments, not fields."""

    plan: kernels.RhsPlan = field(repr=False, compare=False)
    network: ReducedNetwork
    state: np.ndarray

    @property
    def layout(self) -> StateLayout:
        return self.plan.layout

    # rotor angles and transient EMFs, read from the state through the plan's
    # per-machine indices (rows delta, omega, eqp, edp, ...)
    @property
    def delta(self) -> np.ndarray:
        return self.state[self.plan.ix_mach[0]]

    @property
    def eqp(self) -> np.ndarray:
        return self.state[self.plan.ix_mach[2]]

    @property
    def edp(self) -> np.ndarray:
        return self.state[self.plan.ix_mach[3]]


def _machine_bus_outputs(case: PowerSystemCase, sol: PowerFlowSolution):
    """Allocate solved bus P/Q generation to the machines on each bus."""
    p_out = np.zeros(len(case.machines))
    q_out = np.zeros(len(case.machines))
    by_bus: dict[int, list[int]] = {}
    for k, m in enumerate(case.machines):
        by_bus.setdefault(m.bus, []).append(k)
    load = bus_loads(case)
    for bus_id, ks in by_bus.items():
        i = case.bus_index[bus_id]
        p_gen = sol.p[i] + load[i].real
        q_gen = sol.q[i] + load[i].imag
        mvas = np.array([case.machines[k].mva for k in ks])
        scheds = np.array([case.machines[k].p_sched_mw / case.base_mva for k in ks])
        # scheduled P plus a rating-proportional share of the residual (slack pickup)
        resid = p_gen - scheds.sum()
        for j, k in enumerate(ks):
            p_out[k] = scheds[j] + resid * mvas[j] / mvas.sum()
            q_out[k] = q_gen * mvas[j] / mvas.sum()
    return p_out, q_out


def initialize_from_power_flow(case: PowerSystemCase, sol: PowerFlowSolution,
                               reduced: ReducedNetwork,
                               model: kernels.RhsPlan | None = None) -> Equilibrium:
    """Back-solve machine states from the converged power flow.

    The returned state is an exact fixed point of the assembled model: machine
    EMFs reproduce the power-flow currents through the reduced network, the
    governor chain sits at its unity-gain steady state, and exciter references
    absorb the required field voltage.  The model's plan is the device part
    `model` at these references.  `model` is built from the case when None;
    a caller may pass the device part of another case with the same machines
    and devices, such as a stress-scaled or line-tripped variant of it.  A
    device part whose machines, or whose machines with a governor, an
    exciter or a PSS, differ from the case's is a ValueError.
    """
    if model is None:
        model = device_model(case)
    layout = model.layout
    if layout.machine_ids != tuple(m.id for m in case.machines) or any(
            {mid for mid, s in layout.index if s == slot} != {d.machine for d in devices}
            for slot, devices in (("pm", case.governors), ("efd", case.exciters),
                                  ("z1", case.psss))):
        raise ValueError("the device part is not of this case's machines and devices")
    n = len(case.machines)
    y0 = np.zeros(layout.n_states)
    p_out, q_out = _machine_bus_outputs(case, sol)
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
            pm_m = min(max(pm_m, 0.0), 1.0)      # roundoff past a limit sits on it
            y0[layout.idx(m.id, "pm")] = pm_m
            y0[layout.idx(m.id, "xm")] = pm_m
            y0[layout.idx(m.id, "xe")] = pm_m
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
        # PSS washout states are zero at any speed equilibrium

    return Equilibrium(plan=model.at(pm_ref, efd_ref, vref),
                       network=reduced, state=y0)
