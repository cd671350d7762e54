"""Nonlinear multi-machine model: rotor, steam governor/turbine chain, two-axis
electrical dynamics, static exciter, speed-input PSS.

Machine-side quantities (mechanical power, valve opening, control input) live
on each machine's own MVA base so the physical valve range stays [0, 1];
network-side quantities (EMFs, currents, electrical power over the reduced
network) are on the system base.  The conversion factor is stored per machine.

State layout is machine-major with the slot order of `kernels.SLOT_NAMES`;
the governor, exciter and PSS slots exist only when the corresponding device
is present.

The equilibrium back-solve, `initialize_from_power_flows`, runs over a stack
of points × machines at once, for points that share their machines and
devices, as the points of a stress sweep or an N-1 scan do; each point's
outcome, its Equilibrium or its InitializationError, is what it gives
alone.  `initialize_from_power_flow` is the stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .case import PowerSystemCase, Machine, GovernorParams
from .powerflow import PowerFlowSolution, ReducedNetwork, bus_loads
from . import kernels
from .stacking import alone


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


def _machine_outputs(cases, sols):
    """Allocate solved bus P/Q generation to the machines on each bus, for
    a stack of cases with the same machines: arrays of shape (P, n_mach)."""
    case = cases[0]
    p_out = np.zeros((len(cases), len(case.machines)))
    q_out = np.zeros(p_out.shape)
    by_bus: dict[int, list[int]] = {}
    for k, m in enumerate(case.machines):
        by_bus.setdefault(m.bus, []).append(k)
    load = np.array([bus_loads(c) for c in cases])
    p = np.array([sol.p for sol in sols])
    q = np.array([sol.q for sol in sols])
    for bus_id, ks in by_bus.items():
        i = case.bus_index[bus_id]
        p_gen = p[:, i] + load[:, i].real
        q_gen = q[:, i] + load[:, i].imag
        mvas = np.array([case.machines[k].mva for k in ks])
        scheds = np.array([[c.machines[k].p_sched_mw / c.base_mva for k in ks]
                           for c in cases])
        # scheduled P plus a rating-proportional share of the residual (slack pickup)
        resid = p_gen - scheds.sum(axis=1)
        p_out[:, ks] = scheds + resid[:, None] * mvas / mvas.sum()
        q_out[:, ks] = q_gen[:, None] * mvas / mvas.sum()
    return p_out, q_out


def _check_device_part(cases, model: kernels.RhsPlan) -> None:
    """A ValueError unless `model` is a device part of each case's machines
    and of its machines with a governor, an exciter and a PSS."""
    layout = model.layout
    want = [layout.machine_ids] + [{mid for mid, s in layout.index if s == slot}
                                   for slot in ("pm", "efd", "z1")]
    for case in cases:
        if [tuple(m.id for m in case.machines)] + [
                {d.machine for d in devices}
                for devices in (case.governors, case.exciters, case.psss)] != want:
            raise ValueError("the device part is not of this case's machines and devices")


def initialize_from_power_flow(case: PowerSystemCase, sol: PowerFlowSolution,
                               reduced: ReducedNetwork,
                               model: kernels.RhsPlan | None = None) -> Equilibrium:
    """The equilibrium of one case: :func:`initialize_from_power_flows` on a
    stack of one.  Raises the case's InitializationError."""
    return alone(initialize_from_power_flows([case], [sol], [reduced], model))


def initialize_from_power_flows(cases, sols, reduced, model: kernels.RhsPlan | None = None
                                ) -> list[Equilibrium | InitializationError]:
    """Back-solve machine states from converged power flows, for a stack of
    cases with the same machines and devices (as the points of a stress
    sweep or the outages of an N-1 scan have): case i's power flow is
    ``sols[i]`` and its reduced network ``reduced[i]``.

    Each returned state is an exact fixed point of the assembled model:
    machine EMFs reproduce the power-flow currents through the reduced
    network, the governor chain sits at its unity-gain steady state, and
    exciter references absorb the required field voltage.  Each point's plan
    is the device part `model` at its references.  `model` is built from
    the first case when None; a caller may pass the device part of another
    case with the same machines and devices, such as the base case of a
    sweep.  A device part whose machines, or whose machines with a governor,
    an exciter or a PSS, differ from a case's is a ValueError.

    The arithmetic runs over points × machines at once, with every complex
    product and quotient written in real parts as numpy's complex scalars
    evaluate it, so each point's outcome is what it gives alone, bit for
    bit: its Equilibrium, or the InitializationError of its first machine
    (in case order) whose equilibrium violates a hard device limit.
    """
    if not cases:
        return []
    case = cases[0]
    if model is None:
        model = device_model(case)
    _check_device_part(cases, model)
    layout, machines = model.layout, case.machines
    gov = np.array([case.governor_for(m.id) is not None for m in machines])
    excs = [case.exciter_for(m.id) for m in machines]
    exc = np.array([e is not None for e in excs])
    ka, efd_min, efd_max = np.array([(1.0, 0.0, 0.0) if e is None else
                                     (e.ka, e.efd_min, e.efd_max) for e in excs]).T
    xd, xq, xdp, xqp = np.array([m.system_reactances(case.base_mva) for m in machines]).T
    xq_eff = xq - xqp + xdp
    sout = np.array([m.mva / case.base_mva for m in machines])
    at = [case.bus_index[m.bus] for m in machines]

    p_out, q_out = _machine_outputs(cases, sols)
    v = np.array([sol.voltage() for sol in sols])[:, at]
    vr, vi = v.real, v.imag
    # cur = conj(s / v), s = p_out + j q_out, by Smith's quotient
    with np.errstate(divide="ignore", invalid="ignore"):
        by_re = np.abs(vr) >= np.abs(vi)
        rat = np.where(by_re, vi / vr, vr / vi)
        scl = 1.0 / np.where(by_re, vr + vi * rat, vi + vr * rat)
        cr = np.where(by_re, p_out + q_out * rat, p_out * rat + q_out) * scl
        ci = -(np.where(by_re, q_out - p_out * rat, q_out * rat - p_out) * scl)
    # the rotor angle of v + j xq_eff cur, and rot = exp(-j (delta - pi/2))
    dlt = np.arctan2(vi + xq_eff * cr, vr - xq_eff * ci)
    turn = np.zeros(dlt.shape, dtype=complex)
    turn.imag = -(dlt - math.pi / 2)
    rot = np.exp(turn)
    rr, ri = rot.real, rot.imag
    # e = (v + j xdp cur) rot and i_d + j i_q = cur rot
    wr, wi = vr - xdp * ci, vi + xdp * cr
    edp, eqp = wr * rr - wi * ri, wr * ri + wi * rr
    i_d, i_q = cr * rr - ci * ri, cr * ri + ci * rr
    efd = eqp + (xd - xdp) * i_d
    pe = edp * i_d + eqp * i_q + (xqp - xdp) * i_d * i_q
    pm = pe / sout
    vref = np.hypot(vr, vi) + efd / ka

    # the first violated limit of each point, in machine order
    open_, shut = gov & (pm > 1.0 + 1e-9), gov & (pm < -1e-9)
    field = exc & ~((efd_min + 1e-12 <= efd) & (efd <= efd_max - 1e-12))
    # roundoff past a limit sits on it
    valve = np.where(1.0 < pm, 1.0, np.where(0.0 > pm, 0.0, pm))
    pm_ref = np.where(gov, valve, pm)

    y0 = np.zeros((len(cases), layout.n_states))
    ix = model.ix_mach
    y0[:, ix[0]], y0[:, ix[2]], y0[:, ix[3]] = dlt, eqp, edp
    y0[:, model.ix5_gov[:, 2:]] = valve[:, model.gov, None]      # pm, xm, xe
    y0[:, [layout.idx(m.id, "efd") for m, e in zip(machines, exc) if e]] = efd[:, exc]

    out: list = []
    for p, bad in enumerate(open_ | shut | field):
        if not bad.any():
            # PSS washout states are zero at any speed equilibrium
            out.append(Equilibrium(plan=model.at(pm_ref[p], efd[p], vref[p]),
                                   network=reduced[p], state=y0[p]))
            continue
        k = int(np.argmax(bad))
        if open_[p, k] or shut[p, k]:
            out.append(InitializationError(
                f"machine {machines[k].id}: equilibrium requires valve opening "
                f"{pm[p, k]:.4f} {'> 1' if open_[p, k] else '< 0'} (infeasible dispatch)"))
        else:
            out.append(InitializationError(
                f"machine {machines[k].id}: equilibrium field voltage {efd[p, k]:.4f} "
                f"outside limits [{excs[k].efd_min}, {excs[k].efd_max}]"))
    return out
