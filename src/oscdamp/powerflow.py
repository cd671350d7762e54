"""Bus admittance assembly, Newton-Raphson AC power flow, and Kron reduction.

Dense complex linear algebra throughout (LAPACK partial-pivot LU via numpy);
the cases in scope are desk-scale.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .case import Branch, PowerSystemCase


class PowerFlowDiverged(Exception):
    """Newton iteration failed to reach the mismatch tolerance."""

    def __init__(self, iterations: int, mismatch: float):
        self.iterations = iterations
        self.mismatch = mismatch
        super().__init__(f"power flow diverged after {iterations} iterations "
                         f"(mismatch {mismatch:.3e})")


class KronReductionError(Exception):
    pass


@dataclass(frozen=True)
class AdmittanceMatrix:
    y: np.ndarray          # complex (n, n), per unit on system base
    bus_ids: tuple[int, ...]


@dataclass(frozen=True)
class PowerFlowSolution:
    bus_ids: tuple[int, ...]
    vm: np.ndarray         # per-unit magnitude
    va: np.ndarray         # rad, slack at 0
    p: np.ndarray          # net injection, p.u.
    q: np.ndarray          # net injection, p.u.
    iterations: int
    max_mismatch: float

    def voltage(self) -> np.ndarray:
        return self.vm * np.exp(1j * self.va)

    def index_of(self, bus_id: int) -> int:
        return self.bus_ids.index(bus_id)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("bus,vm_pu,va_rad,p_pu,q_pu\n")
        for i, b in enumerate(self.bus_ids):
            buf.write(f"{b},{self.vm[i]:.12g},{self.va[i]:.12g},"
                      f"{self.p[i]:.12g},{self.q[i]:.12g}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class ReducedNetwork:
    """Conductance/susceptance coupling between machine internal nodes, and
    the map from the internal EMFs back to the bus voltages."""

    g: np.ndarray          # real (m, m)
    b: np.ndarray          # real (m, m)
    machine_ids: tuple[int, ...]
    emf_to_bus: np.ndarray | None = None     # complex (n_bus, m): v = emf_to_bus @ e
    bus_ids: tuple[int, ...] = ()

    @property
    def n_machines(self) -> int:
        return len(self.machine_ids)


def _pi_admittances(br: Branch) -> tuple[complex, complex]:
    """Series admittance and half the line charging of a pi-model branch."""
    return 1.0 / complex(br.r, br.x), 1j * br.b / 2.0


def branch_power(br: Branch, vf, vt):
    """Complex power (p.u.) entering the branch at the end with voltage `vf`
    (scalars or arrays); the pi model is end-symmetric, so either orientation
    is evaluated directly."""
    ys, sh = _pi_admittances(br)
    return vf * np.conj(ys * (vf - vt) + sh * vf)


def build_ybus(case: PowerSystemCase) -> AdmittanceMatrix:
    """Standard pi-model assembly; out-of-service branches excluded, shunts on the diagonal."""
    bus_ids = tuple(b.id for b in case.buses)
    idx = {bid: i for i, bid in enumerate(bus_ids)}
    n = len(bus_ids)
    y = np.zeros((n, n), dtype=complex)
    for br in case.in_service_branches():
        ys, sh = _pi_admittances(br)
        f, t = idx[br.from_bus], idx[br.to_bus]
        y[f, f] += ys + sh
        y[t, t] += ys + sh
        y[f, t] -= ys
        y[t, f] -= ys
    for b in case.buses:
        y[idx[b.id], idx[b.id]] += 1j * b.shunt_susceptance
    return AdmittanceMatrix(y=y, bus_ids=bus_ids)


def _scheduled_injections(case: PowerSystemCase) -> tuple[np.ndarray, np.ndarray]:
    """Net scheduled complex injection (p.u.) and voltage setpoints per bus."""
    n = len(case.buses)
    idx = {b.id: i for i, b in enumerate(case.buses)}
    s = np.zeros(n, dtype=complex)
    for m in case.machines:
        s[idx[m.bus]] += m.p_sched_mw / case.base_mva
    for l in case.loads:
        s[idx[l.bus]] -= complex(l.p_mw, l.q_mvar) / case.base_mva
    vset = np.ones(n)
    for i, b in enumerate(case.buses):
        if b.kind in ("pv", "slack"):
            vset[i] = case.setpoint_for_bus(b)
    return s, vset


def solve_power_flow(case: PowerSystemCase, tol: float = 1e-10,
                     max_iter: int = 25) -> PowerFlowSolution:
    """Full Newton power flow in polar coordinates from a flat start.

    Raises PowerFlowDiverged when the iteration cap is hit or the update
    produces non-finite voltages (infeasible operating point).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ybus = build_ybus(case)
    y = ybus.y
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

    def mismatch(vc):
        s_calc = vc * np.conj(y @ vc)
        ds = s_calc - s_spec
        return np.concatenate([ds.real[pvpq], ds.imag[pq]])

    iterations = 0
    vc = vm * np.exp(1j * va)
    g = mismatch(vc)
    max_mis = float(np.max(np.abs(g))) if g.size else 0.0
    while max_mis > tol:
        if iterations >= max_iter or not np.isfinite(max_mis):
            raise PowerFlowDiverged(iterations, max_mis)
        # MATPOWER-style complex power flow Jacobian, split into real blocks
        ibus = y @ vc
        diag_v = np.diag(vc)
        diag_i = np.diag(ibus)
        diag_e = np.diag(vc / np.abs(vc))
        ds_dva = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
        ds_dvm = diag_v @ np.conj(y @ diag_e) + np.conj(diag_i) @ diag_e
        j11 = ds_dva.real[np.ix_(pvpq, pvpq)]
        j12 = ds_dvm.real[np.ix_(pvpq, pq)]
        j21 = ds_dva.imag[np.ix_(pq, pvpq)]
        j22 = ds_dvm.imag[np.ix_(pq, pq)]
        jac = np.block([[j11, j12], [j21, j22]])
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
        bus_ids=ybus.bus_ids, vm=vm.copy(), va=va.copy(),
        p=s_calc.real.copy(), q=s_calc.imag.copy(),
        iterations=iterations, max_mismatch=max_mis)


def load_admittances(case: PowerSystemCase, sol: PowerFlowSolution) -> np.ndarray:
    """Per-bus shunt admittance of constant-impedance loads at the solved voltages."""
    n = len(case.buses)
    idx = {b.id: i for i, b in enumerate(case.buses)}
    y_load = np.zeros(n, dtype=complex)
    for l in case.loads:
        i = idx[l.bus]
        s = complex(l.p_mw, l.q_mvar) / case.base_mva
        y_load[i] += np.conj(s) / sol.vm[i] ** 2
    return y_load


def machine_internal_admittances(case: PowerSystemCase) -> np.ndarray:
    """1/(j xdp) per machine on the system base."""
    xdp_sys = np.array([m.system_reactances(case.base_mva)[2] for m in case.machines])
    return 1.0 / (1j * xdp_sys)


def kron_reduce(case: PowerSystemCase, y_load: np.ndarray) -> ReducedNetwork:
    """Eliminate every bus, keeping the machine internal nodes (Schur complement).

    The augmented admittance is Ybus, plus the per-bus load shunts `y_load`
    (constant-impedance loads), plus each machine's transient admittance to a
    new internal node.  The one elimination solve gives both the reduction and
    the map from internal EMFs to bus voltages.
    """
    ybus = build_ybus(case)
    n = len(ybus.bus_ids)
    m = len(case.machines)
    idx = {bid: i for i, bid in enumerate(ybus.bus_ids)}
    y_int = machine_internal_admittances(case)

    aug = np.zeros((n + m, n + m), dtype=complex)
    aug[:n, :n] = ybus.y + np.diag(y_load)
    for k, mach in enumerate(case.machines):
        i = idx[mach.bus]
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
    try:
        x = np.linalg.solve(y_ee, y_ke.T)
    except np.linalg.LinAlgError as exc:
        raise KronReductionError("singular elimination block (islanded node)") from exc
    reduced = y_kk - y_ke @ x
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(reduced))):
        raise KronReductionError("non-finite entries after elimination (islanded node)")
    return ReducedNetwork(g=reduced.real.copy(), b=reduced.imag.copy(),
                          machine_ids=tuple(mach.id for mach in case.machines),
                          emf_to_bus=-x, bus_ids=ybus.bus_ids)


def branch_flow(case: PowerSystemCase, sol: PowerFlowSolution,
                from_bus: int, to_bus: int, circuit: int) -> complex:
    """Complex power (p.u.) entering the branch at from_bus."""
    br = case.find_branch(from_bus, to_bus, circuit)
    if br is None or not br.in_service:
        raise ValueError(f"branch {from_bus}-{to_bus} circuit {circuit} not in service")
    vc = sol.voltage()
    return branch_power(br, vc[sol.index_of(from_bus)], vc[sol.index_of(to_bus)])
