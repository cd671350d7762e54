"""Bus admittance assembly, Newton-Raphson AC power flow, and Kron reduction.

Dense complex linear algebra throughout (LAPACK partial-pivot LU via numpy);
the cases in scope are desk-scale.  The power flow has one Newton loop,
`solve_power_flows`, over a stack of cases that share their buses, as the
points of a stress sweep or the connected outages of an N-1 scan do: every
iteration is one set of stacked numpy calls, and each case's outcome is
what it gives alone.  The Kron reduction, `kron_reductions`, is one stacked
elimination over points that share their buses and machines, with the same
rule.  `solve_power_flow` and `kron_reduce` are the stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case import Branch, PowerSystemCase
from .stacking import alone, solve_each


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
class PowerFlowSolution:
    ybus: np.ndarray       # complex (n, n): the network the flow was solved on
    bus_ids: tuple[int, ...]
    vm: np.ndarray         # per-unit magnitude
    va: np.ndarray         # rad, slack at 0
    p: np.ndarray          # net injection, p.u.
    q: np.ndarray          # net injection, p.u.
    iterations: int
    max_mismatch: float

    def voltage(self) -> np.ndarray:
        return self.vm * np.exp(1j * self.va)


@dataclass(frozen=True)
class ReducedNetwork:
    """Conductance/susceptance coupling between machine internal nodes, and
    the map from the internal EMFs back to the bus voltages.  Its rows are
    the case's machines, in `case.machine_index` order."""

    g: np.ndarray          # real (m, m)
    b: np.ndarray          # real (m, m)
    emf_to_bus: np.ndarray | None = None     # complex (n_bus, m): v = emf_to_bus @ e

    @property
    def n_machines(self) -> int:
        return self.g.shape[0]


def _pi_admittances(br: Branch) -> tuple[complex, complex]:
    """Series admittance and half the line charging of a pi-model branch."""
    return 1.0 / complex(br.r, br.x), 1j * br.b / 2.0


def branch_power(br: Branch, vf, vt):
    """Complex power (p.u.) entering the branch at the end with voltage `vf`
    (scalars or arrays); the pi model is end-symmetric, so either orientation
    is evaluated directly."""
    ys, sh = _pi_admittances(br)
    return vf * np.conj(ys * (vf - vt) + sh * vf)


def build_ybus(case: PowerSystemCase) -> np.ndarray:
    """Standard pi-model assembly, complex (n, n) in bus order; out-of-service
    branches excluded, shunts on the diagonal."""
    idx = case.bus_index
    n = len(idx)
    y = np.zeros((n, n), dtype=complex)
    for br in case.in_service_branches():
        ys, sh = _pi_admittances(br)
        f, t = idx[br.from_bus], idx[br.to_bus]
        y[f, f] += ys + sh
        y[t, t] += ys + sh
        y[f, t] -= ys
        y[t, f] -= ys
    for i, b in enumerate(case.buses):
        y[i, i] += 1j * b.shunt_susceptance
    return y


def bus_loads(case: PowerSystemCase) -> np.ndarray:
    """Complex load (p.u.) of each bus in bus order, the sum of its loads."""
    s = np.zeros(len(case.buses), dtype=complex)
    for l in case.loads:
        s[case.bus_index[l.bus]] += complex(l.p_mw, l.q_mvar) / case.base_mva
    return s


def _scheduled_injections(case: PowerSystemCase) -> tuple[np.ndarray, np.ndarray]:
    """Net scheduled complex injection (p.u.) and voltage setpoints per bus."""
    n = len(case.buses)
    s = np.zeros(n, dtype=complex)
    for m in case.machines:
        s[case.bus_index[m.bus]] += m.p_sched_mw / case.base_mva
    s -= bus_loads(case)
    vset = np.ones(n)
    for i, b in enumerate(case.buses):
        if b.kind in ("pv", "slack"):
            vset[i] = case.setpoint_for_bus(b)
    return s, vset


def solve_power_flow(case: PowerSystemCase, tol: float = 1e-10,
                     max_iter: int = 25) -> PowerFlowSolution:
    """The power flow of one case: :func:`solve_power_flows` on a stack of
    one.  Raises the case's PowerFlowDiverged."""
    return alone(solve_power_flows([case], tol, max_iter))


def solve_power_flows(cases, tol: float = 1e-10, max_iter: int = 25
                      ) -> list[PowerFlowSolution | PowerFlowDiverged]:
    """Full Newton power flows in polar coordinates from a flat start, one
    iteration over a stack of cases that share their buses (the same ids and
    kinds in the same order).

    Each case's outcome is what it gives solved alone, bit for bit: its
    solution, or the PowerFlowDiverged it stops with when the iteration cap
    is hit, the update produces non-finite voltages (infeasible operating
    point) or its Jacobian is singular (the LinAlgError is the cause).  An
    iteration updates only the cases still iterating.  Cases that hold the
    same branch and bus records share one admittance matrix, as the points
    of a stress sweep do.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not cases:
        return []
    first = cases[0].buses
    buses = [(b.id, b.kind) for b in first]
    if any(c.buses is not first and [(b.id, b.kind) for b in c.buses] != buses
           for c in cases):
        raise ValueError("the cases of one power-flow stack must share their buses")
    n = len(buses)
    kinds = [k for _, k in buses]
    slack = [i for i, k in enumerate(kinds) if k == "slack"]
    if len(slack) != 1:
        raise ValueError(f"expected exactly one slack bus, found {len(slack)}")
    pv = np.array([i for i, k in enumerate(kinds) if k == "pv"], dtype=int)
    pq = np.array([i for i, k in enumerate(kinds) if k == "pq"], dtype=int)
    pvpq = np.concatenate([pv, pq]).astype(int)
    npvpq = len(pvpq)

    networks, ybus = {}, []
    for c in cases:
        key = (id(c.branches), id(c.buses))
        if key not in networks:
            networks[key] = build_ybus(c)
            networks[key].flags.writeable = False     # shared by its cases' solutions
        ybus.append(networks[key])

    # the flat start: every bus at its voltage setpoint (1 p.u. at pq buses)
    k = len(cases)
    s_spec = np.empty((k, n), dtype=complex)
    vm = np.empty((k, n))
    for i, c in enumerate(cases):
        s_spec[i], vm[i] = _scheduled_injections(c)
    va = np.zeros((k, n))

    # the Jacobian's rows (P at pv and pq buses, Q at pq buses) and columns
    # (angle at pv and pq buses, magnitude at pq buses) as flat indexes into
    # the interleaved real views of dS/dva and dS/dvm, row-major (n, 2n):
    # entry (i, j) has its real part at 2 n i + 2 j and its imaginary one next
    row = np.concatenate((2 * n * pvpq, 2 * n * pq + 1))[:, None]
    at_va, at_vm = row + 2 * pvpq, row + 2 * pq

    def mismatch(y, vc, s_spec):
        """The bus currents, the computed injections, the mismatch vectors
        and each case's largest absolute mismatch (0 for an empty one)."""
        ibus = (y @ vc[..., None])[..., 0]
        s_calc = vc * np.conj(ibus)
        ds = s_calc - s_spec
        g = np.concatenate((ds.real.take(pvpq, axis=1), ds.imag.take(pq, axis=1)), axis=1)
        return ibus, s_calc, g, np.abs(g).max(axis=1, initial=0.0)

    def diagonal(d):
        """The diagonal matrices of the rows of `d`, as np.diag builds them."""
        dm = np.zeros(d.shape + d.shape[-1:], dtype=complex)
        dm.reshape(len(d), -1)[:, ::n + 1] = d
        return dm

    out: list = [None] * k
    live = np.arange(k)                  # the stack's rows as positions in `cases`
    y = np.stack(ybus)
    iterations = 0
    vc = vm * np.exp(1j * va)
    ibus, s_calc, g, max_mis = mismatch(y, vc, s_spec)
    while True:
        done = max_mis <= tol            # NaN is not: it diverges below
        stop = done | (iterations >= max_iter) | ~np.isfinite(max_mis)
        if stop.any():
            for j in np.flatnonzero(stop):
                i, mis = live[j], float(max_mis[j])
                if not done[j]:
                    out[i] = PowerFlowDiverged(iterations, mis)
                    continue
                out[i] = PowerFlowSolution(
                    ybus=ybus[i], bus_ids=tuple(cases[i].bus_index), vm=vm[j].copy(),
                    va=va[j].copy(), p=s_calc[j].real.copy(), q=s_calc[j].imag.copy(),
                    iterations=iterations, max_mismatch=mis)
            if stop.all():
                return out
            keep = ~stop
            live, y, vm, va, s_spec, vc, ibus, g, max_mis = (
                a[keep] for a in (live, y, vm, va, s_spec, vc, ibus, g, max_mis))
        # MATPOWER-style complex power flow Jacobian, split into real blocks
        m = len(live)
        diag_v, diag_i, diag_e = diagonal(vc), diagonal(ibus), diagonal(vc / np.abs(vc))
        ds_dva = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
        ds_dvm = diag_v @ np.conj(y @ diag_e) + np.conj(diag_i) @ diag_e
        jac = np.concatenate((ds_dva.view(float).reshape(m, -1).take(at_va, axis=1),
                              ds_dvm.view(float).reshape(m, -1).take(at_vm, axis=1)),
                             axis=2)
        dx, refused = solve_each(jac, -g[..., None])
        if refused:
            # LAPACK refused these cases' Jacobians: only they stop
            for j, exc in refused.items():
                out[live[j]] = err = PowerFlowDiverged(iterations, float(max_mis[j]))
                err.__cause__ = exc
            if len(refused) == m:
                return out
            keep = np.array([j not in refused for j in range(m)])
            live, y, vm, va, s_spec, dx = (a[keep] for a in (live, y, vm, va, s_spec, dx))
        va[:, pvpq] += dx[:, :npvpq, 0]
        vm[:, pq] += dx[:, npvpq:, 0]
        iterations += 1
        vc = vm * np.exp(1j * va)
        ibus, s_calc, g, max_mis = mismatch(y, vc, s_spec)


def load_admittances(case: PowerSystemCase, sol: PowerFlowSolution) -> np.ndarray:
    """Per-bus shunt admittance of constant-impedance loads at the solved voltages."""
    return np.conj(bus_loads(case)) / sol.vm ** 2


def machine_internal_admittances(case: PowerSystemCase) -> np.ndarray:
    """1/(j xdp) per machine on the system base."""
    xdp_sys = np.array([m.system_reactances(case.base_mva)[2] for m in case.machines])
    return 1.0 / (1j * xdp_sys)


def kron_reduce(case: PowerSystemCase, y_load: np.ndarray,
                ybus: np.ndarray | None = None) -> ReducedNetwork:
    """The Kron reduction of one case: :func:`kron_reductions` on a stack of
    one.  `ybus` is the case's own admittance matrix when the caller has it
    (a power flow's `sol.ybus` on the same case); otherwise it is built
    here.  Raises the case's KronReductionError."""
    return alone(kron_reductions(case, [y_load], [build_ybus(case) if ybus is None else ybus]))


def kron_reductions(case: PowerSystemCase, y_loads, ybuses
                    ) -> list[ReducedNetwork | KronReductionError]:
    """Eliminate every bus, keeping the machine internal nodes (Schur
    complement), for a stack of points with `case`'s buses and machines:
    point i has the per-bus load shunts ``y_loads[i]`` (constant-impedance
    loads) and the admittance matrix ``ybuses[i]``.

    A point's bus block is its Ybus, plus its load shunts, plus each
    machine's transient admittance 1/(j x'd) at its bus; that admittance also
    joins the bus to the machine's internal node, so the machine blocks are
    built once for the stack.  One stacked elimination solve gives every
    point's reduction and its map from internal EMFs to bus voltages.  Each
    point's outcome is what it gives reduced alone, bit for bit: its
    network, or the KronReductionError of a singular or non-finite
    elimination (an islanded node).
    """
    if not len(y_loads):
        return []
    n = len(case.buses)
    m = len(case.machines)
    at = np.array([case.bus_index[mach.bus] for mach in case.machines], dtype=np.intp)
    y_int = machine_internal_admittances(case)

    y_load = np.asarray(y_loads)
    diag = np.zeros(y_load.shape + (n,), dtype=complex)
    diag.reshape(len(y_load), -1)[:, ::n + 1] = y_load
    y_ee = np.stack(ybuses) + diag
    # machines may share a bus: add in case order
    np.add.at(y_ee, (slice(None), at, at), y_int)
    y_ke = np.zeros((m, n), dtype=complex)
    y_ke[np.arange(m), at] -= y_int
    y_kk = np.diag(y_int)
    x, refused = solve_each(y_ee, y_ke.T)
    reduced = y_kk - y_ke @ x
    out: list = []
    for j, (xj, rj) in enumerate(zip(x, reduced)):
        if j in refused:
            out.append(KronReductionError("singular elimination block (islanded node)"))
            out[-1].__cause__ = refused[j]
        elif not (np.all(np.isfinite(xj)) and np.all(np.isfinite(rj))):
            out.append(KronReductionError("non-finite entries after elimination (islanded node)"))
        else:
            out.append(ReducedNetwork(g=rj.real.copy(), b=rj.imag.copy(), emf_to_bus=-xj))
    return out


def branch_flow(case: PowerSystemCase, sol: PowerFlowSolution,
                from_bus: int, to_bus: int, circuit: int) -> complex:
    """Complex power (p.u.) entering the branch at from_bus."""
    br = case.find_branch(from_bus, to_bus, circuit)
    if br is None or not br.in_service:
        raise ValueError(f"branch {from_bus}-{to_bus} circuit {circuit} not in service")
    vc = sol.voltage()
    return branch_power(br, vc[case.bus_index[from_bus]], vc[case.bus_index[to_bus]])
