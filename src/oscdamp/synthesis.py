"""Decentralized damping-gain synthesis.

Pipeline: bound the network-coupling disturbance seen by each machine by a
quadratic form in angle deviations, assemble the stabilization LMI over the
per-machine governor design models, solve it with the interior-point core,
and extract state-feedback gain rows.

Power bookkeeping: the reduced network and its coupling weights live on the
system base, while each machine's design model (and therefore its disturbance
input) lives on the machine base.  `power_scale` (system MVA / machine MVA)
converts the quadratic weights; the scaling cancels in the bound-soundness
check, which therefore runs on the system base.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .case import CaseError, PowerSystemCase, check_keys, read_value
from .powerflow import ReducedNetwork
from .dynamics import DesignModel, Equilibrium, build_design_matrices
from .lmi import (LmiProblem, Term, LmiSolution, SolutionCheck, solve_sdp,
                  check_solution)


class SynthesisError(Exception):
    pass


# Deployment disturbance level as a fraction of the formal over-bound; see
# design_controllers for the rationale.  Tuned on the bundled benchmark.
DEFAULT_BOUND_SCALE = 1e-2

# EMF ceilings of the coupling bound: this factor times the equilibrium
# magnitudes, with an absolute floor on the d-axis.
E_MAX_FACTOR = 1.3
E_MAX_D_FLOOR = 0.1

# Shift that makes every strict inequality of the synthesis LMI non-strict.
EPS = 1e-6


@dataclass
class CouplingBounds:
    """Per-pair quadratic disturbance weights and their machine-base scaling."""

    e_max_q: np.ndarray
    e_max_d: np.ndarray
    w_qq: np.ndarray
    w_qd: np.ndarray
    w_dq: np.ndarray
    w_dd: np.ndarray
    power_scale: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.w_qq + self.w_qd + self.w_dq + self.w_dd

    @property
    def scaled_total(self) -> np.ndarray:
        """Weights converted to each machine's own power base (row-wise)."""
        return (self.power_scale ** 2)[:, None] * self.total


def coupling_bounds(reduced: ReducedNetwork, e_max_q: np.ndarray,
                    e_max_d: np.ndarray,
                    power_scale: np.ndarray | None = None) -> CouplingBounds:
    """Quadratic over-bound weights for the coupling disturbance of each machine.

    Weight pattern per pair (i, j):
        4 * Ea_i^2 * Eb_j * |y_ij| * sum_k Eb_k * |y_ik|
    with |y_ij| = sqrt(G_ij^2 + B_ij^2), (a, b) running over the four
    q/d-axis EMF combinations; the vanishing self-deviation terms keep the
    diagonal (k = i, j = i) out of both the sum and the weights.
    """
    eq = np.asarray(e_max_q, dtype=float)
    ed = np.asarray(e_max_d, dtype=float)
    n = reduced.n_machines
    if eq.shape != (n,) or ed.shape != (n,):
        raise SynthesisError("e_max arrays must have one entry per machine")
    coupling = np.hypot(reduced.g, reduced.b)
    np.fill_diagonal(coupling, 0.0)
    sum_q = coupling @ eq          # sum_k Eq_k |y_ik|, k != i
    sum_d = coupling @ ed

    def weights(e_own, e_other, sums):
        w = 4.0 * (e_own ** 2)[:, None] * e_other[None, :] * coupling * sums[:, None]
        np.fill_diagonal(w, 0.0)
        return w

    scale = np.ones(n) if power_scale is None else np.asarray(power_scale, dtype=float)
    return CouplingBounds(
        e_max_q=eq.copy(), e_max_d=ed.copy(),
        w_qq=weights(eq, eq, sum_q),
        w_qd=weights(eq, ed, sum_d),
        w_dq=weights(ed, eq, sum_q),
        w_dd=weights(ed, ed, sum_d),
        power_scale=scale.copy())


def coupling_rows(bounds: CouplingBounds,
                  subset: list[int] | None = None,
                  weight_scale: float = 1.0) -> list[np.ndarray]:
    """Disturbance rows per machine over the stacked 5-state design vector.

    Row j of machine i's matrix is sqrt(w_ij) * (e_delta_i - e_delta_j), which
    makes  |rows_i @ dx|^2 == sum_j w_ij (ddelta_i - ddelta_j)^2  exactly.
    `weight_scale` deflates the weights uniformly (deployment tolerance level).
    """
    n_total = bounds.total.shape[0]
    idx = list(range(n_total)) if subset is None else list(subset)
    w = weight_scale * bounds.scaled_total[np.ix_(idx, idx)]
    n = len(idx)
    out = []
    for a in range(n):
        rows = []
        for b in range(n):
            if b == a or w[a, b] <= 0.0:
                continue
            row = np.zeros(5 * n)
            row[5 * a] = np.sqrt(w[a, b])
            row[5 * b] = -np.sqrt(w[a, b])
            rows.append(row)
        out.append(np.array(rows) if rows else np.zeros((0, 5 * n)))
    return out


def coupling_disturbance(reduced: ReducedNetwork, delta_eq: np.ndarray,
                         delta: np.ndarray, eqp: np.ndarray,
                         edp: np.ndarray) -> np.ndarray:
    """Exact per-machine electrical-power deviation from angle excursions.

    Evaluates the four EMF-product components against the trigonometric
    deviations (cos/sin at current angles minus at equilibrium angles); EMF
    magnitudes are taken at their current values.  Broadcasts over a leading
    sample axis.
    """
    delta = np.atleast_2d(delta)
    eqp = np.atleast_2d(eqp)
    edp = np.atleast_2d(edp)
    dij = delta[:, :, None] - delta[:, None, :]
    dij_eq = delta_eq[:, None] - delta_eq[None, :]
    cdev = np.cos(dij) - np.cos(dij_eq)[None]
    sdev = np.sin(dij) - np.sin(dij_eq)[None]
    g, b = reduced.g, reduced.b
    gc_bs = g[None] * cdev + b[None] * sdev
    bc_gs = b[None] * cdev - g[None] * sdev
    h = (np.einsum("si,sj,sij->si", eqp, eqp, gc_bs)
         + np.einsum("si,sj,sij->si", eqp, edp, bc_gs)
         - np.einsum("si,sj,sij->si", edp, eqp, bc_gs)
         + np.einsum("si,sj,sij->si", edp, edp, gc_bs))
    return h


def verify_bound(bounds: CouplingBounds, reduced: ReducedNetwork,
                 delta_eq: np.ndarray, samples: int = 100_000,
                 angle_range: float = np.pi / 3, seed: int = 0,
                 weight_factor: float = 1.0) -> int:
    """Monte Carlo soundness check of the quadratic disturbance bound.

    Samples angle deviations within +-angle_range and EMFs within the stated
    ceilings, evaluates the exact disturbance, and counts samples violating
    h_i^2 <= 4 y_i' W_i y_i (on the system base, where the machine-base
    scaling cancels).  `weight_factor` deflates the weights for falsification
    tests; the expected count at 1.0 is zero.
    """
    rng = np.random.default_rng(seed)
    n = reduced.n_machines
    w = bounds.total * weight_factor
    violations = 0
    batch = 20_000
    done = 0
    while done < samples:
        s = min(batch, samples - done)
        ddelta = rng.uniform(-angle_range, angle_range, size=(s, n))
        eqp = rng.uniform(-bounds.e_max_q, bounds.e_max_q, size=(s, n))
        edp = rng.uniform(-bounds.e_max_d, bounds.e_max_d, size=(s, n))
        h = coupling_disturbance(reduced, delta_eq, delta_eq[None] + ddelta, eqp, edp)
        diff = ddelta[:, :, None] - ddelta[:, None, :]
        rhs = np.einsum("ij,sij->si", w, diff ** 2)      # == 4 y' W y
        violations += int(np.sum(h ** 2 > rhs + 1e-12))
        done += s
    return violations


# --- LMI assembly ---------------------------------------------------------------

def assemble_synthesis_lmi(design_models: list[DesignModel],
                           h_rows: list[np.ndarray],
                           beta_bar: np.ndarray | float = 1.0) -> LmiProblem:
    """Build the gain-synthesis LMI over the given machines.

    Variables per machine: Y (5x5 symmetric), five gain-seed scalars L_k,
    and the scalars gamma, kappa_y, kappa_l.  A machine without coupling
    rows sees no disturbance, so it has no gamma and no margin block (a
    gamma bounded only by its margin would run off to minus infinity).
    Strict inequalities carry an EPS*I shift.  The objective minimizes
    sum(gamma + kappa_y + kappa_l).
    Each term is its small coefficient at its offset: the stability block
    holds the 5N design states, then one disturbance row per machine, then
    each machine's coupling rows.
    """
    n = len(design_models)
    if n == 0:
        raise SynthesisError("empty design subset")
    if len(h_rows) != n:
        raise SynthesisError("one disturbance-row matrix is required per machine")
    beta = np.full(n, float(beta_bar)) if np.isscalar(beta_bar) else np.asarray(beta_bar, dtype=float)
    if np.any(beta < 1.0):
        raise SynthesisError("beta_bar must be at least 1")

    m_rows = [h.shape[0] for h in h_rows]
    p = LmiProblem()
    for i in range(n):
        p.add_symmetric(f"Y{i}", 5)
        for k in range(5):
            p.add_scalar(f"L{i}_{k}")
        if m_rows[i] > 0:
            p.add_scalar(f"gamma{i}")
            p.objective[f"gamma{i}"] = 1.0
        p.add_scalar(f"kappaY{i}")
        p.add_scalar(f"kappaL{i}")
        p.objective[f"kappaY{i}"] = 1.0
        p.objective[f"kappaL{i}"] = 1.0

    dim = 5 * n + n + sum(m_rows)
    c_dist = 5 * n
    h_off = (c_dist + n + np.cumsum([0] + m_rows[:-1])).tolist()   # coupling rows' first row

    # per-machine positivity of Y
    eye5 = np.eye(5)
    for i in range(n):
        con = p.add_constraint(f"Ypos{i}", 5, const=-EPS * eye5)
        con.terms.append(Term(f"Y{i}", eye5, eye5))

    # the bordered stabilization block, negated into PSD form
    const = -EPS * np.eye(dim)
    for i, dm in enumerate(design_models):
        const[5 * i:5 * i + 5, c_dist + i] -= dm.g
        const[c_dist + i, 5 * i:5 * i + 5] -= dm.g
    const[c_dist:c_dist + n, c_dist:c_dist + n] += np.eye(n)
    big = p.add_constraint("stability", dim, const=const)
    for i, dm in enumerate(design_models):
        big.terms.append(Term(f"Y{i}", -dm.a, eye5, 5 * i, 5 * i, symmetrize=True))
        for k in range(5):
            big.terms.append(Term(f"L{i}_{k}", -dm.b[:, None], [[1.0]], 5 * i, 5 * i + k,
                                  symmetrize=True))
        if m_rows[i] > 0:
            big.terms.append(Term(f"gamma{i}", np.eye(m_rows[i]), np.eye(m_rows[i]),
                                  h_off[i], h_off[i]))
            for j in range(n):
                hij = h_rows[i][:, 5 * j:5 * j + 5]
                if np.any(hij != 0.0):
                    big.terms.append(Term(f"Y{j}", -hij, eye5, h_off[i], 5 * j,
                                          symmetrize=True))

    for i in range(n):
        # gain-seed magnitude block: [[kl*I, -L'], [-L, 1]] >= EPS*I
        const6 = -EPS * np.eye(6)
        const6[5, 5] += 1.0
        con = p.add_constraint(f"gainmag{i}", 6, const=const6)
        con.terms.append(Term(f"kappaL{i}", eye5, eye5))
        for k in range(5):
            con.terms.append(Term(f"L{i}_{k}", [[-1.0]], [[1.0]], k, 5, symmetrize=True))

        # conditioning block: [[Y, I], [I, ky*I]] >= EPS*I
        const10 = -EPS * np.eye(10)
        const10[:5, 5:] += eye5
        const10[5:, :5] += eye5
        con = p.add_constraint(f"conditioning{i}", 10, const=const10)
        con.terms.append(Term(f"Y{i}", eye5, eye5))
        con.terms.append(Term(f"kappaY{i}", eye5, eye5, 5, 5))

        # robustness margin: gamma < 1/beta^2 (strict via EPS)
        if m_rows[i] > 0:
            con = p.add_constraint(f"margin{i}", 1,
                                   const=[[1.0 / beta[i] ** 2 - EPS]])
            con.terms.append(Term(f"gamma{i}", [[-1.0]], [[1.0]]))
    return p


@dataclass
class ControllerSet:
    """Per-machine feedback rows over [delta, omega_r, pm, xm, xe]; the
    reference they act about is each operating point's own equilibrium."""

    machine_ids: tuple[int, ...]
    gains: np.ndarray          # (n, 5); zero rows for uncontrolled machines

    def gains_for(self, machine_ids: tuple[int, ...]) -> np.ndarray:
        """Gain rows in the order of `machine_ids`; every id must have one."""
        missing = [m for m in machine_ids if m not in self.machine_ids]
        if missing:
            raise CaseError(f"controller gains lack machine(s) {missing}")
        return self.gains[[self.machine_ids.index(m) for m in machine_ids]]

    def to_dict(self) -> dict:
        return {"machine_ids": list(self.machine_ids),
                "gains": self.gains.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ControllerSet":
        """Read a `controllers` block: distinct integer `machine_ids` and, per
        id, a row of 5 finite gains; an `x_ref` entry of older files is ignored."""
        if not isinstance(d, dict):
            raise CaseError("expected an object", "controllers")
        check_keys(d, {"machine_ids", "gains", "x_ref"}, {"machine_ids", "gains"},
                   "controllers")
        ids, rows = d["machine_ids"], d["gains"]
        if not isinstance(ids, list):
            raise CaseError("expected a list", "controllers.machine_ids")
        ids = tuple(read_value(v, int, f"controllers.machine_ids[{i}]")
                    for i, v in enumerate(ids))
        if len(set(ids)) != len(ids):
            raise CaseError(f"machine ids repeat: {list(ids)}", "controllers.machine_ids")
        if not isinstance(rows, list) or len(rows) != len(ids):
            raise CaseError(f"expected a list of {len(ids)} rows, one per machine id",
                            "controllers.gains")
        gains = np.zeros((len(ids), 5))
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 5:
                raise CaseError("expected a row of 5 numbers", f"controllers.gains[{i}]")
            gains[i] = [read_value(v, float, f"controllers.gains[{i}][{j}]")
                        for j, v in enumerate(row)]
        return cls(machine_ids=ids, gains=gains)


@dataclass
class SynthesisLmi:
    """The gain-synthesis LMI of one operating point, and what its solution
    is read against: the design models as the LMI states them (per-unit
    speed) and the state scale back to physical units."""

    subset: tuple[int, ...]
    models: list[DesignModel]
    state_scale: np.ndarray
    problem: LmiProblem
    e_max_q: np.ndarray
    e_max_d: np.ndarray
    beta_bar: np.ndarray
    bound_scale: float


@dataclass
class SynthesisResult:
    """A certified design: the LMI, its solution and the solution's check,
    the designed machines' gain rows (subset order, physical units) and
    their design-level closed-loop eigenvalues."""

    lmi: SynthesisLmi
    solution: LmiSolution
    check: SolutionCheck
    gains: np.ndarray
    closed_loop_eigs: dict = field(default_factory=dict)

    def by_machine(self, name: str) -> dict:
        """The solution's `name` variable (gamma, kappaY, kappaL, Y) of each
        designed machine, keyed by machine id as the report writes it.  The
        gamma of a machine without coupling rows, which the LMI does not
        have, reads 0.0."""
        return {str(mid): self.solution.values.get(f"{name}{i}", 0.0)
                for i, mid in enumerate(self.lmi.subset)}

    def summary(self) -> dict:
        return {
            "subset": list(self.lmi.subset),
            "status": self.solution.status,
            "objective": self.solution.objective,
            "gap": self.solution.gap,
            "gamma": self.by_machine("gamma"),
            "kappa_y": self.by_machine("kappaY"),
            "kappa_l": self.by_machine("kappaL"),
            "gains": {str(mid): list(row) for mid, row in zip(self.lmi.subset, self.gains)},
            "min_block_eig": min(self.check.min_eigs),
            "e_max_q": self.lmi.e_max_q.tolist(),
            "e_max_d": self.lmi.e_max_d.tolist(),
            "beta_bar": self.lmi.beta_bar.tolist(),
            "bound_scale": self.lmi.bound_scale,
            "eps": EPS,
            "closed_loop_max_re": max(float(np.max(e.real))
                                      for e in self.closed_loop_eigs.values()),
        }


def extract_gains(solution: LmiSolution, design_models: list[DesignModel],
                  all_ids: tuple[int, ...],
                  state_scale: np.ndarray) -> tuple[ControllerSet, dict]:
    """Recover k_i = L_i Y_i^{-1} from machine i's own blocks, assert the
    design-level closed loop is stable, and divide by `state_scale` (the
    similarity scaling of the design models) for gains in physical state
    units.  Machines outside the design get zero rows."""
    gains = np.zeros((len(all_ids), 5))
    eigs_by_id = {}
    for i, dm in enumerate(design_models):
        y = solution.values[f"Y{i}"]
        l_row = np.array([solution.values[f"L{i}_{k}"] for k in range(5)])
        cond = np.linalg.cond(y)
        if not np.isfinite(cond) or cond > 1e12:
            raise SynthesisError(f"machine {dm.machine_id}: Y numerically singular")
        k_row = l_row @ np.linalg.inv(y)
        eigs = np.linalg.eigvals(dm.a + np.outer(dm.b, k_row))
        if np.max(eigs.real) >= 0.0:
            raise SynthesisError(
                f"machine {dm.machine_id}: closed-loop design block not Hurwitz "
                f"(max Re {np.max(eigs.real):.3e}); solver tolerance failure")
        gains[all_ids.index(dm.machine_id)] = k_row / state_scale
        eigs_by_id[dm.machine_id] = eigs
    return ControllerSet(machine_ids=tuple(all_ids), gains=gains), eigs_by_id


def governed_subset(case: PowerSystemCase, subset: list[int] | None = None) -> list[int]:
    """The machines that host damping controllers: `subset`, or every
    machine with a governor when it is None.  A controller acts through its
    machine's steam governor, so an unknown id, a machine without a governor
    and an empty set are input errors."""
    governed = [m.id for m in case.machines if case.governor_for(m.id) is not None]
    subset_ids = governed if subset is None else list(subset)
    if not subset_ids:
        raise CaseError("no machine with a steam governor to host a damping controller")
    known = {m.id for m in case.machines}
    for mid in subset_ids:
        if mid not in known:
            raise CaseError(f"unknown machine {mid} named to host a damping controller")
        if mid not in governed:
            raise CaseError(f"machine {mid} has no steam governor and cannot "
                            "host a damping controller")
    return subset_ids


def synthesis_lmi(case: PowerSystemCase, equilibrium: Equilibrium,
                  subset: list[int] | None = None,
                  beta_bar: float | np.ndarray = 1.0,
                  bound_scale: float = DEFAULT_BOUND_SCALE) -> SynthesisLmi:
    """The synthesis LMI at an initialized operating point, on the reduced
    network the point was initialized on, assembled but not solved.

    `subset` lists machine ids to host controllers (:func:`governed_subset`;
    default: every machine with a governor).  EMF ceilings are E_MAX_FACTOR
    times the equilibrium magnitudes with an absolute floor of E_MAX_D_FLOOR
    on the d-axis.

    `bound_scale` sets the disturbance level the gains are certified against,
    as a fraction of the formal quadratic over-bound.  The over-bound's
    four-way component split plus the EMF-ceiling inflation make it very
    conservative (an order of magnitude above any realizable coupling power),
    and certifying against all of it forces valve commands beyond the
    physical [0, 1] range.  The default deploys at a level near the tight
    empirical disturbance envelope, so the gains are certified against
    `bound_scale` times the bound; :func:`verify_bound` samples the unscaled
    bound.  The value is recorded in every report.
    """
    subset_ids = governed_subset(case, subset)
    pos = {m.id: k for k, m in enumerate(case.machines)}
    e_max_q = E_MAX_FACTOR * np.abs(equilibrium.eqp)
    e_max_d = np.maximum(E_MAX_FACTOR * np.abs(equilibrium.edp), E_MAX_D_FLOOR)
    power_scale = np.array([case.base_mva / m.mva for m in case.machines])
    bounds = coupling_bounds(equilibrium.network, e_max_q, e_max_d,
                             power_scale=power_scale)

    subset_pos = [pos[mid] for mid in subset_ids]
    h_rows = coupling_rows(bounds, subset=subset_pos, weight_scale=bound_scale)
    design_models = [build_design_matrices(case.machine_by_id(mid),
                                           case.governor_for(mid), case.omega0)
                     for mid in subset_ids]
    # per-unit speed inside the solver: without this the decision variables
    # span ~omega0^2 in magnitude and the interior point crawls
    tscale = np.array([1.0, case.omega0, 1.0, 1.0, 1.0])
    scaled_models = [DesignModel(machine_id=dm.machine_id,
                                 a=dm.a * tscale[None, :] / tscale[:, None],
                                 b=dm.b / tscale,
                                 g=dm.g / tscale)
                     for dm in design_models]
    beta = np.full(len(subset_ids), float(beta_bar)) if np.isscalar(beta_bar) \
        else np.asarray(beta_bar, dtype=float)
    return SynthesisLmi(subset=tuple(subset_ids), models=scaled_models,
                        state_scale=tscale,
                        problem=assemble_synthesis_lmi(scaled_models, h_rows,
                                                       beta_bar=beta),
                        e_max_q=e_max_q, e_max_d=e_max_d, beta_bar=beta,
                        bound_scale=bound_scale)


def design_controllers(case: PowerSystemCase, equilibrium: Equilibrium,
                       subset: list[int] | None = None,
                       beta_bar: float | np.ndarray = 1.0,
                       bound_scale: float = DEFAULT_BOUND_SCALE
                       ) -> tuple[ControllerSet, SynthesisResult]:
    """Full synthesis pipeline: the LMI of :func:`synthesis_lmi`, solved,
    certified by :func:`check_solution`, and read back into gain rows in
    physical state units.  A solution the check refuses gives no gains."""
    syn = synthesis_lmi(case, equilibrium, subset, beta_bar, bound_scale)
    solution = solve_sdp(syn.problem)
    if solution.status != "optimal":
        raise SynthesisError(f"synthesis LMI not solved: status {solution.status}")
    chk = check_solution(syn.problem, solution)
    if not chk.passes():
        worst = int(np.argmin(chk.min_eigs))
        raise SynthesisError(
            f"synthesis LMI solution fails its check: block "
            f"{syn.problem.constraints[worst].name} has smallest eigenvalue "
            f"{chk.min_eigs[worst]:.3e}")
    all_ids = tuple(m.id for m in case.machines)
    controllers, eigs = extract_gains(solution, syn.models, all_ids, syn.state_scale)
    return controllers, SynthesisResult(lmi=syn, solution=solution, check=chk,
                                        gains=controllers.gains_for(syn.subset),
                                        closed_loop_eigs=eigs)
