"""Linear objectives under linear-matrix-inequality constraints.

Problems are stated over scalar and symmetric-matrix decision variables with
affine matrix-valued constraints required positive semidefinite.  The solver
is a logarithmic-barrier path-following interior-point method on the
vectorized problem: phase 1 minimizes a uniform slack to find a strictly
feasible point, phase 2 follows the central path with damped Newton steps.
Everything is dense numpy linear algebra and deterministic; each block's
inverse comes from the inverse of its Cholesky factor.

The module also writes/reads the SDPA sparse exchange format (``.dat-s``) so
third-party solvers can cross-check solutions, and re-verifies any solution
independently of the solver internals (:func:`check_solution`).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np


class LmiError(Exception):
    pass


@dataclass(frozen=True)
class ScalarVar:
    name: str


@dataclass(frozen=True)
class SymMatrixVar:
    name: str
    dim: int


@dataclass(frozen=True)
class Term:
    """Contribution  left @ V @ right  (plus its transpose when symmetrize is set)."""

    var: str
    left: np.ndarray
    right: np.ndarray
    symmetrize: bool = False


@dataclass
class Constraint:
    """Affine matrix expression  const + sum(terms)  required PSD."""

    name: str
    dim: int
    const: np.ndarray
    terms: list[Term] = field(default_factory=list)


@dataclass
class LmiProblem:
    variables: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)   # var name -> float or matrix
    constraints: list[Constraint] = field(default_factory=list)

    def add_scalar(self, name: str) -> ScalarVar:
        v = ScalarVar(name)
        self.variables.append(v)
        return v

    def add_symmetric(self, name: str, dim: int) -> SymMatrixVar:
        v = SymMatrixVar(name, dim)
        self.variables.append(v)
        return v

    def add_constraint(self, name: str, dim: int,
                       const: np.ndarray | None = None) -> Constraint:
        c = Constraint(name=name, dim=dim,
                       const=np.zeros((dim, dim)) if const is None else np.array(const, dtype=float))
        self.constraints.append(c)
        return c


@dataclass
class CanonicalSdp:
    """min c.x  s.t.  F0_b + sum_k x_k F_bk  PSD  for every block b."""

    c: np.ndarray                 # (n,)
    f0: list                      # [(d_b, d_b)]
    fk: list                      # [(n, d_b, d_b)]

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def total_dim(self) -> int:
        return sum(f.shape[0] for f in self.f0)


def _component_offsets(variables) -> tuple[int, dict]:
    """Number of scalar components and each variable's first component: one
    for a scalar, the upper triangle row by row for a symmetric matrix."""
    n = 0
    offset = {}
    for v in variables:
        offset[v.name] = n
        n += 1 if isinstance(v, ScalarVar) else v.dim * (v.dim + 1) // 2
    return n, offset


def _basis_matrix(dim: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    m[i, j] = 1.0
    if i != j:
        m[j, i] = 1.0
    return m


def canonicalize(problem: LmiProblem) -> CanonicalSdp:
    vars_by_name = {v.name: v for v in problem.variables}
    if len(vars_by_name) != len(problem.variables):
        raise LmiError("duplicate variable names")
    n, offset = _component_offsets(problem.variables)

    c = np.zeros(n)
    for name, coef in problem.objective.items():
        v = vars_by_name.get(name)
        if v is None:
            raise LmiError(f"objective references unknown variable {name}")
        if isinstance(v, ScalarVar):
            c[offset[name]] += float(coef)
        else:
            cm = np.asarray(coef, dtype=float)
            if cm.shape != (v.dim, v.dim):
                raise LmiError(f"objective coefficient for {name} has wrong shape")
            k = offset[name]
            for i in range(v.dim):
                for j in range(i, v.dim):
                    c[k] += cm[i, j] if i == j else cm[i, j] + cm[j, i]
                    k += 1

    f0 = []
    fk = []
    for con in problem.constraints:
        d = con.dim
        if con.const.shape != (d, d):
            raise LmiError(f"constraint {con.name}: constant has wrong shape")
        fmat = np.zeros((n, d, d))
        for t in con.terms:
            v = vars_by_name.get(t.var)
            if v is None:
                raise LmiError(f"constraint {con.name} references unknown variable {t.var}")
            left = np.atleast_2d(np.asarray(t.left, dtype=float))
            right = np.atleast_2d(np.asarray(t.right, dtype=float))
            if isinstance(v, ScalarVar):
                # scalar terms allow any conformable left @ right product
                if left.shape[0] != d or right.shape[1] != d \
                        or left.shape[1] != right.shape[0]:
                    raise LmiError(f"constraint {con.name}, term on {t.var}: shape mismatch")
            elif left.shape != (d, v.dim) or right.shape != (v.dim, d):
                raise LmiError(f"constraint {con.name}, term on {t.var}: shape mismatch")
            k = offset[t.var]
            if isinstance(v, ScalarVar):
                contrib = left @ right
                if t.symmetrize:
                    contrib = contrib + contrib.T
                fmat[k] += contrib
            else:
                vd = v.dim
                for i in range(vd):
                    for j in range(i, vd):
                        contrib = left @ _basis_matrix(vd, i, j) @ right
                        if t.symmetrize:
                            contrib = contrib + contrib.T
                        fmat[k] += contrib
                        k += 1
        f0.append(con.const.copy())
        fk.append(fmat)
    return CanonicalSdp(c=c, f0=f0, fk=fk)


# Path-following controls.  MAX_NEWTON caps the centering effort per barrier
# stage: stages that stall return the best interior point reached, which keeps
# the path practical on badly conditioned problems; solution quality is judged
# by the independent residual checks rather than centering exactness.
GAP_TOL = 3e-8
MAX_OUTER = 80
MAX_NEWTON = 15
MU = 20.0
NEWTON_TOL = 1e-10
ARMIJO = 0.01
FEASIBILITY_MARGIN = 1e-9


@dataclass
class LmiSolution:
    status: str                       # optimal | infeasible | iteration_limit | numerical_failure
    values: dict
    objective: float
    x: np.ndarray
    gap: float
    residual_min_eigs: list
    iterations: int


def _eval_blocks(sdp: CanonicalSdp, x: np.ndarray) -> list:
    return [sdp.f0[b] + np.tensordot(x, sdp.fk[b], axes=1)
            for b in range(len(sdp.f0))]


def _try_cholesky(blocks: list):
    chols = []
    for s in blocks:
        try:
            chols.append(np.linalg.cholesky(s))
        except np.linalg.LinAlgError:
            return None
    return chols


def _barrier_value(t: float, c: np.ndarray, x: np.ndarray, chols: list) -> float:
    logdet = sum(2.0 * np.sum(np.log(np.diag(l))) for l in chols)
    return t * float(c @ x) - logdet


def _prep_layouts(sdp: CanonicalSdp) -> list:
    """Per-block constant layouts for fast gradient/Hessian assembly."""
    n = sdp.n_vars
    prep = []
    for fb in sdp.fk:
        d = fb.shape[1]
        flat = np.ascontiguousarray(fb.reshape(n, d * d))
        stacked = np.ascontiguousarray(fb.transpose(1, 0, 2).reshape(d, n * d))
        prep.append((d, flat, stacked))
    return prep


def _newton_center(sdp: CanonicalSdp, x: np.ndarray, t: float, prep: list,
                   stop_when=None) -> tuple[np.ndarray, bool, int]:
    """Damped Newton minimization of the barrier at parameter t.

    `stop_when(x)` short-circuits the centering as soon as it holds (used by
    phase 1 to bail out at the first strictly feasible iterate)."""
    n = sdp.n_vars
    steps = 0
    blocks = _eval_blocks(sdp, x)
    chols = _try_cholesky(blocks)
    if chols is None:
        return x, False, steps
    if stop_when is not None and stop_when(x):
        return x, True, steps
    for _ in range(MAX_NEWTON):
        grad = t * sdp.c.copy()
        hess = np.zeros((n, n))
        for b in range(len(sdp.f0)):
            d, fb_flat, fb_stacked = prep[b]
            linv = np.linalg.inv(chols[b])
            sinv = linv.T @ linv                          # S^-1 = L^-T L^-1
            sinv = 0.5 * (sinv + sinv.T)
            grad -= fb_flat @ sinv.ravel()
            w3 = (sinv @ fb_stacked).reshape(d, n, d)     # w3[i, k, j] = (Sinv F_k)[i, j]
            wf = np.ascontiguousarray(w3.transpose(1, 0, 2)).reshape(n, d * d)
            wtf = np.ascontiguousarray(w3.transpose(1, 2, 0)).reshape(n, d * d)
            hess += wf @ wtf.T
        hess = 0.5 * (hess + hess.T)
        try:
            dx = np.linalg.solve(hess + 1e-14 * np.eye(n) * max(1.0, np.trace(hess) / n),
                                 -grad)
        except np.linalg.LinAlgError:
            return x, False, steps
        decrement = float(-grad @ dx)
        if not np.isfinite(decrement):
            return x, False, steps
        if decrement / 2.0 <= NEWTON_TOL * (1.0 + abs(t * float(sdp.c @ x))):
            return x, True, steps
        f_curr = _barrier_value(t, sdp.c, x, chols)
        dblocks = [np.tensordot(dx, sdp.fk[b], axes=1) for b in range(len(sdp.f0))]
        alpha = 1.0
        accepted = None
        while alpha > 1e-16:
            trial = [blocks[b] + alpha * dblocks[b] for b in range(len(blocks))]
            chols_new = _try_cholesky(trial)
            if chols_new is not None:
                f_new = _barrier_value(t, sdp.c, x + alpha * dx, chols_new)
                if f_new <= f_curr - ARMIJO * alpha * decrement:
                    accepted = (x + alpha * dx, trial, chols_new)
                    break
            alpha *= 0.5
        if accepted is None:
            return x, True, steps   # stalled: treat current point as centered
        x, blocks, chols = accepted
        steps += 1
        if stop_when is not None and stop_when(x):
            return x, True, steps
    return x, True, steps


def _values_from_x(problem: LmiProblem, x: np.ndarray) -> dict:
    values = {}
    pos = 0
    for v in problem.variables:
        if isinstance(v, ScalarVar):
            values[v.name] = float(x[pos])
            pos += 1
        else:
            m = np.zeros((v.dim, v.dim))
            for i in range(v.dim):
                for j in range(i, v.dim):
                    m[i, j] = m[j, i] = x[pos]
                    pos += 1
            values[v.name] = m
    return values


def solve_sdp(problem: LmiProblem) -> LmiSolution:
    """Interior-point solve; deterministic for identical inputs."""
    sdp = canonicalize(problem)
    n = sdp.n_vars
    m_total = sdp.total_dim

    def finish(status, x, iters):
        blocks = _eval_blocks(sdp, x)
        mins = [float(np.min(np.linalg.eigvalsh(0.5 * (s + s.T)))) for s in blocks]
        obj = float(sdp.c @ x)
        gap = m_total / t_final if status == "optimal" else float("inf")
        return LmiSolution(status=status, values=_values_from_x(problem, x),
                           objective=obj, x=x.copy(), gap=gap,
                           residual_min_eigs=mins, iterations=iters)

    if n == 0:
        t_final = float("inf")
        x = np.zeros(0)
        blocks = _eval_blocks(sdp, x)
        feasible = all(np.min(np.linalg.eigvalsh(0.5 * (s + s.T))) >= -1e-12
                       for s in blocks)
        return finish("optimal" if feasible else "infeasible", x, 0)

    scale = max(1.0, max(np.max(np.abs(f)) for f in sdp.f0))

    # ---- phase 1: minimize slack s with blocks F(x) + s I
    aug_fk = []
    for b in range(len(sdp.f0)):
        d = sdp.f0[b].shape[0]
        f_aug = np.zeros((n + 1, d, d))
        f_aug[:n] = sdp.fk[b]
        f_aug[n] = np.eye(d)
        aug_fk.append(f_aug)
    aug = CanonicalSdp(c=np.concatenate([np.zeros(n), [1.0]]), f0=sdp.f0, fk=aug_fk)
    s0 = max(0.0, max(-float(np.min(np.linalg.eigvalsh(0.5 * (f + f.T))))
                      for f in sdp.f0)) + 1.0 + 0.1 * scale
    xz = np.concatenate([np.zeros(n), [s0]])
    t = 1.0
    iters = 0
    t_final = t
    feasible_x = None
    prep_aug = _prep_layouts(aug)
    margin = FEASIBILITY_MARGIN * scale
    for _ in range(MAX_OUTER):
        xz, ok, steps = _newton_center(aug, xz, t, prep_aug,
                                       stop_when=lambda z: z[n] < -margin)
        iters += steps
        if not ok:
            t_final = t
            return finish("numerical_failure", xz[:n], iters)
        if xz[n] < -margin:
            feasible_x = xz[:n].copy()
            break
        if (m_total + 1) / t < 1e-12 * scale + 1e-12:
            break
        t *= MU
    if feasible_x is None:
        t_final = t
        return finish("infeasible", xz[:n], iters)

    # ---- phase 2: follow the central path of the true objective
    x = feasible_x
    t = max(1.0, m_total / (1.0 + abs(float(sdp.c @ x))))
    status = "iteration_limit"
    prep_main = _prep_layouts(sdp)
    for _ in range(MAX_OUTER):
        x, ok, steps = _newton_center(sdp, x, t, prep_main)
        iters += steps
        if not ok:
            t_final = t
            return finish("numerical_failure", x, iters)
        gap = m_total / t
        if gap <= GAP_TOL * (1.0 + abs(float(sdp.c @ x))):
            status = "optimal"
            break
        t *= MU
    t_final = t
    return finish(status, x, iters)


@dataclass
class SolutionCheck:
    min_eigs: list
    objective: float

    def passes(self, eig_tol: float = -1e-9) -> bool:
        return all(e >= eig_tol for e in self.min_eigs)


def check_solution(problem: LmiProblem, solution: LmiSolution | dict) -> SolutionCheck:
    """Recompute constraint residuals and the objective from scratch."""
    values = solution.values if isinstance(solution, LmiSolution) else solution
    vars_by_name = {v.name: v for v in problem.variables}
    obj = 0.0
    for name, coef in problem.objective.items():
        v = vars_by_name[name]
        if isinstance(v, ScalarVar):
            obj += float(coef) * float(values[name])
        else:
            obj += float(np.sum(np.asarray(coef) * np.asarray(values[name])))
    mins = []
    for con in problem.constraints:
        s = con.const.copy()
        for t in con.terms:
            v = vars_by_name[t.var]
            val = values[t.var]
            left = np.atleast_2d(np.asarray(t.left, dtype=float))
            right = np.atleast_2d(np.asarray(t.right, dtype=float))
            if isinstance(v, ScalarVar):
                contrib = float(val) * (left @ right)
            else:
                contrib = left @ np.atleast_2d(np.asarray(val, dtype=float)) @ right
            if t.symmetrize:
                contrib = contrib + contrib.T
            s += contrib
        s = 0.5 * (s + s.T)
        mins.append(float(np.min(np.linalg.eigvalsh(s))))
    return SolutionCheck(min_eigs=mins, objective=obj)


# --- SDPA sparse format ---------------------------------------------------------
#
# Convention (SDPA "primal"):  min c.x  s.t.  X = sum_k x_k F_k - F0,  X PSD.
# Our constraint  C0 + sum_k x_k F_k  PSD  maps to  F0_file = -C0.

def export_sdpa(problem: LmiProblem) -> str:
    sdp = canonicalize(problem)
    n = sdp.n_vars
    nblocks = len(sdp.f0)
    out = io.StringIO()
    out.write(f"{n}\n")
    out.write(f"{nblocks}\n")
    sizes = []
    for f in sdp.f0:
        d = f.shape[0]
        sizes.append(str(-1) if d == 1 else str(d))
    out.write(" ".join(sizes) + "\n")
    out.write(" ".join(repr(float(v)) for v in sdp.c) + "\n")

    def emit(matno, blkno, mat):
        d = mat.shape[0]
        for i in range(d):
            for j in range(i, d):
                v = mat[i, j]
                if v != 0.0:
                    out.write(f"{matno} {blkno} {i + 1} {j + 1} {repr(float(v))}\n")

    for b in range(nblocks):
        emit(0, b + 1, -sdp.f0[b])
    for k in range(n):
        for b in range(nblocks):
            emit(k + 1, b + 1, sdp.fk[b][k])
    return out.getvalue()


def read_sdpa(text: str) -> LmiProblem:
    """Parse SDPA sparse format into an equivalent scalar-variable problem."""
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("*") or stripped.startswith('"'):
            continue
        tokens.extend(stripped.replace(",", " ").replace("{", " ").replace("}", " ")
                      .replace("(", " ").replace(")", " ").split())
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise LmiError("truncated SDPA input")
        tok = tokens[pos]
        pos += 1
        return tok

    m = int(take())
    nblocks = int(take())
    dims = [abs(int(take())) for _ in range(nblocks)]
    c = [float(take()) for _ in range(m)]
    f0 = [np.zeros((d, d)) for d in dims]
    fk = [[np.zeros((d, d)) for d in dims] for _ in range(m)]
    while pos < len(tokens):
        matno = int(take())
        blkno = int(take()) - 1
        i = int(take()) - 1
        j = int(take()) - 1
        v = float(take())
        target = f0[blkno] if matno == 0 else fk[matno - 1][blkno]
        target[i, j] = v
        target[j, i] = v

    problem = LmiProblem()
    for k in range(m):
        problem.add_scalar(f"x{k + 1}")
        problem.objective[f"x{k + 1}"] = c[k]
    for b in range(nblocks):
        con = problem.add_constraint(f"block{b + 1}", dims[b], const=-f0[b])
        for k in range(m):
            if np.any(fk[k][b] != 0.0):
                con.terms.append(Term(var=f"x{k + 1}",
                                      left=fk[k][b],
                                      right=np.eye(dims[b])))
    return problem
