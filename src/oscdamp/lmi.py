"""Linear objectives under linear-matrix-inequality constraints.

Problems are stated over scalar and symmetric-matrix decision variables with
affine matrix-valued constraints required positive semidefinite.  The solver
is a logarithmic-barrier path-following interior-point method on the
vectorized problem: phase 1 minimizes a uniform slack to find a strictly
feasible point, phase 2 follows the central path with damped Newton steps.

Each constraint block keeps only the variables that touch it, and each F_k
there is held as exact cover factors  F_k = E_J A_k^T + A_k E_J^T  (J a vertex
cover of F_k's nonzero pattern, E_J its unit columns).  The Newton step
assembles the gradient tr(S^-1 F_k) and the Hessian tr(S^-1 F_k S^-1 F_l) from
three small matrices per block rather than from dense d x d products: the
sparse Schur-complement assembly of Fujisawa, Kojima and Nakata (Math. Prog.
79, 1997) and Benson, Ye and Zhang (SIAM J. Optim. 10, 2000), in its unit-
vector form.  Blocks of one dimension are stacked, so each factorization and
product runs once per size.  Everything is numpy and deterministic (the
bundled problem gives the same bits with 1 and 2 BLAS threads); each block's
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
class SdpBlock:
    """One constraint block  F0 + sum_k x_k F_k,  held on its support.

    Every F_k that touches the block is kept twice, both exact: as its
    upper-triangle nonzeros (`var`, `row`, `col`, `val`, by variable and then
    row by row), and as cover factors  F_k = E_J A_k^T + A_k E_J^T,  where J is
    a vertex cover of F_k's nonzero pattern (:func:`_cover_factors`), E_J its
    unit columns and A_k = F_k[:, J] with the J x J entries halved.  Over all
    factor columns, `cover` holds the unit direction, `owner` the variable
    and `a` (d, R) the columns A."""

    f0: np.ndarray
    var: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    cover: np.ndarray
    owner: np.ndarray
    a: np.ndarray

    @property
    def dim(self) -> int:
        return self.f0.shape[0]


@dataclass
class CanonicalSdp:
    """min c.x  s.t.  F0_b + sum_k x_k F_bk  PSD  for every block b."""

    c: np.ndarray                 # (n,)
    blocks: list                  # [SdpBlock]

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def f0(self) -> list:
        return [b.f0 for b in self.blocks]

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)


def _components(v) -> np.ndarray:
    """Rows and columns (2, K) of a variable's scalar components, in the order
    of x: the upper triangle row by row, (0, 0) alone for a scalar."""
    d = 1 if isinstance(v, ScalarVar) else v.dim
    return np.array([(i, j) for i in range(d) for j in range(i, d)], dtype=int).T


def _component_offsets(variables) -> tuple[int, dict]:
    """Number of scalar components and each variable's first component."""
    n = 0
    offset = {}
    for v in variables:
        offset[v.name] = n
        n += _components(v).shape[1]
    return n, offset


def _basis_matrix(dim: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    m[i, j] = 1.0
    if i != j:
        m[j, i] = 1.0
    return m


def _upper_nonzeros(m: np.ndarray):
    """Rows, columns and values of the nonzero upper-triangle entries, row by row."""
    i, j = np.nonzero(m)
    upper = i <= j
    return i[upper], j[upper], m[i[upper], j[upper]]


def _cover_factors(var, row, col, val, dim: int):
    """Cover factors of every F_k on a block from its upper-triangle nonzeros.

    Each F_k's cover J is a deterministic greedy vertex cover of its pattern:
    the index of every diagonal entry, then, while an entry is uncovered, the
    index that meets the most uncovered entries (the lowest on a tie).  One
    pass of the loop takes that step for every F_k at once.  Returns the
    factor columns' unit directions, variables and columns A (dim, R),
    by variable and then by direction."""
    ks, v = np.unique(var, return_inverse=True)
    covered = np.zeros((ks.size, dim), dtype=bool)
    diag = row == col
    covered[v[diag], row[diag]] = True
    open_ = ~(covered[v, row] | covered[v, col])
    ev, er, ec = v[open_], row[open_], col[open_]
    while ev.size:
        degree = np.bincount(np.concatenate([ev * dim + er, ev * dim + ec]),
                             minlength=ks.size * dim).reshape(ks.size, dim)
        todo = np.unique(ev)
        covered[todo, np.argmax(degree[todo], axis=1)] = True
        open_ = ~(covered[ev, er] | covered[ev, ec])
        ev, er, ec = ev[open_], er[open_], ec[open_]
    kk, jj = np.nonzero(covered)
    column = np.full((ks.size, dim), -1)
    column[kk, jj] = np.arange(kk.size)
    # entry (r, c) of F_k sits in the column of (k, c), its mirror (c, r) in that of (k, r)
    a = np.zeros((dim, kk.size))
    p = column[v, col]
    a[row[p >= 0], p[p >= 0]] = val[p >= 0]
    p = np.where(diag, -1, column[v, row])
    a[col[p >= 0], p[p >= 0]] = val[p >= 0]
    a[covered[kk].T] *= 0.5
    return jj, ks[kk], a


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
        k = offset[name]
        if isinstance(v, ScalarVar):
            c[k] += float(coef)
        else:
            cm = np.asarray(coef, dtype=float)
            if cm.shape != (v.dim, v.dim):
                raise LmiError(f"objective coefficient for {name} has wrong shape")
            i, j = _components(v)
            c[k:k + i.size] += np.where(i == j, cm[i, j], cm[i, j] + cm[j, i])

    blocks = []
    for con in problem.constraints:
        d = con.dim
        if con.const.shape != (d, d):
            raise LmiError(f"constraint {con.name}: constant has wrong shape")
        acc = {}                  # variable -> its F_k, summed over the terms in order
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
                contribs = [left @ right]
            elif left.shape != (d, v.dim) or right.shape != (v.dim, d):
                raise LmiError(f"constraint {con.name}, term on {t.var}: shape mismatch")
            else:
                contribs = (left @ _basis_matrix(v.dim, i, j) @ right
                            for i, j in zip(*_components(v)))
            for k, contrib in enumerate(contribs, start=offset[t.var]):
                if t.symmetrize:
                    contrib = contrib + contrib.T
                if k in acc:
                    acc[k] += contrib
                else:
                    acc[k] = contrib
        keys = sorted(acc)
        # the symmetric part, which is F_k itself for a symmetric term
        sym = [0.5 * (acc[k] + acc[k].T) for k in keys]
        nz = [np.flatnonzero(f) for f in sym]
        var = np.repeat(np.array(keys, dtype=int), [i.size for i in nz])
        row, col = np.divmod(np.concatenate(nz or [np.zeros(0, dtype=int)]), d)
        val = np.concatenate([f.ravel()[i] for f, i in zip(sym, nz)] or [np.zeros(0)])
        upper = row <= col
        var, row, col, val = var[upper], row[upper], col[upper], val[upper]
        blocks.append(SdpBlock(con.const.copy(), var, row, col, val,
                               *_cover_factors(var, row, col, val, d)))
    return CanonicalSdp(c=c, blocks=blocks)


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
    sdp: CanonicalSdp                 # the canonical form that was solved


@dataclass
class _Group:
    """The blocks of one dimension d, stacked for the Newton step.  Block i's
    factor columns are a[i] (d, R), with unit directions cover[i] (R,), as
    one-hot rows unit[i] (R, d), and variables owner[i] (R,); the columns
    past a block's own are zero and belong to the spare index m."""

    members: list                 # block indices
    f0: np.ndarray                # (B, d, d)
    a: np.ndarray                 # (B, d, R)
    unit: np.ndarray              # (B, R, d)
    cover: np.ndarray             # (B, R)
    owner: np.ndarray             # (B, R)
    rows_at: np.ndarray = field(init=False)     # (B, R, R) flat index of (S^-1 A)[J]
    pairs_at: np.ndarray = field(init=False)    # (B, R, R) flat index of S^-1[J, J]

    def __post_init__(self):
        nb, d, r = self.a.shape
        first = np.arange(nb)[:, None, None] * d + self.cover[:, :, None]
        self.rows_at = first * r + np.arange(r)
        self.pairs_at = first * d + self.cover[:, None, :]


@dataclass
class _Layout:
    """The groups of a problem over m variables, with the flat position of
    every factor column in the gradient and of every column pair in the
    (m + 1) x (m + 1) Hessian whose last row and column take the padding."""

    m: int
    groups: list
    grad_at: np.ndarray
    hess_at: np.ndarray


def _prep_layouts(sdp: CanonicalSdp, slack: bool = False) -> _Layout:
    """Stack the blocks by dimension.  With `slack`, every block also carries
    the phase-1 slack variable, index n, whose F is I: factors I/2 on every
    unit direction."""
    m = sdp.n_vars + slack
    by_dim: dict[int, list] = {}
    for b, blk in enumerate(sdp.blocks):
        by_dim.setdefault(blk.dim, []).append(b)
    groups = []
    for d, members in by_dim.items():
        parts = []
        for b in members:
            blk = sdp.blocks[b]
            cover, owner, a = blk.cover, blk.owner, blk.a
            if slack:
                cover = np.concatenate([cover, np.arange(d)])
                owner = np.concatenate([owner, np.full(d, sdp.n_vars)])
                a = np.hstack([a, 0.5 * np.eye(d)])
            parts.append((cover, owner, a))
        r = max(p[0].size for p in parts)
        cover = np.zeros((len(members), r), dtype=int)
        owner = np.full((len(members), r), m)
        a = np.zeros((len(members), d, r))
        unit = np.zeros((len(members), r, d))
        for i, (cv, ow, fa) in enumerate(parts):
            cover[i, :cv.size] = cv
            owner[i, :cv.size] = ow
            a[i, :, :cv.size] = fa
            unit[i, np.arange(cv.size), cv] = 1.0
        groups.append(_Group(members, np.stack([sdp.blocks[b].f0 for b in members]),
                             a, unit, cover, owner))
    none = [np.zeros(0, dtype=int)]
    return _Layout(m, groups,
                   np.concatenate(none + [g.owner.ravel() for g in groups]),
                   np.concatenate(none + [(g.owner[:, :, None] * (m + 1)
                                           + g.owner[:, None, :]).ravel() for g in groups]))


def _combine(layout: _Layout, x: np.ndarray) -> list:
    """sum_k x_k F_k of every group, (B, d, d) each, from the cover factors."""
    xs = np.append(x, 0.0)
    out = []
    for g in layout.groups:
        t = (g.a * xs[g.owner][:, None, :]) @ g.unit
        out.append(t + t.transpose(0, 2, 1))
    return out


def _eval_blocks(layout: _Layout, x: np.ndarray) -> list:
    return [g.f0 + s for g, s in zip(layout.groups, _combine(layout, x))]


def _min_eigs(layout: _Layout, x: np.ndarray) -> list:
    """Smallest eigenvalue of every block at x, in block order."""
    mins = {}
    for g, s in zip(layout.groups, _eval_blocks(layout, x)):
        lows = np.linalg.eigvalsh(0.5 * (s + s.transpose(0, 2, 1)))[:, 0]
        mins.update(zip(g.members, lows.tolist()))
    return [mins[b] for b in range(len(mins))]


def _try_cholesky(blocks: list):
    try:
        return [np.linalg.cholesky(s) for s in blocks]
    except np.linalg.LinAlgError:
        return None


def _barrier_value(t: float, c: np.ndarray, x: np.ndarray, chols: list) -> float:
    logdet = sum(2.0 * np.sum(np.log(np.diagonal(l, axis1=1, axis2=2))) for l in chols)
    return t * float(c @ x) - logdet


def _derivatives(layout: _Layout, chols: list) -> tuple[np.ndarray, np.ndarray]:
    """g_k = sum_b tr(S^-1 F_k) and H_kl = sum_b tr(S^-1 F_k S^-1 F_l) over
    the blocks, from their Cholesky factors.  With Q1 = (S^-1 A)[J],
    Q2 = A^T S^-1 A and Q3 = S^-1[J, J] over a block's factor columns,
    g_k = 2 sum diag(Q1) and H_kl = 2 sum (Q1 * Q1^T + Q2 * Q3) (elementwise
    products), summed over the columns k and l own."""
    m = layout.m
    gs, hs = [], []
    for g, l in zip(layout.groups, chols):
        linv = np.linalg.inv(l)
        w = linv.transpose(0, 2, 1) @ linv                # S^-1 = L^-T L^-1
        w = 0.5 * (w + w.transpose(0, 2, 1))
        wa = w @ g.a
        q1 = np.take(wa, g.rows_at)
        q2 = g.a.transpose(0, 2, 1) @ wa
        q3 = np.take(w, g.pairs_at)
        gs.append(np.diagonal(q1, axis1=1, axis2=2).ravel())
        hs.append((q1 * q1.transpose(0, 2, 1) + q2 * q3).ravel())
    grad = 2.0 * np.bincount(layout.grad_at, np.concatenate(gs), minlength=m + 1)[:m]
    hess = 2.0 * np.bincount(layout.hess_at, np.concatenate(hs),
                             minlength=(m + 1) ** 2).reshape(m + 1, m + 1)[:m, :m]
    return grad, hess


def _newton_center(c: np.ndarray, layout: _Layout, x: np.ndarray, t: float,
                   stop_when=None) -> tuple[np.ndarray, bool, int]:
    """Damped Newton minimization of the barrier at parameter t.

    `stop_when(x)` short-circuits the centering as soon as it holds (used by
    phase 1 to bail out at the first strictly feasible iterate)."""
    n = c.size
    steps = 0
    blocks = _eval_blocks(layout, x)
    chols = _try_cholesky(blocks)
    if chols is None:
        return x, False, steps
    if stop_when is not None and stop_when(x):
        return x, True, steps
    for _ in range(MAX_NEWTON):
        trace, hess = _derivatives(layout, chols)
        grad = t * c - trace
        hess = 0.5 * (hess + hess.T)
        try:
            dx = np.linalg.solve(hess + 1e-14 * np.eye(n) * max(1.0, np.trace(hess) / n),
                                 -grad)
        except np.linalg.LinAlgError:
            return x, False, steps
        decrement = float(-grad @ dx)
        if not np.isfinite(decrement):
            return x, False, steps
        if decrement / 2.0 <= NEWTON_TOL * (1.0 + abs(t * float(c @ x))):
            return x, True, steps
        f_curr = _barrier_value(t, c, x, chols)
        dblocks = _combine(layout, dx)
        alpha = 1.0
        accepted = None
        while alpha > 1e-16:
            trial = [s + alpha * ds for s, ds in zip(blocks, dblocks)]
            chols_new = _try_cholesky(trial)
            if chols_new is not None:
                f_new = _barrier_value(t, c, x + alpha * dx, chols_new)
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
        i, j = _components(v)
        if isinstance(v, ScalarVar):
            values[v.name] = float(x[pos])
        else:
            m = np.zeros((v.dim, v.dim))
            m[i, j] = m[j, i] = x[pos:pos + i.size]
            values[v.name] = m
        pos += i.size
    return values


def solve_sdp(problem: LmiProblem) -> LmiSolution:
    """Interior-point solve; deterministic for identical inputs."""
    sdp = canonicalize(problem)
    n = sdp.n_vars
    m_total = sdp.total_dim
    main = _prep_layouts(sdp)

    def finish(status, x, iters):
        obj = float(sdp.c @ x)
        gap = m_total / t_final if status == "optimal" else float("inf")
        return LmiSolution(status=status, values=_values_from_x(problem, x),
                           objective=obj, x=x.copy(), gap=gap,
                           residual_min_eigs=_min_eigs(main, x), iterations=iters,
                           sdp=sdp)

    if n == 0:
        t_final = float("inf")
        x = np.zeros(0)
        feasible = all(e >= -1e-12 for e in _min_eigs(main, x))
        return finish("optimal" if feasible else "infeasible", x, 0)

    scale = max(1.0, max(np.max(np.abs(f)) for f in sdp.f0))

    # ---- phase 1: minimize slack s with blocks F(x) + s I
    c_aug = np.concatenate([np.zeros(n), [1.0]])
    s0 = max(0.0, max(-float(np.min(np.linalg.eigvalsh(0.5 * (f + f.T))))
                      for f in sdp.f0)) + 1.0 + 0.1 * scale
    xz = np.concatenate([np.zeros(n), [s0]])
    t = 1.0
    iters = 0
    t_final = t
    feasible_x = None
    aug = _prep_layouts(sdp, slack=True)
    margin = FEASIBILITY_MARGIN * scale
    for _ in range(MAX_OUTER):
        xz, ok, steps = _newton_center(c_aug, aug, xz, t,
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
    for _ in range(MAX_OUTER):
        x, ok, steps = _newton_center(sdp.c, main, x, t)
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

def export_sdpa(problem: LmiProblem | CanonicalSdp) -> str:
    """The problem in SDPA sparse format; a canonical form is written as it is."""
    sdp = problem if isinstance(problem, CanonicalSdp) else canonicalize(problem)
    out = io.StringIO()
    out.write(f"{sdp.n_vars}\n")
    out.write(f"{len(sdp.blocks)}\n")
    out.write(" ".join(str(-1) if b.dim == 1 else str(b.dim) for b in sdp.blocks) + "\n")
    out.write(" ".join(repr(float(v)) for v in sdp.c) + "\n")

    # every stored upper-triangle nonzero: F0 (as -F0) block by block, then
    # variable by variable and, within a variable, block by block
    entries = [(np.zeros(i.size, dtype=int), np.full(i.size, b), i, j, -x)
               for b, (i, j, x) in enumerate(_upper_nonzeros(f) for f in sdp.f0)]
    entries += [(blk.var + 1, np.full(blk.var.size, b), blk.row, blk.col, blk.val)
                for b, blk in enumerate(sdp.blocks)]
    if entries:
        matno, blkno, row, col, val = (np.concatenate(a) for a in zip(*entries))
        order = np.lexsort((blkno, matno))      # stable: rows stay row by row
        for k, b, i, j, v in zip(*(a[order].tolist() for a in (matno, blkno, row, col, val))):
            out.write(f"{k} {b + 1} {i + 1} {j + 1} {v!r}\n")
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
    fk = {}                      # (variable, block) -> F_k on the block, as given
    while pos < len(tokens):
        matno = int(take())
        blkno = int(take()) - 1
        i = int(take()) - 1
        j = int(take()) - 1
        v = float(take())
        if matno == 0:
            target = f0[blkno]
        else:
            target = fk.setdefault((matno - 1, blkno), np.zeros((dims[blkno],) * 2))
        target[i, j] = v
        target[j, i] = v

    problem = LmiProblem()
    for k in range(m):
        problem.add_scalar(f"x{k + 1}")
        problem.objective[f"x{k + 1}"] = c[k]
    for b in range(nblocks):
        con = problem.add_constraint(f"block{b + 1}", dims[b], const=-f0[b])
        for k in range(m):
            if (k, b) in fk and np.any(fk[k, b] != 0.0):
                con.terms.append(Term(var=f"x{k + 1}",
                                      left=fk[k, b],
                                      right=np.eye(dims[b])))
    return problem
