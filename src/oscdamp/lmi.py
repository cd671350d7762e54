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
product runs once per size.  Each layout of the stacked blocks holds the
Newton step's work arrays, so the assembly writes into buffers made once
and a step allocates only its two sums and the d x d inverses; the solve
releases the phase-1 layout before it builds phase 2's.  The backtracking
line search builds and factors a step length's groups one at a time, the
group that refused last first, and stops at the first that refuses; an
accepted step hands its barrier value on to the next.  Everything is
numpy and deterministic (the bundled problem gives the same bits with 1 and
2 BLAS threads); each block's inverse comes from the inverse of its Cholesky
factor.  Terms are small blocks at offsets, and the F_k are built from their
(variable, row, column, value) triplets, the coordinate form of SDPA files,
with no dense matrix per variable.

The module also writes the SDPA sparse exchange format (``.dat-s``) so
third-party solvers can cross-check solutions, and certifies any solution
independently of the solver internals (:func:`check_solution`); the solver
itself computes no certificate.
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
    """Contribution  left @ V @ right  (a scalar V scales left @ right) as a
    block at (row, col) of its constraint, plus its transpose at (col, row)
    when symmetrize is set."""

    var: str
    left: np.ndarray
    right: np.ndarray
    row: int = 0
    col: int = 0
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


def _term_product(con: Constraint, t: Term, v) -> np.ndarray:
    """A term's product per component of its variable, (K, p, q), checked
    against the variable and the constraint's dimension."""
    left = np.atleast_2d(np.asarray(t.left, dtype=float))
    right = np.atleast_2d(np.asarray(t.right, dtype=float))
    inner = right.shape[0] if isinstance(v, ScalarVar) else v.dim
    if left.shape[1] != inner or right.shape[0] != inner:
        raise LmiError(f"constraint {con.name}, term on {t.var}: shape mismatch")
    p, q = left.shape[0], right.shape[1]
    if min(t.row, t.col) < 0 or t.row + p > con.dim or t.col + q > con.dim:
        raise LmiError(f"constraint {con.name}, term on {t.var}: a {p}x{q} block at "
                       f"({t.row}, {t.col}) runs past dimension {con.dim}")
    if isinstance(v, ScalarVar):
        return (left @ right)[None]
    i, j = _components(v)
    basis = np.zeros((i.size, v.dim, v.dim))      # the unit symmetric matrices
    basis[np.arange(i.size), i, j] = basis[np.arange(i.size), j, i] = 1.0
    return left @ basis @ right


def _placed(t: Term, prod: np.ndarray) -> list:
    """The (row, col, block) pieces a term adds (blocks on the last two axes):
    its product, and with `symmetrize` the transpose, which is summed with it
    first on the square covering both where the two overlap, as in F + F^T."""
    p, q = prod.shape[-2:]
    if not t.symmetrize:
        return [(t.row, t.col, prod)]
    if t.row >= t.col + q or t.col >= t.row + p:
        return [(t.row, t.col, prod), (t.col, t.row, np.swapaxes(prod, -1, -2))]
    lo = min(t.row, t.col)
    size = max(t.row + p, t.col + q) - lo
    square = np.zeros(prod.shape[:-2] + (size, size))
    square[..., t.row - lo:t.row - lo + p, t.col - lo:t.col - lo + q] = prod
    return [(lo, lo, square + np.swapaxes(square, -1, -2))]


def _canonical_block(con: Constraint, vars_by_name: dict, offset: dict) -> SdpBlock:
    """One constraint's F_k as upper-triangle triplets, gathered from the
    nonzeros of each term's compact product per component."""
    d = con.dim
    if con.const.shape != (d, d):
        raise LmiError(f"constraint {con.name}: constant has wrong shape")
    parts = [(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),)]
    for t in con.terms:
        v = vars_by_name.get(t.var)
        if v is None:
            raise LmiError(f"constraint {con.name} references unknown variable {t.var}")
        for r0, c0, block in _placed(t, _term_product(con, t, v)):
            k, r, c = np.nonzero(block)
            parts.append((k + offset[t.var], r + r0, c + c0, block[k, r, c]))
    var, row, col, val = map(np.concatenate, zip(*parts))
    # one sum per variable, upper position and side of the diagonal; bincount adds in
    # input order, so after a stable sort each sum runs over its terms in order
    key = ((var * d + np.minimum(row, col)) * d + np.maximum(row, col)) * 2 + (row > col)
    order = np.argsort(key, kind="stable")
    entries, run = np.unique(key[order], return_inverse=True)
    sums = np.bincount(run, val[order])
    # (F + F^T) / 2 at each upper position: an entry plus its mirror, halved;
    # a diagonal entry is its own mirror
    upper, pair = np.unique(entries // 2, return_inverse=True)
    total = np.bincount(pair, sums)
    var, (row, col) = upper // (d * d), np.divmod(upper % (d * d), d)
    val = np.where(row == col, 1.0, 0.5) * total
    keep = val != 0.0
    var, row, col, val = var[keep], row[keep], col[keep], val[keep]
    return SdpBlock(con.const.copy(), var, row, col, val, *_cover_factors(var, row, col, val, d))


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
    return CanonicalSdp(c=c, blocks=[_canonical_block(con, vars_by_name, offset)
                                     for con in problem.constraints])


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
    iterations: int
    sdp: CanonicalSdp                 # the canonical form that was solved


@dataclass
class _Group:
    """The blocks of one dimension d, stacked for the Newton step.  Block i's
    factor columns are a[i] (d, R), with unit directions cover[i] (R,), as
    one-hot rows unit[i] (R, d), and variables owner[i] (R,); the columns
    past a block's own are zero and belong to the spare index m.  The Newton
    step writes W A into `wa` and Q1, Q2, Q3 into `q1`, `q2`, `q3`, made
    once here, and diag(Q1) and the Hessian products into `diag` and
    `products`, the group's views into its layout's flat sum inputs."""

    members: list                 # block indices
    f0: np.ndarray                # (B, d, d)
    a: np.ndarray                 # (B, d, R)
    unit: np.ndarray              # (B, R, d)
    cover: np.ndarray             # (B, R)
    owner: np.ndarray             # (B, R)
    rows_at: np.ndarray = field(init=False)     # (B, R, R) flat index of (S^-1 A)[J]
    pairs_at: np.ndarray = field(init=False)    # (B, R, R) flat index of S^-1[J, J]
    a_t: np.ndarray = field(init=False)         # (B, R, d) view of a
    wa: np.ndarray = field(init=False)          # (B, d, R)
    q1: np.ndarray = field(init=False)          # (B, R, R)
    q2: np.ndarray = field(init=False)
    q3: np.ndarray = field(init=False)
    diag: np.ndarray = field(init=False)        # (B, R) diag(Q1)
    products: np.ndarray = field(init=False)    # (B, R, R) Q1 * Q1^T + Q2 * Q3

    def __post_init__(self):
        nb, d, r = self.a.shape
        first = np.arange(nb)[:, None, None] * d + self.cover[:, :, None]
        self.rows_at = first * r + np.arange(r)
        self.pairs_at = first * d + self.cover[:, None, :]
        # every index is in range, so the gathers' mode="wrap" (which spares
        # them numpy's buffered bounds check) never wraps
        assert np.all((self.rows_at >= 0) & (self.rows_at < nb * d * r))
        assert np.all((self.pairs_at >= 0) & (self.pairs_at < nb * d * d))
        self.a_t = self.a.transpose(0, 2, 1)
        self.wa = np.empty((nb, d, r))
        self.q1, self.q2, self.q3 = (np.empty((nb, r, r)) for _ in range(3))


@dataclass
class _Layout:
    """The groups of a problem over m variables, with the flat position of
    every factor column in the gradient and of every column pair in the
    (m + 1) x (m + 1) Hessian whose last row and column take the padding.
    `grad_in` and `hess_in` hold every group's diag(Q1) and products, in
    group order, for the two sums."""

    m: int
    groups: list
    grad_at: np.ndarray = field(init=False)
    hess_at: np.ndarray = field(init=False)
    grad_in: np.ndarray = field(init=False)
    hess_in: np.ndarray = field(init=False)

    def __post_init__(self):
        none = [np.zeros(0, dtype=int)]
        self.grad_at = np.concatenate(none + [g.owner.ravel() for g in self.groups])
        self.hess_at = np.concatenate(none + [(g.owner[:, :, None] * (self.m + 1)
                                               + g.owner[:, None, :]).ravel()
                                              for g in self.groups])
        self.grad_in = np.empty(self.grad_at.size)
        self.hess_in = np.empty(self.hess_at.size)
        i = j = 0
        for g in self.groups:
            nb, r = g.owner.shape
            g.diag = self.grad_in[i:i + nb * r].reshape(nb, r)
            g.products = self.hess_in[j:j + nb * r * r].reshape(nb, r, r)
            i, j = i + nb * r, j + nb * r * r


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
    return _Layout(m, groups)


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


def _factor(build, order: list):
    """Every group's matrix  build(i)  and its Cholesky factor, in group
    order, or None.  The groups are built and factored one at a time in
    `order`; the first that refuses ends the call and moves to the front of
    `order`."""
    mats, chols = [None] * len(order), [None] * len(order)
    for pos, i in enumerate(order):
        mats[i] = build(i)
        try:
            chols[i] = np.linalg.cholesky(mats[i])
        except np.linalg.LinAlgError:
            order.insert(0, order.pop(pos))
            return None
    return mats, chols


def _barrier_value(t: float, c: np.ndarray, x: np.ndarray, chols: list) -> float:
    logdet = sum(2.0 * np.log(l.diagonal(0, 1, 2)).sum() for l in chols)
    return t * float(c @ x) - logdet


def _derivatives(layout: _Layout, chols: list) -> tuple[np.ndarray, np.ndarray]:
    """g_k = sum_b tr(S^-1 F_k) and H_kl = sum_b tr(S^-1 F_k S^-1 F_l) over
    the blocks, from their Cholesky factors.  With Q1 = (S^-1 A)[J],
    Q2 = A^T S^-1 A and Q3 = S^-1[J, J] over a block's factor columns,
    g_k = 2 sum diag(Q1) and H_kl = 2 sum (Q1 * Q1^T + Q2 * Q3) (elementwise
    products), summed over the columns k and l own.  Every product goes into
    the layout's buffers; only the returned sums are new arrays."""
    m = layout.m
    for g, l in zip(layout.groups, chols):
        linv = np.linalg.inv(l)
        w = linv.transpose(0, 2, 1) @ linv      # S^-1 = L^-T L^-1, exactly symmetric
        np.matmul(w, g.a, out=g.wa)
        g.wa.take(g.rows_at, out=g.q1, mode="wrap")
        np.matmul(g.a_t, g.wa, out=g.q2)
        w.take(g.pairs_at, out=g.q3, mode="wrap")
        np.copyto(g.diag, g.q1.diagonal(0, 1, 2))
        np.multiply(g.q1, g.q1.transpose(0, 2, 1), out=g.products)
        np.multiply(g.q2, g.q3, out=g.q2)
        np.add(g.products, g.q2, out=g.products)
    grad = np.bincount(layout.grad_at, layout.grad_in, minlength=m + 1)
    hess = np.bincount(layout.hess_at, layout.hess_in, minlength=(m + 1) ** 2)
    grad *= 2.0
    hess *= 2.0
    return grad[:m], hess.reshape(m + 1, m + 1)[:m, :m]


def _newton_center(c: np.ndarray, layout: _Layout, x: np.ndarray, t: float,
                   stop_when=None) -> tuple[np.ndarray, bool, int]:
    """Damped Newton minimization of the barrier at parameter t.

    `stop_when(x)` short-circuits the centering as soon as it holds (used by
    phase 1 to bail out at the first strictly feasible iterate).

    The start point and each step length of the line search are factored
    by :func:`_factor`, which skips only work whose result it would discard:
    it stops at the first group that refuses, and that group is tried first
    from then on in this call.  The groups are independent, so the order
    changes which factorizations run, not their bits, and an accepted trial
    holds every group in group order.  The barrier value is computed once at
    the start; after that an accepted step carries over the value it was
    accepted on, the same call on the same point and factors."""
    n = c.size
    steps = 0
    order = list(range(len(layout.groups)))
    start = _factor(_eval_blocks(layout, x).__getitem__, order)
    if start is None:
        return x, False, steps
    if stop_when is not None and stop_when(x):
        return x, True, steps
    blocks, chols = start
    eye = np.eye(n)
    f_curr = _barrier_value(t, c, x, chols)
    for _ in range(MAX_NEWTON):
        trace, hess = _derivatives(layout, chols)
        grad = t * c - trace
        hess = 0.5 * (hess + hess.T)
        try:
            dx = np.linalg.solve(hess + 1e-14 * eye * max(1.0, hess.trace() / n), -grad)
        except np.linalg.LinAlgError:
            return x, False, steps
        decrement = float(-grad @ dx)
        if not np.isfinite(decrement):
            return x, False, steps
        if decrement / 2.0 <= NEWTON_TOL * (1.0 + abs(t * float(c @ x))):
            return x, True, steps
        dblocks = _combine(layout, dx)
        alpha = 1.0
        accepted = None
        while alpha > 1e-16:
            step = _factor(lambda i: blocks[i] + alpha * dblocks[i], order)
            if step is not None:
                x_new = x + alpha * dx
                f_new = _barrier_value(t, c, x_new, step[1])
                if f_new <= f_curr - ARMIJO * alpha * decrement:
                    accepted = (x_new, *step, f_new)
                    break
            alpha *= 0.5
        if accepted is None:
            return x, True, steps   # stalled: treat current point as centered
        x, blocks, chols, f_curr = accepted
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


def _follow_path(c: np.ndarray, layout: _Layout, x: np.ndarray, t: float, done,
                 stop_when=None) -> tuple[str | None, np.ndarray, float, int]:
    """Centre the barrier at t, t * MU, ... at most MAX_OUTER times, until a
    centering fails ("numerical_failure") or `done(x, t)` gives a status.
    Returns that status (None when neither happened), x, t and the steps."""
    steps = 0
    for _ in range(MAX_OUTER):
        x, ok, taken = _newton_center(c, layout, x, t, stop_when)
        steps += taken
        status = done(x, t) if ok else "numerical_failure"
        if status:
            return status, x, t, steps
        t *= MU
    return None, x, t, steps


def solve_sdp(problem: LmiProblem) -> LmiSolution:
    """Interior-point solve; deterministic for identical inputs."""
    sdp = canonicalize(problem)
    n = sdp.n_vars
    m_total = sdp.total_dim

    def finish(status, x, iters, t):
        obj = float(sdp.c @ x)
        gap = m_total / t if status == "optimal" else float("inf")
        return LmiSolution(status=status, values=_values_from_x(problem, x),
                           objective=obj, x=x.copy(), gap=gap, iterations=iters,
                           sdp=sdp)

    # smallest eigenvalue of each block at x = 0
    f0_low = [float(np.linalg.eigvalsh(0.5 * (f + f.T))[0]) for f in sdp.f0]
    if n == 0:
        feasible = all(e >= -1e-12 for e in f0_low)
        return finish("optimal" if feasible else "infeasible", np.zeros(0), 0, float("inf"))

    scale = max(1.0, max(np.max(np.abs(f)) for f in sdp.f0))
    margin = FEASIBILITY_MARGIN * scale

    def strictly_feasible(z):
        return z[n] < -margin

    def slack_done(z, t):
        if strictly_feasible(z):
            return "feasible"
        return "infeasible" if (m_total + 1) / t < 1e-12 * scale + 1e-12 else None

    def gap_done(x, t):
        return "optimal" if m_total / t <= GAP_TOL * (1.0 + abs(float(sdp.c @ x))) else None

    # ---- phase 1: minimize slack s with blocks F(x) + s I (its layout's
    # buffers go before phase 2's are made)
    c_aug = np.concatenate([np.zeros(n), [1.0]])
    s0 = max(0.0, -min(f0_low)) + 1.0 + 0.1 * scale
    xz = np.concatenate([np.zeros(n), [s0]])
    status, xz, t, iters = _follow_path(c_aug, _prep_layouts(sdp, slack=True), xz, 1.0,
                                        slack_done, strictly_feasible)
    if status != "feasible":
        return finish(status or "infeasible", xz[:n], iters, t)

    # ---- phase 2: follow the central path of the true objective
    x = xz[:n]
    t = max(1.0, m_total / (1.0 + abs(float(sdp.c @ x))))
    status, x, t, steps = _follow_path(sdp.c, _prep_layouts(sdp), x, t, gap_done)
    return finish(status or "iteration_limit", x, iters + steps, t)


@dataclass
class SolutionCheck:
    min_eigs: list
    objective: float

    def passes(self, eig_tol: float = -1e-9) -> bool:
        return all(e >= eig_tol for e in self.min_eigs)


def check_solution(problem: LmiProblem, solution: LmiSolution | dict) -> SolutionCheck:
    """Recompute constraint residuals and the objective from scratch, densely."""
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
            for r0, c0, block in _placed(t, contrib):
                s[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] += block
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
    entries = [(np.zeros(i.size, dtype=int), np.full(i.size, b), i, j, -f[i, j])
               for b, f in enumerate(sdp.f0) for i, j in [np.nonzero(np.triu(f))]]
    entries += [(blk.var + 1, np.full(blk.var.size, b), blk.row, blk.col, blk.val)
                for b, blk in enumerate(sdp.blocks)]
    if entries:
        matno, blkno, row, col, val = (np.concatenate(a) for a in zip(*entries))
        order = np.lexsort((blkno, matno))      # stable: rows stay row by row
        for k, b, i, j, v in zip(*(a[order].tolist() for a in (matno, blkno, row, col, val))):
            out.write(f"{k} {b + 1} {i + 1} {j + 1} {v!r}\n")
    return out.getvalue()

