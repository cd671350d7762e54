"""The dense canonical form, written here as the independent reference for
:func:`oscdamp.lmi.canonicalize`: every term is embedded in its constraint's
full frame, every scalar component of a variable gets a dense d x d
coefficient, and the nonzeros are read off the symmetrized sum.  Also a
reader of SDPA sparse files, which round-trips :func:`oscdamp.lmi.export_sdpa`
into a scalar-variable problem, the allocating form of the Newton step's
derivatives that :func:`oscdamp.lmi._derivatives` must match bit for bit,
and the eager line search that :func:`oscdamp.lmi._newton_center` must match
bit for bit."""

import numpy as np

from oscdamp import lmi
from oscdamp.lmi import LmiError, LmiProblem, ScalarVar, Term


def components(v):
    """Rows and columns of a variable's scalar components, in the order of x."""
    d = 1 if isinstance(v, ScalarVar) else v.dim
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    return [i for i, _ in pairs], [j for _, j in pairs]


def basis_matrix(dim, i, j):
    m = np.zeros((dim, dim))
    m[i, j] = 1.0
    m[j, i] = 1.0
    return m


def embedded(term, dim):
    """The term's left and right factors in the constraint's full frame."""
    left = np.atleast_2d(np.asarray(term.left, dtype=float))
    right = np.atleast_2d(np.asarray(term.right, dtype=float))
    full_left = np.zeros((dim, left.shape[1]))
    full_left[term.row:term.row + left.shape[0]] = left
    full_right = np.zeros((right.shape[0], dim))
    full_right[:, term.col:term.col + right.shape[1]] = right
    return full_left, full_right


def canonical_triplets(problem):
    """c, and per block (f0, var, row, col, val): the upper-triangle nonzeros
    of every F_k, by variable and then row by row."""
    offset, n = {}, 0
    for v in problem.variables:
        offset[v.name] = n
        n += len(components(v)[0])
    by_name = {v.name: v for v in problem.variables}
    c = np.zeros(n)
    for name, coef in problem.objective.items():
        v = by_name[name]
        if isinstance(v, ScalarVar):
            c[offset[name]] += float(coef)
        else:
            cm = np.asarray(coef, dtype=float)
            for k, (i, j) in enumerate(zip(*components(v)), start=offset[name]):
                c[k] += cm[i, j] if i == j else cm[i, j] + cm[j, i]
    blocks = []
    for con in problem.constraints:
        d = con.dim
        acc = {}
        for t in con.terms:
            v = by_name[t.var]
            left, right = embedded(t, d)
            if left.shape[1] != right.shape[0]:
                raise LmiError("shape mismatch")
            if isinstance(v, ScalarVar):
                contribs = [left @ right]
            else:
                contribs = [left @ basis_matrix(v.dim, i, j) @ right
                            for i, j in zip(*components(v))]
            for k, contrib in enumerate(contribs, start=offset[t.var]):
                if t.symmetrize:
                    contrib = contrib + contrib.T
                if k in acc:
                    acc[k] += contrib
                else:
                    acc[k] = contrib
        var, row, col, val = [], [], [], []
        for k in sorted(acc):
            f = 0.5 * (acc[k] + acc[k].T)
            for i, j in zip(*np.nonzero(f)):
                if i <= j:
                    var.append(k)
                    row.append(i)
                    col.append(j)
                    val.append(f[i, j])
        blocks.append((con.const.copy(), np.array(var, dtype=int), np.array(row, dtype=int),
                       np.array(col, dtype=int), np.array(val, dtype=float)))
    return c, blocks


def dense_blocks(problem, values):
    """Every constraint's matrix at `values`, each term embedded in its full
    frame and added whole."""
    by_name = {v.name: v for v in problem.variables}
    out = []
    for con in problem.constraints:
        s = con.const.copy()
        for t in con.terms:
            left, right = embedded(t, con.dim)
            if isinstance(by_name[t.var], ScalarVar):
                contrib = float(values[t.var]) * (left @ right)
            else:
                contrib = left @ np.asarray(values[t.var], dtype=float) @ right
            s += contrib + contrib.T if t.symmetrize else contrib
        out.append(0.5 * (s + s.T))
    return out


def read_sdpa(text: str) -> LmiProblem:
    """Parse SDPA sparse format into an equivalent scalar-variable problem."""
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("*") or stripped.startswith('"'):
            continue
        tokens.extend(stripped.replace(",", " ").replace("{", " ").replace("}", " ")
                      .replace("(", " ").replace(")", " ").split())
    rest = iter(tokens)

    def take() -> str:
        tok = next(rest, None)
        if tok is None:
            raise LmiError("truncated SDPA input")
        return tok

    m, nblocks = int(take()), int(take())
    dims = [abs(int(take())) for _ in range(nblocks)]
    c = [float(take()) for _ in range(m)]
    f0 = [np.zeros((d, d)) for d in dims]
    entries = {}        # (variable, block, row, col) -> value; a repeated entry keeps the last
    for matno in map(int, rest):
        blkno, i, j, v = int(take()) - 1, int(take()) - 1, int(take()) - 1, float(take())
        if matno == 0:
            f0[blkno][i, j] = f0[blkno][j, i] = v
        else:
            entries[matno - 1, blkno, min(i, j), max(i, j)] = v

    problem = LmiProblem()
    for k in range(m):
        problem.add_scalar(f"x{k + 1}")
        problem.objective[f"x{k + 1}"] = c[k]
    cons = [problem.add_constraint(f"block{b + 1}", dims[b], const=-f0[b])
            for b in range(nblocks)]
    for (k, b, i, j), v in entries.items():
        if v != 0.0:
            cons[b].terms.append(Term(f"x{k + 1}", [[v]], [[1.0]], i, j, symmetrize=i != j))
    return problem


def reference_derivatives(layout, chols):
    """The gradient and Hessian of :func:`oscdamp.lmi._derivatives`, each
    product in a fresh array and the per-group pieces concatenated before
    the sums, in the same operations and order.  W = L^-T L^-1 is
    symmetrized here; `_derivatives` relies on numpy forming the product
    exactly symmetric, so the bit-for-bit tests fail if it ever does not."""
    m = layout.m
    gs, hs = [], []
    for g, l in zip(layout.groups, chols):
        linv = np.linalg.inv(l)
        w = linv.transpose(0, 2, 1) @ linv
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


def _try_cholesky(blocks: list):
    try:
        return [np.linalg.cholesky(s) for s in blocks]
    except np.linalg.LinAlgError:
        return None


def _barrier_value(t, c, x, chols):
    logdet = sum(2.0 * np.sum(np.log(np.diagonal(l, axis1=1, axis2=2))) for l in chols)
    return t * float(c @ x) - logdet


def reference_newton_center(c, layout, x, t, stop_when=None):
    """:func:`oscdamp.lmi._newton_center` with the eager line search: every
    step length builds every group's trial and factors the groups in group
    order, and every Newton step evaluates the barrier at its start point."""
    n = c.size
    steps = 0
    blocks = lmi._eval_blocks(layout, x)
    chols = _try_cholesky(blocks)
    if chols is None:
        return x, False, steps
    if stop_when is not None and stop_when(x):
        return x, True, steps
    for _ in range(lmi.MAX_NEWTON):
        trace, hess = lmi._derivatives(layout, chols)
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
        if decrement / 2.0 <= lmi.NEWTON_TOL * (1.0 + abs(t * float(c @ x))):
            return x, True, steps
        f_curr = _barrier_value(t, c, x, chols)
        dblocks = lmi._combine(layout, dx)
        alpha = 1.0
        accepted = None
        while alpha > 1e-16:
            trial = [s + alpha * ds for s, ds in zip(blocks, dblocks)]
            chols_new = _try_cholesky(trial)
            if chols_new is not None:
                f_new = _barrier_value(t, c, x + alpha * dx, chols_new)
                if f_new <= f_curr - lmi.ARMIJO * alpha * decrement:
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
