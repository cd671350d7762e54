"""Hot numeric kernels: full-system RHS evaluation and fixed-step RK4 spans.

The model RHS is one linear operator plus a small nonlinear vector,

    dy = M · [y; φ(y)] + c,

with the valve rows zeroed where the anti-windup hold acts.  An
:class:`RhsPlan`, built once per model from the case's device records, the
state layout and the equilibrium references, holds the dense ``M`` of shape
``(n_states, n_states + 4 n_mach)`` and the constants ``c``.  ``M`` carries
the linear part over the state (rotor, two-axis, PSS washout and lead-lags,
exciter lag, governor/turbine chain) and the input columns of
``φ = [pe, i_d, i_q, efd_cmd]``: the electrical power and the d/q currents of
the reduced network, and the clamped field command, which holds the
terminal-voltage modulus and the PSS and exciter clamps.  ``c`` carries the
valve command references and the constants of absent devices (the mechanical
power of an ungoverned machine, the field voltage of an unexcited one).

The network ``(gmat, bmat)`` and the governor feedback in service (a
:class:`Control`, or None for none) are arguments of each call, never state
of the plan; the feedback is linear, so :meth:`RhsPlan.bind` folds it into a
copy of ``M`` and ``c`` once per call site.  :func:`rhs` takes ``y`` of shape
``(n_states,)`` or ``(B, n_states)``, real or complex; :func:`rk4_span`
integrates either real shape in place and records into ``out`` of shape
``(T, n_states)`` or ``(T, B, n_states)``.  A single state and a one-row stack
give the same bits; the rows of a larger stack go through matrix-matrix
products and agree with single-state calls to about 1e-13.

φ is written in real form: for a complex state every expression is the
analytic continuation of its real form (the terminal-voltage modulus becomes
``sqrt(re**2 + im**2)``), and the limiters (PSS and exciter clamps, the
anti-windup hold) decide on real parts only, so the imaginary part of
``rhs(x + i h e_j)`` is ``h`` times column j of the Jacobian.

Evaluation allocates nothing per call.  :meth:`RhsPlan.bind` returns a
:class:`BoundRhs`, which evaluates in one :class:`Workspace` per state shape
and dtype, built on first use with every slice view it needs: ``z = [y | pe
| i_d, i_q | efd_cmd]`` is the operand of ``M``, the state goes into its head
and φ is evaluated into its tail in place.  :func:`rk4_span` writes each
stage state straight into that state slot.  Elementwise ufuncs take their
output positionally, which numpy parses faster than ``out=``; ``np.maximum``
and ``np.minimum`` take ``out=``, because numpy 2.4 deprecates their
positional output and each such call would run the warnings machinery.  What
an evaluation returns (:func:`rhs`, a :class:`BoundRhs` call,
:meth:`BoundRhs.network`) is a new array that the caller owns; no workspace
buffer escapes.

The test suite pins the plan to a per-machine reference written from the
elementary device equations, which reads only the equilibrium references of
the plan, and the workspace evaluation to the bits of an allocating one.
"""

from __future__ import annotations

from math import isnan
from typing import Callable, NamedTuple

import numpy as np

DIVERGENCE_LIMIT = 1e6

# whole-array reduction without the ndarray-method wrapper (hot loop)
_most = np.maximum.reduce


def active_backend() -> str:
    """Name of the kernel implementation; there is one."""
    return "numpy"


def network_operator(gmat, bmat):
    """The reduced network as one real matrix: ``[e_re, e_im] @ net`` is
    ``[i_re, i_im, i_im, -i_re]``, the currents that the EMFs (synchronous
    frame) drive, then the same turned by -90 degrees."""
    gt, bt = gmat.T, bmat.T
    return np.concatenate((np.concatenate((gt, bt, bt, -gt), axis=1),
                           np.concatenate((-bt, gt, gt, bt), axis=1)))


def design_rows(h, d, omega0, gov):
    """The rotor and governor/turbine equations of one machine over its
    design states [delta, omega, pm, xm, xe]: ``dx = a x + b pc + g pe``,
    with pe on the machine base.  Without a governor (`gov` None) the pm,
    xm, xe rows are zero.  Returns a (5, 5), b (5,) and g (5,) as lists."""
    a = [[0.0, 1.0, 0.0, 0.0, 0.0],
         [0.0, -d / (2 * h), omega0 / (2 * h), 0.0, 0.0]]
    b = [0.0] * 5
    if gov is None:
        a += [[0.0] * 5] * 3
    else:
        ke, te, t3, t4, t5, tm, r = gov.ke, gov.te, gov.t3, gov.t4, gov.t5, gov.tm, gov.r
        a += [[0.0, -ke * t3 * t4 / (tm * te * t5 * r * omega0), -1.0 / t5,
               (tm - t4) / (t5 * tm), t4 * (te - t3) / (tm * t5 * te)],
              [0.0, -ke * t3 / (tm * te * r * omega0), 0.0, -1.0 / tm, (te - t3) / (tm * te)],
              [0.0, -ke / (te * r * omega0), 0.0, 0.0, -1.0 / te]]
        b = [0.0, 0.0, t3 * t4 / (tm * te * t5), t3 / (tm * te), 1.0 / te]
    return a, b, [0.0, -omega0 / (2 * h), 0.0, 0.0, 0.0]


def pss_rows(p, omega0):
    """The PSS washout and two lead-lags over (omega, z1, z2, z3): the rows
    of dz1, dz2, dz3 and of the output y3 (before its clamp), as lists."""
    l1, l2 = p.t1 / p.t2, p.t3 / p.t4
    y1 = [p.ks / omega0, -1.0, 0.0, 0.0]        # washout output ks omega/omega0 - z1
    y2 = [l1 * v for v in y1]
    y2[2] += 1.0 - l1                           # z2 + l1 (y1 - z2)
    y3 = [l2 * v for v in y2]
    y3[3] += 1.0 - l2                           # z3 + l2 (y2 - z3)
    d2 = [v / p.t2 for v in y1]
    d2[2] -= 1.0 / p.t2                         # (y1 - z2) / t2
    d3 = [v / p.t4 for v in y2]
    d3[3] -= 1.0 / p.t4                         # (y2 - z3) / t4
    return [[v / p.tw for v in y1], d2, d3], y3


class Control(NamedTuple):
    """Governor feedback in service: each machine's valve command is
    ``pcref + active * gains . (x5 - xref)`` over its design states."""
    gains: np.ndarray       # (n_mach, 5) over [delta, omega, pm, xm, xe]
    xref: np.ndarray        # (n_mach, 5) reference design states
    active: np.ndarray      # (n_mach,) 1.0 while the machine's controller is in service


def _clip(x, lo, hi, out):
    """min(max(x, lo), hi) into `out`; a complex-step perturbation passes
    through where the real part is not clamped."""
    if x.dtype.kind != "c":
        np.maximum(x, lo, out=out)
        np.minimum(out, hi, out=out)
        return
    c = np.minimum(np.maximum(x.real, lo), hi)
    out[...] = np.where(c == x.real, x, c)


def _sincos(x, s, c):
    """sin x into `s` and cos x into `c`; complex parts continue through the
    real functions, sin(a + ib) = sin a cosh b + i cos a sinh b, which numpy
    evaluates several times faster than its complex sin and cos."""
    if x.dtype.kind != "c":
        np.sin(x, s)
        np.cos(x, c)
        return
    sa, ca, chb, shb = np.sin(x.real), np.cos(x.real), np.cosh(x.imag), np.sinh(x.imag)
    np.add(sa * chb, 1j * (ca * shb), s)
    np.subtract(ca * chb, 1j * (sa * shb), c)


def _modulus(re, im, out):
    """|re + i im| into `out`, continued as sqrt(re^2 + im^2) to complex parts."""
    if re.dtype.kind != "c":
        np.hypot(re, im, out)
    else:
        np.sqrt(re * re + im * im, out)


def feedback(gains, dx):
    """Per-machine gains . dx over the design states, dx of shape (..., m, 5).

    Every stack is evaluated as one 2-D einsum over all its rows, so that
    each row sums in the order of a single (m, 5) call."""
    flat = dx.reshape(-1, 5)
    tiled = np.tile(gains, (flat.shape[0] // gains.shape[0], 1))
    return np.einsum("ij,ij->i", tiled, flat).reshape(dx.shape[:-1])


def _columns(rows, width):
    """Float column vectors of a list of equal-length tuples."""
    return np.array(rows, dtype=float).reshape(-1, width).T.copy()


class RhsPlan:
    """The model's parameter record: the operator ``M``, the constants ``c``
    and the gathers of φ, built in one pass from the case's device records,
    the layout's state slots and the equilibrium references.  Its arrays are
    read-only.

    States ``y`` are ``(n_states,)`` or stacked ``(..., n_states)``; every
    method works over the last axis.  The slots of absent devices (the
    mechanical power of an ungoverned machine, the field voltage of an
    unexcited one) point past the state into the constants ``const``, which
    :meth:`design_states` appends to ``y``: each machine's equilibrium
    mechanical power, then its field voltage, then 0.  ``M`` is assembled over that
    extended state, and the columns of the constants are then folded into
    ``c``; the valve command reference of a governed machine is its
    equilibrium mechanical power.
    """

    def __init__(self, case, layout, pm, efd, vref):
        """`pm` (machine base), `efd` and `vref` hold each machine's
        equilibrium mechanical power, field voltage and exciter reference;
        `vref` is read for machines with an exciter only."""
        n, ns, at = len(case.machines), layout.n_states, layout.index
        w0 = case.omega0
        # extended state [y, pm, efd, 0]; absent-device slots point past y
        zero_at = ns + 2 * n
        mach, rows, gov, slots, pss_k, pss_ix, pss_d, pss_y3 = ([] for _ in range(8))
        for k, m in enumerate(case.machines):
            g, e, p = case.governor_for(m.id), case.exciter_for(m.id), case.pss_for(m.id)
            # ka = 0 and zero limits give an absent exciter the command 0, and
            # zero limits an absent PSS the output 0
            mach.append((m.mva / case.base_mva, *m.system_reactances(case.base_mva),
                         m.td0p, m.tq0p,
                         *((0.0, 1.0, 0.0, 0.0, 0.0) if e is None
                           else (e.ka, e.ta, e.efd_min, e.efd_max, vref[k])),
                         *((0.0, 0.0) if p is None else (p.vmin, p.vmax))))
            rows.append(design_rows(m.h, m.d, w0, g))
            if g is not None:
                gov.append(k)
            # delta, omega, eqp, edp, pm, xm, xe, efd
            slots.append((at[m.id, "delta"], at[m.id, "omega"], at[m.id, "eqp"],
                          at[m.id, "edp"],
                          *((at[m.id, "pm"], at[m.id, "xm"], at[m.id, "xe"])
                            if g is not None else (ns + k, zero_at, zero_at)),
                          at[m.id, "efd"] if e is not None else ns + n + k))
            if p is not None:
                pss_k.append(k)
                pss_ix.append([at[m.id, s] for s in ("omega", "z1", "z2", "z3")])
                d, y3 = pss_rows(p, w0)
                pss_d.append(d)
                pss_y3.append(y3)
        slot = np.array(slots, dtype=np.intp)
        self.const = np.concatenate((pm, efd, [0.0]))
        self.ix5 = slot[:, [0, 1, 4, 5, 6]]                 # (n, 5) design states
        self.ix_mach = slot[:, :4].T                        # rows: delta, omega, eqp, edp
        self.gov = gov = np.array(gov, dtype=np.intp)
        self.ix5_gov = self.ix5[gov]
        self.ix_xe = self.ix5_gov[:, 4]
        (self.sout, xd, xq, xdp, xqp, td0p, tq0p, self.ka, ta, self.efdmin,
         self.efdmax, self.vref, self.vsmin, self.vsmax) = _columns(mach, 14)
        self.xq_corr = xqp - xdp
        self.xdp2 = np.concatenate((xdp, xdp))
        ne = ns + 2 * n + 1
        phi = ne + np.arange(4 * n).reshape(4, n)           # pe, i_d, i_q, efd_cmd
        wm = np.zeros((ns, ne + 4 * n))

        # rotor rows of every machine, governor/turbine rows of governed ones
        ab = np.array([a + [b, g] for a, b, g in rows])
        a, b, g = ab[:, :5], ab[:, 5], ab[:, 6]
        wm[self.ix5[:, :2, None], self.ix5[:, None, :]] = a[:, :2]
        wm[self.ix5_gov[:, 2:, None], self.ix5_gov[:, None, :]] = a[gov, 2:]
        self.b_pc = b[gov, 2:]                              # valve command columns
        wm[self.ix5_gov[:, 2:], ns + gov[:, None]] = self.b_pc   # command pcref = pm
        wm[slot[:, 1], phi[0]] = g[:, 1] / self.sout
        # two-axis rows; the exciter lag towards the clamped command
        eqp_, edp_, efd_ = slot[:, 2], slot[:, 3], slot[:, 7]
        wm[eqp_, eqp_] = -1.0 / td0p
        wm[eqp_, phi[1]] = -(xd - xdp) / td0p
        wm[eqp_, efd_] = 1.0 / td0p
        wm[edp_, edp_] = -1.0 / tq0p
        wm[edp_, phi[2]] = (xq - xqp) / tq0p
        exc = efd_ < ns
        wm[efd_[exc], efd_[exc]] = -1.0 / ta[exc]
        wm[efd_[exc], phi[3, exc]] = 1.0 / ta[exc]
        # gathers of delta, delta, edp, eqp, eqp, -edp; then the PSS outputs
        self.pre = np.zeros((ns, 7 * n))
        self.pre[slot[:, [0, 0, 3, 2, 2, 3]], np.arange(6 * n).reshape(6, n).T] = \
            [1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
        if pss_k:
            ix = np.array(pss_ix, dtype=np.intp)
            wm[ix[:, 1:, None], ix[:, None, :]] = pss_d
            self.pre[ix, 6 * n + np.array(pss_k)[:, None]] = pss_y3
        self.m = np.concatenate((wm[:, :ns], wm[:, ne:]), axis=1)
        self.c = wm[:, ns:ne] @ self.const
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def design_states(self, y):
        """Each machine's design states [delta, omega, pm, xm, xe] of ``y``,
        shape ``(..., n_mach, 5)``, read from ``y`` with the absent-device
        constants appended: an ungoverned machine reads its equilibrium
        mechanical power and zero valve states."""
        ye = np.concatenate(
            (y, np.broadcast_to(self.const, y.shape[:-1] + self.const.shape)), axis=-1)
        return ye[..., self.ix5]

    def feedback_matrix(self, gains):
        """The state-matrix term of the governor feedback: each governed
        machine's ``b_k k_k^T`` on its pm, xm, xe rows and its design-state
        columns; `gains` holds one row per machine."""
        ns = self.c.size
        out = np.zeros((ns, ns))
        cols = self.ix5_gov
        out[cols[:, 2:, None], cols[:, None, :]] = (self.b_pc[:, :, None]
                                                    * gains[self.gov][:, None, :])
        return out

    def bind(self, gmat, bmat, control=None):
        """The RHS ``y -> dy`` on one network with one controller setting.
        The feedback ``active * gains . (x5 - xref)`` is folded into a copy
        of the operator and the constants."""
        mt, c = self.m.T, self.c
        if control is not None:
            fb = self.feedback_matrix(control.active[:, None] * control.gains)
            xs = np.zeros(c.size)                   # the references at the design slots
            xs[self.ix5_gov] = control.xref[self.gov]
            m = self.m.copy()
            m[:, :c.size] += fb
            mt, c = m.T, c - fb @ xs
        return BoundRhs(self, network_operator(gmat, bmat), mt, c)


class BoundRhs:
    """The RHS of one plan on one network with one controller setting.  It
    evaluates in one :class:`Workspace` per state shape and dtype, built on
    first use; the arrays it returns are the caller's."""

    def __init__(self, plan, net, mt, c):
        self.plan, self.net, self.mt, self.c = plan, net, mt, c
        self._spaces = {}

    def workspace(self, shape, dtype):
        """The workspace for states of `shape` and `dtype`."""
        w = self._spaces.get((shape, dtype))
        if w is None:
            w = self._spaces[shape, dtype] = _workspace(self, shape, dtype)
        return w

    def _load(self, y):
        w = self.workspace(y.shape, y.dtype)
        np.copyto(w.y, y)
        return w

    def __call__(self, y):
        """dy of `y`, as a new array."""
        w = self._load(y)
        return w.evaluate(np.empty(w.y.shape, w.y.dtype))

    def network(self, y):
        """The EMFs ``[e_re, e_im]`` (synchronous frame) and the electrical
        power (system base) of `y`, as new arrays."""
        w = self._load(y)
        w.network()
        return w.e.copy(), w.pe.copy()


class Workspace(NamedTuple):
    """The buffers of one state shape and dtype and the two evaluations that
    run in them; every view they read or write is made once."""
    y: np.ndarray           # the state slot
    e: np.ndarray           # EMFs [e_re, e_im], synchronous frame
    pe: np.ndarray          # electrical power, system base
    network: Callable[[], None]                       # y -> e, pe, i_d, i_q
    evaluate: Callable[[np.ndarray], np.ndarray]      # y -> dy into its argument


def _workspace(bound, shape, dtype):
    """The workspace of `bound` for states of `shape` and `dtype`.

    ``z = [y | pe | i_d, i_q | efd_cmd]`` is the operand of ``M``: the state
    goes into its head and φ is evaluated into its tail in place.  The gather
    ``v = y @ pre`` is ``[delta, delta | edp, eqp, eqp, -edp | y3]`` and
    ``sc = [sin delta, sin delta | cos delta, cos delta]``, so that the EMFs
    and the d/q currents each take one 4n-wide product and one sum or
    difference of its halves."""
    plan, net, mt, c = bound.plan, bound.net, bound.mt, bound.c
    n, ns = plan.sout.size, c.size
    dtype = np.result_type(dtype, float)

    def buf(width):
        return np.empty(shape[:-1] + (width,), dtype)

    z = buf(ns + 4 * n)
    y, pe, idq, efd = (z[..., :ns], z[..., ns:ns + n], z[..., ns + n:ns + 3 * n],
                       z[..., ns + 3 * n:])
    i_d, i_q = idq[..., :n], idq[..., n:]
    v = buf(7 * n)
    delta2, emf_parts, dq_emf, y3 = (v[..., :2 * n], v[..., 2 * n:6 * n],
                                     v[..., 2 * n:4 * n], v[..., 6 * n:])
    sc = buf(4 * n)
    sin, cos = sc[..., :2 * n], sc[..., 2 * n:]
    t4 = buf(4 * n)                                 # products, then their halves
    lo, hi = t4[..., :2 * n], t4[..., 2 * n:]
    p_d, p_q, q = t4[..., :n], t4[..., n:2 * n], t4[..., 2 * n:3 * n]
    e, i, vt = buf(2 * n), buf(4 * n), buf(2 * n)
    i_turn, vt_re, vt_im = i[..., 2 * n:], vt[..., :n], vt[..., n:]
    vm, vpss, cmd = buf(n), buf(n), buf(n)
    pre, xq_corr, xdp2, ka, vref = plan.pre, plan.xq_corr, plan.xdp2, plan.ka, plan.vref
    vsmin, vsmax, efdmin, efdmax = plan.vsmin, plan.vsmax, plan.efdmin, plan.efdmax
    ix_xe = plan.ix_xe

    def network():
        """EMFs, currents ``i = [i_re, i_im, i_im, -i_re]``, their d/q
        projections and the electrical power of the state slot."""
        np.matmul(y, pre, v)
        _sincos(delta2, sin, cos)
        np.multiply(emf_parts, sc, t4)
        np.add(lo, hi, e)
        np.matmul(e, net, i)
        np.multiply(i, sc, t4)
        np.subtract(lo, hi, idq)
        # pe = edp i_d + eqp i_q + xq_corr i_d i_q, summed in that order
        np.multiply(dq_emf, idq, lo)
        np.add(p_d, p_q, pe)
        np.multiply(xq_corr, i_d, q)
        np.multiply(q, i_q, q)
        np.add(pe, q, pe)

    def evaluate(out):
        """dy of the state slot into `out`.  The field command is clamped,
        and so is the PSS output within it; it acts on the terminal voltage
        behind the transient reactance, ``|e - j xdp i|``."""
        network()
        np.multiply(xdp2, i_turn, vt)
        np.add(e, vt, vt)
        _modulus(vt_re, vt_im, vm)
        _clip(y3, vsmin, vsmax, vpss)
        np.subtract(vref, vm, cmd)
        np.add(cmd, vpss, cmd)
        np.multiply(ka, cmd, cmd)
        _clip(cmd, efdmin, efdmax, efd)
        np.matmul(z, mt, out)
        np.add(out, c, out)
        # anti-windup: hold the valve state when pinned against an active
        # limit; only a valve state at or past a limit can be held, and none
        # is while any valve state is NaN.  The test runs on Python floats,
        # which is several times faster than numpy reductions at this size.
        xe = y.take(ix_xe, -1).real
        xs = xe.ravel().tolist()
        if xs and (min(xs) <= 0.0 or max(xs) >= 1.0) and not any(map(isnan, xs)):
            d = out[..., ix_xe].real
            hold = ((xe >= 1.0) & (d > 0.0)) | ((xe <= 0.0) & (d < 0.0))
            out[..., ix_xe] = np.where(hold, 0.0, out[..., ix_xe])
        return out

    return Workspace(y, e, pe, network, evaluate)


def rhs(y, plan, gmat, bmat, control=None):
    """dy for y of shape (n_states,) or (B, n_states) through a model's plan,
    as a new array."""
    return plan.bind(gmat, bmat, control)(y)


def rk4_span(y, h, nsteps, plan, gmat, bmat, control=None, out=None, out_offset=0):
    """Integrate y of shape (n_states,) or (B, n_states) in place over nsteps
    fixed steps, clamping the valve states to [0, 1] after each step and
    storing step k's state in out[out_offset + k] when out (shape
    (T, n_states) or (T, B, n_states)) is given.  Returns -1, or the first
    (0-based) step after which some row left the divergence limit."""
    w = plan.bind(gmat, bmat, control).workspace(y.shape, y.dtype)
    stage, evaluate = w.y, w.evaluate
    k1, k2, k3, k4, tmp = (np.empty_like(stage) for _ in range(5))
    ix_xe = plan.ix_xe
    shut, open_ = np.zeros(ix_xe.size), np.ones(ix_xe.size)
    # 0-d arrays: numpy takes them faster than Python floats, with the same bits
    half, whole, two, sixth = (np.array(v) for v in (0.5 * h, h, 2.0, h / 6.0))
    stages = ((k1, k2, half), (k2, k3, half), (k3, k4, whole))
    for k in range(nsteps):
        # each stage state goes straight into the workspace's state slot
        np.copyto(stage, y)
        evaluate(k1)
        for k_in, k_out, a in stages:
            np.multiply(k_in, a, tmp)
            np.add(y, tmp, stage)
            evaluate(k_out)
        # y += sixth * (k1 + k4 + 2 (k2 + k3)), summed in that order
        np.add(k2, k3, tmp)
        np.multiply(tmp, two, tmp)
        np.add(k1, k4, k1)
        np.add(k1, tmp, k1)
        np.multiply(k1, sixth, k1)
        np.add(y, k1, y)
        y[..., ix_xe] = np.minimum(np.maximum(y[..., ix_xe], shut), open_)
        if not _most(np.abs(y), axis=None) < DIVERGENCE_LIMIT:     # also NaN
            return k
        if out is not None:
            out[out_offset + k] = y
    return -1
