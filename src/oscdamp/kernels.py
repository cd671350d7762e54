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

The test suite pins the plan to a per-machine reference written from the
elementary device equations, which reads only the equilibrium references of
the plan.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DIVERGENCE_LIMIT = 1e6

# whole-array reductions without the ndarray-method wrappers (hot loop)
_least, _most = np.minimum.reduce, np.maximum.reduce


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


def _clip(x, lo, hi):
    """min(max(x, lo), hi); a complex-step perturbation passes through where
    the real part is not clamped."""
    c = np.minimum(np.maximum(x.real, lo), hi)
    return c if x.dtype.kind != "c" else np.where(c == x.real, x, c)


def _sincos(x):
    """sin x and cos x; complex parts continue through the real functions,
    sin(a + ib) = sin a cosh b + i cos a sinh b, which numpy evaluates
    several times faster than its complex sin and cos."""
    if x.dtype.kind != "c":
        return np.sin(x), np.cos(x)
    sa, ca, chb, shb = np.sin(x.real), np.cos(x.real), np.cosh(x.imag), np.sinh(x.imag)
    return sa * chb + 1j * (ca * shb), ca * chb - 1j * (sa * shb)


def _modulus(re, im):
    """|re + i im|, continued as sqrt(re^2 + im^2) to complex parts."""
    return np.hypot(re, im) if re.dtype.kind != "c" else np.sqrt(re * re + im * im)


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

    def network(self, y, net):
        """EMFs ``[e_re, e_im]`` (synchronous frame), the currents
        ``[i_re, i_im, i_im, -i_re]`` through ``net`` (a
        :func:`network_operator`), their d/q projections ``[i_d, i_q]``, the
        electrical power (system base) and the PSS outputs (zero where a
        machine has none), each stacking per-machine blocks on the last axis."""
        n = self.sout.size
        v = y @ self.pre
        s, c = _sincos(v[..., :2 * n])
        e = v[..., 2 * n:4 * n] * s + v[..., 4 * n:6 * n] * c
        i = e @ net
        idq = i[..., :2 * n] * s - i[..., 2 * n:] * c
        p = v[..., 2 * n:4 * n] * idq
        pe = p[..., :n] + p[..., n:] + self.xq_corr * idq[..., :n] * idq[..., n:]
        return e, i, idq, pe, v[..., 6 * n:]

    def phi(self, y, net):
        """The nonlinear inputs, as the blocks ``pe``, ``[i_d, i_q]`` and
        ``efd_cmd`` over the last axis.  The field command is clamped, and so
        is the PSS output within it; it acts on the terminal voltage behind
        the transient reactance, ``|e - j xdp i|``."""
        e, i, idq, pe, y3 = self.network(y, net)
        n = pe.shape[-1]
        vt = e + self.xdp2 * i[..., 2 * n:]
        vt = _modulus(vt[..., :n], vt[..., n:])
        vpss = _clip(y3, self.vsmin, self.vsmax)
        return pe, idq, _clip(self.ka * (self.vref - vt + vpss), self.efdmin, self.efdmax)

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
        net, ix_xe, phi = network_operator(gmat, bmat), self.ix_xe, self.phi

        def f(y):
            dy = np.concatenate((y, *phi(y, net)), axis=-1) @ mt + c
            # anti-windup: hold the valve state when pinned against an active
            # limit; only a valve state at or past a limit can be held
            xe = y[..., ix_xe].real
            if _least(np.minimum(xe, 1.0 - xe), axis=None, initial=np.inf) <= 0.0:
                d = dy[..., ix_xe].real
                hold = ((xe >= 1.0) & (d > 0.0)) | ((xe <= 0.0) & (d < 0.0))
                dy[..., ix_xe] = np.where(hold, 0.0, dy[..., ix_xe])
            return dy
        return f


def rhs(y, plan, gmat, bmat, control=None):
    """dy for y of shape (n_states,) or (B, n_states) through a model's plan."""
    return plan.bind(gmat, bmat, control)(y)


def rk4_span(y, h, nsteps, plan, gmat, bmat, control=None, out=None, out_offset=0):
    """Integrate y of shape (n_states,) or (B, n_states) in place over nsteps
    fixed steps, clamping the valve states to [0, 1] after each step and
    storing step k's state in out[out_offset + k] when out (shape
    (T, n_states) or (T, B, n_states)) is given.  Returns -1, or the first
    (0-based) step after which some row left the divergence limit."""
    f = plan.bind(gmat, bmat, control)
    ix_xe = plan.ix_xe
    shut, open_ = np.zeros(ix_xe.size), np.ones(ix_xe.size)
    half, sixth = 0.5 * h, h / 6.0
    for k in range(nsteps):
        k1 = f(y)
        k2 = f(y + half * k1)
        k3 = f(y + half * k2)
        k4 = f(y + h * k3)
        y += sixth * (k1 + k4 + 2.0 * (k2 + k3))
        y[..., ix_xe] = np.minimum(np.maximum(y[..., ix_xe], shut), open_)
        if not _most(np.abs(y), axis=None) < DIVERGENCE_LIMIT:     # also NaN
            return k
        if out is not None:
            out[out_offset + k] = y
    return -1
