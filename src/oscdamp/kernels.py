"""Hot numeric kernels: full-system RHS evaluation and fixed-step RK4 spans.

The model RHS is evaluated through an :class:`RhsPlan`, built once per model
from the case's device records, the state layout and the equilibrium
references: the gather indices of the base, governor, exciter and PSS states,
the per-device coefficient vectors, and the permutation that puts the
concatenated derivative blocks back into state order.  The network
``(gmat, bmat)`` and the governor feedback in service (a :class:`Control`, or
None for none) are arguments of each call, never state of the plan.
:func:`rhs` takes ``y`` of shape ``(n_states,)`` or ``(B, n_states)``, real
or complex; :func:`rk4_span` integrates either real shape in place and
records into ``out`` of shape ``(T, n_states)`` or ``(T, B, n_states)``.  A
single state and a one-row stack give the same bits; the rows of a larger
stack go through matrix-matrix products and agree with single-state calls to
about 1e-13.

Complex states carry a complex-step perturbation: every expression is the
analytic continuation of its real form (the terminal-voltage modulus becomes
``sqrt(re**2 + im**2)``), and the limiters (PSS and exciter clamps, the
anti-windup hold) decide on real parts only, so the imaginary part of
``rhs(x + i h e_j)`` is ``h`` times column j of the Jacobian.  Real states
evaluate the plain real expressions, bit for bit.

The test suite pins the plan to a per-machine reference written from the
elementary forms in :mod:`oscdamp.dynamics`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DIVERGENCE_LIMIT = 1e6


def active_backend() -> str:
    """Name of the kernel implementation; there is one."""
    return "numpy"


def network_currents(delta, eqp, edp, gmat, bmat):
    """EMF components in the synchronous frame, the reduced-network currents
    and their d/q projections, per machine over the last axis.  The products
    are written ``e @ gmat.T``, which equals ``gmat @ e`` bit for bit for one
    state; stacked rows go through a matrix-matrix product."""
    sd, cd = np.sin(delta), np.cos(delta)
    e_re = edp * sd + eqp * cd
    e_im = eqp * sd - edp * cd
    gt, bt = gmat.T, bmat.T
    i_re = e_re @ gt - e_im @ bt
    i_im = e_im @ gt + e_re @ bt
    i_d = i_re * sd - i_im * cd
    i_q = i_re * cd + i_im * sd
    return e_re, e_im, i_re, i_im, i_d, i_q


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


def _modulus(re, im):
    """|re + i im|, continued as sqrt(re^2 + im^2) to complex parts."""
    return np.hypot(re, im) if re.dtype.kind != "c" else np.sqrt(re * re + im * im)


def feedback(gains, dx):
    """Per-machine gains . dx over the design states, dx of shape (..., m, 5).

    A stack is evaluated as one 2-D einsum over all its rows, so that every
    row sums in the order of a single (m, 5) call."""
    if dx.ndim == 2:
        return np.einsum("ij,ij->i", gains, dx)
    flat = dx.reshape(-1, 5)
    tiled = np.tile(gains, (flat.shape[0] // gains.shape[0], 1))
    return np.einsum("ij,ij->i", tiled, flat).reshape(dx.shape[:-1])


def _columns(rows, width):
    """Float column vectors of a list of equal-length tuples (empty for none)."""
    return np.array(rows, dtype=float).reshape(-1, width).T.copy()


class RhsPlan:
    """The model's parameter record: the gather indices, per-device
    coefficients and output permutation of the model RHS, built in one pass
    from the case's device records, the layout's state slots and the
    equilibrium references.  Its arrays are read-only.

    States ``y`` are ``(n_states,)`` or stacked ``(..., n_states)``; every
    method works over the last axis.  Slots of absent devices (the mechanical
    power of an ungoverned machine, the field voltage of an unexcited one) are
    read from constants appended to ``y`` by :meth:`extend`.  Each device's
    equations run over the machines that have it, and the derivative blocks
    are concatenated and permuted back into state order.  Every expression
    keeps its evaluation order; only whole left-to-right prefixes made of
    parameters (such as ``-ke / (te * rr * omega0)``) are hoisted into the
    coefficient vectors, so a single state gives the bits of evaluating the
    formulas in full.
    """

    def __init__(self, case, layout, pm, efd, vref):
        """`pm` (machine base), `efd` and `vref` hold each machine's
        equilibrium mechanical power, field voltage and exciter reference;
        `vref` is read for machines with an exciter only."""
        n, n_states, at = len(case.machines), layout.n_states, layout.index
        self.omega0 = omega0 = case.omega0
        # absent-device slots point past the state into [pm, 0.0, efd]
        zero_at = n_states + n
        mach, slots = [], []
        gov, gov_p, exc, exc_p, pss_p, pss_ix = [], [], [], [], [], []
        vpss_dst, vpss_src = [], []
        for k, m in enumerate(case.machines):
            g, e, p = case.governor_for(m.id), case.exciter_for(m.id), case.pss_for(m.id)
            mach.append((m.h, m.d, m.mva / case.base_mva,
                         *m.system_reactances(case.base_mva), m.td0p, m.tq0p))
            # delta, omega, eqp, edp, pm, xm, xe, efd
            slots.append((at[m.id, "delta"], at[m.id, "omega"], at[m.id, "eqp"],
                          at[m.id, "edp"],
                          *((at[m.id, "pm"], at[m.id, "xm"], at[m.id, "xe"])
                            if g is not None else (n_states + k, zero_at, zero_at)),
                          at[m.id, "efd"] if e is not None else zero_at + 1 + k))
            if g is not None:
                gov.append(k)
                gov_p.append((g.ke, g.te, g.t3, g.t4, g.t5, g.tm, g.r, pm[k]))
            if e is not None and p is not None:
                vpss_dst.append(len(exc))
                vpss_src.append(len(pss_p))
            if e is not None:
                exc.append(k)
                exc_p.append((e.ka, e.ta, e.efd_min, e.efd_max, vref[k]))
            if p is not None:
                pss_p.append((p.ks, p.tw, p.t1, p.t2, p.t3, p.t4, p.vmin, p.vmax))
                pss_ix.append((at[m.id, "omega"], at[m.id, "z1"], at[m.id, "z2"],
                               at[m.id, "z3"]))
        slot = np.array(slots, dtype=np.intp)
        self.const = None
        if len(gov) < n or len(exc) < n:
            self.const = np.concatenate((pm, [0.0], efd))
        self.ix5 = slot[:, [0, 1, 4, 5, 6]]                 # (n, 5) design states
        # rows: delta, omega, eqp, edp, pm, efd
        self.ix_mach = slot[:, [0, 1, 2, 3, 4, 7]].T

        # network and rotor/two-axis coefficients
        h, d, self.sout, xd, xq, xdp, xqp, self.td0p, self.tq0p = _columns(mach, 9)
        self.xdp = xdp
        self.xq_corr = xqp - xdp
        h2 = 2.0 * h
        self.c_damp = -(d / h2)
        self.c_acc = omega0 / h2
        self.xd_diff = xd - xdp
        self.xq_diff = xq - xqp

        # PSS (washout + two lead-lags): rows omega, z1, z2, z3
        self.ix_pss = np.array(pss_ix, dtype=np.intp).reshape(-1, 4).T
        self.ks, self.tw, tp1, self.tp2, tp3, self.tp4, self.vsmin, self.vsmax = \
            _columns(pss_p, 8)
        self.lead1 = tp1 / self.tp2
        self.lead2 = tp3 / self.tp4

        # exciter: the stabilizing signal of machines with both devices
        self.exc = None if len(exc) == n else np.array(exc, dtype=np.intp)
        self.ix_efd = slot[exc, 7]
        self.ka, self.ta, self.efdmin, self.efdmax, self.vref = _columns(exc_p, 5)
        self.vpss_dst = np.array(vpss_dst, dtype=np.intp)
        self.vpss_src = np.array(vpss_src, dtype=np.intp)
        self.vpss_all = len(vpss_dst) == len(exc) == len(pss_p)

        # governor/turbine chain
        self.gov = None if len(gov) == n else np.array(gov, dtype=np.intp)
        self.ix5_gov = self.ix5[gov]
        self.ix_xe = self.ix5_gov[:, 4]
        ke, te, t3, t4, t5, tm, rr, self.pcref = _columns(gov_p, 8)
        self.te, self.tm, self.t5 = te, tm, t5
        self.xe_w = -ke / (te * rr * omega0)
        self.xm_w = -ke * t3 / (tm * te * rr * omega0)
        self.xm_xe = 1.0 - t3 / te
        self.xm_pc = t3 / (tm * te)
        self.pm_w = -ke * t3 * t4 / (tm * te * t5 * rr * omega0)
        self.pm_xm = 1.0 - t4 / tm
        self.pm_xe = t4 / (tm * t5) * (1.0 - t3 / te)
        self.pm_pc = t3 * t4 / (tm * te * t5)

        # derivative blocks in concatenation order -> state order
        order = np.concatenate((*slot[:, :4].T, self.ix_pss[1:].ravel(), self.ix_efd,
                                self.ix5_gov[:, 2:].T.ravel()))
        self.perm = np.empty_like(order)
        self.perm[order] = np.arange(order.size)
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def extend(self, y):
        """``y`` with the absent-device constants appended along the last axis."""
        if self.const is None:
            return y
        return np.concatenate(
            (y, np.broadcast_to(self.const, y.shape[:-1] + self.const.shape)), axis=-1)

    def machine_states(self, ye):
        """delta, omega, eqp, edp, pm, efd per machine, each ``(..., n_mach)``."""
        g = ye[..., self.ix_mach]
        return tuple(g[..., k, :] for k in range(6))

    def network(self, delta, eqp, edp, gmat, bmat):
        """:func:`network_currents` plus the electrical power (system base)."""
        e_re, e_im, i_re, i_im, i_d, i_q = network_currents(delta, eqp, edp, gmat, bmat)
        pe_sys = edp * i_d + eqp * i_q + self.xq_corr * i_d * i_q
        return e_re, e_im, i_re, i_im, i_d, i_q, pe_sys

    def bind(self, gmat, bmat, control=None):
        """The RHS ``y -> dy`` on one network with one controller setting."""
        if control is not None and self.gov is not None:
            control = Control(*(a[self.gov] for a in control))
        return lambda y: self._rhs(y, gmat, bmat, control)

    def _rhs(self, y, gmat, bmat, control):
        ye = self.extend(y)
        delta, omega_r, eqp, edp, pm, efd = self.machine_states(ye)
        e_re, e_im, i_re, i_im, i_d, i_q, pe_sys = self.network(delta, eqp, edp,
                                                                gmat, bmat)
        vt = _modulus(e_re + self.xdp * i_im, e_im - self.xdp * i_re)
        blocks = [omega_r,
                  self.c_damp * omega_r + self.c_acc * (pm - pe_sys / self.sout),
                  (-eqp - self.xd_diff * i_d + efd) / self.td0p,
                  (-edp + self.xq_diff * i_q) / self.tq0p]

        vpss = None
        if self.ks.size:
            g = ye[..., self.ix_pss]
            w, z1, z2, z3 = (g[..., k, :] for k in range(4))
            u1 = self.ks * (w / self.omega0)
            y1 = u1 - z1
            d2 = y1 - z2
            y2 = z2 + self.lead1 * d2
            d3 = y2 - z3
            y3 = z3 + self.lead2 * d3
            blocks += [y1 / self.tw, d2 / self.tp2, d3 / self.tp4]
            vpss = _clip(y3, self.vsmin, self.vsmax)

        if self.ka.size:
            if self.exc is not None:
                vt = vt[..., self.exc]
            if not self.vpss_all:
                vp = np.zeros(vt.shape, vt.dtype)
                if vpss is not None:
                    vp[..., self.vpss_dst] = vpss[..., self.vpss_src]
                vpss = vp
            efd_cmd = _clip(self.ka * (self.vref - vt + vpss), self.efdmin, self.efdmax)
            blocks.append((efd_cmd - ye[..., self.ix_efd]) / self.ta)

        if self.pcref.size:
            x5 = ye[..., self.ix5_gov]
            w, pm, xm, xe = x5[..., 1], x5[..., 2], x5[..., 3], x5[..., 4]
            pc = self.pcref
            if control is not None:
                pc = pc + control.active * feedback(control.gains, x5 - control.xref)
            te, tm, t5 = self.te, self.tm, self.t5
            d_xe = self.xe_w * w - xe / te + pc / te
            # anti-windup: hold the valve state when pinned against an active limit
            xe_r, d_xe_r = xe.real, d_xe.real
            hold = ((xe_r >= 1.0) & (d_xe_r > 0.0)) | ((xe_r <= 0.0) & (d_xe_r < 0.0))
            blocks += [self.pm_w * w - pm / t5 + self.pm_xm * xm / t5
                       + self.pm_xe * xe + self.pm_pc * pc,
                       self.xm_w * w - xm / tm + self.xm_xe * xe / tm + self.xm_pc * pc,
                       np.where(hold, 0.0, d_xe)]
        return np.concatenate(blocks, axis=-1)[..., self.perm]


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
    half, sixth = 0.5 * h, h / 6.0
    for k in range(nsteps):
        k1 = f(y)
        k2 = f(y + half * k1)
        k3 = f(y + half * k2)
        k4 = f(y + h * k3)
        y += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[..., ix_xe] = np.minimum(np.maximum(y[..., ix_xe], 0.0), 1.0)
        if not np.all(np.abs(y) < DIVERGENCE_LIMIT):
            return k
        if out is not None:
            out[out_offset + k] = y
    return -1
