"""Hot numeric kernels: full-system RHS evaluation and fixed-step RK4 spans.

The model RHS is evaluated through an :class:`RhsPlan`, built once per model
from ``(pf, pi, omega0)``: the gather indices of the base, governor, exciter
and PSS states, the per-device coefficient vectors, and the permutation that
puts the concatenated derivative blocks back into state order.  The network
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


class PF:
    """Column indices of the float parameter matrix (one row per machine)."""
    H = 0
    D = 1
    SOUT = 2      # machine MVA / system MVA: machine-base power -> system base
    XD = 3
    XQ = 4
    XDP = 5
    XQP = 6
    TD0P = 7
    TQ0P = 8
    KE = 9
    TE = 10
    T3 = 11
    T4 = 12
    T5 = 13
    TM = 14
    RDROOP = 15
    KA = 16
    TA = 17
    EFDMIN = 18
    EFDMAX = 19
    VREF = 20
    KS = 21
    TW = 22
    TP1 = 23
    TP2 = 24
    TP3 = 25
    TP4 = 26
    VSMIN = 27
    VSMAX = 28
    PCREF = 29
    PMCONST = 30
    EFDCONST = 31


NPF = 32


class PI:
    """Column indices of the integer parameter matrix (state slots, -1 if absent)."""
    I_DELTA = 0
    I_OMEGA = 1
    I_EQP = 2
    I_EDP = 3
    I_PM = 4
    I_XM = 5
    I_XE = 6
    I_EFD = 7
    I_Z1 = 8
    I_Z2 = 9
    I_Z3 = 10
    HAS_GOV = 11
    HAS_EXC = 12
    HAS_PSS = 13


NPI = 14


def active_backend() -> str:
    """Name of the kernel implementation; there is one."""
    return "numpy"


_GOV_SLOTS = [PI.I_DELTA, PI.I_OMEGA, PI.I_PM, PI.I_XM, PI.I_XE]


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


class RhsPlan:
    """Gather indices, per-device coefficients and the output permutation of the
    model RHS, derived once from the packed parameters ``(pf, pi, omega0)``.

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

    def __init__(self, pf, pi, omega0):
        n = pf.shape[0]
        has_gov, has_exc, has_pss = (pi[:, [PI.HAS_GOV, PI.HAS_EXC, PI.HAS_PSS]] == 1).T
        gov, exc, pss = (np.flatnonzero(has) for has in (has_gov, has_exc, has_pss))
        n_states = 4 * n + 3 * gov.size + exc.size + 3 * pss.size
        self.omega0 = omega0

        # absent-device slots point past the state into [PMCONST, 0.0, EFDCONST]
        pm_at = n_states + np.arange(n)
        zero_at = n_states + n
        efd_at = n_states + n + 1 + np.arange(n)
        self.const = None
        if gov.size < n or exc.size < n:
            self.const = np.concatenate((pf[:, PF.PMCONST], [0.0], pf[:, PF.EFDCONST]))
        slot5 = pi[:, _GOV_SLOTS]
        slot5[~has_gov, 2] = pm_at[~has_gov]
        slot5[~has_gov, 3:] = zero_at
        self.ix5 = slot5                                    # (n, 5) design states
        efd_ix = np.where(has_exc, pi[:, PI.I_EFD], efd_at)
        # rows: delta, omega, eqp, edp, pm, efd
        self.ix_mach = np.stack([pi[:, PI.I_DELTA], pi[:, PI.I_OMEGA],
                                 pi[:, PI.I_EQP], pi[:, PI.I_EDP],
                                 slot5[:, 2], efd_ix])

        # network and rotor/two-axis coefficients
        self.xdp = pf[:, PF.XDP]
        self.xq_corr = pf[:, PF.XQP] - pf[:, PF.XDP]
        self.sout = pf[:, PF.SOUT]
        h2 = 2.0 * pf[:, PF.H]
        self.c_damp = -(pf[:, PF.D] / h2)
        self.c_acc = omega0 / h2
        self.xd_diff = pf[:, PF.XD] - pf[:, PF.XDP]
        self.xq_diff = pf[:, PF.XQ] - pf[:, PF.XQP]
        self.td0p = pf[:, PF.TD0P]
        self.tq0p = pf[:, PF.TQ0P]

        # PSS (washout + two lead-lags): rows omega, z1, z2, z3
        p = pf[pss]
        self.ix_pss = pi[pss][:, [PI.I_OMEGA, PI.I_Z1, PI.I_Z2, PI.I_Z3]].T
        self.ks, self.tw = p[:, PF.KS], p[:, PF.TW]
        self.tp2, self.tp4 = p[:, PF.TP2], p[:, PF.TP4]
        self.lead1 = p[:, PF.TP1] / p[:, PF.TP2]
        self.lead2 = p[:, PF.TP3] / p[:, PF.TP4]
        self.vsmin, self.vsmax = p[:, PF.VSMIN], p[:, PF.VSMAX]

        # exciter: the stabilizing signal of machines with both devices
        p = pf[exc]
        self.exc = None if exc.size == n else exc
        self.ix_efd = pi[exc, PI.I_EFD]
        self.ka, self.ta, self.vref = p[:, PF.KA], p[:, PF.TA], p[:, PF.VREF]
        self.efdmin, self.efdmax = p[:, PF.EFDMIN], p[:, PF.EFDMAX]
        both = has_pss[exc]
        self.vpss_dst = np.flatnonzero(both)
        pss_pos = np.zeros(n, dtype=pi.dtype)
        pss_pos[pss] = np.arange(pss.size)
        self.vpss_src = pss_pos[exc[both]]
        self.vpss_all = exc.size == pss.size and both.all()

        # governor/turbine chain
        p = pf[gov]
        self.gov = None if gov.size == n else gov
        self.ix5_gov = slot5[gov]
        self.ix_xe = pi[gov, PI.I_XE]
        ke, te, t3, t4 = p[:, PF.KE], p[:, PF.TE], p[:, PF.T3], p[:, PF.T4]
        t5, tm, rr = p[:, PF.T5], p[:, PF.TM], p[:, PF.RDROOP]
        self.pcref, self.te, self.tm, self.t5 = p[:, PF.PCREF], te, tm, t5
        self.xe_w = -ke / (te * rr * omega0)
        self.xm_w = -ke * t3 / (tm * te * rr * omega0)
        self.xm_xe = 1.0 - t3 / te
        self.xm_pc = t3 / (tm * te)
        self.pm_w = -ke * t3 * t4 / (tm * te * t5 * rr * omega0)
        self.pm_xm = 1.0 - t4 / tm
        self.pm_xe = t4 / (tm * t5) * (1.0 - t3 / te)
        self.pm_pc = t3 * t4 / (tm * te * t5)

        # derivative blocks in concatenation order -> state order
        order = np.concatenate((pi[:, PI.I_DELTA], pi[:, PI.I_OMEGA],
                                pi[:, PI.I_EQP], pi[:, PI.I_EDP],
                                self.ix_pss[1:].ravel(), self.ix_efd,
                                pi[gov][:, [PI.I_PM, PI.I_XM, PI.I_XE]].T.ravel()))
        self.perm = np.empty_like(order)
        self.perm[order] = np.arange(order.size)

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
