"""Hot numeric kernels: full-system RHS evaluation and fixed-step RK4 spans.

Two interchangeable implementations live here:

* a loop-structured version compiled with numba ``@njit`` (the default when
  numba is importable), and
* a vectorized pure-numpy version built on an :class:`RhsPlan`.

Selection is an environment flag, read once per call site through
:func:`active_backend`:

    OSCDAMP_BACKEND=numba   force the jitted kernels (error if numba missing)
    OSCDAMP_BACKEND=numpy   force the pure-numpy kernels
    OSCDAMP_BACKEND=auto    numba when importable, numpy otherwise (default)

An unknown value or a numba request without numba raises :class:`BackendError`.

numba is optional. Without it the loop-structured kernels stay bound,
uncompiled, to the names the dispatcher uses (``_rhs_nb``, ``_span_nb``), so
they remain runnable plain Python; only :func:`active_backend` keeps them from
being selected.

The numpy kernels build an :class:`RhsPlan` from ``(pf, pi, omega0)`` once per
:func:`rhs` or :func:`rk4_span` call: the gather indices of the base,
governor, exciter and PSS states, the per-device coefficient vectors, and the
permutation that puts the concatenated derivative blocks back into state
order.  :func:`rhs` takes ``y`` of shape ``(n_states,)`` or ``(B, n_states)``;
:func:`rk4_span` integrates either shape in place and records into ``out`` of
shape ``(T, n_states)`` or ``(T, B, n_states)``.  A single state and a
one-row stack give the same bits, which are those of the per-call numpy
kernel that preceded the plan; the rows of a larger stack go through
matrix-matrix products and agree with single-state calls to about 1e-13.
Under the numba backend a stack runs row by row through the loop kernels.

Both paths implement identical math; ``benchmarks/bench_kernels.py`` times
them and the test suite pins their agreement.
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba
    HAVE_NUMBA = True
except ImportError:
    numba = None
    HAVE_NUMBA = False

ENV_VAR = "OSCDAMP_BACKEND"
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


class BackendError(ValueError):
    """The kernel backend named by the environment cannot be used."""


def active_backend() -> str:
    choice = os.environ.get(ENV_VAR, "auto").strip().lower()
    if choice not in ("auto", "numba", "numpy"):
        raise BackendError(f"{ENV_VAR} must be auto, numba or numpy (got {choice!r})")
    if choice == "numba" and not HAVE_NUMBA:
        raise BackendError(f"{ENV_VAR}=numba requested but numba is not importable")
    if choice == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    return choice


# --- pure-numpy implementation: the RHS plan -------------------------------------

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

    def bind(self, gains, xref, active, gmat, bmat):
        """The RHS ``y -> dy`` for one controller setting and one network."""
        if self.gov is not None:
            gains, xref, active = gains[self.gov], xref[self.gov], active[self.gov]
        return lambda y: self._rhs(y, gains, xref, active, gmat, bmat)

    def _rhs(self, y, gains, xref, active, gmat, bmat):
        ye = self.extend(y)
        delta, omega_r, eqp, edp, pm, efd = self.machine_states(ye)
        e_re, e_im, i_re, i_im, i_d, i_q, pe_sys = self.network(delta, eqp, edp,
                                                                gmat, bmat)
        vt = np.hypot(e_re + self.xdp * i_im, e_im - self.xdp * i_re)
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
            vpss = np.minimum(np.maximum(y3, self.vsmin), self.vsmax)

        if self.ka.size:
            if self.exc is not None:
                vt = vt[..., self.exc]
            if not self.vpss_all:
                vp = np.zeros(vt.shape)
                if vpss is not None:
                    vp[..., self.vpss_dst] = vpss[..., self.vpss_src]
                vpss = vp
            efd_cmd = np.minimum(np.maximum(self.ka * (self.vref - vt + vpss),
                                            self.efdmin), self.efdmax)
            blocks.append((efd_cmd - ye[..., self.ix_efd]) / self.ta)

        if self.pcref.size:
            x5 = ye[..., self.ix5_gov]
            w, pm, xm, xe = x5[..., 1], x5[..., 2], x5[..., 3], x5[..., 4]
            pc = self.pcref + active * feedback(gains, x5 - xref)
            te, tm, t5 = self.te, self.tm, self.t5
            d_xe = self.xe_w * w - xe / te + pc / te
            # anti-windup: hold the valve state when pinned against an active limit
            hold = ((xe >= 1.0) & (d_xe > 0.0)) | ((xe <= 0.0) & (d_xe < 0.0))
            blocks += [self.pm_w * w - pm / t5 + self.pm_xm * xm / t5
                       + self.pm_xe * xe + self.pm_pc * pc,
                       self.xm_w * w - xm / tm + self.xm_xe * xe / tm + self.xm_pc * pc,
                       np.where(hold, 0.0, d_xe)]
        return np.concatenate(blocks, axis=-1)[..., self.perm]


def _rk4_span_numpy(y, h, nsteps, pf, pi, gains, xref, active, gmat, bmat,
                    omega0, out, out_offset):
    """Advance nsteps RK4 steps in place, recording each new state; -1 on success
    else the (0-based) step index at which some row left the divergence limit."""
    plan = RhsPlan(pf, pi, omega0)
    f = plan.bind(gains, xref, active, gmat, bmat)
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


# --- numba implementation --------------------------------------------------------
# Module-level integer aliases so the jitted loops can reference columns by name.
C_H, C_D, C_SOUT, C_XD, C_XQ, C_XDP, C_XQP, C_TD0P, C_TQ0P = (
    PF.H, PF.D, PF.SOUT, PF.XD, PF.XQ, PF.XDP, PF.XQP, PF.TD0P, PF.TQ0P)
C_KE, C_TE, C_T3, C_T4, C_T5, C_TM, C_R = (
    PF.KE, PF.TE, PF.T3, PF.T4, PF.T5, PF.TM, PF.RDROOP)
C_KA, C_TA, C_EFDMIN, C_EFDMAX, C_VREF = (
    PF.KA, PF.TA, PF.EFDMIN, PF.EFDMAX, PF.VREF)
C_KS, C_TW, C_TP1, C_TP2, C_TP3, C_TP4, C_VSMIN, C_VSMAX = (
    PF.KS, PF.TW, PF.TP1, PF.TP2, PF.TP3, PF.TP4, PF.VSMIN, PF.VSMAX)
C_PCREF, C_PMCONST, C_EFDCONST = PF.PCREF, PF.PMCONST, PF.EFDCONST
J_DELTA, J_OMEGA, J_EQP, J_EDP, J_PM, J_XM, J_XE, J_EFD, J_Z1, J_Z2, J_Z3 = (
    PI.I_DELTA, PI.I_OMEGA, PI.I_EQP, PI.I_EDP, PI.I_PM, PI.I_XM, PI.I_XE,
    PI.I_EFD, PI.I_Z1, PI.I_Z2, PI.I_Z3)
J_GOV, J_EXC, J_PSS = PI.HAS_GOV, PI.HAS_EXC, PI.HAS_PSS


def _rhs_loops(y, dy, pf, pi, gains, xref, active, gmat, bmat, omega0):
    n = pf.shape[0]
    e_re = np.empty(n)
    e_im = np.empty(n)
    sd = np.empty(n)
    cd = np.empty(n)
    for i in range(n):
        d = y[pi[i, J_DELTA]]
        sd[i] = np.sin(d)
        cd[i] = np.cos(d)
        eqp = y[pi[i, J_EQP]]
        edp = y[pi[i, J_EDP]]
        e_re[i] = edp * sd[i] + eqp * cd[i]
        e_im[i] = eqp * sd[i] - edp * cd[i]
    for i in range(n):
        acc_re = 0.0
        acc_im = 0.0
        for j in range(n):
            acc_re += gmat[i, j] * e_re[j] - bmat[i, j] * e_im[j]
            acc_im += gmat[i, j] * e_im[j] + bmat[i, j] * e_re[j]
        i_d = acc_re * sd[i] - acc_im * cd[i]
        i_q = acc_re * cd[i] + acc_im * sd[i]
        eqp = y[pi[i, J_EQP]]
        edp = y[pi[i, J_EDP]]
        omega_r = y[pi[i, J_OMEGA]]
        xdp = pf[i, C_XDP]
        pe_sys = edp * i_d + eqp * i_q + (pf[i, C_XQP] - xdp) * i_d * i_q
        vt_re = e_re[i] + xdp * acc_im
        vt_im = e_im[i] - xdp * acc_re
        vt = np.sqrt(vt_re * vt_re + vt_im * vt_im)

        if pi[i, J_GOV] == 1:
            pm = y[pi[i, J_PM]]
            xm = y[pi[i, J_XM]]
            xe = y[pi[i, J_XE]]
        else:
            pm = pf[i, C_PMCONST]
            xm = 0.0
            xe = 0.0
        if pi[i, J_EXC] == 1:
            efd = y[pi[i, J_EFD]]
        else:
            efd = pf[i, C_EFDCONST]

        pe_m = pe_sys / pf[i, C_SOUT]
        h2 = 2.0 * pf[i, C_H]
        dy[pi[i, J_DELTA]] = omega_r
        dy[pi[i, J_OMEGA]] = -(pf[i, C_D] / h2) * omega_r + (omega0 / h2) * (pm - pe_m)
        dy[pi[i, J_EQP]] = (-eqp - (pf[i, C_XD] - xdp) * i_d + efd) / pf[i, C_TD0P]
        dy[pi[i, J_EDP]] = (-edp + (pf[i, C_XQ] - pf[i, C_XQP]) * i_q) / pf[i, C_TQ0P]

        vpss = 0.0
        if pi[i, J_PSS] == 1:
            z1 = y[pi[i, J_Z1]]
            z2 = y[pi[i, J_Z2]]
            z3 = y[pi[i, J_Z3]]
            slip = omega_r / omega0
            u1 = pf[i, C_KS] * slip
            dy[pi[i, J_Z1]] = (u1 - z1) / pf[i, C_TW]
            y1 = u1 - z1
            dy[pi[i, J_Z2]] = (y1 - z2) / pf[i, C_TP2]
            y2 = z2 + pf[i, C_TP1] / pf[i, C_TP2] * (y1 - z2)
            dy[pi[i, J_Z3]] = (y2 - z3) / pf[i, C_TP4]
            y3 = z3 + pf[i, C_TP3] / pf[i, C_TP4] * (y2 - z3)
            vpss = y3
            if vpss < pf[i, C_VSMIN]:
                vpss = pf[i, C_VSMIN]
            elif vpss > pf[i, C_VSMAX]:
                vpss = pf[i, C_VSMAX]

        if pi[i, J_EXC] == 1:
            efd_cmd = pf[i, C_KA] * (pf[i, C_VREF] - vt + vpss)
            if efd_cmd < pf[i, C_EFDMIN]:
                efd_cmd = pf[i, C_EFDMIN]
            elif efd_cmd > pf[i, C_EFDMAX]:
                efd_cmd = pf[i, C_EFDMAX]
            dy[pi[i, J_EFD]] = (efd_cmd - efd) / pf[i, C_TA]

        if pi[i, J_GOV] == 1:
            u = 0.0
            if active[i] != 0.0:
                u = (gains[i, 0] * (y[pi[i, J_DELTA]] - xref[i, 0])
                     + gains[i, 1] * (omega_r - xref[i, 1])
                     + gains[i, 2] * (pm - xref[i, 2])
                     + gains[i, 3] * (xm - xref[i, 3])
                     + gains[i, 4] * (xe - xref[i, 4]))
            pc = pf[i, C_PCREF] + u
            ke = pf[i, C_KE]
            te = pf[i, C_TE]
            t3 = pf[i, C_T3]
            t4 = pf[i, C_T4]
            t5 = pf[i, C_T5]
            tm = pf[i, C_TM]
            rr = pf[i, C_R]
            d_xe = -ke / (te * rr * omega0) * omega_r - xe / te + pc / te
            if xe >= 1.0 and d_xe > 0.0:
                d_xe = 0.0
            elif xe <= 0.0 and d_xe < 0.0:
                d_xe = 0.0
            dy[pi[i, J_XE]] = d_xe
            dy[pi[i, J_XM]] = (-ke * t3 / (tm * te * rr * omega0) * omega_r
                               - xm / tm + (1.0 - t3 / te) * xe / tm
                               + t3 / (tm * te) * pc)
            dy[pi[i, J_PM]] = (-ke * t3 * t4 / (tm * te * t5 * rr * omega0) * omega_r
                               - pm / t5 + (1.0 - t4 / tm) * xm / t5
                               + t4 / (tm * t5) * (1.0 - t3 / te) * xe
                               + t3 * t4 / (tm * te * t5) * pc)


_rhs_nb = numba.njit(cache=True)(_rhs_loops) if HAVE_NUMBA else _rhs_loops


def _rk4_span_loops(y, h, nsteps, pf, pi, gains, xref, active, gmat, bmat,
                    omega0, out, out_offset):
    ns = y.shape[0]
    n = pf.shape[0]
    k1 = np.zeros(ns)
    k2 = np.zeros(ns)
    k3 = np.zeros(ns)
    k4 = np.zeros(ns)
    ytmp = np.empty(ns)
    for step in range(nsteps):
        _rhs_nb(y, k1, pf, pi, gains, xref, active, gmat, bmat, omega0)
        for s in range(ns):
            ytmp[s] = y[s] + 0.5 * h * k1[s]
        _rhs_nb(ytmp, k2, pf, pi, gains, xref, active, gmat, bmat, omega0)
        for s in range(ns):
            ytmp[s] = y[s] + 0.5 * h * k2[s]
        _rhs_nb(ytmp, k3, pf, pi, gains, xref, active, gmat, bmat, omega0)
        for s in range(ns):
            ytmp[s] = y[s] + h * k3[s]
        _rhs_nb(ytmp, k4, pf, pi, gains, xref, active, gmat, bmat, omega0)
        bad = False
        for s in range(ns):
            y[s] += (h / 6.0) * (k1[s] + 2.0 * k2[s] + 2.0 * k3[s] + k4[s])
        for i in range(n):
            if pi[i, J_GOV] == 1:
                ix = pi[i, J_XE]
                if y[ix] < 0.0:
                    y[ix] = 0.0
                elif y[ix] > 1.0:
                    y[ix] = 1.0
        for s in range(ns):
            if not (np.abs(y[s]) < DIVERGENCE_LIMIT):
                bad = True
        if bad:
            return step
        if out.shape[0] > 0:
            for s in range(ns):
                out[out_offset + step, s] = y[s]
    return -1


_span_nb = numba.njit(cache=True)(_rk4_span_loops) if HAVE_NUMBA else _rk4_span_loops


def _numba_funcs():
    return _rhs_nb, _span_nb


# --- dispatch ---------------------------------------------------------------------

_EMPTY = np.zeros((0, 0))


def rhs(y, pf, pi, gains, xref, active, gmat, bmat, omega0):
    """dy for y of shape (n_states,) or (B, n_states)."""
    if active_backend() == "numba":
        fn, _ = _numba_funcs()
        dy = np.zeros_like(y)
        for row, drow in zip(y.reshape(-1, y.shape[-1]), dy.reshape(-1, y.shape[-1])):
            fn(row, drow, pf, pi, gains, xref, active, gmat, bmat, omega0)
        return dy
    return RhsPlan(pf, pi, omega0).bind(gains, xref, active, gmat, bmat)(y)


def rk4_span(y, h, nsteps, pf, pi, gains, xref, active, gmat, bmat, omega0,
             out=None, out_offset=0):
    """Integrate y of shape (n_states,) or (B, n_states) in place over nsteps
    fixed steps, storing step k's state in out[out_offset + k] when out (shape
    (T, n_states) or (T, B, n_states)) is given.  Returns -1, or the first
    (0-based) step after which some row left the divergence limit."""
    if active_backend() == "numba":
        _, fn = _numba_funcs()
        if y.ndim == 1:
            target = out if out is not None else _EMPTY
            return fn(y, h, nsteps, pf, pi, gains, xref, active, gmat, bmat,
                      omega0, target, out_offset)
        # rows run independently; after a divergence the others may stand later
        bad = [fn(y[b], h, nsteps, pf, pi, gains, xref, active, gmat, bmat,
                  omega0, out[:, b] if out is not None else _EMPTY, out_offset)
               for b in range(y.shape[0])]
        return min((k for k in bad if k >= 0), default=-1)
    return _rk4_span_numpy(y, h, nsteps, pf, pi, gains, xref, active, gmat,
                           bmat, omega0, out, out_offset)


def warmup() -> None:
    """Trigger JIT compilation on a tiny system so timed runs exclude compile cost."""
    if active_backend() != "numba":
        return
    pf = np.zeros((1, NPF))
    pf[0, [PF.H, PF.SOUT, PF.TD0P, PF.TQ0P]] = 1.0
    pf[0, [PF.XD, PF.XQ, PF.XDP, PF.XQP]] = [1.0, 1.0, 0.5, 0.5]
    pi_ = np.full((1, NPI), -1, dtype=np.int64)
    pi_[0, :4] = [0, 1, 2, 3]
    pi_[0, PI.HAS_GOV:] = 0
    y = np.zeros(4)
    g = np.zeros((1, 1))
    rk4_span(y, 0.01, 2, pf, pi_, np.zeros((1, 5)), np.zeros((1, 5)),
             np.zeros(1), g, g, 2 * np.pi * 60,
             out=np.zeros((2, 4)), out_offset=0)
