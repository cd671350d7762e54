"""Elementary forms of the model equations, written here from the device
equations as the independent reference for the operator form in
:mod:`oscdamp.kernels` (scalar arguments; one machine at a time), and the
allocating evaluation of that operator form (``reference_network``,
``reference_phi``, ``reference_bind``, ``reference_rk4_span``): each step a
new array, as the workspace evaluator must reproduce bit for bit."""

import numpy as np

from oscdamp.kernels import DIVERGENCE_LIMIT, network_operator


def network_currents(delta, eqp, edp, gmat, bmat):
    """EMF components in the synchronous frame, the reduced-network currents
    and their d/q projections, per machine over the last axis."""
    sd, cd = np.sin(delta), np.cos(delta)
    e_re = edp * sd + eqp * cd
    e_im = eqp * sd - edp * cd
    i_re = e_re @ gmat.T - e_im @ bmat.T
    i_im = e_im @ gmat.T + e_re @ bmat.T
    i_d = i_re * sd - i_im * cd
    i_q = i_re * cd + i_im * sd
    return e_re, e_im, i_re, i_im, i_d, i_q


def rotor_rhs(delta, omega_r, pm, pe, h, d, omega0):
    d_delta = omega_r
    d_omega = -(d / (2 * h)) * omega_r + (omega0 / (2 * h)) * (pm - pe)
    return d_delta, d_omega


def governor_turbine_rhs(pm, xm, xe, omega_r, pc, gov, omega0):
    ke, te, t3, t4, t5, tm, r = gov.ke, gov.te, gov.t3, gov.t4, gov.t5, gov.tm, gov.r
    d_pm = (-ke * t3 * t4 / (tm * te * t5 * r * omega0) * omega_r
            - pm / t5 + (1 - t4 / tm) * xm / t5
            + t4 / (tm * t5) * (1 - t3 / te) * xe
            + t3 * t4 / (tm * te * t5) * pc)
    d_xm = (-ke * t3 / (tm * te * r * omega0) * omega_r
            - xm / tm + (1 - t3 / te) * xe / tm + t3 / (tm * te) * pc)
    d_xe = -ke / (te * r * omega0) * omega_r - xe / te + pc / te
    return d_pm, d_xm, d_xe


def two_axis_rhs(eqp, edp, i_d, i_q, efd, xd, xq, xdp, xqp, td0p, tq0p):
    d_eqp = (-eqp - (xd - xdp) * i_d + efd) / td0p
    d_edp = (-edp + (xq - xqp) * i_q) / tq0p
    return d_eqp, d_edp


def electrical_power(reduced, delta, eqp, edp):
    """Per-machine electrical power (system base) from the reduced network.

    Four-term EMF product form evaluated at absolute angles; the transient
    saliency correction is not part of this quantity.
    """
    *_, i_d, i_q = network_currents(delta, eqp, edp, reduced.g, reduced.b)
    return edp * i_d + eqp * i_q


# --- the allocating operator form --------------------------------------------

def _clip(x, lo, hi):
    c = np.minimum(np.maximum(x.real, lo), hi)
    return c if x.dtype.kind != "c" else np.where(c == x.real, x, c)


def _sincos(x):
    if x.dtype.kind != "c":
        return np.sin(x), np.cos(x)
    sa, ca, chb, shb = np.sin(x.real), np.cos(x.real), np.cosh(x.imag), np.sinh(x.imag)
    return sa * chb + 1j * (ca * shb), ca * chb - 1j * (sa * shb)


def _modulus(re, im):
    return np.hypot(re, im) if re.dtype.kind != "c" else np.sqrt(re * re + im * im)


def reference_network(plan, y, net):
    """EMFs, currents ``[i_re, i_im, i_im, -i_re]``, their d/q projections,
    the electrical power and the PSS outputs of ``y`` through the plan's
    gathers, each a new array."""
    n = plan.sout.size
    v = y @ plan.pre
    s, c = _sincos(v[..., :2 * n])
    e = v[..., 2 * n:4 * n] * s + v[..., 4 * n:6 * n] * c
    i = e @ net
    idq = i[..., :2 * n] * s - i[..., 2 * n:] * c
    p = v[..., 2 * n:4 * n] * idq
    pe = p[..., :n] + p[..., n:] + plan.xq_corr * idq[..., :n] * idq[..., n:]
    return e, i, idq, pe, v[..., 6 * n:]


def reference_phi(plan, y, net):
    """φ = pe, [i_d, i_q], efd_cmd of ``y``, each a new array."""
    e, i, idq, pe, y3 = reference_network(plan, y, net)
    n = pe.shape[-1]
    vt = e + plan.xdp2 * i[..., 2 * n:]
    vt = _modulus(vt[..., :n], vt[..., n:])
    vpss = _clip(y3, plan.vsmin, plan.vsmax)
    return pe, idq, _clip(plan.ka * (plan.vref - vt + vpss), plan.efdmin, plan.efdmax)


def reference_bind(plan, gmat, bmat, control=None):
    """The RHS ``y -> dy`` of the plan, allocating every intermediate."""
    mt, c = plan.m.T, plan.c
    if control is not None:
        fb = plan.feedback_matrix(control.active[:, None] * control.gains)
        xs = np.zeros(c.size)
        xs[plan.ix5_gov] = control.xref[plan.gov]
        m = plan.m.copy()
        m[:, :c.size] += fb
        mt, c = m.T, c - fb @ xs
    net, ix_xe = network_operator(gmat, bmat), plan.ix_xe

    def f(y):
        dy = np.concatenate((y, *reference_phi(plan, y, net)), axis=-1) @ mt + c
        xe = y[..., ix_xe].real
        if np.minimum.reduce(np.minimum(xe, 1.0 - xe), axis=None, initial=np.inf) <= 0.0:
            d = dy[..., ix_xe].real
            hold = ((xe >= 1.0) & (d > 0.0)) | ((xe <= 0.0) & (d < 0.0))
            dy[..., ix_xe] = np.where(hold, 0.0, dy[..., ix_xe])
        return dy
    return f


def reference_rk4_span(y, h, nsteps, plan, gmat, bmat, control=None, out=None):
    """RK4 on :func:`reference_bind`'s RHS with the valve clamp and the
    divergence check of :func:`oscdamp.kernels.rk4_span`."""
    f = reference_bind(plan, gmat, bmat, control)
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
        if not np.maximum.reduce(np.abs(y), axis=None) < DIVERGENCE_LIMIT:
            return k
        if out is not None:
            out[k] = y
    return -1
