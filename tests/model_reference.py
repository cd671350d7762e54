"""Elementary forms of the model equations, written here from the device
equations as the independent reference for the operator form in
:mod:`oscdamp.kernels` (scalar arguments; one machine at a time)."""

import numpy as np


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
