"""Hot numeric kernels: full-system RHS evaluation and fixed-step RK4 spans.

The model RHS is one linear operator plus a small nonlinear vector,

    dy = M · [y; φ(y)] + c,

with the valve rows zeroed where the anti-windup hold acts.  A plan is a
device part plus the references of one operating point or of a stack of P
points.  :class:`RhsPlan`, built from the case's device records and the
state layout, is the device part: the dense ``M`` of shape
``(n_states, n_states + 4 n_mach)``, the gathers of φ and the device limits.
:meth:`RhsPlan.at` adds the equilibrium references and the constants ``c``
of one point, or of P points with a leading axis P, and shares the rest, so
the points of a stress sweep or an N-1 scan, which change only loads,
dispatch or one branch, share one device part.  ``M`` carries
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

Per-row networks and constants: the B rows of a state split into P
consecutive blocks of B / P rows, one per point (a ValueError when P does
not divide B), when the plan stacks P points (its ``vref`` and ``c`` are
repeated over each point's block once, when the workspace is built) or the
network is a stack ``(P, m, m)``, whose operators ``(P, 2m, 4m)`` act through
one batched ``np.matmul`` over the blocks.  A single network stays one
``np.dot``, and a stack of one point is a single point, so :func:`rk4_span`
and the simulator run as before.  Every block of two or more rows gets the
bits of its own point's evaluation of that block; a block of one row does
not (the shared products then go through matrix-matrix, not
matrix-vector, products).

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
stage state straight into that state slot.  The three fixed products go
through ``np.dot``, which on these 1-D and 2-D operands makes the same BLAS
call as ``@`` with less dispatch; it writes only into a C-contiguous output
of the result dtype, and on a 3-D operand it is not ``matmul``, so a state of
more than two dimensions is refused.  ``np.dot`` and the elementwise ufuncs
are bound once per workspace, as locals of its closures.  Elementwise ufuncs
take their output positionally, which numpy parses faster than ``out=``;
``np.maximum`` and ``np.minimum`` take ``out=``, because numpy 2.4 deprecates
their positional output and each such call would run the warnings
machinery.  What an evaluation returns (:func:`rhs`, a :class:`BoundRhs`
call, :meth:`BoundRhs.network`) is a new array that the caller owns; no
workspace buffer escapes.

Every decision that the shape and dtype fix is made when the workspace is
built.  A real workspace runs ``np.sin``, ``np.cos``, ``np.hypot`` and the
``np.maximum``/``np.minimum`` clamps; a complex one runs the continuations
above.  The valve states of every row are flat positions in a state, so the
anti-windup hold reads the valve states and their derivatives as Python
floats, decides each valve on them and writes ``0.0`` at the held positions
only.  :func:`rk4_span` clamps the valve states through the same positions:
a ``take`` into a buffer, the two clamps in place and a ``put`` back.

The test suite pins the plan to a per-machine reference written from the
elementary device equations, which reads only the equilibrium references of
the plan, and the workspace evaluation to the bits of an allocating one.
"""

from __future__ import annotations

import copy
from math import isnan
from typing import Callable, NamedTuple

import numpy as np

DIVERGENCE_LIMIT = 1e6

# a machine's state slots, in layout order, and the device that owns each:
# the governor, exciter and PSS slots exist only where the device does
SLOT_NAMES = ("delta", "omega", "eqp", "edp", "pm", "xm", "xe", "efd", "z1", "z2", "z3")
SLOT_DEVICES = ("machine",) * 4 + ("governor",) * 3 + ("exciter",) + ("pss",) * 3

# whole-array reduction without the ndarray-method wrapper (hot loop)
_most = np.maximum.reduce


def active_backend() -> str:
    """Name of the kernel implementation; there is one."""
    return "numpy"


def network_operator(gmat, bmat):
    """The reduced network as one real matrix: ``[e_re, e_im] @ net`` is
    ``[i_re, i_im, i_im, -i_re]``, the currents that the EMFs (synchronous
    frame) drive, then the same turned by -90 degrees.  A stack of networks
    (P, m, m) gives a stack of operators (P, 2m, 4m)."""
    gt, bt = np.swapaxes(gmat, -1, -2), np.swapaxes(bmat, -1, -2)
    return np.concatenate((np.concatenate((gt, bt, bt, -gt), axis=-1),
                           np.concatenate((-bt, gt, gt, bt), axis=-1)), axis=-2)


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
    """min(max(x, lo), hi) into `out`."""
    np.maximum(x, lo, out=out)
    np.minimum(out, hi, out=out)


def _sincos(x, s, c):
    """sin x into `s` and cos x into `c`."""
    np.sin(x, s)
    np.cos(x, c)


def _clip_complex(x, lo, hi, out):
    """min(max(x, lo), hi) on the real part into `out`; a complex-step
    perturbation passes through where the real part is not clamped."""
    c = np.minimum(np.maximum(x.real, lo), hi)
    out[...] = np.where(c == x.real, x, c)


def _sincos_complex(x, s, c):
    """sin x into `s` and cos x into `c`, continued through the real
    functions, sin(a + ib) = sin a cosh b + i cos a sinh b, which numpy
    evaluates several times faster than its complex sin and cos."""
    sa, ca, chb, shb = np.sin(x.real), np.cos(x.real), np.cosh(x.imag), np.sinh(x.imag)
    np.add(sa * chb, 1j * (ca * shb), s)
    np.subtract(ca * chb, 1j * (sa * shb), c)


def _modulus_complex(re, im, out):
    """|re + i im| into `out`, continued as sqrt(re^2 + im^2)."""
    np.sqrt(re * re + im * im, out)


def feedback(gains, dx):
    """Per-machine gains . dx over the design states, dx of shape (..., m, 5).

    Every stack is evaluated as one 2-D einsum over all its rows, so that
    each row sums in the order of a single (m, 5) call."""
    flat = dx.reshape(-1, 5)
    tiled = np.tile(gains, (flat.shape[0] // gains.shape[0], 1))
    return np.einsum("ij,ij->i", tiled, flat).reshape(dx.shape[:-1])


# The entries of one machine in the operator and in the gathers of φ, as
# (row, column) positions in the slot tables of RhsPlan.__init__, in the
# order of their values there.  Both tables start with SLOT_NAMES (0-10);
# row 11 is the omega that the PSS output reads; column 11 is the valve
# command reference pm, then pe, i_d, i_q, efd_cmd (12-15) and the seven
# gathers of φ (16-22).
_DESIGN = [0, 1, 4, 5, 6]                                   # delta, omega, pm, xm, xe
_ROWS = np.array([i for i in _DESIGN for _ in _DESIGN]      # rotor, governor/turbine
                 + [4, 5, 6]                                # valve command
                 + [1, 2, 2, 2, 3, 3, 7, 7]                 # pe; two-axis; exciter lag
                 + [0, 0, 3, 2, 2, 3]                       # delta, delta, edp, eqp, eqp, -edp
                 + [i for i in (8, 9, 10) for _ in range(4)]   # PSS washout, lead-lags
                 + [11, 8, 9, 10])                          # PSS output
_COLS = np.array(_DESIGN * 5 + [11] * 3 + [12, 2, 13, 7, 3, 14, 7, 15]
                 + [16, 17, 18, 19, 20, 21] + [1, 8, 9, 10] * 3 + [22] * 4)
# the PSS rows and output of a machine without a PSS, which land in the sink
_NO_PSS = ([[0.0] * 4] * 3, [0.0] * 4)


class RhsPlan:
    """The model's parameter record.  Built from the case's device records
    and the layout's state slots in one pass, it is the device part: the
    operator ``M``, the gathers of φ and the device limits.  :meth:`at` gives
    one operating point's plan, or a stack of points' plan, which shares
    these arrays and adds the equilibrium references and the constants
    ``c``; only such a plan evaluates, binds or linearizes.  Its arrays are
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

    def __init__(self, case, layout):
        n, ns, at = len(case.machines), layout.n_states, layout.index
        k = np.arange(n)[:, None]
        ne = ns + 2 * n + 1                 # the extended state [y, pm, efd, 0]
        zero_at, sink = ne - 1, ns
        # Each machine's slots over SLOT_NAMES, -1 where its device is absent.
        # As columns, absent slots read the constants (pm, efd, else 0).  As
        # rows, they are the sink, a row past the state that is dropped at the
        # end, so that every device block is written for every machine.
        slot = np.array([at.get((m.id, s), -1) for m in case.machines
                         for s in SLOT_NAMES], dtype=np.intp).reshape(n, -1)
        has = slot >= 0
        absent = np.full(slot.shape, zero_at)
        absent[:, 4:5], absent[:, 7:8] = ns + k, ns + n + k
        col = np.concatenate((np.where(has, slot, absent), ns + k, ne + k + n * np.arange(11)),
                             axis=1)
        row = np.concatenate((np.where(has, slot, sink),
                              np.where(has[:, 8:9], slot[:, 1:2], sink)), axis=1)
        # One pass over the machines gives each one's parameters and the
        # values of its entries, in the order of _ROWS and _COLS.  ka = 0 and
        # zero limits give an absent exciter the command 0, zero limits an
        # absent PSS the output 0; a unit lag keeps the exciter rows of an
        # unexcited machine, which land in the sink, finite.
        w0, records = case.omega0, []
        for m in case.machines:
            g, e, p = case.governor_for(m.id), case.exciter_for(m.id), case.pss_for(m.id)
            sout = m.mva / case.base_mva
            xd, xq, xdp, xqp = m.system_reactances(case.base_mva)
            ka, ta, efd_min, efd_max = ((0.0, 1.0, 0.0, 0.0) if e is None
                                        else (e.ka, e.ta, e.efd_min, e.efd_max))
            a, b, gpe = design_rows(m.h, m.d, w0, g)
            d, y3 = _NO_PSS if p is None else pss_rows(p, w0)
            records.append((
                sout, xdp, xqp - xdp, ka, efd_min, efd_max,
                *((0.0, 0.0) if p is None else (p.vmin, p.vmax)),
                *a[0], *a[1], *a[2], *a[3], *a[4], *b[2:],
                gpe[1] / sout, -1.0 / m.td0p, -(xd - xdp) / m.td0p, 1.0 / m.td0p,
                -1.0 / m.tq0p, (xq - xqp) / m.tq0p, -1.0 / ta, 1.0 / ta,
                1.0, 1.0, 1.0, 1.0, 1.0, -1.0, *d[0], *d[1], *d[2], *y3))
        rec = np.array(records)
        self.layout = layout
        (self.sout, xdp, self.xq_corr, self.ka, self.efdmin, self.efdmax,
         self.vsmin, self.vsmax) = rec[:, :8].T.copy()
        self.excited = has[:, 7]
        self.ix5 = col[:, _DESIGN]                         # (n, 5) design states
        self.ix_mach = col[:, :4].T                        # rows: delta, omega, eqp, edp
        self.gov = gov = np.flatnonzero(has[:, 4])
        self.ix5_gov = self.ix5[gov]
        self.ix_xe = self.ix5_gov[:, 4]
        self.xdp2 = np.concatenate((xdp, xdp))
        # M over the extended state and φ, then the gathers of φ, in one scatter
        wm = np.zeros((ns + 1, ne + 11 * n))
        wm[row[:, _ROWS], col[:, _COLS]] = rec[:, 8:]
        self.b_pc = wm[self.ix5_gov[:, 2:], ns + gov[:, None]]   # valve command columns
        self.m = np.concatenate((wm[:ns, :ns], wm[:ns, ne:ne + 4 * n]), axis=1)
        self.m_const = wm[:ns, ns:ne].copy()               # the columns of the constants
        self.pre = wm[:ns, ne + 4 * n:].copy()
        self.vref = self.const = self.c = None             # set by `at`
        _freeze(*vars(self).values())

    def at(self, pm, efd, vref):
        """The plan of one operating point, or of a stack of P points,
        sharing this device part.  `pm` (machine base), `efd` and `vref`
        hold each machine's equilibrium mechanical power, field voltage and
        exciter reference, shape ``(n_mach,)`` or ``(P, n_mach)``; `vref` is
        read for machines with an exciter only.  The plan's `vref`, `const`
        and `c` get the same leading axis, and each point's rows are what
        it gives alone."""
        point = copy.copy(self)
        point.vref = np.where(self.excited, vref, 0.0)
        point.const = np.concatenate((pm, efd, np.zeros(np.shape(pm)[:-1] + (1,))), axis=-1)
        point.c = np.matmul(self.m_const, point.const[..., None])[..., 0]
        _freeze(point.vref, point.const, point.c)
        return point

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
        ns = self.m.shape[0]
        out = np.zeros((ns, ns))
        cols = self.ix5_gov
        out[cols[:, 2:, None], cols[:, None, :]] = (self.b_pc[:, :, None]
                                                    * gains[self.gov][:, None, :])
        return out

    def bind(self, gmat, bmat, control=None):
        """The RHS ``y -> dy`` on one network, or on one network per point
        of a stacked plan (`gmat`, `bmat` of shape (P, m, m)), with one
        controller setting.  The feedback ``active * gains . (x5 - xref)``
        is folded into a copy of the operator and the constants."""
        mt, c = self.m.T, self.c
        if control is not None:
            ns = self.m.shape[0]
            fb = self.feedback_matrix(control.active[:, None] * control.gains)
            xs = np.zeros(ns)                       # the references at the design slots
            xs[self.ix5_gov] = control.xref[self.gov]
            m = self.m.copy()
            m[:, :ns] += fb
            mt, c = m.T, c - fb @ xs
        return BoundRhs(self, network_operator(gmat, bmat), mt, c)


def _freeze(*values):
    """Make every array among `values` read-only."""
    for arr in values:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False


def _block_rows(points, rows):
    """The rows of each point's block in a state of `rows` rows that stacks
    `points` points; a ValueError unless `points` divides `rows`."""
    if rows % points:
        raise ValueError(f"{rows} state rows do not split into the blocks of {points} points")
    return rows // points


def _per_row(a, rows):
    """A plan array over the `rows` rows of a state: one point's (1-D) as it
    is, and the P points' of a stack (P, width) each repeated over its
    block of rows."""
    if a.ndim == 1:
        return a
    return a[0] if len(a) == 1 else np.repeat(a, _block_rows(len(a), rows), axis=0)


class BoundRhs:
    """The RHS of one plan on one network, or on one network per point of a
    stacked plan, with one controller setting.  It
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
    at_xe: np.ndarray       # every row's valve states as flat positions in a state
    network: Callable[[], None]                       # y -> e, pe, i_d, i_q
    evaluate: Callable[[np.ndarray], np.ndarray]      # y -> dy into its argument


def _workspace(bound, shape, dtype):
    """The workspace of `bound` for states of `shape` and `dtype`.

    ``z = [y | pe | i_d, i_q | efd_cmd]`` is the operand of ``M``: the state
    goes into its head and φ is evaluated into its tail in place.  The gather
    ``v = y @ pre`` is ``[delta, delta | edp, eqp, eqp, -edp | y3]`` and
    ``sc = [sin delta, sin delta | cos delta, cos delta | xdp, xdp]``, so that
    the EMFs and the d/q currents each take one 4n-wide product and one sum
    or difference of its halves.  The network operator carries the turned
    currents twice, so the currents' product with ``sc`` also gives the
    ``xdp`` drop of the terminal voltage."""
    if len(shape) > 2:
        # np.dot on a 3-D operand is not matmul: its bits differ
        raise ValueError(f"a state is (n_states,) or (B, n_states), not {shape}")
    plan, net, mt = bound.plan, bound.net, bound.mt
    n, ns = plan.sout.size, mt.shape[1]
    dtype = np.result_type(dtype, float)
    rows = shape[0] if len(shape) == 2 else 1
    c, vref = _per_row(bound.c, rows), _per_row(plan.vref, rows)
    if net.ndim == 3 and len(net) == 1:
        net = net[0]
    # the turned currents once more, for the terminal voltage: the product
    # gives i = [i_re, i_im, i_im, -i_re | i_im, -i_re]
    net = np.concatenate((net, net[..., 2 * n:4 * n]), axis=-1)

    def buf(width):
        return np.empty(shape[:-1] + (width,), dtype)

    z = buf(ns + 4 * n)
    y, pe, idq, efd = (z[..., :ns], z[..., ns:ns + n], z[..., ns + n:ns + 3 * n],
                       z[..., ns + 3 * n:])
    i_d, i_q = idq[..., :n], idq[..., n:]
    v = buf(7 * n)
    delta2, emf_parts, dq_emf, y3 = (v[..., :2 * n], v[..., 2 * n:6 * n],
                                     v[..., 2 * n:4 * n], v[..., 6 * n:])
    sc = buf(6 * n)
    sc4, sin, cos = sc[..., :4 * n], sc[..., :2 * n], sc[..., 2 * n:4 * n]
    sc[..., 4 * n:] = plan.xdp2                     # a constant tail
    t6 = buf(6 * n)                                 # products, then their halves
    t4, xdp_i = t6[..., :4 * n], t6[..., 4 * n:]
    lo, hi = t4[..., :2 * n], t4[..., 2 * n:]
    p_d, p_q, q = t4[..., :n], t4[..., n:2 * n], t4[..., 2 * n:3 * n]
    e, i, vt = buf(2 * n), buf(6 * n), buf(2 * n)
    vt_re, vt_im = vt[..., :n], vt[..., n:]
    vm, vpss, cmd = buf(n), buf(n), buf(n)
    if net.ndim == 2:
        # one network: one np.dot over every row
        product, e_net, i_net = np.dot, e, i
    else:
        # one network per point: one batched matmul over the points' blocks
        points, block = len(net), _block_rows(len(net), rows)
        product, net = np.matmul, net.astype(dtype)
        e_net, i_net = e.reshape(points, block, 2 * n), i.reshape(points, block, 6 * n)
    pre, xq_corr, ka = plan.pre, plan.xq_corr, plan.ka
    vsmin, vsmax, efdmin, efdmax = plan.vsmin, plan.vsmax, plan.efdmin, plan.efdmax
    # the elementwise steps of φ, chosen once for the dtype
    sincos, modulus, clip = ((_sincos_complex, _modulus_complex, _clip_complex)
                             if dtype.kind == "c" else (_sincos, np.hypot, _clip))
    # every row's valve states as flat positions in a state or a dy
    at_xe = (np.arange(0, y.size, ns)[:, None] + plan.ix_xe).ravel()
    y_re = y.real

    # bound once: each call below reads a closure cell, not a global and
    # an attribute
    dot, mul, add, sub = np.dot, np.multiply, np.add, np.subtract

    def network():
        """EMFs, currents ``i = [i_re, i_im, i_im, -i_re | i_im, -i_re]``,
        their d/q projections, ``xdp2`` times the turned currents and the
        electrical power of the state slot."""
        dot(y, pre, v)
        sincos(delta2, sin, cos)
        mul(emf_parts, sc4, t4)
        add(lo, hi, e)
        product(e_net, net, i_net)
        mul(i, sc, t6)
        sub(lo, hi, idq)
        # pe = edp i_d + eqp i_q + xq_corr i_d i_q, summed in that order
        mul(dq_emf, idq, lo)
        add(p_d, p_q, pe)
        mul(xq_corr, i_d, q)
        mul(q, i_q, q)
        add(pe, q, pe)

    def evaluate(out):
        """dy of the state slot into `out`, which must be C-contiguous and
        of the workspace's dtype (``np.dot`` writes into no other).  The
        field command is clamped, and so is the PSS output within it; it
        acts on the terminal voltage behind the transient reactance,
        ``|e - j xdp i|``."""
        network()
        add(e, xdp_i, vt)
        modulus(vt_re, vt_im, vm)
        clip(y3, vsmin, vsmax, vpss)
        sub(vref, vm, cmd)
        add(cmd, vpss, cmd)
        mul(ka, cmd, cmd)
        clip(cmd, efdmin, efdmax, efd)
        dot(z, mt, out)
        add(out, c, out)
        # anti-windup: hold the valve state when pinned against an active
        # limit; only a valve state at or past a limit can be held, and none
        # is while any valve state is NaN.  The hold is decided on Python
        # floats, which is several times faster than numpy at this size.
        xs = y_re.take(at_xe).tolist()
        if xs and (min(xs) <= 0.0 or max(xs) >= 1.0) and not any(map(isnan, xs)):
            ds = out.real.take(at_xe).tolist()
            out.put([p for p, x, d in zip(at_xe.tolist(), xs, ds)
                     if (x >= 1.0 and d > 0.0) or (x <= 0.0 and d < 0.0)], 0.0)
        return out

    return Workspace(y, e, pe, at_xe, network, evaluate)


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
    # the valve states in place: the positions are in range, so the take
    # need not check them
    at_xe = w.at_xe
    xe, mag = np.empty(at_xe.size, y.dtype), np.empty_like(y)
    shut, open_ = np.zeros(at_xe.size), np.ones(at_xe.size)
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
        y.take(at_xe, out=xe, mode="wrap")
        np.maximum(xe, shut, out=xe)
        np.minimum(xe, open_, out=xe)
        y.put(at_xe, xe)
        if not _most(np.abs(y, mag), axis=None) < DIVERGENCE_LIMIT:     # also NaN
            return k
        if out is not None:
            out[out_offset + k] = y
    return -1
