"""Complex-step linearization, eigenanalysis, and modal metrics.

The open-loop state matrix is the complex-step derivative of the full
nonlinear RHS about an equilibrium, exact to roundoff with no step to tune
(Squire & Trapp 1998, SIAM Review 40(1)); the closed-loop one adds the
governor feedback to it in closed form.  Eigenvalues and right eigenvectors
come from LAPACK's balanced Hessenberg + shifted-QR path (numpy.linalg.eig);
the left eigenvectors for participation factors are the rows of the inverse
of the right-eigenvector matrix.

:func:`linearize_points` linearizes P operating points that share one device
part in one complex-step RHS call over P·n rows, with per-point references,
constants and networks; each point keeps its own equilibrium check, and
:func:`linearize` is the stack of one.

A mode table holds the frequency and damping ratio of every mode as arrays,
computed in one pass.  Only `modal` and `design` report participation
factors and a class and top participant for every mode, so only they build
the full table.  A point of `sweep` or `scan-n1` reports the least-damped
mode in the band, so its table holds the eigenvalues alone
(numpy.linalg.eigvals, whose values match those of eig on the bundled
case's points bit for bit).  A sweep point also classifies its
least-damped open-loop and closed-loop modes: each takes its right
eigenvector from one inverse-iteration solve (:func:`right_vector`), not
from a full eigen-decomposition, and the solves of all points and loops of a
sweep are one stacked solve.  The eigenvalues stay one LAPACK call per
matrix: a stacked `eigvals` is no faster per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .dynamics import Equilibrium
from .kernels import Control
from .stacking import alone, solve_each


class NonEquilibriumError(Exception):
    pass


class NoOscillatoryMode(Exception):
    pass


class EigenvectorError(Exception):
    """The shifted matrix of an inverse-iteration solve is singular."""


INTER_AREA = "inter_area"
LOCAL = "local"
CONTROL = "control"
REAL = "real"

# Eigenvalues this close to the origin are reported as exactly zero: the
# rotor-angle reference gives a structural zero whose computed sign follows
# roundoff (|re| ~1e-9 on the bundled case; the next-smallest |lambda| is 0.12).
ZERO_EIGENVALUE_TOL = 1e-6

# Relative shift of the eigenvalue in `right_vector`'s solve.  It sets the
# shift some 4e5 units of roundoff away from the eigenvalue, so the shifted
# matrix is not singular to working precision, and one solve still shrinks
# another mode's content in the vector, against the start vector, by
# 1e-10 |lambda| over that mode's distance from lambda.
INVERSE_ITERATION_SHIFT = 1e-10

# Imaginary step of the complex-step derivative.  Its square vanishes against
# any state, so the result does not depend on it.
COMPLEX_STEP = 1e-30


@dataclass
class Mode:
    eigenvalue: complex
    frequency_hz: float
    damping_ratio: float
    right: np.ndarray | None = None
    participation: np.ndarray | None = None
    classification: str = ""
    top_participant: str = ""

    @property
    def is_oscillatory(self) -> bool:
        return self.eigenvalue.imag != 0.0


@dataclass(eq=False)
class ModeTable:
    """The modes of a state matrix, one per conjugate pair (the eigenvalue
    with positive imaginary part kept), sorted by damping ratio ascending.

    The eigenvalues, frequencies and damping ratios are arrays over the
    table; `right` holds the right eigenvectors as columns and
    `participation` the participation factors as rows, each None where
    :func:`modal_analysis` did not compute them.  :attr:`modes` builds a
    :class:`Mode` for every entry on first use; :meth:`mode` builds one.
    """

    eigenvalues: np.ndarray
    frequency_hz: np.ndarray
    damping_ratio: np.ndarray
    right: np.ndarray | None = None
    participation: np.ndarray | None = None
    state_labels: tuple[str, ...] = ()

    def __iter__(self):
        return iter(self.modes)

    def __len__(self):
        return len(self.eigenvalues)

    @cached_property
    def modes(self) -> list[Mode]:
        return [self._build(i) for i in range(len(self))]

    def mode(self, i: int) -> Mode:
        """Entry `i` as a Mode: the one in :attr:`modes` once those are built."""
        built = self.__dict__.get("modes")
        return built[i] if built is not None else self._build(i)

    def _build(self, i: int) -> Mode:
        part = None if self.participation is None else self.participation[i]
        return Mode(
            eigenvalue=complex(self.eigenvalues[i]),
            frequency_hz=float(self.frequency_hz[i]),
            damping_ratio=float(self.damping_ratio[i]),
            right=None if self.right is None else self.right[:, i].copy(),
            participation=part,
            top_participant="" if part is None else self.state_labels[int(np.argmax(part))])


def linearize(eq: Equilibrium, control: Control | None = None) -> np.ndarray:
    """State matrix of the model RHS about an operating point, on the network
    it was initialized on: :func:`linearize_points` on a stack of one.
    Raises the point's NonEquilibriumError."""
    return alone(linearize_points([eq], control))


def linearize_points(eqs, control: Control | None = None
                     ) -> list[np.ndarray | NonEquilibriumError]:
    """State matrices of the model RHS about P operating points that share
    one device part, each on the network it was initialized on, by complex
    step: column j of point p's matrix is Im f_p(x_p + i h e_j) / h.  All
    P·n perturbed states go through one RHS call, with per-row references,
    constants and networks; its real part is each f_p(x_p), which each
    point checks on its own.  A point's outcome is what it gives alone, bit
    for bit: its state matrix, or its NonEquilibriumError."""
    if not eqs:
        return []
    plan = eqs[0].plan
    if any(eq.plan.m is not plan.m for eq in eqs):
        raise ValueError("the points of one linearization stack must share their device part")
    m, n = plan.sout.size, eqs[0].state.size
    const = np.array([eq.plan.const for eq in eqs])
    points = plan.at(const[:, :m], const[:, m:2 * m], np.array([eq.plan.vref for eq in eqs]))
    x = np.array([eq.state for eq in eqs])[:, None, :]
    r = kernels.rhs((x + 1j * COMPLEX_STEP * np.eye(n)).reshape(-1, n), points,
                    np.array([eq.network.g for eq in eqs]),
                    np.array([eq.network.b for eq in eqs]), control).reshape(len(eqs), n, n)
    out: list = []
    for rp in r:
        resid = np.max(np.abs(rp.real))
        if not resid <= 1e-6:        # a NaN residual is no equilibrium either
            out.append(NonEquilibriumError(f"RHS norm {resid:.3e} at the linearization point"))
        else:
            out.append(np.ascontiguousarray(rp.imag.T / COMPLEX_STEP))
    return out


def closed_loop_matrix(a_open: np.ndarray, plan: kernels.RhsPlan,
                       gains: np.ndarray) -> np.ndarray:
    """State matrix with the damping controllers in service.

    The control input enters the governor chain linearly through the design
    model's input column ``[t3 t4/(tm te t5), t3/(tm te), 1/te]``, so governed
    machine k adds ``b_k k_k^T`` on its pm, xm, xe rows and its delta, omega,
    pm, xm, xe columns: the plan's :meth:`~kernels.RhsPlan.feedback_matrix`,
    the term its bound RHS folds into the operator.  `gains` holds one row
    per machine in layout order; a machine without a governor or with an
    all-zero row adds nothing.  It equals :func:`linearize` of the model
    with the controllers in service, also where a valve sits on its limit:
    there the anti-windup hold is inactive at the equilibrium itself.
    """
    return a_open + plan.feedback_matrix(gains)


def modal_analysis(a_full: np.ndarray, state_labels: tuple[str, ...] | None = None,
                   *, participation: bool = True) -> ModeTable:
    """Eigen-decomposition with the frequency and damping ratio of every mode,
    their right eigenvectors and participation factors.

    Conjugate pairs are reported once (positive imaginary part kept); modes are
    sorted by damping ratio ascending.  An eigenvalue with modulus below
    ``ZERO_EIGENVALUE_TOL`` is reported as 0, with damping ratio 1.

    `participation` False gives the eigenvalues alone: the modes carry no
    eigenvectors, no participation factors and no top participant.
    """
    if a_full.ndim != 2 or a_full.shape[0] != a_full.shape[1]:
        raise ValueError("state matrix must be square")
    if participation:
        w, vr = np.linalg.eig(a_full)
    else:
        w, vr = np.linalg.eigvals(a_full), None
    keep = np.flatnonzero(w.imag >= 0.0)
    lam = w[keep]
    # np.hypot is libm's hypot, as the scalar abs of a complex is; numpy's
    # vectorised complex abs differs from both in the last bit for some values
    mag = np.hypot(lam.real, lam.imag)
    zero = mag < ZERO_EIGENVALUE_TOL
    lam[zero] = 0.0
    mag[zero] = 0.0
    zeta = np.divide(-lam.real, mag, out=np.ones(mag.shape), where=~zero)
    order = np.argsort(zeta, kind="stable")
    keep, lam = keep[order], lam[order]
    right = None if vr is None else vr[:, keep]
    part = None
    if participation:
        # row i of vr^-1 is the left eigenvector of mode i; its scale cancels
        # in the normalization, and each row sums to at least |vl_i . vr_i| = 1
        part = np.abs(np.linalg.inv(vr)[keep] * right.T)
        part /= part.sum(axis=1, keepdims=True)
    labels = state_labels or tuple(f"x{i}" for i in range(a_full.shape[0]))
    return ModeTable(eigenvalues=lam, frequency_hz=np.abs(lam.imag) / (2.0 * np.pi),
                     damping_ratio=zeta[order], right=right, participation=part,
                     state_labels=tuple(labels))


def right_vector(a_full: np.ndarray, eigenvalue):
    """Right eigenvector of `a_full` for its computed eigenvalue λ, from one
    inverse-iteration solve (A - μI) v = b: μ = λ(1 + INVERSE_ITERATION_SHIFT)
    and b all ones, a constant start vector as in LAPACK's own inverse
    iteration (xLAEIN).  v is unnormalized: a class reads only its ratios.
    An EigenvectorError when the shifted matrix is singular.

    A stack of matrices (P, n, n), with one eigenvalue each or one for all,
    takes one stacked solve and gives the list of each matrix's outcome:
    its vector, or the EigenvectorError it gives alone.  One matrix is the
    stack of one."""
    if a_full.ndim == 2:
        return alone(right_vector(a_full[None], eigenvalue))
    n = a_full.shape[-1]
    lam = np.broadcast_to(eigenvalue, a_full.shape[:1])
    # A - μI with μ taken off the diagonal in place: no (P, n, n) product
    shifted = a_full.astype(complex)
    mu = lam * (1.0 + INVERSE_ITERATION_SHIFT)
    shifted.reshape(len(shifted), -1)[:, ::n + 1] -= mu[:, None]
    v, refused = solve_each(shifted, np.ones(n, dtype=complex))
    out = list(v)
    for j, exc in refused.items():
        out[j] = EigenvectorError(f"inverse iteration at {complex(lam[j]):.6g}: {exc}")
        out[j].__cause__ = exc
    return out


def classify_mode(mode: Mode, speed_indices: np.ndarray, areas: list[int]) -> str:
    """Label a mode by its rotor-speed content; `speed_indices` and `areas`
    (the machine areas of `areas.two_areas`) are both in machine order.

    Interarea: the two dominant speed entries sit in different areas and swing
    in antiphase (phase difference inside (90, 270) degrees); same area means
    local; modes with under 10% speed content are control modes; real
    eigenvalues are non-oscillatory.
    """
    if not mode.is_oscillatory:
        return REAL
    v = mode.right
    speed = v[speed_indices]
    if np.linalg.norm(speed) < 0.10 * np.linalg.norm(v):
        return CONTROL
    if speed.size < 2:
        return LOCAL
    order = np.argsort(np.abs(speed))[::-1]
    a, b = order[0], order[1]
    if areas[a] == areas[b]:
        return LOCAL
    phase = np.degrees(np.angle(speed[a] / speed[b])) % 360.0
    if 90.0 < phase < 270.0:
        return INTER_AREA
    return LOCAL


def classify_table(table: ModeTable, speed_indices: np.ndarray,
                   areas: list[int]) -> ModeTable:
    for m in table.modes:
        m.classification = classify_mode(m, speed_indices, areas)
    return table


def min_damping(table: ModeTable, min_freq_hz: float = 0.1,
                max_freq_hz: float = 3.0) -> Mode:
    """Least-damped oscillatory mode inside the frequency band: the table is
    sorted by damping, so the first one in it."""
    if min_freq_hz >= max_freq_hz:
        raise ValueError("invalid frequency band")
    f = table.frequency_hz
    inside = np.flatnonzero((table.eigenvalues.imag != 0.0)
                            & (min_freq_hz <= f) & (f <= max_freq_hz))
    if inside.size == 0:
        raise NoOscillatoryMode(
            f"no oscillatory mode in [{min_freq_hz}, {max_freq_hz}] Hz")
    return table.mode(int(inside[0]))
