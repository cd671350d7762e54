"""Complex-step linearization, eigenanalysis, and modal metrics.

The open-loop state matrix is the complex-step derivative of the full
nonlinear RHS about an equilibrium, exact to roundoff with no step to tune
(Squire & Trapp 1998, SIAM Review 40(1)); the closed-loop one adds the
governor feedback to it in closed form.  Eigenvalues and right eigenvectors
come from LAPACK's balanced Hessenberg + shifted-QR path (numpy.linalg.eig);
the left eigenvectors for participation factors are the rows of the inverse
of the right-eigenvector matrix.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dynamics import Equilibrium
from .kernels import Control


class NonEquilibriumError(Exception):
    pass


class NoOscillatoryMode(Exception):
    pass


INTER_AREA = "inter_area"
LOCAL = "local"
CONTROL = "control"
REAL = "real"

# Eigenvalues this close to the origin are reported as exactly zero: the
# rotor-angle reference gives a structural zero whose computed sign follows
# roundoff (|re| ~1e-9 on the bundled case; the next-smallest |lambda| is 0.12).
ZERO_EIGENVALUE_TOL = 1e-6

# Imaginary step of the complex-step derivative.  Its square vanishes against
# any state, so the result does not depend on it.
COMPLEX_STEP = 1e-30


@dataclass
class Mode:
    eigenvalue: complex
    frequency_hz: float
    damping_ratio: float
    right: np.ndarray
    participation: np.ndarray
    classification: str = ""
    top_participant: str = ""

    @property
    def is_oscillatory(self) -> bool:
        return self.eigenvalue.imag != 0.0


@dataclass
class ModeTable:
    modes: list[Mode]
    state_labels: tuple[str, ...] = ()

    def __iter__(self):
        return iter(self.modes)

    def __len__(self):
        return len(self.modes)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("re,im,freq_hz,damping_pct,class,top_participant\n")
        for m in self.modes:
            buf.write(f"{m.eigenvalue.real:.12g},{m.eigenvalue.imag:.12g},"
                      f"{m.frequency_hz:.12g},{100 * m.damping_ratio:.12g},"
                      f"{m.classification},{m.top_participant}\n")
        return buf.getvalue()


def linearize(eq: Equilibrium, control: Control | None = None) -> np.ndarray:
    """State matrix of the model RHS about an operating point, on the network
    it was initialized on, by complex step: column j is Im f(x + i h e_j) / h,
    all n perturbed states in one stacked RHS call, whose real part is f(x)
    for the equilibrium check."""
    x = eq.state
    r = kernels.rhs(x + 1j * COMPLEX_STEP * np.eye(x.size), eq.model.plan,
                    eq.network.g, eq.network.b, control)
    resid = np.max(np.abs(r.real))
    if resid > 1e-6:
        raise NonEquilibriumError(f"RHS norm {resid:.3e} at the linearization point")
    return np.ascontiguousarray(r.imag.T / COMPLEX_STEP)


def closed_loop_matrix(a_open: np.ndarray, plan: kernels.RhsPlan,
                       gains: np.ndarray) -> np.ndarray:
    """State matrix with the damping controllers in service.

    The control input enters the governor chain linearly through the design
    model's input column ``[t3 t4/(tm te t5), t3/(tm te), 1/te]``, taken from
    the plan's coefficients, so governed machine k adds ``b_k k_k^T`` on its
    pm, xm, xe rows and its delta, omega, pm, xm, xe columns.  `gains` holds
    one row per machine in layout order; a machine without a governor or with
    an all-zero row adds nothing.  It equals :func:`linearize` of the model
    with the controllers in service, also where a valve sits on its limit:
    there the anti-windup hold is inactive at the equilibrium itself.
    """
    a = a_open.copy()
    k = gains if plan.gov is None else gains[plan.gov]
    b = np.stack((plan.pm_pc, plan.xm_pc, 1.0 / plan.te), axis=1)
    cols = plan.ix5_gov
    a[cols[:, 2:, None], cols[:, None, :]] += b[:, :, None] * k[:, None, :]
    return a


def modal_analysis(a_full: np.ndarray,
                   state_labels: tuple[str, ...] | None = None) -> ModeTable:
    """Eigen-decomposition with per-mode frequency, damping and participation.

    Conjugate pairs are reported once (positive imaginary part kept); modes are
    sorted by damping ratio ascending.  An eigenvalue with modulus below
    ``ZERO_EIGENVALUE_TOL`` is reported as 0, with damping ratio 1.
    """
    if a_full.ndim != 2 or a_full.shape[0] != a_full.shape[1]:
        raise ValueError("state matrix must be square")
    w, vr = np.linalg.eig(a_full)
    # row i of vr^-1 is the left eigenvector of mode i; its scale cancels in
    # the per-mode normalization of the participation factors
    vl = np.linalg.inv(vr)
    labels = state_labels or tuple(f"x{i}" for i in range(a_full.shape[0]))
    modes: list[Mode] = []
    for i in range(len(w)):
        lam = w[i]
        if lam.imag < 0.0:
            continue
        if abs(lam) < ZERO_EIGENVALUE_TOL:
            lam = 0j
        mag = abs(lam)
        zeta = 1.0 if mag == 0.0 else float(-lam.real / mag)
        part = np.abs(vl[i] * vr[:, i])
        total = part.sum()
        if total > 0:
            part = part / total
        modes.append(Mode(
            eigenvalue=complex(lam),
            frequency_hz=float(abs(lam.imag) / (2.0 * np.pi)),
            damping_ratio=zeta,
            right=vr[:, i].copy(),
            participation=part,
            top_participant=labels[int(np.argmax(part))],
        ))
    modes.sort(key=lambda m: m.damping_ratio)
    return ModeTable(modes=modes, state_labels=tuple(labels))


def classify_mode(mode: Mode, speed_indices: np.ndarray,
                  area_map: dict[int, int],
                  machine_ids: tuple[int, ...]) -> str:
    """Label a mode by its rotor-speed content.

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
    if area_map[machine_ids[a]] == area_map[machine_ids[b]]:
        return LOCAL
    phase = np.degrees(np.angle(speed[a] / speed[b])) % 360.0
    if 90.0 < phase < 270.0:
        return INTER_AREA
    return LOCAL


def classify_table(table: ModeTable, speed_indices: np.ndarray,
                   area_map: dict[int, int],
                   machine_ids: tuple[int, ...]) -> ModeTable:
    for m in table.modes:
        m.classification = classify_mode(m, speed_indices, area_map, machine_ids)
    return table


def min_damping(table: ModeTable, min_freq_hz: float = 0.1,
                max_freq_hz: float = 3.0) -> Mode:
    """Least-damped oscillatory mode inside the frequency band."""
    if min_freq_hz >= max_freq_hz:
        raise ValueError("invalid frequency band")
    best: Mode | None = None
    for m in table.modes:
        if not m.is_oscillatory:
            continue
        if not (min_freq_hz <= m.frequency_hz <= max_freq_hz):
            continue
        if best is None or m.damping_ratio < best.damping_ratio:
            best = m
    if best is None:
        raise NoOscillatoryMode(
            f"no oscillatory mode in [{min_freq_hz}, {max_freq_hz}] Hz")
    return best
