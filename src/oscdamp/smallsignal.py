"""Numerical linearization, eigenanalysis, and modal metrics.

The state matrix comes from central finite differences of the full nonlinear
RHS about an equilibrium; eigenvalues/eigenvectors from LAPACK's balanced
Hessenberg + shifted-QR path (scipy.linalg.eig), which also supplies the left
eigenvectors needed for participation factors.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dynamics import SimModel


class NonEquilibriumError(Exception):
    pass


class NoOscillatoryMode(Exception):
    pass


INTER_AREA = "inter_area"
LOCAL = "local"
CONTROL = "control"
REAL = "real"


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


def linearize(model: SimModel, equilibrium: np.ndarray,
              step: float = 1e-6) -> np.ndarray:
    """Central-difference state matrix of the model RHS about an equilibrium,
    all 2n perturbed states evaluated in one stacked RHS call."""
    r0 = model.rhs(equilibrium)
    if np.max(np.abs(r0)) > 1e-6:
        raise NonEquilibriumError(
            f"RHS norm {np.max(np.abs(r0)):.3e} at the linearization point")
    n = equilibrium.size
    h = step * np.maximum(1.0, np.abs(equilibrium))
    cols = np.arange(n)
    shifted = np.tile(equilibrium, (2 * n, 1))
    shifted[cols, cols] += h
    shifted[n + cols, cols] -= h
    r = model.rhs(shifted)           # rows: +h_j perturbations, then -h_j
    return np.ascontiguousarray(((r[:n] - r[n:]) / (2.0 * h)[:, None]).T)


def modal_analysis(a_full: np.ndarray,
                   state_labels: tuple[str, ...] | None = None) -> ModeTable:
    """Eigen-decomposition with per-mode frequency, damping and participation.

    Conjugate pairs are reported once (positive imaginary part kept); modes are
    sorted by damping ratio ascending.
    """
    if a_full.ndim != 2 or a_full.shape[0] != a_full.shape[1]:
        raise ValueError("state matrix must be square")
    w, vl, vr = scipy.linalg.eig(a_full, left=True, right=True)
    labels = state_labels or tuple(f"x{i}" for i in range(a_full.shape[0]))
    modes: list[Mode] = []
    for i in range(len(w)):
        lam = w[i]
        if lam.imag < 0.0:
            continue
        mag = abs(lam)
        zeta = 1.0 if mag == 0.0 else float(-lam.real / mag)
        part = np.abs(vl[:, i] * vr[:, i])
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
