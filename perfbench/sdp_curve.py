"""SDP size curve: the synthesis LMI for N identical bundled design models.

Each model is machine 1's governor/turbine design model, and the coupling
rows come from `coupling_rows` with the same weight on every pair of
machines, so machine i's rows are sqrt(w) * (e_delta_i - e_delta_j) and the
largest block is 6N + N(N-1), as in the real design.
"""

from __future__ import annotations

import time

import numpy as np

from oscdamp.case import PowerSystemCase
from oscdamp.dynamics import DesignModel, build_design_matrices
from oscdamp.lmi import solve_sdp
from oscdamp.synthesis import CouplingBounds, assemble_synthesis_lmi, coupling_rows

# about the mean pairwise deployment weight of the bundled case
# (DEFAULT_BOUND_SCALE times the scaled coupling bound)
COUPLING_WEIGHT = 0.05
SIZES = (2, 4, 6, 8)


def _uniform_bounds(n: int) -> CouplingBounds:
    w = np.full((n, n), COUPLING_WEIGHT)
    np.fill_diagonal(w, 0.0)
    zero, ones = np.zeros((n, n)), np.ones(n)
    return CouplingBounds(e_max_q=ones, e_max_d=ones, w_qq=w, w_qd=zero,
                          w_dq=zero, w_dd=zero, power_scale=ones)


def size_curve(case: PowerSystemCase) -> dict:
    """Solve time and Newton steps for each size in SIZES."""
    m = case.machines[0]
    dm = build_design_matrices(m, case.governor_for(m.id), case.omega0)
    # the per-unit speed scaling synthesis.design_controllers applies before
    # it assembles the LMI; keep the two in step
    tscale = np.array([1.0, case.omega0, 1.0, 1.0, 1.0])
    scaled = DesignModel(machine_id=m.id, a=dm.a * tscale[None, :] / tscale[:, None],
                         b=dm.b / tscale, g=dm.g / tscale)
    metrics = {}
    for n in SIZES:
        problem = assemble_synthesis_lmi([scaled] * n, coupling_rows(_uniform_bounds(n)))
        t0 = time.perf_counter()
        sol = solve_sdp(problem)
        metrics[f"lmi.solve_s.n{n}"] = time.perf_counter() - t0
        if sol.status != "optimal":
            raise RuntimeError(f"size-curve SDP with N={n}: status {sol.status}")
        metrics[f"lmi.newton_steps.n{n}"] = sol.iterations
    return metrics


def zero_curve() -> dict:
    return {f"lmi.{kind}.n{n}": 0 for n in SIZES for kind in ("solve_s", "newton_steps")}
