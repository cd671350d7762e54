"""Throughput of the simulation kernels on the bundled two-area case.

Run: python benchmarks/bench_kernels.py [--seconds 2.0]

Times the numpy RHS plan build, single RHS evaluations of one state (B = 1)
and of a stack of B = 2n states (the stack `linearize` evaluates), and
200-step RK4 spans of one state and of a 50-row stack, under each available
backend (OSCDAMP_BACKEND is overridden in-process).  The numpy RHS figures
time a plan built beforehand; one `kernels.rhs` call costs the plan build
plus that.  numba is optional: without it only the numpy backend is timed.
"""

import argparse
import os
import time

import numpy as np

import oscdamp
from oscdamp import kernels
from oscdamp.case import parse_case
from oscdamp.powerflow import solve_power_flow, build_ybus, kron_reduce
from oscdamp.dynamics import initialize_from_power_flow

SPAN_STEPS = 200
SPAN_ROWS = 50


def timed(fn, seconds):
    fn()                       # warm (and JIT-compile on the numba path)
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        fn()
        n += 1
    return (time.perf_counter() - t0) / n


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0,
                    help="wall time per measurement")
    args = ap.parse_args()

    case = parse_case(oscdamp.bundled_case_text())
    sol = solve_power_flow(case)
    red = kron_reduce(build_ybus(case), case, sol)
    eq = initialize_from_power_flow(case, sol, red)
    m = eq.model
    rng = np.random.default_rng(0)
    y = eq.state + 0.02 * rng.standard_normal(m.n_states)
    stack = eq.state + 0.02 * rng.standard_normal((2 * m.n_states, m.n_states))
    rows = stack[:SPAN_ROWS]
    margs = (m.pf, m.pi, m.gains, m.xref, m.active, m.gmat, m.bmat, m.omega0)

    t_plan = timed(lambda: kernels.RhsPlan(m.pf, m.pi, m.omega0), args.seconds)
    print(f"numpy plan build {1e6 * t_plan:8.1f} us")
    bound = kernels.RhsPlan(m.pf, m.pi, m.omega0).bind(*margs[2:7])
    backends = ("numpy", "numba") if kernels.HAVE_NUMBA else ("numpy",)
    for backend in backends:
        os.environ[kernels.ENV_VAR] = backend
        f = bound if backend == "numpy" else (lambda ys: kernels.rhs(ys, *margs))
        t_rhs = timed(lambda: f(y), args.seconds)
        t_stack = timed(lambda: f(stack), args.seconds)
        t_span = timed(lambda: kernels.rk4_span(y.copy(), 0.005, SPAN_STEPS, *margs),
                       args.seconds)
        t_rows = timed(lambda: kernels.rk4_span(rows.copy(), 0.005, SPAN_STEPS, *margs),
                       args.seconds)
        print(f"{backend:>6}: rhs B=1 {1e6 * t_rhs:8.1f} us   "
              f"rhs B={stack.shape[0]} {1e6 * t_stack:8.1f} us   "
              f"span {SPAN_STEPS} steps {1e3 * t_span:8.2f} ms "
              f"({1e6 * t_span / SPAN_STEPS:6.1f} us/step)   "
              f"{SPAN_ROWS}-row span {1e3 * t_rows:8.2f} ms "
              f"({1e6 * t_rows / (SPAN_STEPS * SPAN_ROWS):6.2f} us/row-step)")
    os.environ.pop(kernels.ENV_VAR, None)
    if not kernels.HAVE_NUMBA:
        print("numba not timed: numba is not importable")


if __name__ == "__main__":
    main()
