"""Backend selection, loop/numpy parity and stacked shapes for the hot kernels.

The parity tests compare the numpy kernels with the loop-structured kernels
(``_rhs_loops``, ``_rk4_span_loops``). Where numba is importable they reach the
loop kernels through ``OSCDAMP_BACKEND=numba``, compiled. Where numba is
missing they call the same functions uncompiled, so the math is still pinned
but the numba-compiled form itself goes unchecked.  Besides the bundled case,
where every machine has a governor and an exciter, a variant with missing
devices checks the plan's gathers of absent-device constants.
"""

import json

import numpy as np
import pytest

import oscdamp
from oscdamp import kernels
from oscdamp.case import parse_case
from oscdamp.powerflow import solve_power_flow, build_ybus, kron_reduce
from oscdamp.dynamics import initialize_from_power_flow

PSS = {"ks": 20.0, "tw": 10.0, "t1": 0.05, "t2": 0.02, "t3": 3.0, "t4": 5.4,
       "vmin": -0.2, "vmax": 0.2}


@pytest.fixture(scope="module")
def partial_eq():
    """Bundled case with no governor on machine 4, neither exciter nor PSS on
    machine 2, and PSSs on machines 1 and 3."""
    doc = json.loads(oscdamp.bundled_case_text())
    doc["governors"] = [g for g in doc["governors"] if g["machine"] != 4]
    doc["exciters"] = [e for e in doc["exciters"] if e["machine"] != 2]
    doc["psss"] = [dict(machine=m, **PSS) for m in (1, 3)]
    case = parse_case(json.dumps(doc))
    sol = solve_power_flow(case)
    red = kron_reduce(build_ybus(case), case, sol)
    return initialize_from_power_flow(case, sol, red)


def test_backend_env_selection(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    assert kernels.active_backend() == "numpy"
    monkeypatch.setenv(kernels.ENV_VAR, "numba")
    if kernels.HAVE_NUMBA:
        assert kernels.active_backend() == "numba"
    else:
        with pytest.raises(kernels.BackendError):
            kernels.active_backend()
    monkeypatch.setenv(kernels.ENV_VAR, "auto")
    assert kernels.active_backend() == ("numba" if kernels.HAVE_NUMBA else "numpy")
    monkeypatch.setenv(kernels.ENV_VAR, "sparkle")
    with pytest.raises(ValueError):
        kernels.active_backend()


def _model_args(model):
    return (model.pf, model.pi, model.gains, model.xref, model.active,
            model.gmat, model.bmat, model.omega0)


def _loop_rhs(y, model, monkeypatch):
    """RHS from the loop kernel: jitted through the numba backend when numba is
    importable, the same function uncompiled otherwise."""
    if kernels.HAVE_NUMBA:
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        return kernels.rhs(y, *_model_args(model))
    fn, _ = kernels._numba_funcs()
    dy = np.zeros_like(y)
    fn(y, dy, *_model_args(model))
    return dy


def _loop_span(y, h, nsteps, model, out, monkeypatch):
    """rk4_span through the loop kernels, as _loop_rhs does for the RHS."""
    if kernels.HAVE_NUMBA:
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        return kernels.rk4_span(y, h, nsteps, *_model_args(model), out=out,
                                out_offset=0)
    _, fn = kernels._numba_funcs()
    return fn(y, h, nsteps, *_model_args(model), out, 0)


def test_rhs_parity(bundled_eq, monkeypatch):
    model = bundled_eq.model
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = bundled_eq.state + 0.1 * rng.standard_normal(model.n_states)
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        d_np = kernels.rhs(y, *_model_args(model))
        d_nb = _loop_rhs(y, model, monkeypatch)
        assert np.allclose(d_np, d_nb, rtol=1e-12, atol=1e-12)


def test_rhs_parity_with_controllers(bundled_eq, bundled_design, monkeypatch):
    model = bundled_eq.model.copy()
    ctrl, _ = bundled_design
    model.gains = ctrl.gains.copy()
    model.active = np.ones(model.n_machines)
    model.xref = bundled_eq.x5.copy()
    rng = np.random.default_rng(1)
    y = bundled_eq.state + 0.05 * rng.standard_normal(model.n_states)
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    d_np = kernels.rhs(y, *_model_args(model))
    d_nb = _loop_rhs(y, model, monkeypatch)
    assert np.allclose(d_np, d_nb, rtol=1e-12, atol=1e-10)


def test_span_parity(bundled_eq, monkeypatch):
    model = bundled_eq.model
    rng = np.random.default_rng(2)
    y0 = bundled_eq.state + 0.02 * rng.standard_normal(model.n_states)
    out_np = np.zeros((200, model.n_states))
    out_nb = np.zeros((200, model.n_states))
    y_np, y_nb = y0.copy(), y0.copy()
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    r1 = kernels.rk4_span(y_np, 0.005, 200, *_model_args(model), out=out_np,
                          out_offset=0)
    r2 = _loop_span(y_nb, 0.005, 200, model, out_nb, monkeypatch)
    assert r1 == r2 == -1
    assert np.allclose(out_np, out_nb, rtol=1e-10, atol=1e-10)


def test_divergence_detection(bundled_eq):
    model = bundled_eq.model
    y = bundled_eq.state.copy()
    # absurd step size destabilizes RK4 and must be flagged, not raised
    step = kernels.rk4_span(y, 5.0, 400, *_model_args(model))
    assert step >= 0


def test_valve_clamp_invariant(bundled_eq, monkeypatch):
    model = bundled_eq.model
    lay = model.layout
    y = bundled_eq.state.copy()
    # kick speeds hard so valves run against their limits
    y[lay.speed_indices] += 5.0
    out = np.zeros((2000, model.n_states))
    kernels.rk4_span(y, 0.005, 2000, *_model_args(model), out=out, out_offset=0)
    for mid in lay.machine_ids:
        xe = out[:, lay.idx(mid, "xe")]
        assert np.all(xe >= 0.0)
        assert np.all(xe <= 1.0)
        assert xe.min() == 0.0 or xe.max() == 1.0   # the kick actually hit a limit


def test_partial_device_rhs_parity(partial_eq, monkeypatch):
    model = partial_eq.model.copy()
    rng = np.random.default_rng(3)
    model.gains = 100.0 * rng.standard_normal((model.n_machines, 5))
    model.active = np.array([1.0, 0.0, 1.0, 0.0])
    for scale in (0.01, 0.1, 1.0):      # 1.0 drives the limiters
        y = partial_eq.state + scale * rng.standard_normal(model.n_states)
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        d_np = kernels.rhs(y, *_model_args(model))
        d_nb = _loop_rhs(y, model, monkeypatch)
        assert np.allclose(d_np, d_nb, rtol=1e-12, atol=1e-10)


def test_partial_device_span_parity(partial_eq, monkeypatch):
    model = partial_eq.model
    rng = np.random.default_rng(4)
    y0 = partial_eq.state + 0.02 * rng.standard_normal(model.n_states)
    out_np = np.zeros((200, model.n_states))
    out_nb = np.zeros((200, model.n_states))
    y_np, y_nb = y0.copy(), y0.copy()
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    r1 = kernels.rk4_span(y_np, 0.005, 200, *_model_args(model), out=out_np,
                          out_offset=0)
    r2 = _loop_span(y_nb, 0.005, 200, model, out_nb, monkeypatch)
    assert r1 == r2 == -1
    assert np.allclose(out_np, out_nb, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("which", ["bundled", "partial"])
def test_stacked_rhs_matches_rows(which, bundled_eq, partial_eq):
    eq = bundled_eq if which == "bundled" else partial_eq
    model = eq.model
    rng = np.random.default_rng(5)
    ys = eq.state + 0.1 * rng.standard_normal((16, model.n_states))
    stacked = kernels.rhs(ys, *_model_args(model))
    rows = np.array([kernels.rhs(y, *_model_args(model)) for y in ys])
    assert stacked.shape == ys.shape
    assert np.allclose(stacked, rows, rtol=1e-12, atol=1e-12)
    # a one-row stack is the single-state call, bit for bit
    one = kernels.rhs(ys[:1], *_model_args(model))
    assert one.shape == (1, model.n_states)
    assert np.array_equal(one[0], rows[0])


def test_stacked_span_matches_rows(partial_eq):
    model = partial_eq.model
    rng = np.random.default_rng(6)
    ys = partial_eq.state + 0.02 * rng.standard_normal((3, model.n_states))
    ys[1, model.layout.speed_indices] += 20.0   # this row runs into the valve limits
    out = np.zeros((100, 3, model.n_states))
    stacked = ys.copy()
    assert kernels.rk4_span(stacked, 0.005, 100, *_model_args(model), out=out,
                            out_offset=0) == -1
    for b in range(3):
        y = ys[b].copy()
        out_b = np.zeros((100, model.n_states))
        assert kernels.rk4_span(y, 0.005, 100, *_model_args(model), out=out_b,
                                out_offset=0) == -1
        assert np.allclose(out[:, b], out_b, rtol=1e-10, atol=1e-10)
    xe = out[:, 1, [model.layout.idx(m, "xe") for m in (1, 2, 3)]]
    assert xe.min() == 0.0 or xe.max() == 1.0     # the clamp acted on row 1
    assert np.all((xe >= 0.0) & (xe <= 1.0))


def test_stacked_span_reports_first_divergent_row(bundled_eq, monkeypatch):
    model = bundled_eq.model
    lay = model.layout
    ys = np.tile(bundled_eq.state, (2, 1))
    ys[1, lay.idx(1, "delta")] += 9.9e5     # rotor 1 runs past the limit
    ys[1, lay.idx(1, "omega")] += 1e5
    first = _loop_span(ys[1].copy(), 0.005, 400, model, kernels._EMPTY, monkeypatch)
    assert 0 < first < 399
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    assert kernels.rk4_span(ys, 0.005, 400, *_model_args(model)) == first
    assert np.allclose(ys[0], bundled_eq.state, atol=1e-6)   # the quiet row


def test_loop_backend_stacks_rows(partial_eq, monkeypatch):
    """Under the loop backend a stack runs row by row through the loop kernels
    (uncompiled where numba is missing) and agrees with the numpy stack."""
    model = partial_eq.model
    rng = np.random.default_rng(7)
    ys = partial_eq.state + 0.02 * rng.standard_normal((2, model.n_states))
    out_np = np.zeros((20, 2, model.n_states))
    y_np = ys.copy()
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    d_np = kernels.rhs(ys, *_model_args(model))
    assert kernels.rk4_span(y_np, 0.005, 20, *_model_args(model), out=out_np) == -1
    monkeypatch.setattr(kernels, "active_backend", lambda: "numba")
    out_nb = np.zeros((20, 2, model.n_states))
    y_nb = ys.copy()
    assert np.allclose(kernels.rhs(ys, *_model_args(model)), d_np,
                       rtol=1e-12, atol=1e-10)
    assert kernels.rk4_span(y_nb, 0.005, 20, *_model_args(model), out=out_nb) == -1
    assert np.allclose(out_nb, out_np, rtol=1e-10, atol=1e-10)
