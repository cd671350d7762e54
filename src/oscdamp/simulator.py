"""Fixed-step nonlinear time-domain simulation with timed events.

Classic RK4 on the closed-loop multi-machine model.  Events (line trip, load
step, controller activation/deactivation) land exactly on their times: when
an event falls inside a step, the step is split so the state grid stays
uniform.  After a topology or load event the network is reduced again, with
load admittances frozen at their pre-disturbance values (constant-impedance
loads); each reduction also maps the internal EMFs to the bus voltages, from
which the `vm:` and `flow:` channels are read.  Dynamic states carry over
continuously.  Controller references stay at the last pre-disturbance
equilibrium unless activation finds the system settled on a changed network.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .case import PowerSystemCase, apply_line_trip
from .powerflow import (KronReductionError, ReducedNetwork, branch_power,
                        solve_power_flow, kron_reduce, load_admittances)
from .dynamics import SimModel, initialize_from_power_flow
from .synthesis import ControllerSet
from . import kernels


# rows per block of derived-channel evaluation: bounds the temporaries of a
# long segment to well under the size of the trajectory itself
_DERIVED_BLOCK_ROWS = 512


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class Event:
    time: float
    action: str        # trip_line | step_load | activate_controllers | deactivate_controllers
    params: tuple = ()


@dataclass(frozen=True)
class Scenario:
    duration: float
    dt: float = 0.005
    events: tuple[Event, ...] = ()
    initial_active: str | tuple = "all"     # "all", "none", or a tuple of machine ids

    def validate(self) -> None:
        if self.dt <= 0:
            raise ScenarioError("dt must be positive")
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        for e in self.events:
            if not (0.0 <= e.time <= self.duration):
                raise ScenarioError(f"event at t={e.time} outside [0, duration]")


def _machine_selection(value, where: str, words: tuple[str, ...]):
    """One of `words`, or a list of machine ids (returned as a tuple)."""
    if isinstance(value, list):
        return tuple(value)
    if value in words:
        return value
    raise ScenarioError(f"{where}: expected {' or '.join(map(repr, words))} or a "
                        f"list of machine ids, not {value!r}")


def parse_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario syntax error: {exc.msg} (line {exc.lineno})") from exc
    known = {"duration", "dt", "events", "initial_active"}
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"unknown scenario key(s) {sorted(unknown)}")
    if "duration" not in raw:
        raise ScenarioError("scenario requires a duration")
    events = []
    for i, ev in enumerate(raw.get("events", [])):
        try:
            t = float(ev["time"])
            kind = ev["type"]
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"events[{i}]: needs time and type") from exc
        try:
            if kind == "trip_line":
                params = (int(ev["from"]), int(ev["to"]), int(ev["circuit"]))
            elif kind == "step_load":
                params = (int(ev["bus"]), float(ev.get("dp_mw", 0.0)),
                          float(ev.get("dq_mvar", 0.0)))
            elif kind in ("activate_controllers", "deactivate_controllers"):
                params = (_machine_selection(ev.get("machines", "all"),
                                             f"events[{i}].machines", ("all",)),)
            else:
                raise ScenarioError(f"events[{i}]: unknown action {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"events[{i}]: {kind} has a missing or malformed "
                                f"field ({type(exc).__name__}: {exc})") from exc
        events.append(Event(time=t, action=kind, params=params))
    try:
        duration, dt = float(raw["duration"]), float(raw.get("dt", 0.005))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"duration and dt must be numbers ({exc})") from exc
    sc = Scenario(duration=duration, dt=dt,
                  events=tuple(sorted(events, key=lambda e: e.time)),
                  initial_active=_machine_selection(raw.get("initial_active", "all"),
                                                    "initial_active", ("all", "none")))
    sc.validate()
    return sc


@dataclass
class _Segment:
    """Network and controller configuration valid from t_start onward."""
    t_start: float
    network: ReducedNetwork
    active: np.ndarray
    xref: np.ndarray


@dataclass
class SimulationResult:
    time: np.ndarray               # (T,)
    states: np.ndarray             # (T, n_states)
    layout: object
    machine_ids: tuple[int, ...]
    pe_sys: np.ndarray             # (T, n_mach) electrical power, system base
    pm_sys: np.ndarray             # (T, n_mach) mechanical power, system base
    u: np.ndarray                  # (T, n_mach) auxiliary governor signal, machine base
    bus_voltage: np.ndarray        # (T, n_bus) complex network voltages
    bus_ids: tuple[int, ...]
    event_log: list
    case: PowerSystemCase | None = None
    base_mva: float = 100.0
    divergent: bool = False
    divergence_time: float | None = None

    def state(self, machine_id: int, slot: str) -> np.ndarray:
        return self.states[:, self.layout.idx(machine_id, slot)]

    def to_csv(self, channels: list[str]) -> str:
        buf = io.StringIO()
        buf.write("time," + ",".join(channels) + "\n")
        series = [measure(self, ch) for ch in channels]
        for k in range(self.time.size):
            buf.write(f"{self.time[k]:.12g}," +
                      ",".join(f"{s[k]:.12g}" for s in series) + "\n")
        return buf.getvalue()


def _internal_emf(model: SimModel, states: np.ndarray) -> np.ndarray:
    lay = model.layout
    delta = states[..., lay.delta_indices]
    eqp = states[..., [lay.idx(m, "eqp") for m in lay.machine_ids]]
    edp = states[..., [lay.idx(m, "edp") for m in lay.machine_ids]]
    return (edp + 1j * eqp) * np.exp(1j * (delta - np.pi / 2))


def simulate(case: PowerSystemCase, controllers: ControllerSet | None,
             scenario: Scenario) -> SimulationResult:
    scenario.validate()
    sol = solve_power_flow(case)
    y_load = load_admittances(case, sol)
    eq = initialize_from_power_flow(case, sol, kron_reduce(case, y_load))
    model = eq.model
    plan = model.plan
    lay = model.layout
    n_mach = model.n_machines

    gains = (np.zeros((n_mach, 5)) if controllers is None
             else controllers.gains_for(lay.machine_ids))
    has_gain = np.any(gains != 0.0, axis=1).astype(float)
    if controllers is None or scenario.initial_active == "none":
        active = np.zeros(n_mach)
    elif scenario.initial_active == "all":
        active = has_gain.copy()
    else:
        active = has_gain * np.array(
            [1.0 if m in scenario.initial_active else 0.0 for m in lay.machine_ids])

    current_case = case

    dt = scenario.dt
    n_steps = int(round(scenario.duration / dt))
    tgrid = np.arange(n_steps + 1) * dt
    states = np.zeros((n_steps + 1, model.n_states))
    states[0] = eq.state
    y = eq.state.copy()
    event_log: list = []
    segments = [_Segment(0.0, eq.network, active, eq.x5)]
    divergent = False
    div_time = None
    topology_changed = False
    step = 0

    def span(h: float, count: int, **record) -> int:
        """RK4 over `count` steps on the current segment's network and control."""
        s = segments[-1]
        return kernels.rk4_span(y, h, count, plan, s.network.g, s.network.b,
                                kernels.Control(gains, s.xref, s.active), **record)

    def advance(count: int) -> bool:
        nonlocal step, divergent, div_time
        if count <= 0:
            return True
        bad = span(dt, count, out=states, out_offset=step + 1)
        if bad >= 0:
            divergent = True
            div_time = float(tgrid[step + bad + 1])
            states[step + bad + 1:] = y
            step = n_steps
            return False
        step += count
        return True

    def reduce() -> ReducedNetwork:
        try:
            return kron_reduce(current_case, y_load)
        except KronReductionError as exc:
            raise ScenarioError("event left the network islanded") from exc

    def fire(ev: Event, t_now: float) -> None:
        nonlocal current_case, y_load, topology_changed
        seg = segments[-1]
        net, active, xref = seg.network, seg.active, seg.xref
        if ev.action == "trip_line":
            f, t, c = ev.params
            current_case = apply_line_trip(current_case, f, t, c)
            net = reduce()
            topology_changed = True
            event_log.append({"time": t_now, "action": "trip_line", "branch": [f, t, c]})
        elif ev.action == "step_load":
            bus, dp, dq = ev.params
            if bus not in net.bus_ids:
                raise ScenarioError(f"step_load references unknown bus {bus}")
            idx = net.bus_ids.index(bus)
            vm_now = abs((net.emf_to_bus @ _internal_emf(model, y))[idx])
            s = complex(dp, dq) / current_case.base_mva
            y_load = y_load.copy()
            y_load[idx] += np.conj(s) / (vm_now ** 2 if vm_now > 0 else 1.0)
            net = reduce()
            topology_changed = True
            event_log.append({"time": t_now, "action": "step_load", "bus": bus,
                              "dp_mw": dp, "dq_mvar": dq})
        else:
            sel = ev.params[0]
            mask = np.ones(n_mach) if sel == "all" else np.array(
                [1.0 if m in sel else 0.0 for m in lay.machine_ids])
            if ev.action == "activate_controllers":
                omega = y[lay.speed_indices]
                rhs = kernels.rhs(y, plan, net.g, net.b,
                                  kernels.Control(gains, xref, active))
                non_angle = np.delete(rhs, lay.delta_indices)
                # post-event steady state is a uniformly drifting frame:
                # speeds equal (common droop slip) and all other derivatives quiet
                settled = (np.max(np.abs(omega - np.mean(omega))) < 1e-4
                           and np.max(np.abs(non_angle)) < 1e-4)
                if topology_changed and settled:
                    # the settled operating point on the changed network is the
                    # operative equilibrium and becomes the reference
                    xref = plan.extend(y)[plan.ix5]
                    ref_src = "settled_state"
                else:
                    ref_src = "pre_disturbance_equilibrium"
                active = np.clip(active + mask, 0, 1) * has_gain
                event_log.append({"time": t_now, "action": ev.action,
                                  "machines": "all" if sel == "all" else list(sel),
                                  "reference": ref_src})
            else:
                active = active * (1.0 - mask)
                event_log.append({"time": t_now, "action": ev.action,
                                  "machines": "all" if sel == "all" else list(sel)})
        segments.append(_Segment(t_now, net, active, xref))

    for ev in scenario.events:
        if divergent:
            break
        whole = int(np.floor(ev.time / dt + 1e-9))
        if not advance(min(whole, n_steps) - step):
            break
        frac = ev.time - step * dt
        if frac > 1e-9:
            # split step: integrate to the event instant, fire, finish the step
            if span(frac, 1) >= 0:
                divergent, div_time = True, ev.time
                states[step + 1:] = y
                break
            fire(ev, ev.time)
            rest = (step + 1) * dt - ev.time
            if span(rest, 1) >= 0:
                divergent, div_time = True, float(tgrid[step + 1])
                states[step + 1:] = y
                break
            states[step + 1] = y
            step += 1
        else:
            fire(ev, float(tgrid[step]))
    if not divergent:
        advance(n_steps - step)

    pe, pm_sys, u_out, vbus = _derived_channels(model, gains, states, tgrid,
                                                segments)
    return SimulationResult(time=tgrid, states=states, layout=lay,
                            machine_ids=lay.machine_ids, pe_sys=pe,
                            pm_sys=pm_sys, u=u_out, bus_voltage=vbus,
                            bus_ids=eq.network.bus_ids, event_log=event_log,
                            case=case, base_mva=case.base_mva,
                            divergent=divergent, divergence_time=div_time)


def _derived_channels(model: SimModel, gains: np.ndarray, states: np.ndarray,
                      tgrid: np.ndarray, segments: list) -> tuple:
    """Electrical power, mechanical power, auxiliary governor signal and bus
    voltages, evaluated for blocks of rows at once on each segment's network
    and controller setting."""
    plan = model.plan
    n_t = states.shape[0]
    pe = np.zeros((n_t, model.n_machines))
    pm_sys = np.zeros_like(pe)
    u_out = np.zeros_like(pe)
    vbus = np.zeros((n_t, len(segments[0].network.bus_ids)), dtype=complex)
    # a row belongs to the last segment started at or before its time
    bounds = ([0] + [int(np.count_nonzero(tgrid < s.t_start - 1e-12))
                     for s in segments[1:]] + [n_t])
    for s, r0, r1 in zip(segments, bounds, bounds[1:]):
        for b0 in range(r0, r1, _DERIVED_BLOCK_ROWS):
            rows = slice(b0, min(b0 + _DERIVED_BLOCK_ROWS, r1))
            ye = plan.extend(states[rows])
            delta, _, eqp, edp, pm, _ = plan.machine_states(ye)
            e_re, e_im, *_, pe[rows] = plan.network(delta, eqp, edp,
                                                    s.network.g, s.network.b)
            vbus[rows] = (e_re + 1j * e_im) @ s.network.emf_to_bus.T
            pm_sys[rows] = pm * plan.sout
            u_out[rows] = s.active * kernels.feedback(gains, ye[:, plan.ix5] - s.xref)
    return pe, pm_sys, u_out, vbus


def measure(result: SimulationResult, channel: str) -> np.ndarray:
    """Extract a named series: delta:<id>, omega:<id>, delta_rel:<i>:<j>,
    pm:<id>, pe:<id>, u:<id>, xe:<id>, vm:<bus>, flow:<from>:<to>:<circuit>
    (branch real power in MW at the from side, from the reconstructed network
    voltages; zero after the branch trips)."""
    parts = channel.split(":")
    kind = parts[0]
    ids = list(result.machine_ids)
    try:
        if kind == "delta_rel":
            return result.state(int(parts[1]), "delta") - result.state(int(parts[2]), "delta")
        if kind in ("delta", "omega", "xe"):
            return result.state(int(parts[1]), kind)
        if kind == "pe":
            return result.pe_sys[:, ids.index(int(parts[1]))]
        if kind == "pm":
            return result.pm_sys[:, ids.index(int(parts[1]))]
        if kind == "u":
            return result.u[:, ids.index(int(parts[1]))]
        if kind == "vm":
            return np.abs(result.bus_voltage[:, result.bus_ids.index(int(parts[1]))])
        if kind == "flow":
            return _branch_flow_series(result, int(parts[1]), int(parts[2]),
                                       int(parts[3]))
    except (KeyError, ValueError, IndexError) as exc:
        raise ScenarioError(f"unknown channel {channel!r}") from exc
    raise ScenarioError(f"unknown channel {channel!r}")


def _branch_flow_series(result: SimulationResult, f: int, t: int,
                        circuit: int) -> np.ndarray:
    br = result.case.find_branch(f, t, circuit)
    if br is None:
        raise ScenarioError(f"branch {f}-{t} circuit {circuit} not in the case")
    trip_time = np.inf
    if not br.in_service:
        trip_time = -np.inf
    for ev in result.event_log:
        if ev["action"] == "trip_line" and result.case.find_branch(*ev["branch"]) is br:
            trip_time = ev["time"]
            break
    vf = result.bus_voltage[:, result.bus_ids.index(f)]
    vt = result.bus_voltage[:, result.bus_ids.index(t)]
    p = np.real(branch_power(br, vf, vt)) * result.base_mva
    p[result.time >= trip_time - 1e-12] = 0.0
    return p


def ringdown_damping(series: np.ndarray, dt: float,
                     band_hz: tuple[float, float]) -> dict:
    """Frequency and damping from a ringdown trace: zero-phase second-order
    band-pass, then a least-squares log decrement over successive positive
    peaks; frequency from mean peak spacing."""
    import scipy.signal

    lo, hi = band_hz
    fs = 1.0 / dt
    n_cycles = series.size * dt * (0.5 * (lo + hi))
    if n_cycles < 10:
        raise ValueError("series shorter than 10 cycles of the band center")
    sos = scipy.signal.butter(2, [lo, hi], btype="bandpass", fs=fs, output="sos")
    x = scipy.signal.sosfiltfilt(sos, series - np.mean(series))
    floor = 0.01 * np.max(np.abs(x))      # ignore ripple below 1% of the envelope
    peaks = [k for k in range(1, x.size - 1)
             if x[k] > floor and x[k] >= x[k - 1] and x[k] > x[k + 1]]
    peaks = [k for k in peaks if 0.05 * x.size < k < 0.95 * x.size]
    if len(peaks) < 3:
        raise ValueError("fewer than 3 positive peaks found")
    amps = x[np.array(peaks)]
    t_peaks = np.array(peaks) * dt
    freq = 1.0 / float(np.mean(np.diff(t_peaks)))
    slope = np.polyfit(np.arange(len(amps)), np.log(np.maximum(amps, 1e-300)), 1)[0]
    lam = -slope
    zeta = lam / np.sqrt(4.0 * np.pi ** 2 + lam ** 2)
    return {"frequency_hz": float(freq), "zeta": float(zeta)}
