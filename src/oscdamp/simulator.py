"""Fixed-step nonlinear time-domain simulation with timed events.

Classic RK4 on the closed-loop multi-machine model.  Events (line trip, load
step, controller activation/deactivation) land exactly on their times: the
duration is a whole number of steps, and the step that holds an event is
split around it, so the state grid stays uniform.  After a topology or load
event the network is reduced again, with load admittances frozen at their
pre-disturbance values (constant-impedance loads); each reduction also maps
the internal EMFs to the bus voltages, from which the `vm:` and `flow:`
channels are read.  Dynamic states carry over continuously.  Controller
references stay at the last pre-disturbance equilibrium unless activation
finds the system settled on a changed network.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .case import CaseError, PowerSystemCase, apply_line_trip, check_keys, read_value
from .powerflow import (KronReductionError, ReducedNetwork, branch_power,
                        solve_power_flow, kron_reduce, load_admittances)
from .dynamics import StateLayout, build_layout, initialize_from_power_flow
from .synthesis import ControllerSet
from . import kernels


# rows per block of derived-channel evaluation: bounds the temporaries of a
# long segment to well under the size of the trajectory itself
_DERIVED_BLOCK_ROWS = 512
# rows per block of CSV formatting, for the same reason
_CSV_BLOCK_ROWS = 512


class ScenarioError(CaseError):
    """A malformed scenario, or an event the case cannot take."""


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

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    def validate(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ScenarioError(f"dt must be positive and finite, not {self.dt}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ScenarioError(f"duration must be positive and finite, not {self.duration}")
        ratio = self.duration / self.dt       # a whole number of steps, to 1e-9
        if not (math.isfinite(ratio) and self.n_steps > 0
                and math.isclose(ratio, self.n_steps, rel_tol=1e-9)):
            raise ScenarioError(f"duration {self.duration} is not a whole number of "
                                f"dt {self.dt} steps")
        for e in self.events:
            if not (0.0 <= e.time <= self.duration):
                raise ScenarioError(f"event at t={e.time} outside [0, duration]")

    def check_machines(self, machine_ids: tuple[int, ...]) -> None:
        """Every machine the scenario names must be one of `machine_ids`."""
        named = [("initial_active", self.initial_active)] + [
            (f"{e.action} at t={e.time}", e.params[0]) for e in self.events
            if e.action in ("activate_controllers", "deactivate_controllers")]
        for where, sel in named:
            unknown = sorted(set(sel) - set(machine_ids)) if isinstance(sel, tuple) else []
            if unknown:
                raise ScenarioError(f"{where} names machine(s) {unknown} the case lacks")


_REQUIRED = object()     # an event key without a default

# each action's keys besides `time` and `type`, in the order of Event.params:
# (key, declared type, default); the type `tuple` is 'all' or machine ids
EVENT_KEYS = {
    "trip_line": (("from", int, _REQUIRED), ("to", int, _REQUIRED),
                  ("circuit", int, _REQUIRED)),
    "step_load": (("bus", int, _REQUIRED), ("dp_mw", float, 0.0), ("dq_mvar", float, 0.0)),
    "activate_controllers": (("machines", tuple, "all"),),
    "deactivate_controllers": (("machines", tuple, "all"),),
}


def _machine_selection(value, path: str, words: tuple[str, ...]):
    """One of `words`, or a list of integer machine ids (returned as a tuple)."""
    if isinstance(value, list):
        return tuple(read_value(v, int, f"{path}[{i}]", ScenarioError)
                     for i, v in enumerate(value))
    if value in words:
        return value
    raise ScenarioError(f"expected {' or '.join(map(repr, words))} or a "
                        f"list of machine ids, not {value!r}", path)


def _read_event(ev, path: str) -> Event:
    """An event object: `time`, `type` and exactly the keys of its action."""
    if not isinstance(ev, dict):
        raise ScenarioError("expected an object", path)
    action = ev.get("type")
    spec = EVENT_KEYS.get(action) if isinstance(action, str) else None
    if spec is None:
        raise ScenarioError(f"expected one of {sorted(EVENT_KEYS)}, not {action!r}",
                            f"{path}.type")
    check_keys(ev, {"time", "type", *(k for k, _, _ in spec)},
               {"time", "type", *(k for k, _, d in spec if d is _REQUIRED)},
               path, ScenarioError)
    params = tuple(_machine_selection(ev.get(key, default), f"{path}.{key}", ("all",))
                   if kind is tuple else
                   read_value(ev.get(key, default), kind, f"{path}.{key}", ScenarioError)
                   for key, kind, default in spec)
    return Event(read_value(ev["time"], float, f"{path}.time", ScenarioError),
                 action, params)


def parse_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario syntax error: {exc.msg} (line {exc.lineno})") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario top level must be an object")
    check_keys(raw, {f.name for f in fields(Scenario)},
               {f.name for f in fields(Scenario) if f.default is MISSING},
               "scenario", ScenarioError)
    events = raw.get("events", [])
    if not isinstance(events, list):
        raise ScenarioError("expected a list", "events")
    sc = Scenario(
        duration=read_value(raw["duration"], float, "scenario.duration", ScenarioError),
        dt=read_value(raw.get("dt", Scenario.dt), float, "scenario.dt", ScenarioError),
        events=tuple(sorted((_read_event(ev, f"events[{i}]") for i, ev in enumerate(events)),
                            key=lambda e: e.time)),
        initial_active=_machine_selection(raw.get("initial_active", Scenario.initial_active),
                                          "scenario.initial_active", ("all", "none")))
    sc.validate()
    return sc


@dataclass
class _Segment:
    """Network and controller configuration from the trajectory row
    `first_row` onward: the first grid row at or after the event that
    started it."""
    first_row: int
    network: ReducedNetwork
    active: np.ndarray
    xref: np.ndarray


@dataclass
class SimulationResult:
    time: np.ndarray               # (T,)
    states: np.ndarray             # (T, n_states)
    layout: StateLayout
    pe_sys: np.ndarray             # (T, n_mach) electrical power, system base
    pm_sys: np.ndarray             # (T, n_mach) mechanical power, system base
    u: np.ndarray                  # (T, n_mach) auxiliary governor signal, machine base
    bus_voltage: np.ndarray        # (T, n_bus) complex network voltages
    bus_ids: tuple[int, ...]
    event_log: list
    case: PowerSystemCase
    divergent: bool = False
    divergence_time: float | None = None

    def state(self, machine_id: int, slot: str) -> np.ndarray:
        return self.states[:, self.layout.idx(machine_id, slot)]

    def to_csv(self, channels: list[str]) -> str:
        row = ",".join(["%.12g"] * (len(channels) + 1)) + "\n"
        table = np.column_stack([self.time] + [measure(self, ch) for ch in channels])
        buf = io.StringIO()
        buf.write("time," + ",".join(channels) + "\n")
        # one format per row over Python floats, a block of rows at a time so
        # that the whole table never exists as Python floats at once
        for b0 in range(0, len(table), _CSV_BLOCK_ROWS):
            buf.write("".join(row % tuple(r)
                              for r in table[b0:b0 + _CSV_BLOCK_ROWS].tolist()))
        return buf.getvalue()


def simulate(case: PowerSystemCase, controllers: ControllerSet | None,
             scenario: Scenario) -> SimulationResult:
    scenario.validate()
    scenario.check_machines(tuple(m.id for m in case.machines))
    sol = solve_power_flow(case)
    y_load = load_admittances(case, sol)
    eq = initialize_from_power_flow(case, sol, kron_reduce(case, y_load))
    plan, lay = eq.plan, eq.layout
    n_mach = len(lay.machine_ids)

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

    dt, n_steps = scenario.dt, scenario.n_steps
    tgrid = np.arange(n_steps + 1) * dt
    states = np.zeros((n_steps + 1, lay.n_states))
    states[0] = eq.state
    y = eq.state.copy()
    event_log: list = []
    segments = [_Segment(0, eq.network, active, plan.design_states(eq.state))]
    topology_changed = False

    def span(h: float, count: int, **record) -> int:
        """RK4 over `count` steps on the current segment's network and control."""
        s = segments[-1]
        return kernels.rk4_span(y, h, count, plan, s.network.g, s.network.b,
                                kernels.Control(gains, s.xref, s.active), **record)

    def reduce() -> ReducedNetwork:
        try:
            return kron_reduce(current_case, y_load)
        except KronReductionError as exc:
            raise ScenarioError("event left the network islanded") from exc

    def fire(ev: Event, t_now: float, first_row: int) -> None:
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
            e = plan.bind(net.g, net.b).network(y)[0]
            vm_now = abs((net.emf_to_bus @ (e[:n_mach] + 1j * e[n_mach:]))[idx])
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
                    xref = plan.design_states(y)
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
        segments.append(_Segment(first_row, net, active, xref))

    # Step to each stop: the event times in order, then the end of the grid.
    # `row` is the last recorded row.  A stop's whole steps run in one span;
    # an event off the grid splits the next step around its firing.
    row, t_fail = 0, None
    for ev in (*scenario.events, None):
        stop = n_steps if ev is None else min(int(np.floor(ev.time / dt + 1e-9)), n_steps)
        if stop > row:
            bad = span(dt, stop - row, out=states, out_offset=row + 1)
            if bad >= 0:
                row += bad
                t_fail = float(tgrid[row + 1])
                break
            row = stop
        if ev is None:
            break
        if row == n_steps or ev.time - row * dt <= 1e-9:
            # on the grid, or past its last time within the duration's tolerance
            fire(ev, float(tgrid[row]), row)
            continue
        if span(ev.time - row * dt, 1) >= 0:
            t_fail = ev.time
            break
        fire(ev, ev.time, row + 1)
        if span((row + 1) * dt - ev.time, 1) >= 0:
            t_fail = float(tgrid[row + 1])
            break
        row += 1
        states[row] = y
    if t_fail is not None:
        # the diverged state fills every row the run did not reach
        states[row + 1:] = y

    pe, pm_sys, u_out, vbus = _derived_channels(plan, gains, states, segments)
    return SimulationResult(time=tgrid, states=states, layout=lay, pe_sys=pe,
                            pm_sys=pm_sys, u=u_out, bus_voltage=vbus,
                            bus_ids=eq.network.bus_ids, event_log=event_log,
                            case=case, divergent=t_fail is not None,
                            divergence_time=t_fail)


def _derived_channels(plan: kernels.RhsPlan, gains: np.ndarray, states: np.ndarray,
                      segments: list) -> tuple:
    """Electrical power, mechanical power, auxiliary governor signal and bus
    voltages, evaluated for blocks of rows at once on each segment's network
    and controller setting."""
    n_t, n = states.shape[0], plan.sout.size
    pe = np.zeros((n_t, n))
    pm_sys = np.zeros_like(pe)
    u_out = np.zeros_like(pe)
    vbus = np.zeros((n_t, len(segments[0].network.bus_ids)), dtype=complex)
    ends = [s.first_row for s in segments[1:]] + [n_t]
    for s, r1 in zip(segments, ends):
        f = plan.bind(s.network.g, s.network.b)
        for b0 in range(s.first_row, r1, _DERIVED_BLOCK_ROWS):
            rows = slice(b0, min(b0 + _DERIVED_BLOCK_ROWS, r1))
            x5 = plan.design_states(states[rows])
            e, pe[rows] = f.network(states[rows])
            vbus[rows] = (e[:, :n] + 1j * e[:, n:]) @ s.network.emf_to_bus.T
            pm_sys[rows] = x5[..., 2] * plan.sout
            u_out[rows] = s.active * kernels.feedback(gains, x5 - s.xref)
    return pe, pm_sys, u_out, vbus


def measure(result: SimulationResult, channel: str) -> np.ndarray:
    """Extract a named series: delta:<id>, omega:<id>, delta_rel:<i>:<j>,
    pm:<id>, pe:<id>, u:<id>, xe:<id>, vm:<bus>, flow:<from>:<to>:<circuit>
    (branch real power in MW at the from side, from the reconstructed network
    voltages; zero after the branch trips)."""
    parts = channel.split(":")
    kind = parts[0]
    if len(parts) != {"delta_rel": 3, "flow": 4}.get(kind, 2):
        raise ScenarioError(f"unknown channel {channel!r}")
    ids = list(result.layout.machine_ids)
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
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"unknown channel {channel!r}") from exc
    raise ScenarioError(f"unknown channel {channel!r}")


def check_channels(case: PowerSystemCase, channels: list[str]) -> None:
    """Refuse a channel that `measure` could not read from a run of `case`,
    before the run: `measure` reads each one from a run of no rows."""
    lay = build_layout(case)
    none = np.zeros((0, len(lay.machine_ids)))
    empty = SimulationResult(time=np.zeros(0), states=np.zeros((0, lay.n_states)),
                             layout=lay, pe_sys=none, pm_sys=none, u=none,
                             bus_voltage=np.zeros((0, len(case.buses)), dtype=complex),
                             bus_ids=tuple(b.id for b in case.buses), event_log=[],
                             case=case)
    for channel in channels:
        measure(empty, channel)


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
    p = np.real(branch_power(br, vf, vt)) * result.case.base_mva
    p[result.time >= trip_time - 1e-12] = 0.0
    return p


def bandpass_sections(band_hz: tuple[float, float], fs: float) -> np.ndarray:
    """Second-order sections, rows (b0, b1, b2, 1, a1, a2), of the 2nd-order
    Butterworth band-pass `band_hz` at sample rate `fs`: the analog low-pass
    prototype, the low-pass to band-pass transform at the prewarped band
    edges, and the bilinear transform, all at the normalized sample rate 2
    (s = 4 (z - 1)/(z + 1)).  Each section holds one conjugate pole pair and
    the zeros +1 and -1; the first carries the gain."""
    w1, w2 = (4.0 * math.tan(math.pi * f / fs) for f in band_hz)    # prewarped edges
    bw = w2 - w1
    p_lp = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4) * bw / 2
    root = np.sqrt(p_lp ** 2 - w1 * w2)
    p = np.concatenate([p_lp + root, p_lp - root])           # analog band-pass poles
    # two zeros at s = 0 map to z = +1 and two at infinity to z = -1
    gain = bw ** 2 * np.real(16.0 / np.prod(4.0 - p))
    pz = (4.0 + p[::2]) / (4.0 - p[::2])        # one pole of each conjugate pair
    sos = np.zeros((2, 6))
    sos[:, 0], sos[:, 2], sos[:, 3] = 1.0, -1.0, 1.0
    sos[:, 4], sos[:, 5] = -2.0 * pz.real, pz.real ** 2 + pz.imag ** 2
    sos[0, :3] *= gain
    return sos


def _sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Run `x` through the sections in turn (transposed direct form II),
    each from its initial state `zi[i]`."""
    y = x.tolist()
    for (b0, b1, b2, _, a1, a2), (z0, z1) in zip(sos.tolist(), zi.tolist()):
        out = []
        for xn in y:
            yn = b0 * xn + z0
            z0 = b1 * xn - a1 * yn + z1
            z1 = b2 * xn - a2 * yn
            out.append(yn)
        y = out
    return np.array(y)


def zero_phase_filter(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Forward-backward filtering over the sections, as `scipy.signal.sosfiltfilt`
    does: an odd extension of 3 (2 sections + 1) samples at each end, and each
    pass started from the sections' steady state for a step of its first
    input sample (Gustafsson 1996, IEEE Trans. Signal Process. 44(4)).  `x`
    must be longer than the extension; `ringdown_damping`'s ten cycles below
    half the sample rate are more than 20 samples."""
    edge = 3 * (2 * len(sos) + 1)
    ext = np.concatenate([2 * x[0] - x[edge:0:-1], x, 2 * x[-1] - x[-2:-edge - 2:-1]])
    zi = np.zeros((len(sos), 2))
    scale = 1.0              # DC gain of the sections before this one
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        dc = (b0 + b1 + b2) / (1.0 + a1 + a2)
        zi[i] = scale * np.array([b1 + b2 - (a1 + a2) * dc, b2 - a2 * dc])
        scale *= dc
    y = _sosfilt(sos, ext, zi * ext[0])
    y = _sosfilt(sos, y[::-1], zi * y[-1])[::-1]
    return y[edge:-edge]


def positive_peaks(x: np.ndarray, floor: float) -> np.ndarray:
    """Indices of the local maxima of `x` above `floor`; a flat top counts
    once, at its last sample."""
    c = x[1:-1]
    return np.flatnonzero((c > floor) & (c >= x[:-2]) & (c > x[2:])) + 1


def ringdown_damping(series: np.ndarray, dt: float,
                     band_hz: tuple[float, float]) -> dict:
    """Frequency and damping from a ringdown trace: zero-phase second-order
    band-pass, then a least-squares log decrement over successive positive
    peaks; frequency from mean peak spacing.

    A band the filter cannot realize at this `dt` is a ScenarioError; a
    trace too short or too quiet for the estimate is a ValueError."""
    lo, hi = band_hz
    fs = 1.0 / dt
    if not 0.0 < lo < hi < 0.5 * fs:
        raise ScenarioError(f"ringdown band [{lo}, {hi}] Hz needs 0 < LO < HI < "
                            f"{0.5 * fs:g} Hz, half the sample rate at dt {dt}")
    n_cycles = series.size * dt * (0.5 * (lo + hi))
    if n_cycles < 10:
        raise ValueError("series shorter than 10 cycles of the band center")
    x = zero_phase_filter(bandpass_sections(band_hz, fs), series - np.mean(series))
    floor = 0.01 * np.max(np.abs(x))      # ignore ripple below 1% of the envelope
    peaks = positive_peaks(x, floor)
    peaks = peaks[(0.05 * x.size < peaks) & (peaks < 0.95 * x.size)]
    if len(peaks) < 3:
        raise ValueError("fewer than 3 positive peaks found")
    amps = x[peaks]
    t_peaks = peaks * dt
    freq = 1.0 / float(np.mean(np.diff(t_peaks)))
    slope = np.polyfit(np.arange(len(amps)), np.log(np.maximum(amps, 1e-300)), 1)[0]
    lam = -slope
    zeta = lam / np.sqrt(4.0 * np.pi ** 2 + lam ** 2)
    return {"frequency_hz": float(freq), "zeta": float(zeta)}
