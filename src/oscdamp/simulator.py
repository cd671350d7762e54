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
from functools import cached_property

import numpy as np

from .case import CaseError, PowerSystemCase, apply_line_trip, check_keys, read_value
from .powerflow import (KronReductionError, ReducedNetwork, branch_power,
                        solve_power_flow, kron_reduce, load_admittances)
from .dynamics import StateLayout, device_model, initialize_from_power_flow
from .synthesis import ControllerSet
from . import kernels


# rows per block of derived-channel evaluation: bounds the temporaries of a
# long segment to well under the size of the trajectory itself
_DERIVED_BLOCK_ROWS = 512
# rows per block of CSV formatting, for the same reason
_CSV_BLOCK_ROWS = 512
# a ringdown trace is decimated to at least this many samples per period of
# the band's upper edge HI, a Nyquist frequency of at least 3 HI
_RINGDOWN_RATE_PER_HI = 6.0
# singular values of the ringdown's Hankel matrix below this share of the
# largest are taken as noise: the rest set the model order
_RINGDOWN_ORDER_CUT = 1e-2
# at most this many Hankel columns, so that the SVD's cost grows linearly,
# not cubically, with a long window (a 300 s one took 3.9 s at n // 3)
_RINGDOWN_MAX_COLUMNS = 256


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
        # events fire in list order, so the list must be in time order
        for prev, e in zip(self.events, self.events[1:]):
            if e.time < prev.time:
                raise ScenarioError(f"{e.action} at t={e.time} comes after "
                                    f"{prev.action} at t={prev.time}; events must be "
                                    "in time order")

    def check_case(self, case: PowerSystemCase) -> None:
        """Refuse, before any step is run, an event `case` cannot take: a
        machine or load bus it lacks, or a trip of a branch it lacks or that
        an earlier trip (or the case) has already switched out."""
        named = [("initial_active", self.initial_active)] + [
            (f"{e.action} at t={e.time}", e.params[0]) for e in self.events
            if e.action in ("activate_controllers", "deactivate_controllers")]
        for where, sel in named:
            unknown = sorted(set(sel) - case.machine_index.keys()) if isinstance(sel, tuple) else []
            if unknown:
                raise ScenarioError(f"{where} names machine(s) {unknown} the case lacks")
        for e in self.events:
            if e.action == "step_load" and e.params[0] not in case.bus_index:
                raise ScenarioError(f"step_load references unknown bus {e.params[0]}")
            if e.action == "trip_line":
                case = apply_line_trip(case, *e.params)


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
    started it.  The network is the Kron reduction of `case` with the load
    shunts `y_load`."""
    first_row: int
    case: PowerSystemCase
    y_load: np.ndarray
    network: ReducedNetwork
    active: np.ndarray
    xref: np.ndarray


@dataclass
class SimulationResult:
    """A run: its time grid, the recorded states and the events fired, and
    what the derived channels are read from, the plan, the gains and the
    event segments.  `pe_sys`, `pm_sys`, `u` and `bus_voltage` (the
    `pe:`, `pm:`, `u:`, `vm:` and `flow:` channels) cost one pass over the
    reduced network at every recorded state, which runs once, on the first
    read of any of them; the states alone cost nothing more."""
    time: np.ndarray               # (T,)
    states: np.ndarray             # (T, n_states)
    layout: StateLayout
    event_log: list
    case: PowerSystemCase
    plan: kernels.RhsPlan
    gains: np.ndarray              # (n_mach, 5) over the design states
    segments: list                 # of _Segment, the first at row 0
    divergent: bool = False
    divergence_time: float | None = None

    @cached_property
    def _derived(self) -> tuple:
        return _derived_channels(self.plan, self.gains, self.states, self.segments)

    @property
    def pe_sys(self) -> np.ndarray:
        """(T, n_mach) electrical power, system base."""
        return self._derived[0]

    @property
    def pm_sys(self) -> np.ndarray:
        """(T, n_mach) mechanical power, system base."""
        return self._derived[1]

    @property
    def u(self) -> np.ndarray:
        """(T, n_mach) auxiliary governor signal, machine base."""
        return self._derived[2]

    @property
    def bus_voltage(self) -> np.ndarray:
        """(T, n_bus) complex network voltages, in case bus order."""
        return self._derived[3]

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
    scenario.check_case(case)
    sol = solve_power_flow(case)
    y_load = load_admittances(case, sol)
    eq = initialize_from_power_flow(case, sol, kron_reduce(case, y_load, sol.ybus))
    plan, lay = eq.plan, eq.layout
    n_mach = len(lay.machine_ids)

    gains = (np.zeros((n_mach, 5)) if controllers is None
             else controllers.gains_for(lay.machine_ids))
    has_gain = np.any(gains != 0.0, axis=1).astype(float)

    def selected(sel) -> np.ndarray:
        """1.0 for each machine `sel` names ('all' names every one), else 0.0."""
        return np.array([1.0 if sel == "all" or m in sel else 0.0 for m in lay.machine_ids])

    if controllers is None or scenario.initial_active == "none":
        active = np.zeros(n_mach)
    else:
        active = has_gain * selected(scenario.initial_active)

    dt, n_steps = scenario.dt, scenario.n_steps
    tgrid = np.arange(n_steps + 1) * dt
    states = np.zeros((n_steps + 1, lay.n_states))
    states[0] = eq.state
    y = eq.state.copy()
    event_log: list = []
    segments = [_Segment(0, case, y_load, eq.network, active,
                         plan.design_states(eq.state))]

    def span(h: float, count: int, **record) -> int:
        """RK4 over `count` steps on the current segment's network and control."""
        s = segments[-1]
        return kernels.rk4_span(y, h, count, plan, s.network.g, s.network.b,
                                kernels.Control(gains, s.xref, s.active), **record)

    def reduce(case_now: PowerSystemCase, y_now: np.ndarray) -> ReducedNetwork:
        try:
            return kron_reduce(case_now, y_now)
        except KronReductionError as exc:
            raise ScenarioError("event left the network islanded") from exc

    def fire(ev: Event, t_now: float, first_row: int) -> None:
        seg = segments[-1]
        case_now, y_now, net, active, xref = (seg.case, seg.y_load, seg.network,
                                              seg.active, seg.xref)
        entry = {"time": t_now, "action": ev.action}
        if ev.action == "trip_line":
            f, t, c = ev.params
            case_now = apply_line_trip(case_now, f, t, c)
            net = reduce(case_now, y_now)
            entry["branch"] = [f, t, c]
        elif ev.action == "step_load":
            bus, dp, dq = ev.params
            idx = case_now.bus_index[bus]
            e = plan.bind(net.g, net.b).network(y)[0]
            vm_now = abs((net.emf_to_bus @ (e[:n_mach] + 1j * e[n_mach:]))[idx])
            s = complex(dp, dq) / case_now.base_mva
            y_now = y_now.copy()
            y_now[idx] += np.conj(s) / (vm_now ** 2 if vm_now > 0 else 1.0)
            net = reduce(case_now, y_now)
            entry.update(bus=bus, dp_mw=dp, dq_mvar=dq)
        else:
            sel = ev.params[0]
            entry["machines"] = "all" if sel == "all" else list(sel)
            if ev.action == "activate_controllers":
                omega = y[lay.speed_indices]
                rhs = kernels.rhs(y, plan, net.g, net.b,
                                  kernels.Control(gains, xref, active))
                non_angle = np.delete(rhs, lay.delta_indices)
                # post-event steady state is a uniformly drifting frame:
                # speeds equal (common droop slip) and all other derivatives quiet
                settled = (np.max(np.abs(omega - np.mean(omega))) < 1e-4
                           and np.max(np.abs(non_angle)) < 1e-4)
                if net is not eq.network and settled:
                    # the settled operating point on the changed network is the
                    # operative equilibrium and becomes the reference
                    xref = plan.design_states(y)
                    entry["reference"] = "settled_state"
                else:
                    entry["reference"] = "pre_disturbance_equilibrium"
                active = np.clip(active + selected(sel), 0, 1) * has_gain
            else:
                active = active * (1.0 - selected(sel))
        event_log.append(entry)
        segments.append(_Segment(first_row, case_now, y_now, net, active, xref))

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

    return SimulationResult(time=tgrid, states=states, layout=lay, event_log=event_log,
                            case=case, plan=plan, gains=gains, segments=segments,
                            divergent=t_fail is not None, divergence_time=t_fail)


def _derived_channels(plan: kernels.RhsPlan, gains: np.ndarray, states: np.ndarray,
                      segments: list) -> tuple:
    """Electrical power, mechanical power, auxiliary governor signal and bus
    voltages, evaluated for blocks of rows at once on each segment's network
    and controller setting."""
    n_t, n = states.shape[0], plan.sout.size
    pe = np.zeros((n_t, n))
    pm_sys = np.zeros_like(pe)
    u_out = np.zeros_like(pe)
    vbus = np.zeros((n_t, len(segments[0].case.buses)), dtype=complex)
    ends = [s.first_row for s in segments[1:]] + [n_t]
    for s, r1 in zip(segments, ends):
        if r1 == s.first_row:
            continue        # no row recorded on this segment's network
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
    col = result.case.machine_index
    try:
        if kind == "delta_rel":
            return result.state(int(parts[1]), "delta") - result.state(int(parts[2]), "delta")
        if kind in ("delta", "omega", "xe"):
            return result.state(int(parts[1]), kind)
        if kind == "pe":
            return result.pe_sys[:, col[int(parts[1])]]
        if kind == "pm":
            return result.pm_sys[:, col[int(parts[1])]]
        if kind == "u":
            return result.u[:, col[int(parts[1])]]
        if kind == "vm":
            return np.abs(result.bus_voltage[:, result.case.bus_index[int(parts[1])]])
        if kind == "flow":
            return _branch_flow_series(result, int(parts[1]), int(parts[2]),
                                       int(parts[3]))
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"unknown channel {channel!r}") from exc
    raise ScenarioError(f"unknown channel {channel!r}")


def check_channels(case: PowerSystemCase, channels: list[str]) -> None:
    """Refuse a channel that `measure` could not read from a run of `case`,
    before the run: `measure` reads each one from a run of no rows, whose
    one segment is never evaluated."""
    plan = device_model(case)
    lay = plan.layout
    empty = SimulationResult(time=np.zeros(0), states=np.zeros((0, lay.n_states)),
                             layout=lay, event_log=[], case=case, plan=plan,
                             gains=np.zeros((len(lay.machine_ids), 5)),
                             segments=[_Segment(0, case, None, None, None, None)])
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
    vf = result.bus_voltage[:, result.case.bus_index[f]]
    vt = result.bus_voltage[:, result.case.bus_index[t]]
    p = np.real(branch_power(br, vf, vt)) * result.case.base_mva
    p[result.time >= trip_time - 1e-12] = 0.0
    return p


def check_ringdown_band(band_hz: tuple[float, float], dt: float) -> None:
    """Refuse a ringdown band that is not 0 < LO < HI < half the sample rate
    at `dt`: an input error, not a missing estimate."""
    lo, hi = band_hz
    if not 0.0 < lo < hi < 0.5 / dt:
        raise ScenarioError(f"ringdown band [{lo}, {hi}] Hz needs 0 < LO < HI < "
                            f"{0.5 / dt:g} Hz, half the sample rate at dt {dt}")


def ringdown_damping(series: np.ndarray, dt: float,
                     band_hz: tuple[float, float]) -> dict:
    """Oscillatory modes of a ringdown trace by the matrix pencil (Hua-Sarkar
    1990, IEEE Trans. ASSP 38(5)): the trace, decimated by the largest step
    that keeps `_RINGDOWN_RATE_PER_HI` samples per period of HI, and less its
    mean, fills a Hankel matrix of n // 3 columns (at most
    `_RINGDOWN_MAX_COLUMNS`).  Its singular values above `_RINGDOWN_ORDER_CUT`
    of the largest set the model order; the shift of the leading right
    singular vectors gives the poles, and one least-squares fit their
    amplitudes.

    Returns `modes`, each pole pair in the band as `frequency_hz`, `zeta` and
    `amplitude` (at the trace's start), largest amplitude first; the first
    one's `frequency_hz` and `zeta`; and `residual`, the fit's residual
    relative to the trace.  A band `check_ringdown_band` refuses is a
    ScenarioError; a trace shorter than 10 cycles of the band centre, or with
    no oscillatory mode in the band, is a ValueError."""
    check_ringdown_band(band_hz, dt)
    lo, hi = band_hz
    if series.size * dt * (0.5 * (lo + hi)) < 10:
        raise ValueError("series shorter than 10 cycles of the band center")
    step = max(1, int(1.0 / (_RINGDOWN_RATE_PER_HI * hi * dt)))
    x = series[::step] - np.mean(series[::step])
    hankel = np.lib.stride_tricks.sliding_window_view(
        x, min(x.size // 3, _RINGDOWN_MAX_COLUMNS))
    _, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    v = vh[:np.count_nonzero(sv > _RINGDOWN_ORDER_CUT * sv[0])].T
    z = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
    powers = z ** np.arange(x.size)[:, None]
    amp = np.linalg.lstsq(powers, x, rcond=None)[0]
    s = np.log(z) / (step * dt)
    modes = sorted(({"frequency_hz": float(f), "zeta": float(-p.real / abs(p)),
                     "amplitude": float(2.0 * abs(a))}      # of the conjugate pair
                    for p, f, a in zip(s, s.imag / (2.0 * math.pi), amp)
                    if p.imag > 0.0 and lo <= f <= hi),
                   key=lambda m: -m["amplitude"])
    if not modes:
        raise ValueError("no oscillatory mode in the band")
    residual = np.linalg.norm(x - (powers @ amp).real) / np.linalg.norm(x)
    return {"frequency_hz": modes[0]["frequency_hz"], "zeta": modes[0]["zeta"],
            "modes": modes, "residual": float(residual)}
