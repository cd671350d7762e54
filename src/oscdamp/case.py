"""Power-system case model: typed data, JSON parsing/rendering, validation, transforms.

A case file is a single UTF-8 JSON document.  Quantities keep the units the
file carries (MW/MVAr for loads and dispatch, machine-base per-unit for
machine parameters); conversion to system per-unit happens where the numeric
models are built, the reactances' through `Machine.system_reactances`.  All
types are immutable; transforms return new values.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace, fields


class CaseError(Exception):
    """Malformed or inconsistent case data. `path` locates the offending field."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


BUS_KINDS = ("slack", "pv", "pq")


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str
    voltage_setpoint: float | None = None
    shunt_susceptance: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    circuit: int
    r: float
    x: float
    b: float
    in_service: bool = True

    def key(self) -> tuple[int, int, int]:
        return (self.from_bus, self.to_bus, self.circuit)


@dataclass(frozen=True)
class Machine:
    """Synchronous machine; reactances/time constants on the machine MVA base."""

    id: int
    bus: int
    mva: float
    h: float
    d: float
    xd: float
    xq: float
    xdp: float
    xqp: float
    td0p: float
    tq0p: float
    p_sched_mw: float
    v_sched: float

    def system_reactances(self, base_mva: float) -> tuple[float, float, float, float]:
        """xd, xq, xdp, xqp converted from the machine base to the system base."""
        scale = base_mva / self.mva
        return self.xd * scale, self.xq * scale, self.xdp * scale, self.xqp * scale


@dataclass(frozen=True)
class GovernorParams:
    """Steam valve governor and reheat turbine chain (machine-base per unit)."""

    machine: int
    ke: float
    te: float
    t3: float
    t4: float
    t5: float
    tm: float
    r: float


@dataclass(frozen=True)
class ExciterParams:
    machine: int
    ka: float
    ta: float
    efd_min: float
    efd_max: float


@dataclass(frozen=True)
class PssParams:
    machine: int
    ks: float
    tw: float
    t1: float
    t2: float
    t3: float
    t4: float
    vmin: float
    vmax: float


@dataclass(frozen=True)
class Load:
    bus: int
    p_mw: float
    q_mvar: float


@dataclass(frozen=True)
class PowerSystemCase:
    base_mva: float
    base_frequency_hz: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    machines: tuple[Machine, ...]
    governors: tuple[GovernorParams, ...]
    exciters: tuple[ExciterParams, ...]
    psss: tuple[PssParams, ...]
    loads: tuple[Load, ...]

    @property
    def omega0(self) -> float:
        """Nominal rotor speed in rad/s."""
        return 2.0 * math.pi * self.base_frequency_hz

    def machine_by_id(self, machine_id: int) -> Machine:
        for m in self.machines:
            if m.id == machine_id:
                return m
        raise CaseError(f"unknown machine {machine_id}")

    def governor_for(self, machine_id: int) -> GovernorParams | None:
        for g in self.governors:
            if g.machine == machine_id:
                return g
        return None

    def exciter_for(self, machine_id: int) -> ExciterParams | None:
        for e in self.exciters:
            if e.machine == machine_id:
                return e
        return None

    def pss_for(self, machine_id: int) -> PssParams | None:
        for p in self.psss:
            if p.machine == machine_id:
                return p
        return None

    def in_service_branches(self) -> tuple[Branch, ...]:
        return tuple(br for br in self.branches if br.in_service)

    def find_branch(self, from_bus: int, to_bus: int, circuit: int) -> Branch | None:
        """Circuit `circuit` between the two buses, in either orientation."""
        ends = {from_bus, to_bus}
        return next((br for br in self.branches
                     if br.circuit == circuit and {br.from_bus, br.to_bus} == ends),
                    None)

    def setpoint_for_bus(self, bus: Bus) -> float:
        """Voltage setpoint of a PV/slack bus, falling back to its machine's v_sched."""
        if bus.voltage_setpoint is not None:
            return bus.voltage_setpoint
        for m in self.machines:
            if m.bus == bus.id:
                return m.v_sched
        raise CaseError(f"bus {bus.id} is {bus.kind} but has no voltage setpoint")


# --- parsing -----------------------------------------------------------------

_TOP_KEYS = {"base_mva", "base_frequency_hz", "buses", "branches", "machines",
             "governors", "exciters", "psss", "loads"}
_BUS_KEYS = {"id", "kind", "voltage_setpoint", "shunt_susceptance"}
_BRANCH_KEYS = {"from", "to", "circuit", "r", "x", "b", "in_service"}
_MACHINE_KEYS = {"id", "bus", "mva", "h", "d", "xd", "xq", "xdp", "xqp",
                 "td0p", "tq0p", "p_sched_mw", "v_sched"}
_GOV_KEYS = {"machine", "ke", "te", "t3", "t4", "t5", "tm", "r"}
_EXC_KEYS = {"machine", "ka", "ta", "efd_min", "efd_max"}
_PSS_KEYS = {"machine", "ks", "tw", "t1", "t2", "t3", "t4", "vmin", "vmax"}
_LOAD_KEYS = {"bus", "p_mw", "q_mvar"}
_FLOAT_MAX = sys.float_info.max


def _check_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise CaseError(f"unknown key(s) {sorted(unknown)}", path)
    missing = required - set(obj)
    if missing:
        raise CaseError(f"missing key(s) {sorted(missing)}", path)


def _num(obj: dict, key: str, path: str) -> float:
    v = obj[key]      # the bound also refuses NaN and an integer past the float range
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= _FLOAT_MAX:
        raise CaseError("expected a finite number", f"{path}.{key}")
    return float(v)


def _intval(obj: dict, key: str, path: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise CaseError("expected an integer", f"{path}.{key}")
    return v


def _objects(raw: dict, section: str) -> list:
    """The entries of a section, which must be a list of objects."""
    entries = raw.get(section, [])
    if not isinstance(entries, list):
        raise CaseError("expected a list", section)
    for i, ob in enumerate(entries):
        if not isinstance(ob, dict):
            raise CaseError("expected an object", f"{section}[{i}]")
    return entries


def parse_case(text: str) -> PowerSystemCase:
    """Parse a JSON case document into a PowerSystemCase.

    Raises CaseError with a line/field path on syntax errors, unknown keys,
    duplicate ids, and dangling cross-references.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(f"syntax error: {exc.msg}", f"line {exc.lineno}") from exc
    if not isinstance(raw, dict):
        raise CaseError("top level must be an object")
    _check_keys(raw, _TOP_KEYS, _TOP_KEYS - {"governors", "exciters", "psss"}, "case")

    base_mva = _num(raw, "base_mva", "case")
    base_f = _num(raw, "base_frequency_hz", "case")
    if base_mva <= 0 or base_f <= 0:
        raise CaseError("base_mva and base_frequency_hz must be positive", "case")

    buses = []
    seen_bus = set()
    for i, ob in enumerate(_objects(raw, "buses")):
        path = f"buses[{i}]"
        _check_keys(ob, _BUS_KEYS, {"id", "kind"}, path)
        bid = _intval(ob, "id", path)
        if bid in seen_bus:
            raise CaseError(f"duplicate bus id {bid}", path)
        seen_bus.add(bid)
        kind = ob["kind"]
        if kind not in BUS_KINDS:
            raise CaseError(f"kind must be one of {BUS_KINDS}", f"{path}.kind")
        vset = _num(ob, "voltage_setpoint", path) if "voltage_setpoint" in ob else None
        shunt = _num(ob, "shunt_susceptance", path) if "shunt_susceptance" in ob else 0.0
        buses.append(Bus(bid, kind, vset, shunt))

    branches = []
    seen_branch = set()
    for i, ob in enumerate(_objects(raw, "branches")):
        path = f"branches[{i}]"
        _check_keys(ob, _BRANCH_KEYS, {"from", "to", "circuit", "r", "x", "b"}, path)
        fb, tb = _intval(ob, "from", path), _intval(ob, "to", path)
        circ = _intval(ob, "circuit", path)
        for end, name in ((fb, "from"), (tb, "to")):
            if end not in seen_bus:
                raise CaseError(f"references missing bus {end}", f"{path}.{name}")
        key = (fb, tb, circ)
        if key in seen_branch:
            raise CaseError(f"duplicate branch {key}", path)
        seen_branch.add(key)
        in_service = ob.get("in_service", True)
        if not isinstance(in_service, bool):
            raise CaseError("expected true or false", f"{path}.in_service")
        branches.append(Branch(fb, tb, circ, _num(ob, "r", path), _num(ob, "x", path),
                               _num(ob, "b", path), in_service))

    machines = []
    seen_mach = set()
    for i, ob in enumerate(_objects(raw, "machines")):
        path = f"machines[{i}]"
        _check_keys(ob, _MACHINE_KEYS, _MACHINE_KEYS, path)
        mid = _intval(ob, "id", path)
        if mid in seen_mach:
            raise CaseError(f"duplicate machine id {mid}", path)
        seen_mach.add(mid)
        mbus = _intval(ob, "bus", path)
        if mbus not in seen_bus:
            raise CaseError(f"references missing bus {mbus}", f"{path}.bus")
        vals = {k: _num(ob, k, path) for k in _MACHINE_KEYS - {"id", "bus"}}
        machines.append(Machine(id=mid, bus=mbus, **vals))

    def _per_machine(section: str, keys: set, cls):
        out = []
        seen = set()
        for i, ob in enumerate(_objects(raw, section)):
            path = f"{section}[{i}]"
            _check_keys(ob, keys, keys, path)
            mid = _intval(ob, "machine", path)
            if mid not in seen_mach:
                raise CaseError(f"references missing machine {mid}", f"{path}.machine")
            if mid in seen:
                raise CaseError(f"duplicate entry for machine {mid}", path)
            seen.add(mid)
            vals = {k: _num(ob, k, path) for k in keys - {"machine"}}
            out.append(cls(machine=mid, **vals))
        return out

    governors = _per_machine("governors", _GOV_KEYS, GovernorParams)
    exciters = _per_machine("exciters", _EXC_KEYS, ExciterParams)
    psss = _per_machine("psss", _PSS_KEYS, PssParams)

    loads = []
    for i, ob in enumerate(_objects(raw, "loads")):
        path = f"loads[{i}]"
        _check_keys(ob, _LOAD_KEYS, _LOAD_KEYS, path)
        lbus = _intval(ob, "bus", path)
        if lbus not in seen_bus:
            raise CaseError(f"references missing bus {lbus}", f"{path}.bus")
        loads.append(Load(lbus, _num(ob, "p_mw", path), _num(ob, "q_mvar", path)))

    return PowerSystemCase(
        base_mva=base_mva, base_frequency_hz=base_f,
        buses=tuple(buses), branches=tuple(branches), machines=tuple(machines),
        governors=tuple(governors), exciters=tuple(exciters), psss=tuple(psss),
        loads=tuple(loads),
    )


def render_case(case: PowerSystemCase) -> str:
    """Serialize a case back to its JSON document form (parse/render round-trips)."""

    def clean(d: dict) -> dict:
        return {k: v for k, v in d.items() if v is not None}

    doc = {
        "base_mva": case.base_mva,
        "base_frequency_hz": case.base_frequency_hz,
        "buses": [clean({"id": b.id, "kind": b.kind, "voltage_setpoint": b.voltage_setpoint,
                         "shunt_susceptance": b.shunt_susceptance}) for b in case.buses],
        "branches": [{"from": br.from_bus, "to": br.to_bus, "circuit": br.circuit,
                      "r": br.r, "x": br.x, "b": br.b, "in_service": br.in_service}
                     for br in case.branches],
        "machines": [{f.name: getattr(m, f.name) for f in fields(Machine)} for m in case.machines],
        "governors": [{f.name: getattr(g, f.name) for f in fields(GovernorParams)} for g in case.governors],
        "exciters": [{f.name: getattr(e, f.name) for f in fields(ExciterParams)} for e in case.exciters],
        "psss": [{f.name: getattr(p, f.name) for f in fields(PssParams)} for p in case.psss],
        "loads": [{"bus": l.bus, "p_mw": l.p_mw, "q_mvar": l.q_mvar} for l in case.loads],
    }
    return json.dumps(doc, indent=2) + "\n"


# --- validation --------------------------------------------------------------

def validate_case(case: PowerSystemCase) -> list[str]:
    """Check all type invariants; returns a list of violation messages (empty if clean)."""
    v: list[str] = []
    slacks = [b.id for b in case.buses if b.kind == "slack"]
    if len(slacks) != 1:
        v.append(f"expected exactly one slack bus, found {len(slacks)}: {slacks}")

    bus_ids = {b.id for b in case.buses}
    for br in case.branches:
        tag = f"branch {br.key()}"
        if br.x == 0.0:
            v.append(f"{tag}: reactance must be nonzero")
        if br.from_bus == br.to_bus:
            v.append(f"{tag}: from_bus equals to_bus")

    for m in case.machines:
        tag = f"machine {m.id}"
        if m.h <= 0:
            v.append(f"{tag}: inertia H must be positive")
        if not (m.xd >= m.xdp > 0):
            v.append(f"{tag}: requires xd >= xdp > 0")
        if m.td0p <= 0 or m.tq0p <= 0:
            v.append(f"{tag}: transient time constants must be positive")
        if m.mva <= 0:
            v.append(f"{tag}: rating must be positive")
        if m.bus not in bus_ids:
            v.append(f"{tag}: attached bus {m.bus} does not exist")

    for g in case.governors:
        tag = f"governor on machine {g.machine}"
        for name in ("te", "t3", "t4", "t5", "tm"):
            if getattr(g, name) <= 0:
                v.append(f"{tag}: time constant {name} must be positive")
        if g.r <= 0:
            v.append(f"{tag}: droop R must be positive")

    for e in case.exciters:
        tag = f"exciter on machine {e.machine}"
        if e.ta <= 0:
            v.append(f"{tag}: lag Ta must be positive")
        if e.efd_min >= e.efd_max:
            v.append(f"{tag}: field limits out of order")

    for p in case.psss:
        tag = f"pss on machine {p.machine}"
        if p.tw <= 0:
            v.append(f"{tag}: washout Tw must be positive")
        for name in ("t2", "t4"):
            if getattr(p, name) <= 0:
                v.append(f"{tag}: lag {name} must be positive")
        if p.vmin >= p.vmax:
            v.append(f"{tag}: output limits out of order")

    for l in case.loads:
        if l.bus not in bus_ids:
            v.append(f"load at bus {l.bus}: bus does not exist")

    for b in case.buses:
        if b.kind in ("pv", "slack"):
            machs = [m for m in case.machines if m.bus == b.id]
            if b.voltage_setpoint is not None:
                clash = [m.id for m in machs if m.v_sched != b.voltage_setpoint]
                if clash:
                    v.append(f"bus {b.id}: machine v_sched disagrees with bus setpoint "
                             f"(machines {clash})")
            elif not machs:
                v.append(f"bus {b.id}: {b.kind} bus with no setpoint and no machine")

    if len(bus_ids) > 1:
        unreachable = unreachable_buses(case)
        if unreachable:
            v.append(f"network not connected over in-service branches; "
                     f"unreachable buses: {sorted(unreachable)}")
    return v


def unreachable_buses(case: PowerSystemCase) -> set[int]:
    """Buses cut off from the slack bus (the first bus if there is no slack)
    over the in-service branches."""
    adj: dict[int, set[int]] = {b.id: set() for b in case.buses}
    for br in case.in_service_branches():
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)
    start = next((b.id for b in case.buses if b.kind == "slack"), case.buses[0].id)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return {b.id for b in case.buses} - seen


# --- transforms --------------------------------------------------------------

def scale_stress(case: PowerSystemCase, fraction: float,
                 load_buses: list[int] | None = None,
                 machine_ids: list[int] | None = None) -> PowerSystemCase:
    """Scale P and Q of the listed loads and scheduled P of the listed machines.

    `None` selects every load / every machine.  fraction must be positive.
    """
    if fraction <= 0:
        raise CaseError("stress fraction must be positive")
    bus_ids = {b.id for b in case.buses}
    load_buses_set = set(load_buses) if load_buses is not None else {l.bus for l in case.loads}
    for b in load_buses_set:
        if b not in bus_ids:
            raise CaseError(f"unknown bus {b} in stress load list")
    mach_ids = {m.id for m in case.machines}
    machine_set = set(machine_ids) if machine_ids is not None else mach_ids
    for m in machine_set:
        if m not in mach_ids:
            raise CaseError(f"unknown machine {m} in stress generator list")

    loads = tuple(
        replace(l, p_mw=l.p_mw * fraction, q_mvar=l.q_mvar * fraction)
        if l.bus in load_buses_set else l
        for l in case.loads)
    machines = tuple(
        replace(m, p_sched_mw=m.p_sched_mw * fraction) if m.id in machine_set else m
        for m in case.machines)
    return replace(case, loads=loads, machines=machines)


def apply_line_trip(case: PowerSystemCase, from_bus: int, to_bus: int,
                    circuit: int) -> PowerSystemCase:
    """Return a copy of the case with one branch switched out; input unchanged."""
    target = case.find_branch(from_bus, to_bus, circuit)
    if target is None:
        raise CaseError(f"branch {from_bus}-{to_bus} circuit {circuit} not found")
    if not target.in_service:
        raise CaseError(f"branch {from_bus}-{to_bus} circuit {circuit} already out of service")
    branches = tuple(replace(br, in_service=False) if br is target else br
                     for br in case.branches)
    return replace(case, branches=branches)
