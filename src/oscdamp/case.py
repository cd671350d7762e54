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
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache, cached_property
from typing import NamedTuple, get_args, get_origin, get_type_hints


class CaseError(Exception):
    """Malformed or inconsistent input: a case, a gains file or (as ScenarioError)
    a scenario. `path` locates the offending field."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


BUS_KINDS = ("slack", "pv", "pq")


def _schema_field(*, key: str | None = None, refers: type | None = None,
                  unique: bool = False):
    """A required record field with its case-file rules: the file `key` where
    it differs from the field name, the record type whose ids it must name,
    and whether it is part of the entry's identity within its section."""
    return field(metadata={"key": key, "refers": refers, "unique": unique})


@dataclass(frozen=True)
class Bus:
    id: int = _schema_field(unique=True)
    kind: str
    voltage_setpoint: float | None = None
    shunt_susceptance: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int = _schema_field(key="from", refers=Bus, unique=True)
    to_bus: int = _schema_field(key="to", refers=Bus, unique=True)
    circuit: int = _schema_field(unique=True)
    r: float
    x: float
    b: float
    in_service: bool = True

    def key(self) -> tuple[int, int, int]:
        return (self.from_bus, self.to_bus, self.circuit)


@dataclass(frozen=True)
class Machine:
    """Synchronous machine; reactances/time constants on the machine MVA base."""

    id: int = _schema_field(unique=True)
    bus: int = _schema_field(refers=Bus)
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

    machine: int = _schema_field(refers=Machine, unique=True)
    ke: float
    te: float
    t3: float
    t4: float
    t5: float
    tm: float
    r: float


@dataclass(frozen=True)
class ExciterParams:
    machine: int = _schema_field(refers=Machine, unique=True)
    ka: float
    ta: float
    efd_min: float
    efd_max: float


@dataclass(frozen=True)
class PssParams:
    machine: int = _schema_field(refers=Machine, unique=True)
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
    bus: int = _schema_field(refers=Bus)
    p_mw: float
    q_mvar: float


@dataclass(frozen=True)
class PowerSystemCase:
    """A case; each tuple field is a section of the file, a list of records."""

    base_mva: float
    base_frequency_hz: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    machines: tuple[Machine, ...]
    governors: tuple[GovernorParams, ...] = field(default=(), kw_only=True)
    exciters: tuple[ExciterParams, ...] = field(default=(), kw_only=True)
    psss: tuple[PssParams, ...] = field(default=(), kw_only=True)
    loads: tuple[Load, ...]

    @property
    def omega0(self) -> float:
        """Nominal rotor speed in rad/s."""
        return 2.0 * math.pi * self.base_frequency_hz

    @cached_property
    def bus_index(self) -> dict[int, int]:
        """Each bus id's row in the network's arrays: the order of `buses`.
        Computed once per case; the case is frozen, and its transforms return
        new cases with their own index."""
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def machine_index(self) -> dict[int, int]:
        """Each machine id's row in every machine-ordered array and list: the
        order of `machines`, computed once per case as `bus_index` is."""
        return {m.id: i for i, m in enumerate(self.machines)}

    def governor_for(self, machine_id: int) -> GovernorParams | None:
        return next((g for g in self.governors if g.machine == machine_id), None)

    def exciter_for(self, machine_id: int) -> ExciterParams | None:
        return next((e for e in self.exciters if e.machine == machine_id), None)

    def pss_for(self, machine_id: int) -> PssParams | None:
        return next((p for p in self.psss if p.machine == machine_id), None)

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

_FLOAT_MAX = sys.float_info.max


def _is_number(v) -> bool:
    # the bound also refuses NaN and an integer past the float range
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX


# declared field type -> (test of a JSON value, refusal, conversion)
VALUE_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "expected an integer", int),
    float: (_is_number, "expected a finite number", float),
    bool: (lambda v: isinstance(v, bool), "expected true or false", bool),
    str: (lambda v: isinstance(v, str), "expected a string", str),
}
VALUE_TYPES[float | None] = VALUE_TYPES[float]      # None only as the default


def read_value(value, kind, path: str, error: type[CaseError] = CaseError):
    """`value` as the declared type `kind`, a key of VALUE_TYPES (an integer
    is accepted as a float); anything else raises `error` naming `path`."""
    accepts, refusal, convert = VALUE_TYPES[kind]
    if not accepts(value):
        raise error(refusal, path)
    return convert(value)


def check_keys(obj: dict, allowed: set, required: set, path: str,
               error: type[CaseError] = CaseError) -> None:
    """Refuse a key of `obj` outside `allowed`, then a key of `required` it lacks."""
    unknown = set(obj) - allowed
    if unknown:
        raise error(f"unknown key(s) {sorted(unknown)}", path)
    missing = required - set(obj)
    if missing:
        raise error(f"missing key(s) {sorted(missing)}", path)


class _Field(NamedTuple):
    name: str
    key: str              # the key in a case file
    kind: object          # the declared type, resolved
    section: type | None  # the record type of a tuple field's entries
    required: bool
    refers: type | None
    unique: bool


@cache
def _schema(cls: type) -> tuple[tuple[_Field, ...], set, set]:
    """The fields of a record type as a case file holds them, with the keys
    it allows and those it requires."""
    kinds = get_type_hints(cls)
    schema = tuple(_Field(f.name, f.metadata.get("key") or f.name, kinds[f.name],
                          get_args(kinds[f.name])[0]
                          if get_origin(kinds[f.name]) is tuple else None,
                          f.default is MISSING, f.metadata.get("refers"),
                          f.metadata.get("unique", False))
                   for f in fields(cls))
    return schema, {f.key for f in schema}, {f.key for f in schema if f.required}


def _read_record(cls: type, obj: dict, path: str, ids: dict):
    """A record of type `cls` from the object at `path`: each value of the
    field's declared type, each reference among `ids` (the identities of the
    sections read so far), and each tuple field a section."""
    schema, allowed, required = _schema(cls)
    check_keys(obj, allowed, required, path)
    values = {}
    for f in schema:
        if f.key not in obj:
            continue
        if f.section is not None:
            values[f.name] = _read_section(f.section, obj[f.key], f.key, ids)
            continue
        values[f.name] = v = read_value(obj[f.key], f.kind, f"{path}.{f.key}")
        if f.refers is not None and (v,) not in ids[f.refers]:
            raise CaseError(f"references missing {f.refers.__name__.lower()} {v}",
                            f"{path}.{f.key}")
    return cls(**values)


def _read_section(cls: type, entries, section: str, ids: dict) -> tuple:
    """A section: a list of objects, each a record of type `cls` that shares
    its unique fields with no other entry."""
    if not isinstance(entries, list):
        raise CaseError("expected a list", section)
    unique = [f for f in _schema(cls)[0] if f.unique]
    seen = ids[cls] = set()
    records = []
    for i, obj in enumerate(entries):
        path = f"{section}[{i}]"
        if not isinstance(obj, dict):
            raise CaseError("expected an object", path)
        rec = _read_record(cls, obj, path, ids)
        if unique:
            key = tuple(getattr(rec, f.name) for f in unique)
            if key in seen:
                raise CaseError(f"duplicate {'/'.join(f.key for f in unique)} "
                                f"{'/'.join(map(str, key))}", path)
            seen.add(key)
        records.append(rec)
    return tuple(records)


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
    case = _read_record(PowerSystemCase, raw, "case", {})
    if case.base_mva <= 0 or case.base_frequency_hz <= 0:
        raise CaseError("base_mva and base_frequency_hz must be positive", "case")
    for i, bus in enumerate(case.buses):
        if bus.kind not in BUS_KINDS:
            raise CaseError(f"kind must be one of {BUS_KINDS}", f"buses[{i}].kind")
    return case


def _document(record) -> dict:
    """A record as its case-file object: sections as lists, None left out."""
    doc = {}
    for f in _schema(type(record))[0]:
        value = getattr(record, f.name)
        if f.section is not None:
            value = [_document(r) for r in value]
        if value is not None:
            doc[f.key] = value
    return doc


def render_case(case: PowerSystemCase) -> str:
    """Serialize a case back to its JSON document form (parse/render round-trips)."""
    return json.dumps(_document(case), indent=2) + "\n"


# --- validation --------------------------------------------------------------

def validate_case(case: PowerSystemCase) -> list[str]:
    """Check all type invariants; returns a list of violation messages (empty if clean)."""
    v: list[str] = []
    slacks = [b.id for b in case.buses if b.kind == "slack"]
    if len(slacks) != 1:
        v.append(f"expected exactly one slack bus, found {len(slacks)}: {slacks}")

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
        if e.ka <= 0:
            v.append(f"{tag}: gain Ka must be positive")
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

    if len({b.id for b in case.buses}) > 1:
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

def scale_stress(case: PowerSystemCase, fraction: float) -> PowerSystemCase:
    """Scale P and Q of every load and the scheduled P of every machine by
    `fraction`, which must be positive and finite."""
    if not (math.isfinite(fraction) and fraction > 0):
        raise CaseError(f"stress fraction must be positive and finite, not {fraction}")
    loads = tuple(replace(l, p_mw=l.p_mw * fraction, q_mvar=l.q_mvar * fraction)
                  for l in case.loads)
    machines = tuple(replace(m, p_sched_mw=m.p_sched_mw * fraction) for m in case.machines)
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
