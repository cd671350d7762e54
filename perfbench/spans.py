"""Span tracing from outside the program, and the per-layer metrics derived
from the spans.

`Tracer.install` replaces each public function listed in `WRAPS` by a
wrapper at the module attribute its caller looks up (``cli`` imports names
directly, so the wrapper for the power flow goes on
``oscdamp.cli.solve_power_flow``; ``simulator`` calls ``kernels.rk4_span``
through the module, so that one goes on ``oscdamp.kernels``).  Each call
records a span (id, name, start, end, parent, operation id, attributes) in
memory; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


def _rk4_attrs(args, kwargs, result):
    return {"steps": int(args[2] if len(args) > 2 else kwargs["nsteps"])}


def _pf_attrs(args, kwargs, result):
    return {"iterations": result.iterations}


def _canon_attrs(args, kwargs, result):
    return {"n_vars": result.n_vars,
            "max_block": max(f.shape[0] for f in result.f0)}


def _sdp_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "status": result.status}


def _sim_attrs(args, kwargs, result):
    return {"events": len(result.event_log)}


def _report_attrs(args, kwargs, result):
    csv_files = args[5] if len(args) > 5 else kwargs.get("csv_files")
    return {"bytes": Path(result).stat().st_size
            + sum(len(t.encode()) for t in (csv_files or {}).values())}


# (module, attribute, span name, attributes taken from the call)
WRAPS = [
    ("oscdamp.cli", "main", "cli.main", None),
    ("oscdamp.cli", "parse_case", "case.parse", None),
    ("oscdamp.cli", "validate_case", "case.validate", None),
    ("oscdamp.cli", "scale_stress", "case.variant", None),
    ("oscdamp.cli", "apply_line_trip", "case.variant", None),
    ("oscdamp.simulator", "apply_line_trip", "case.variant", None),
    ("oscdamp.cli", "solve_power_flow", "powerflow.solve", _pf_attrs),
    ("oscdamp.simulator", "solve_power_flow", "powerflow.solve", _pf_attrs),
    ("oscdamp.cli", "kron_reduce", "powerflow.kron", None),
    ("oscdamp.simulator", "kron_reduce", "powerflow.kron", None),
    ("oscdamp.cli", "initialize_from_power_flow", "dynamics.init", None),
    ("oscdamp.simulator", "initialize_from_power_flow", "dynamics.init", None),
    ("oscdamp.cli", "linearize", "smallsignal.linearize", None),
    ("oscdamp.cli", "modal_analysis", "smallsignal.modal", None),
    ("oscdamp.kernels", "rhs", "kernels.rhs", None),
    ("oscdamp.kernels", "rk4_span", "kernels.rk4", _rk4_attrs),
    ("oscdamp.cli", "design_controllers", "synthesis.design", None),
    ("oscdamp.synthesis", "coupling_bounds", "synthesis.bounds", None),
    ("oscdamp.synthesis", "coupling_rows", "synthesis.bounds", None),
    ("oscdamp.synthesis", "assemble_synthesis_lmi", "synthesis.assemble", None),
    ("oscdamp.synthesis", "extract_gains", "synthesis.extract", None),
    ("oscdamp.synthesis", "solve_sdp", "lmi.solve", _sdp_attrs),
    ("oscdamp.lmi", "canonicalize", "lmi.canonicalize", _canon_attrs),
    ("oscdamp.synthesis", "check_solution", "lmi.check", None),
    ("oscdamp.cli", "export_sdpa", "lmi.export_sdpa", None),
    ("oscdamp.cli", "simulate", "simulator.simulate", _sim_attrs),
    ("oscdamp.cli", "ringdown_damping", "simulator.ringdown", None),
    ("oscdamp.simulator:SimulationResult", "to_csv", "simulator.to_csv", None),
    ("oscdamp.cli", "write_report", "report.write", _report_attrs),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _resolve(target: str):
    mod_name, _, cls_name = target.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = -1
        self._op_stack: list[int] = []
        self._restore: list = []

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, fn, attrs, args, kwargs):
        stack = self._stack()
        # a worker thread's first span hangs under the span that is open on
        # the thread that started the operation
        parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter()
            stack.pop()
            info = {"error": type(exc).__name__}
            if isinstance(getattr(exc, "iterations", None), int):
                info["iterations"] = exc.iterations
            self.spans.append(Span(sid, name, start, end, parent, self._op, info))
            raise
        end = time.perf_counter()
        stack.pop()
        try:
            info = attrs(args, kwargs, result) if attrs else {}
        except Exception as exc:
            # an attribute the tracer cannot read must not fail the call
            info = {"attrs_error": f"{type(exc).__name__}: {exc}"}
        self.spans.append(Span(sid, name, start, end, parent, self._op, info))
        return result

    def install(self) -> None:
        for target, attr, name, attrs in WRAPS:
            owner = _resolve(target)
            orig = getattr(owner, attr)

            def traced(*args, _fn=orig, _name=name, _attrs=attrs, **kwargs):
                return self._run(_name, _fn, _attrs, args, kwargs)

            setattr(owner, attr, functools.wraps(orig)(traced))
            self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def begin_operation(self, op_id: int) -> None:
        """Spans from here on carry `op_id`; call on the thread that runs the operation."""
        self._op = op_id
        self._op_stack = self._stack()

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     **s.attrs}) + "\n")


def layer_metrics(spans: list[Span], n_ops: int, points_per_op: float) -> dict:
    """Per-operation counts, busy times and ratios for every traced layer."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.dur

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.dur for s in by_name[name])

    def self_time(name):
        return sum(s.dur - child_time[s.id] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in by_name[name]), default=0)

    def ratio(a, b):
        return a / b if b else 0.0

    per_op = 1.0 / n_ops
    rk4_steps = attr_sum("kernels.rk4", "steps")
    lin_ids = {s.id for s in by_name["smallsignal.linearize"]}
    rhs_in_lin = sum(1 for s in by_name["kernels.rhs"] if s.parent in lin_ids)
    points = points_per_op * n_ops
    pf_fail = sum(1 for s in by_name["powerflow.solve"] if "error" in s.attrs)
    return {
        "lmi.solve_calls": calls("lmi.solve") * per_op,
        "lmi.canonicalize_s": busy("lmi.canonicalize") * per_op,
        "lmi.solve_s": busy("lmi.solve") * per_op,
        "lmi.newton_steps": attr_sum("lmi.solve", "iterations") * per_op,
        "lmi.n_vars": attr_max("lmi.canonicalize", "n_vars"),
        "lmi.max_block": attr_max("lmi.canonicalize", "max_block"),
        "lmi.check_s": busy("lmi.check") * per_op,
        "lmi.export_sdpa_s": busy("lmi.export_sdpa") * per_op,
        "synthesis.design_calls": calls("synthesis.design") * per_op,
        "synthesis.bounds_s": busy("synthesis.bounds") * per_op,
        "synthesis.assemble_s": busy("synthesis.assemble") * per_op,
        "synthesis.extract_s": busy("synthesis.extract") * per_op,
        "synthesis.self_s": self_time("synthesis.design") * per_op,
        "kernels.rk4_calls": calls("kernels.rk4") * per_op,
        "kernels.rk4_steps": rk4_steps * per_op,
        "kernels.rk4_s": busy("kernels.rk4") * per_op,
        "kernels.us_per_step": 1e6 * ratio(busy("kernels.rk4"), rk4_steps),
        "kernels.rhs_calls": calls("kernels.rhs") * per_op,
        "kernels.rhs_s": busy("kernels.rhs") * per_op,
        "simulator.simulate_s": busy("simulator.simulate") * per_op,
        "simulator.self_s": self_time("simulator.simulate") * per_op,
        "simulator.events": attr_sum("simulator.simulate", "events") * per_op,
        "simulator.ringdown_s": busy("simulator.ringdown") * per_op,
        "simulator.to_csv_s": busy("simulator.to_csv") * per_op,
        "smallsignal.linearize_calls": calls("smallsignal.linearize") * per_op,
        "smallsignal.linearize_per_point": ratio(calls("smallsignal.linearize"), points),
        "smallsignal.rhs_per_linearize": ratio(rhs_in_lin, calls("smallsignal.linearize")),
        "smallsignal.linearize_s": busy("smallsignal.linearize") * per_op,
        "smallsignal.modal_s": busy("smallsignal.modal") * per_op,
        "powerflow.solve_calls": calls("powerflow.solve") * per_op,
        "powerflow.solves_per_point": ratio(calls("powerflow.solve"), points),
        "powerflow.newton_iters": attr_sum("powerflow.solve", "iterations") * per_op,
        "powerflow.failures": pf_fail * per_op,
        "powerflow.solve_s": busy("powerflow.solve") * per_op,
        "powerflow.kron_calls": calls("powerflow.kron") * per_op,
        "powerflow.kron_s": busy("powerflow.kron") * per_op,
        "dynamics.init_calls": calls("dynamics.init") * per_op,
        "dynamics.init_s": busy("dynamics.init") * per_op,
        "case.parse_s": busy("case.parse") * per_op,
        "case.validate_s": busy("case.validate") * per_op,
        "case.variant_s": busy("case.variant") * per_op,
        "report.write_s": busy("report.write") * per_op,
        "report.bytes": attr_sum("report.write", "bytes") * per_op,
        "trace.spans": len(spans) * per_op,
    }
