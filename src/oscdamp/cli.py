"""Command-line front end: power flow, modal analysis, controller design,
simulation, stress sweeps, N-1 scans, SDPA export.

Exit codes: 0 success, 2 input error, 3 numerical failure (power flow / LMI),
4 simulation divergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .case import (CaseError, PowerSystemCase, parse_case, validate_case,
                   scale_stress, apply_line_trip, unreachable_buses)
from .powerflow import (PowerFlowDiverged, KronReductionError, solve_power_flow,
                        solve_power_flows, load_admittances, kron_reduce, kron_reductions)
from .dynamics import (InitializationError, device_model, initialize_from_power_flow,
                       initialize_from_power_flows)
from .smallsignal import (NonEquilibriumError, NoOscillatoryMode, EigenvectorError,
                          linearize, linearize_points, closed_loop_matrix, modal_analysis,
                          right_vector, classify_mode, classify_table, min_damping)
from .synthesis import (SynthesisError, ControllerSet, design_controllers,
                        governed_subset, synthesis_lmi, DEFAULT_BOUND_SCALE)
from .simulator import (ScenarioError, parse_scenario, simulate, measure,
                        check_channels, check_ringdown_band, ringdown_damping)
from .lmi import LmiError, export_sdpa
from .areas import two_areas, tie_flow_mw
from .report import write_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_DIVERGED = 4

# --band when not given (Hz)
DEFAULT_BAND = (0.1, 3.0)
# a ringdown window starts this long after its event: the first seconds after
# a trip or an activation hold the valves' transient, not the swing's modes
_RINGDOWN_SETTLE_S = 2.0

INPUT_ERRORS = (CaseError, ScenarioError, FileNotFoundError, json.JSONDecodeError)
NUMERIC_ERRORS = (PowerFlowDiverged, KronReductionError, InitializationError,
                  NonEquilibriumError, NoOscillatoryMode, EigenvectorError,
                  SynthesisError, LmiError)


def _load_case(path: str) -> tuple[PowerSystemCase, str]:
    text = Path(path).read_text()
    case = parse_case(text)
    problems = validate_case(case)
    if problems:
        raise CaseError("case failed validation:\n  " + "\n  ".join(problems))
    return case, text


def _pipeline(case: PowerSystemCase):
    """The operating point of a case: its power flow and its equilibrium, on
    the network reduced with the loads frozen at the solved voltages."""
    sol = solve_power_flow(case)
    return sol, initialize_from_power_flow(
        case, sol, kron_reduce(case, load_admittances(case, sol), sol.ybus))


def _subset_from_arg(case, spec: str) -> list[int] | None:
    if spec == "all":
        return None
    try:
        subset = [int(s) for s in spec.split(",")]
    except ValueError as exc:
        raise CaseError("--controllers takes 'all', 'none' or comma-separated "
                        f"machine ids, not {spec!r}") from exc
    return governed_subset(case, subset)


def _controllers_for(case, args) -> ControllerSet | None:
    """Read --gains into a ControllerSet (None for PSS-only), keeping only
    the rows of the machines --controllers lists; the others become zero
    rows, as a designed subset has.  A nonzero row left for a machine the
    case lacks, or for one without a governor, is an input error: nothing
    applies it."""
    if args.controllers == "none":
        return None
    subset = _subset_from_arg(case, args.controllers)
    doc = json.loads(Path(args.gains).read_text())
    if isinstance(doc, dict) and isinstance(doc.get("results"), dict):
        doc = doc["results"].get("controllers")
    ctrl = ControllerSet.from_dict(doc)
    if subset is not None:
        ctrl.gains[[mid not in subset for mid in ctrl.machine_ids]] = 0.0
    ctrl.gains_for(tuple(case.machine_index))      # refuses a machine without a row
    for mid, row in zip(ctrl.machine_ids, ctrl.gains):
        if row.any() and case.governor_for(mid) is None:
            why = ("has no steam governor to apply it" if mid in case.machine_index
                   else "the case lacks")
            raise CaseError(f"--gains has a nonzero row for machine {mid}, which {why}")
    return ctrl


def _mode_table(eq, controllers: ControllerSet | None = None):
    """The full mode table of a built operating point: the closed loop's when
    controllers are given, the open loop's otherwise.  The point is
    linearized once; the closed-loop matrix is derived from the open-loop
    one."""
    a = linearize(eq)
    if controllers is not None:
        a = closed_loop_matrix(a, eq.plan, controllers.gains_for(eq.layout.machine_ids))
    return modal_analysis(a, eq.layout.labels)


# a point row's fields for its open-loop and closed-loop least-damped mode:
# damping, no mode in the band, and (sweep rows only) class and frequency
_LOOP_FIELDS = (("zeta_baseline_pct", "baseline_error", "mode_class", "freq_hz"),
                ("zeta_robust_pct", "robust_error", "robust_mode_class", None))


def _stage(points: list, build) -> None:
    """One stacked stage over the points that have not failed: `build` takes
    their positions and returns each one's outcome, which replaces its
    entry in `points`."""
    live = [i for i, point in enumerate(points) if not isinstance(point, Exception)]
    for i, outcome in zip(live, build(live)):
        points[i] = outcome


def _least_damped(a, labels, band):
    """The least-damped mode in `band` of state matrix `a`, from its
    eigenvalues alone, or the NoOscillatoryMode of a matrix without one."""
    try:
        return min_damping(modal_analysis(a, labels, participation=False), *band)
    except NoOscillatoryMode as exc:
        return exc


def _analysed_points(cases, flows, controllers, band, model, areas=None) -> list:
    """The least-damped modes of the points of a sweep or an N-1 scan, from
    each point's power-flow outcome in `flows` (a solution, or its
    PowerFlowDiverged).  The points are built as one stack on the device
    part `model`: one call each gives their Kron reductions, their
    equilibria and their open-loop state matrices, and one sum their
    closed-loop ones.  The modes come from each state matrix's eigenvalues
    alone.  Per point, the result is the error that stopped it, or per loop
    (open, then closed with controllers) its least-damped mode in `band` or
    the NoOscillatoryMode.  At a sweep point (`areas` given) each such mode
    is classified from its right eigenvector, and all of them come from one
    stacked inverse-iteration solve; a singular one stops its point."""
    if not cases:
        return []
    points = list(flows)
    _stage(points, lambda live: kron_reductions(
        cases[0], [load_admittances(cases[i], flows[i]) for i in live],
        [flows[i].ybus for i in live]))
    _stage(points, lambda live: initialize_from_power_flows(
        [cases[i] for i in live], [flows[i] for i in live], [points[i] for i in live], model))
    _stage(points, lambda live: linearize_points([points[i] for i in live]))
    matrices = {i: [a] for i, a in enumerate(points) if not isinstance(a, Exception)}
    if controllers is not None and matrices:
        closed = closed_loop_matrix(np.array([loops[0] for loops in matrices.values()]),
                                    model, controllers.gains_for(model.layout.machine_ids))
        for loops, a in zip(matrices.values(), closed):
            loops.append(a)
    for i, loops in matrices.items():
        points[i] = [_least_damped(a, model.layout.labels, band) for a in loops]
    found = [(i, j) for i in matrices for j, mode in enumerate(points[i])
             if not isinstance(mode, NoOscillatoryMode)]
    if areas is None or not found:
        return points
    vectors = right_vector(np.array([matrices[i][j] for i, j in found]),
                           np.array([points[i][j].eigenvalue for i, j in found]))
    speed = model.layout.speed_indices
    for (i, j), v in zip(found, vectors):
        if isinstance(points[i], Exception):        # stopped at its open loop
            continue
        if isinstance(v, EigenvectorError):
            points[i] = v
            continue
        mode = points[i][j] = replace(points[i][j], right=v)
        mode.classification = classify_mode(mode, speed, areas)
    return points


def _point_row(case, flow, analysed, ties=None) -> dict:
    """Baseline and, with controllers, robust minimum damping at one point,
    read from what :func:`_analysed_points` gives for it (`analysed`) and
    its power-flow solution `flow`.  A sweep point gets the sweep's tie
    corridor `ties`: its row also reports the tie flow over it, the
    frequency of the least-damped open-loop mode and the classes of the two
    least-damped modes.  An N-1 point (`ties` None) reports the damping
    ratios alone.  A point with no open-loop or closed-loop mode in the band
    reports ``baseline_error`` or ``robust_error``; one whose analysis
    failed is a non-converged row carrying the error."""
    if isinstance(analysed, Exception):
        return {"converged": False, "error": str(analysed)}
    row = {"converged": True}
    for worst, (zeta, error, cls, freq) in zip(analysed, _LOOP_FIELDS):
        if isinstance(worst, NoOscillatoryMode):
            row[error] = str(worst)
            continue
        row[zeta] = 100 * worst.damping_ratio
        if ties is not None:
            row[cls] = worst.classification
            if freq:
                row[freq] = worst.frequency_hz
    if ties is not None:
        row["tie_flow_mw"] = tie_flow_mw(case, flow, ties)
    return row


def _baseline_text(row: dict, name: str) -> str:
    """The baseline damping of a converged row as the sweep and scan print it."""
    if "zeta_baseline_pct" in row:
        return f"{name} {row['zeta_baseline_pct']:6.2f}%"
    return f"{name} none in the band"


def _csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    """The rows as CSV over `columns`, one line per row: a number is written
    as the JSON writes it, a flag as ``True``/``False``, a text or a list of
    numbers as itself and a value a row lacks as an empty field.  A field
    that holds a comma, a double quote or a newline is quoted (RFC 4180)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([r.get(c, "") for c in columns] for r in rows)
    return out.getvalue()


# the columns of a mode table's CSV: the keys of `_mode_dict`
_MODE_COLUMNS = ("re", "im", "freq_hz", "damping_pct", "class", "top_participant")


def _mode_dict(m) -> dict:
    return {"re": m.eigenvalue.real, "im": m.eigenvalue.imag,
            "freq_hz": m.frequency_hz, "damping_pct": 100 * m.damping_ratio,
            "class": m.classification, "top_participant": m.top_participant}


def cmd_pf(args, case: PowerSystemCase, text: str) -> int:
    sol = solve_power_flow(case)
    results = {
        "iterations": sol.iterations,
        "max_mismatch": sol.max_mismatch,
        "tie_flow_mw": tie_flow_mw(case, sol, two_areas(case)[1]),
        "buses": [{"bus": b, "vm_pu": sol.vm[i], "va_rad": sol.va[i],
                   "p_pu": sol.p[i], "q_pu": sol.q[i]}
                  for i, b in enumerate(sol.bus_ids)],
    }
    if args.out:
        write_report(args.out, "pf", _config(args), results, text,
                     {"pf.csv": _csv(("bus", "vm_pu", "va_rad", "p_pu", "q_pu"),
                                     results["buses"])})
    print(f"power flow converged in {sol.iterations} iterations "
          f"(mismatch {sol.max_mismatch:.3e}); tie flow "
          f"{results['tie_flow_mw']:.1f} MW")
    return EXIT_OK


def cmd_modal(args, case: PowerSystemCase, text: str) -> int:
    sol, eq = _pipeline(case)
    controllers = _controllers_for(case, args)
    areas, ties = two_areas(case)
    table = classify_table(_mode_table(eq, controllers), eq.layout.speed_indices, areas)
    try:
        worst = min_damping(table, *args.band)
    except NoOscillatoryMode:
        worst = None
    results = {
        "tie_flow_mw": tie_flow_mw(case, sol, ties),
        "controllers": controllers.to_dict() if controllers else None,
        "modes": [_mode_dict(m) for m in table],
        "min_damping": _mode_dict(worst) if worst is not None else None,
    }
    if args.out:
        write_report(args.out, "modal", _config(args), results, text,
                     {"modes.csv": _csv(_MODE_COLUMNS, results["modes"])})
    if worst is None:
        print("no oscillatory mode inside the band")
    else:
        print(f"minimum-damping mode: {worst.frequency_hz:.3f} Hz, "
              f"zeta {100 * worst.damping_ratio:.2f}%, {worst.classification}")
    return EXIT_OK


def cmd_design(args, case: PowerSystemCase, text: str) -> int:
    _, eq = _pipeline(case)
    subset = _subset_from_arg(case, args.controllers)    # never 'none' here
    ctrl, res = design_controllers(case, eq, subset=subset,
                                   beta_bar=args.beta_bar,
                                   bound_scale=args.bound_scale)
    table = classify_table(_mode_table(eq, ctrl), eq.layout.speed_indices,
                           two_areas(case)[0])
    worst = min_damping(table, *args.band)
    results = {
        "synthesis": res.summary(),
        "controllers": ctrl.to_dict(),
        "closed_loop_modes": [_mode_dict(m) for m in table],
        "closed_loop_min_damping": _mode_dict(worst),
    }
    if args.out:
        results["sdpa_export"] = "synthesis.dat-s"
        csvs = {"closed_loop_modes.csv": _csv(_MODE_COLUMNS, results["closed_loop_modes"]),
                "synthesis.dat-s": export_sdpa(res.solution.sdp)}
        write_report(args.out, "design", _config(args), results, text, csvs)
    print(f"design {res.solution.status}: gamma "
          f"{[round(v, 3) for v in res.by_machine('gamma').values()]}, closed-loop min zeta "
          f"{100 * worst.damping_ratio:.2f}% @ {worst.frequency_hz:.3f} Hz")
    return EXIT_OK


def cmd_simulate(args, case: PowerSystemCase, text: str) -> int:
    scenario = parse_scenario(Path(args.scenario).read_text())
    channels = args.channels.split(",") if args.channels else \
        [f"delta_rel:{case.machines[-1].id}:{case.machines[0].id}"] + \
        [f"omega:{m}" for m in case.machine_index]
    rings = [ch for ch in channels if ch.startswith("delta_rel")]
    check_channels(case, channels)
    try:
        check_ringdown_band(args.band, scenario.dt)
        readable = True
    except ScenarioError:
        # a band given for a ringdown is refused before the run, the default
        # one at a dt too coarse for it reads no window.  argparse keeps the
        # default object itself: a band given with --band is another object,
        # even with the default's values.
        if rings and args.band is not DEFAULT_BAND:
            raise
        readable = False
    controllers = _controllers_for(case, args)
    result = simulate(case, controllers, scenario)
    # one ringdown window per event segment: from t = 0, or from the settling
    # time after an event, to the next event or the end.  A window too short
    # or without a mode in the band gets no entry; a diverged trace has none.
    times = [ev["time"] for ev in result.event_log]
    windows = list(zip([0.0] + [t + _RINGDOWN_SETTLE_S for t in times],
                       times + [scenario.duration])) if readable else []
    ring = {}
    for ch in ([] if result.divergent else rings):
        series, ring[ch] = measure(result, ch), []
        for start, end in windows:
            in_window = (result.time >= start - 1e-9) & (result.time <= end + 1e-9)
            try:
                est = ringdown_damping(series[in_window], scenario.dt, tuple(args.band))
            except ValueError:
                continue
            ring[ch].append({"start_s": start, "end_s": end, **est})
    results = {
        "divergent": result.divergent,
        "divergence_time": result.divergence_time,
        "dt": scenario.dt,
        "duration": scenario.duration,
        "event_log": result.event_log,
        "ringdown": ring,
        "channels": channels,
        "final_state": {lbl: float(v) for lbl, v in
                        zip(result.layout.labels, result.states[-1])},
    }
    if args.out:
        write_report(args.out, "simulate", _config(args), results, text,
                     {"trajectory.csv": result.to_csv(channels)})
    if result.divergent:
        print(f"simulation diverged at t = {result.divergence_time:.3f} s")
        return EXIT_DIVERGED
    print(f"simulation completed ({scenario.duration:.1f} s, dt {scenario.dt} s)")
    return EXIT_OK


def cmd_sweep(args, case: PowerSystemCase, text: str) -> int:
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
    except ValueError as exc:
        raise CaseError(f"--fractions takes comma-separated numbers, not "
                        f"{args.fractions!r}") from exc
    if any(not (math.isfinite(f) and f > 0) for f in fractions):
        raise CaseError(f"stress fractions must be positive and finite, not "
                        f"{args.fractions!r}")
    # stress scaling keeps every branch and device: one corridor, one device part
    (areas, ties), model = two_areas(case), device_model(case)
    controllers = _controllers_for(case, args)
    fractions = sorted(fractions)
    cases = [scale_stress(case, frac) for frac in fractions]
    flows = solve_power_flows(cases)
    analysed = _analysed_points(cases, flows, controllers, args.band, model, areas)
    rows = [{"fraction": frac, **_point_row(point, flow, result, ties)}
            for frac, point, flow, result in zip(fractions, cases, flows, analysed)]
    results = {"rows": rows,
               "controllers": controllers.to_dict() if controllers else None}
    if args.out:
        table = _csv(("fraction", "converged", "tie_flow_mw", "zeta_baseline_pct",
                      "zeta_robust_pct", "freq_hz", "mode_class", "robust_mode_class",
                      "baseline_error", "robust_error", "error"), rows)
        write_report(args.out, "sweep", _config(args), results, text,
                     {"sweep.csv": table})
    for r in rows:
        if r["converged"]:
            extra = f" robust {r['zeta_robust_pct']:.2f}%" if "zeta_robust_pct" in r else ""
            print(f"x{r['fraction']:.4f}: tie {r['tie_flow_mw']:7.1f} MW  "
                  f"{_baseline_text(r, 'zeta')}{extra}")
        else:
            print(f"x{r['fraction']:.4f}: non-convergent")
    return EXIT_OK


def cmd_scan_n1(args, case: PowerSystemCase, text: str) -> int:
    model = device_model(case)      # a trip keeps every device: one device part
    controllers = _controllers_for(case, args)
    # An outage that islands buses names those cut off from the slack bus and
    # runs no power flow.  Any other is keyed by its in-service branches with
    # the circuit numbers cleared, the only records its network is built
    # from: outages that leave the same network, as either of two identical
    # parallel circuits does, share one analysis, and each gets a copy of the
    # row.  The distinct networks' power flows are solved as one stack.
    keys = sorted(br.key() for br in case.in_service_branches())
    outages, networks = [], {}
    for key in keys:
        tripped = apply_line_trip(case, *key)
        islanded = unreachable_buses(tripped)
        if islanded:
            outages.append({"converged": False, "islanded": sorted(islanded)})
            continue
        network = tuple(replace(br, circuit=0) for br in tripped.in_service_branches())
        networks.setdefault(network, tripped)
        outages.append(network)
    points = list(networks.values())
    flows = solve_power_flows(points)
    analysed = {network: _point_row(point, flow, result) for network, point, flow, result
                in zip(networks, points, flows,
                       _analysed_points(points, flows, controllers, args.band, model))}
    rows = [{"branch": list(key),
             **(outage if isinstance(outage, dict) else analysed[outage])}
            for key, outage in zip(keys, outages)]
    n_conv = sum(1 for r in rows if r["converged"])
    n_island = sum(1 for r in rows if "islanded" in r)
    results = {"rows": rows, "branches_total": len(rows),
               "branches_converged": n_conv,
               "controllers": controllers.to_dict() if controllers else None}
    if args.out:
        table = _csv(("from", "to", "circuit", "converged", "zeta_baseline_pct",
                      "zeta_robust_pct", "islanded", "baseline_error", "robust_error",
                      "error"),
                     [dict(zip(("from", "to", "circuit"), r["branch"]), **r) for r in rows])
        write_report(args.out, "scan_n1", _config(args), results, text,
                     {"scan_n1.csv": table})
    print(f"scanned {len(rows)} branches, {n_conv} converged, {n_island} islanded")
    for r in rows:
        if r["converged"]:
            extra = f" robust {r['zeta_robust_pct']:6.2f}%" if "zeta_robust_pct" in r else ""
            print(f"  {r['branch'][0]}-{r['branch'][1]} c{r['branch'][2]}: "
                  f"{_baseline_text(r, 'baseline')}{extra}")
    return EXIT_OK


def cmd_export_sdpa(args, case: PowerSystemCase, text: str) -> int:
    _, eq = _pipeline(case)
    syn = synthesis_lmi(case, eq, subset=_subset_from_arg(case, args.controllers),
                        beta_bar=args.beta_bar, bound_scale=args.bound_scale)
    sdpa_text = export_sdpa(syn.problem)
    out = Path(args.out or ".") / "synthesis.dat-s"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(sdpa_text)
    print(f"wrote {out}")
    return EXIT_OK


def _check_options(args) -> None:
    """Settle --controllers and refuse flag values no command can run with.

    The commands that design gains (design, export-sdpa) read --controllers
    'none' as its default 'all', and need --beta-bar finite and at least 1
    and --bound-scale finite and positive.  The others take their gains from
    --gains: --controllers defaults to 'all' with it and to 'none' without,
    and any other value without --gains, or --gains with an explicit 'none',
    is an input error.  --band needs finite edges with 0 <= LO < HI."""
    if hasattr(args, "band"):
        lo, hi = args.band
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
            raise CaseError(f"--band needs finite edges with 0 <= LO < HI, not {lo} {hi}")
    if not hasattr(args, "controllers"):
        return
    if hasattr(args, "beta_bar"):           # a command that designs its gains
        if args.controllers in (None, "none"):
            args.controllers = "all"
        if not (math.isfinite(args.beta_bar) and args.beta_bar >= 1.0):
            raise CaseError(f"--beta-bar must be finite and at least 1, not {args.beta_bar}")
        if not (math.isfinite(args.bound_scale) and args.bound_scale > 0.0):
            raise CaseError(f"--bound-scale must be finite and positive, not {args.bound_scale}")
    elif args.controllers is None:
        args.controllers = "all" if args.gains else "none"
    elif args.gains and args.controllers == "none":
        raise CaseError("--gains puts its controllers in service; "
                        "it cannot be combined with --controllers none")
    elif not args.gains and args.controllers != "none":
        raise CaseError(f"--controllers {args.controllers} needs --gains: gains are "
                        "designed by `oscdamp design`, whose report --gains reads")


def _config(args) -> dict:
    # the output directory does not influence any computed number
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oscdamp",
                                description="turbine-governor damping control toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, band=True, controllers="gains"):
        """A subcommand with the flags its function reads: `controllers` is
        None for a command without controllers, "design" for one that
        designs their gains and "gains" for one that reads them from
        --gains."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--case", required=True, help="case JSON file")
        sp.add_argument("--out", default=None, help="output directory for reports")
        if band:
            sp.add_argument("--band", type=float, nargs=2, default=DEFAULT_BAND,
                            metavar=("LO", "HI"), help="oscillatory band (Hz)")
        if controllers == "design":
            sp.add_argument("--controllers", default=None,
                            help="'all' or comma-separated machine ids to design "
                                 "gains for (default: all)")
            sp.add_argument("--beta-bar", type=float, default=1.0, dest="beta_bar")
            sp.add_argument("--bound-scale", type=float,
                            default=DEFAULT_BOUND_SCALE, dest="bound_scale")
        elif controllers:
            sp.add_argument("--controllers", default=None,
                            help="'all', 'none', or comma-separated machine ids "
                                 "whose --gains rows are in service (default: all "
                                 "with --gains, none without; any but none needs "
                                 "--gains)")
            sp.add_argument("--gains", default=None,
                            help="reuse gains from a design report JSON")
        sp.set_defaults(func=func)
        return sp

    command("pf", cmd_pf, "solve the AC power flow", band=False, controllers=None)
    command("modal", cmd_modal, "small-signal modal analysis")
    command("design", cmd_design, "synthesize decentralized damping gains",
            controllers="design")
    sp = command("simulate", cmd_simulate, "nonlinear time-domain simulation")
    sp.add_argument("--scenario", required=True, help="scenario JSON file")
    sp.add_argument("--channels", default=None,
                    help="comma-separated output channels")
    sp = command("sweep", cmd_sweep, "stress sweep of minimum damping vs tie flow")
    sp.add_argument("--fractions", required=True,
                    help="comma-separated stress fractions")
    command("scan-n1", cmd_scan_n1, "single-line-outage damping scan")
    command("export-sdpa", cmd_export_sdpa, "write the synthesis LMI in SDPA format",
            band=False, controllers="design")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.func(args, *_load_case(args.case))
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
