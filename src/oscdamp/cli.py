"""Command-line front end: power flow, modal analysis, controller design,
simulation, stress sweeps, N-1 scans, SDPA export.

Exit codes: 0 success, 2 input error, 3 numerical failure (power flow / LMI),
4 simulation divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .case import (CaseError, PowerSystemCase, parse_case, validate_case,
                   scale_stress, apply_line_trip, unreachable_buses)
from .powerflow import (PowerFlowDiverged, KronReductionError, solve_power_flow,
                        load_admittances, kron_reduce)
from .dynamics import InitializationError, initialize_from_power_flow
from .smallsignal import (NonEquilibriumError, NoOscillatoryMode, linearize,
                          closed_loop_matrix, modal_analysis, classify_table,
                          min_damping)
from .synthesis import (SynthesisError, ControllerSet, design_controllers,
                        synthesis_lmi, DEFAULT_BOUND_SCALE)
from .simulator import (ScenarioError, parse_scenario, simulate, measure,
                        ringdown_damping)
from .lmi import LmiError, export_sdpa
from .areas import machine_areas, tie_flow_mw
from .report import write_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_DIVERGED = 4

INPUT_ERRORS = (CaseError, ScenarioError, FileNotFoundError, json.JSONDecodeError)
NUMERIC_ERRORS = (PowerFlowDiverged, KronReductionError, InitializationError,
                  NonEquilibriumError, NoOscillatoryMode, SynthesisError, LmiError)


def _load_case(path: str) -> tuple[PowerSystemCase, str]:
    text = Path(path).read_text()
    case = parse_case(text)
    problems = validate_case(case)
    if problems:
        raise CaseError("case failed validation:\n  " + "\n  ".join(problems))
    return case, text


def _pipeline(case: PowerSystemCase):
    """The operating point of a case: its power flow, and the equilibrium on
    the network reduced with the loads frozen at the solved voltages."""
    sol = solve_power_flow(case)
    eq = initialize_from_power_flow(
        case, sol, kron_reduce(case, load_admittances(case, sol)))
    return sol, eq


def _subset_from_arg(case, spec: str) -> list[int] | None:
    if spec == "all":
        return None
    try:
        subset = [int(s) for s in spec.split(",")]
    except ValueError as exc:
        raise CaseError("--controllers takes 'all', 'none' or comma-separated "
                        f"machine ids, not {spec!r}") from exc
    governed = {m.id for m in case.machines
                if case.governor_for(m.id) is not None}
    machine_ids = {m.id for m in case.machines}
    for mid in subset:
        if mid not in machine_ids:
            raise CaseError(f"--controllers names unknown machine {mid}")
        if mid not in governed:
            raise CaseError(f"machine {mid} has no steam governor and cannot "
                            "host a damping controller")
    return subset


def _controllers_for(case, args, eq=None) -> ControllerSet | None:
    """Resolve --controllers/--gains into a ControllerSet (None for PSS-only).

    Designing needs the base operating point: pass it as `eq` when the
    caller has one; otherwise it is built here, and only then."""
    if args.controllers == "none":
        return None
    if args.gains:
        doc = json.loads(Path(args.gains).read_text())
        ctrl = ControllerSet.from_dict(doc["results"]["controllers"]
                                       if "results" in doc else doc)
        ctrl.gains_for(tuple(m.id for m in case.machines))    # a row for every machine
        return ctrl
    if eq is None:
        _, eq = _pipeline(case)
    ctrl, _ = design_controllers(case, eq,
                                 subset=_subset_from_arg(case, args.controllers),
                                 beta_bar=args.beta_bar,
                                 bound_scale=args.bound_scale)
    return ctrl


def _modal_for(eq, areas: dict, controllers: ControllerSet | None = None,
               open_loop: bool = True):
    """Mode tables at a built operating point: the open-loop one when
    `open_loop`, and the closed-loop one when controllers are given; each is
    None otherwise.  The point is linearized once; the closed-loop matrix is
    derived from the open-loop one."""
    layout = eq.model.layout
    a_open = linearize(eq)

    def table(a):
        return classify_table(modal_analysis(a, layout.labels),
                              layout.speed_indices, areas, layout.machine_ids)

    open_table = table(a_open) if open_loop else None
    if controllers is None:
        return open_table, None
    a_closed = closed_loop_matrix(a_open, eq.model.plan,
                                  controllers.gains_for(layout.machine_ids))
    return open_table, table(a_closed)


def _point_row(case, controllers, areas: dict, band, detail: bool) -> dict:
    """Baseline and, with controllers, robust minimum damping at one analysed
    operating point of a sweep (`detail`: also tie flow, frequency and mode
    classes) or of an N-1 scan."""
    try:
        sol, eq = _pipeline(case)
        open_table, closed_table = _modal_for(eq, areas, controllers)
        worst = min_damping(open_table, *band)
    except NUMERIC_ERRORS as exc:
        return {"converged": False, "error": str(exc)}
    row = {"converged": True, "zeta_baseline_pct": 100 * worst.damping_ratio}
    if detail:
        row.update(tie_flow_mw=tie_flow_mw(case, sol),
                   mode_class=worst.classification, freq_hz=worst.frequency_hz)
    if closed_table is not None:
        try:
            worst_c = min_damping(closed_table, *band)
        except NoOscillatoryMode as exc:
            row["robust_error"] = str(exc)
            return row
        row["zeta_robust_pct"] = 100 * worst_c.damping_ratio
        if detail:
            row["robust_mode_class"] = worst_c.classification
    return row


def _outage_row(case, controllers, areas: dict, band) -> dict:
    """One N-1 row: an outage that islands buses names those cut off from the
    slack bus and runs no power flow; any other is an analysed point."""
    islanded = unreachable_buses(case)
    if islanded:
        return {"converged": False, "islanded": sorted(islanded)}
    return _point_row(case, controllers, areas, band, detail=False)


def _mode_dict(m) -> dict:
    return {"re": m.eigenvalue.real, "im": m.eigenvalue.imag,
            "freq_hz": m.frequency_hz, "damping_pct": 100 * m.damping_ratio,
            "class": m.classification, "top_participant": m.top_participant}


def cmd_pf(args) -> int:
    case, text = _load_case(args.case)
    sol = solve_power_flow(case)
    results = {
        "iterations": sol.iterations,
        "max_mismatch": sol.max_mismatch,
        "tie_flow_mw": tie_flow_mw(case, sol),
        "buses": [{"bus": b, "vm_pu": sol.vm[i], "va_rad": sol.va[i],
                   "p_pu": sol.p[i], "q_pu": sol.q[i]}
                  for i, b in enumerate(sol.bus_ids)],
    }
    if args.out:
        write_report(args.out, "pf", _config(args), results, text,
                     {"pf.csv": sol.to_csv()})
    print(f"power flow converged in {sol.iterations} iterations "
          f"(mismatch {sol.max_mismatch:.3e}); tie flow "
          f"{results['tie_flow_mw']:.1f} MW")
    return EXIT_OK


def cmd_modal(args) -> int:
    case, text = _load_case(args.case)
    sol, eq = _pipeline(case)
    controllers = _controllers_for(case, args, eq)
    open_table, closed_table = _modal_for(eq, machine_areas(case), controllers,
                                          open_loop=controllers is None)
    table = open_table if closed_table is None else closed_table
    try:
        worst = min_damping(table, *args.band)
    except NoOscillatoryMode:
        worst = None
    results = {
        "tie_flow_mw": tie_flow_mw(case, sol),
        "controllers": controllers.to_dict() if controllers else None,
        "modes": [_mode_dict(m) for m in table],
        "min_damping": _mode_dict(worst) if worst is not None else None,
    }
    if args.out:
        write_report(args.out, "modal", _config(args), results, text,
                     {"modes.csv": table.to_csv()})
    if worst is None:
        print("no oscillatory mode inside the band")
    else:
        print(f"minimum-damping mode: {worst.frequency_hz:.3f} Hz, "
              f"zeta {100 * worst.damping_ratio:.2f}%, {worst.classification}")
    return EXIT_OK


def cmd_design(args) -> int:
    case, text = _load_case(args.case)
    _, eq = _pipeline(case)
    subset = _subset_from_arg(case, args.controllers)    # never 'none' here
    ctrl, res = design_controllers(case, eq, subset=subset,
                                   beta_bar=args.beta_bar,
                                   bound_scale=args.bound_scale)
    _, table = _modal_for(eq, machine_areas(case), ctrl, open_loop=False)
    worst = min_damping(table, *args.band)
    results = {
        "synthesis": res.summary(),
        "controllers": ctrl.to_dict(),
        "closed_loop_modes": [_mode_dict(m) for m in table],
        "closed_loop_min_damping": _mode_dict(worst),
    }
    csvs = {"closed_loop_modes.csv": table.to_csv()}
    if args.out:
        sdpa_text = export_sdpa(res.solution.sdp)
        csvs["synthesis.dat-s"] = sdpa_text
        results["sdpa_export"] = "synthesis.dat-s"
        write_report(args.out, "design", _config(args), results, text, csvs)
    print(f"design {res.solution.status}: gamma "
          f"{[round(v, 3) for v in res.gamma.values()]}, closed-loop min zeta "
          f"{100 * worst.damping_ratio:.2f}% @ {worst.frequency_hz:.3f} Hz")
    return EXIT_OK


def cmd_simulate(args) -> int:
    case, text = _load_case(args.case)
    scenario = parse_scenario(Path(args.scenario).read_text())
    controllers = _controllers_for(case, args)
    result = simulate(case, controllers, scenario)
    channels = args.channels.split(",") if args.channels else \
        [f"delta_rel:{result.machine_ids[-1]}:{result.machine_ids[0]}"] + \
        [f"omega:{m}" for m in result.machine_ids]
    ring = {}
    for ch in channels:
        if ch.startswith("delta_rel"):
            try:
                ring[ch] = ringdown_damping(measure(result, ch)[result.time >= 0.0],
                                            scenario.dt, tuple(args.band))
            except ValueError:
                pass
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


def cmd_sweep(args) -> int:
    case, text = _load_case(args.case)
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
    except ValueError as exc:
        raise CaseError(f"--fractions takes comma-separated numbers, not "
                        f"{args.fractions!r}") from exc
    if any(not f > 0 for f in fractions):
        raise CaseError("stress fractions must be positive")
    areas = machine_areas(case)
    controllers = _controllers_for(case, args)
    rows = [{"fraction": frac,
             **_point_row(scale_stress(case, frac), controllers, areas,
                          args.band, detail=True)}
            for frac in sorted(fractions)]
    results = {"rows": rows,
               "controllers": controllers.to_dict() if controllers else None}
    if args.out:
        csv = "fraction,converged,tie_flow_mw,zeta_baseline_pct,zeta_robust_pct\n"
        for r in rows:
            csv += (f"{r['fraction']},{r['converged']},"
                    f"{r.get('tie_flow_mw', '')},{r.get('zeta_baseline_pct', '')},"
                    f"{r.get('zeta_robust_pct', '')}\n")
        write_report(args.out, "sweep", _config(args), results, text,
                     {"sweep.csv": csv})
    for r in rows:
        if r["converged"]:
            extra = f" robust {r['zeta_robust_pct']:.2f}%" if "zeta_robust_pct" in r else ""
            print(f"x{r['fraction']:.4f}: tie {r['tie_flow_mw']:7.1f} MW  "
                  f"zeta {r['zeta_baseline_pct']:6.2f}%{extra}")
        else:
            print(f"x{r['fraction']:.4f}: non-convergent")
    return EXIT_OK


def cmd_scan_n1(args) -> int:
    case, text = _load_case(args.case)
    areas = machine_areas(case)
    controllers = _controllers_for(case, args)
    rows = [{"branch": list(key),
             **_outage_row(apply_line_trip(case, *key), controllers, areas, args.band)}
            for key in sorted(br.key() for br in case.in_service_branches())]
    n_conv = sum(1 for r in rows if r["converged"])
    n_island = sum(1 for r in rows if "islanded" in r)
    results = {"rows": rows, "branches_total": len(rows),
               "branches_converged": n_conv,
               "controllers": controllers.to_dict() if controllers else None}
    if args.out:
        csv = "from,to,circuit,converged,zeta_baseline_pct,zeta_robust_pct\n"
        for r in rows:
            csv += (f"{r['branch'][0]},{r['branch'][1]},{r['branch'][2]},"
                    f"{r['converged']},{r.get('zeta_baseline_pct', '')},"
                    f"{r.get('zeta_robust_pct', '')}\n")
        write_report(args.out, "scan_n1", _config(args), results, text,
                     {"scan_n1.csv": csv})
    print(f"scanned {len(rows)} branches, {n_conv} converged, {n_island} islanded")
    for r in rows:
        if r["converged"]:
            extra = f" robust {r.get('zeta_robust_pct', float('nan')):6.2f}%" \
                if "zeta_robust_pct" in r else ""
            print(f"  {r['branch'][0]}-{r['branch'][1]} c{r['branch'][2]}: "
                  f"baseline {r['zeta_baseline_pct']:6.2f}%{extra}")
    return EXIT_OK


def cmd_export_sdpa(args) -> int:
    case, text = _load_case(args.case)
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

    --controllers defaults to 'all' where gains are designed (design,
    export-sdpa, which also read 'none' as 'all') or given by --gains, and to
    'none' elsewhere; --gains with an explicit 'none' is an input error."""
    if not hasattr(args, "controllers"):
        return
    designs = args.command in ("design", "export-sdpa")
    gains = getattr(args, "gains", None)
    if gains and args.controllers == "none":
        raise CaseError("--gains puts its controllers in service; "
                        "it cannot be combined with --controllers none")
    if args.controllers is None or (designs and args.controllers == "none"):
        args.controllers = "all" if designs or gains else "none"
    if not args.beta_bar >= 1.0:
        raise CaseError(f"--beta-bar must be at least 1, not {args.beta_bar}")
    if not args.bound_scale > 0.0:
        raise CaseError(f"--bound-scale must be positive, not {args.bound_scale}")


def _config(args) -> dict:
    # the output directory does not influence any computed number
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oscdamp",
                                description="turbine-governor damping control toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, band=True, controllers=True, gains=True):
        """A subcommand with the flags its function reads."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--case", required=True, help="case JSON file")
        sp.add_argument("--out", default=None, help="output directory for reports")
        if band:
            sp.add_argument("--band", type=float, nargs=2, default=(0.1, 3.0),
                            metavar=("LO", "HI"), help="oscillatory band (Hz)")
        if controllers:
            sp.add_argument("--controllers", default=None,
                            help="'all', 'none', or comma-separated machine ids "
                                 "(default: all for design, export-sdpa and "
                                 "--gains, none otherwise)")
            sp.add_argument("--beta-bar", type=float, default=1.0, dest="beta_bar")
            sp.add_argument("--bound-scale", type=float,
                            default=DEFAULT_BOUND_SCALE, dest="bound_scale")
        if gains:
            sp.add_argument("--gains", default=None,
                            help="reuse gains from a design report JSON")
        sp.set_defaults(func=func)
        return sp

    command("pf", cmd_pf, "solve the AC power flow",
            band=False, controllers=False, gains=False)
    command("modal", cmd_modal, "small-signal modal analysis")
    command("design", cmd_design, "synthesize decentralized damping gains",
            gains=False)
    sp = command("simulate", cmd_simulate, "nonlinear time-domain simulation")
    sp.add_argument("--scenario", required=True, help="scenario JSON file")
    sp.add_argument("--channels", default=None,
                    help="comma-separated output channels")
    sp = command("sweep", cmd_sweep, "stress sweep of minimum damping vs tie flow")
    sp.add_argument("--fractions", required=True,
                    help="comma-separated stress fractions")
    command("scan-n1", cmd_scan_n1, "single-line-outage damping scan")
    command("export-sdpa", cmd_export_sdpa, "write the synthesis LMI in SDPA format",
            band=False, gains=False)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
