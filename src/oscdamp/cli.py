"""Command-line front end: power flow, modal analysis, controller design,
simulation, stress sweeps, N-1 scans, SDPA export.

Exit codes: 0 success, 2 input error, 3 numerical failure (power flow / LMI),
4 simulation divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .case import (CaseError, PowerSystemCase, parse_case, validate_case,
                   scale_stress, apply_line_trip)
from .powerflow import (PowerFlowDiverged, KronReductionError, build_ybus,
                        solve_power_flow, kron_reduce)
from .dynamics import InitializationError, initialize_from_power_flow
from .smallsignal import (NonEquilibriumError, NoOscillatoryMode, linearize,
                          modal_analysis, classify_table, min_damping)
from .synthesis import (SynthesisError, ControllerSet, design_controllers,
                        DEFAULT_BOUND_SCALE)
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
    sol = solve_power_flow(case)
    red = kron_reduce(build_ybus(case), case, sol)
    eq = initialize_from_power_flow(case, sol, red)
    return sol, red, eq


def _subset_from_arg(case, spec: str) -> list[int] | None:
    if spec == "all":
        return None
    subset = [int(s) for s in spec.split(",")]
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


def _controllers_for(case, args, base_eq, base_red) -> ControllerSet | None:
    """Resolve --controllers/--gains into a ControllerSet (None for PSS-only)."""
    spec = getattr(args, "controllers", "none")
    if spec == "none":
        return None
    if getattr(args, "gains", None):
        doc = json.loads(Path(args.gains).read_text())
        return ControllerSet.from_dict(doc["results"]["controllers"]
                                       if "results" in doc else doc)
    ctrl, _ = design_controllers(case, base_eq, base_red,
                                 subset=_subset_from_arg(case, spec),
                                 beta_bar=args.beta_bar,
                                 bound_scale=args.bound_scale)
    return ctrl


def _modal_for(case, controllers: ControllerSet | None, areas: dict,
               band: tuple[float, float], allow_empty_band: bool = False):
    sol, red, eq = _pipeline(case)
    model = eq.model
    if controllers is not None:
        order = [controllers.machine_ids.index(m) for m in model.layout.machine_ids]
        model.gains = controllers.gains[order].copy()
        model.active = np.any(model.gains != 0.0, axis=1).astype(float)
        model.xref = eq.x5.copy()
    a_full = linearize(model, eq.state)
    table = classify_table(modal_analysis(a_full, model.layout.labels),
                           model.layout.speed_indices, areas,
                           model.layout.machine_ids)
    try:
        worst = min_damping(table, band[0], band[1])
    except NoOscillatoryMode:
        if not allow_empty_band:
            raise
        worst = None
    return sol, table, worst


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
    areas = machine_areas(case)
    _, red0, eq0 = _pipeline(case)
    controllers = _controllers_for(case, args, eq0, red0)
    sol, table, worst = _modal_for(case, controllers, areas, args.band,
                                   allow_empty_band=True)
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
    _, red, eq = _pipeline(case)
    subset = _subset_from_arg(case, args.controllers)    # main() maps none to all
    ctrl, res = design_controllers(case, eq, red, subset=subset,
                                   beta_bar=args.beta_bar,
                                   bound_scale=args.bound_scale)
    areas = machine_areas(case)
    _, table, worst = _modal_for(case, ctrl, areas, args.band)
    results = {
        "synthesis": res.summary(),
        "controllers": ctrl.to_dict(),
        "closed_loop_modes": [_mode_dict(m) for m in table],
        "closed_loop_min_damping": _mode_dict(worst),
    }
    csvs = {"closed_loop_modes.csv": table.to_csv()}
    if args.out:
        sdpa_text = export_sdpa(res.problem)
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
    _, red0, eq0 = _pipeline(case)
    controllers = _controllers_for(case, args, eq0, red0)
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
    fractions = [float(f) for f in args.fractions.split(",")]
    if not fractions or any(f <= 0 for f in fractions):
        raise CaseError("stress fractions must be positive")
    areas = machine_areas(case)
    _, red0, eq0 = _pipeline(case)
    controllers = _controllers_for(case, args, eq0, red0)

    def point(frac: float) -> dict:
        stressed = scale_stress(case, frac)
        row = {"fraction": frac}
        try:
            sol, table, worst = _modal_for(stressed, None, areas, args.band)
            row.update(converged=True, tie_flow_mw=tie_flow_mw(stressed, sol),
                       zeta_baseline_pct=100 * worst.damping_ratio,
                       mode_class=worst.classification,
                       freq_hz=worst.frequency_hz)
        except NUMERIC_ERRORS as exc:
            row.update(converged=False, error=str(exc))
            return row
        if controllers is not None:
            try:
                _, _, worst_c = _modal_for(stressed, controllers, areas, args.band)
                row["zeta_robust_pct"] = 100 * worst_c.damping_ratio
                row["robust_mode_class"] = worst_c.classification
            except NUMERIC_ERRORS as exc:
                row["robust_error"] = str(exc)
        return row

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        rows = list(pool.map(point, fractions))
    rows.sort(key=lambda r: r["fraction"])
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
    _, red0, eq0 = _pipeline(case)
    controllers = _controllers_for(case, args, eq0, red0)
    branches = [br.key() for br in case.in_service_branches()]

    def point(key) -> dict:
        f, t, c = key
        row = {"branch": list(key)}
        tripped = apply_line_trip(case, f, t, c)
        try:
            _, _, worst = _modal_for(tripped, None, areas, args.band)
            row.update(converged=True, zeta_baseline_pct=100 * worst.damping_ratio)
        except NUMERIC_ERRORS as exc:
            row.update(converged=False, error=str(exc))
            return row
        if controllers is not None:
            try:
                _, _, worst_c = _modal_for(tripped, controllers, areas, args.band)
                row["zeta_robust_pct"] = 100 * worst_c.damping_ratio
            except NUMERIC_ERRORS as exc:
                row["robust_error"] = str(exc)
        return row

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        rows = list(pool.map(point, branches))
    rows.sort(key=lambda r: tuple(r["branch"]))
    n_conv = sum(1 for r in rows if r["converged"])
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
    print(f"scanned {len(rows)} branches, {n_conv} converged")
    for r in rows:
        if r["converged"]:
            extra = f" robust {r.get('zeta_robust_pct', float('nan')):6.2f}%" \
                if "zeta_robust_pct" in r else ""
            print(f"  {r['branch'][0]}-{r['branch'][1]} c{r['branch'][2]}: "
                  f"baseline {r['zeta_baseline_pct']:6.2f}%{extra}")
    return EXIT_OK


def cmd_export_sdpa(args) -> int:
    case, text = _load_case(args.case)
    _, red, eq = _pipeline(case)
    subset = _subset_from_arg(case, "all" if args.controllers == "none"
                              else args.controllers)
    _, res = design_controllers(case, eq, red, subset=subset,
                                beta_bar=args.beta_bar,
                                bound_scale=args.bound_scale)
    sdpa_text = export_sdpa(res.problem)
    out = Path(args.out or ".") / "synthesis.dat-s"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(sdpa_text)
    print(f"wrote {out}")
    return EXIT_OK


def _config(args) -> dict:
    # the output directory does not influence any computed number
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oscdamp",
                                description="turbine-governor damping control toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, controllers=True):
        sp.add_argument("--case", required=True, help="case JSON file")
        sp.add_argument("--out", default=None, help="output directory for reports")
        sp.add_argument("--band", type=float, nargs=2, default=(0.1, 3.0),
                        metavar=("LO", "HI"), help="oscillatory band (Hz)")
        sp.add_argument("--workers", type=int, default=1)
        if controllers:
            sp.add_argument("--controllers", default="none",
                            help="'all', 'none', or comma-separated machine ids")
            sp.add_argument("--gains", default=None,
                            help="reuse gains from a design report JSON")
            sp.add_argument("--beta-bar", type=float, default=1.0, dest="beta_bar")
            sp.add_argument("--bound-scale", type=float,
                            default=DEFAULT_BOUND_SCALE, dest="bound_scale")

    sp = sub.add_parser("pf", help="solve the AC power flow")
    common(sp, controllers=False)
    sp.set_defaults(func=cmd_pf)

    sp = sub.add_parser("modal", help="small-signal modal analysis")
    common(sp)
    sp.set_defaults(func=cmd_modal)

    sp = sub.add_parser("design", help="synthesize decentralized damping gains")
    common(sp)
    sp.set_defaults(func=cmd_design)

    sp = sub.add_parser("simulate", help="nonlinear time-domain simulation")
    common(sp)
    sp.add_argument("--scenario", required=True, help="scenario JSON file")
    sp.add_argument("--channels", default=None,
                    help="comma-separated output channels")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="stress sweep of minimum damping vs tie flow")
    common(sp)
    sp.add_argument("--fractions", required=True,
                    help="comma-separated stress fractions")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("scan-n1", help="single-line-outage damping scan")
    common(sp)
    sp.set_defaults(func=cmd_scan_n1)

    sp = sub.add_parser("export-sdpa", help="write the synthesis LMI in SDPA format")
    common(sp)
    sp.set_defaults(func=cmd_export_sdpa)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", "") == "design" and args.controllers == "none":
        args.controllers = "all"
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
