"""Write the reports of a fixed set of CLI commands, for a byte-identity check
between two checkouts, and the record that the test suite compares them to.

Usage (from anywhere):

    python3 tools/report_set.py OUT

`-h` or `--help` prints this text, and any other OUT that starts with `-`
is refused with exit code 2.

Each command of `COMMANDS` runs in a fresh process of this checkout's
package, with one BLAS thread and OUT as its working directory.  The
bundled case, its copy with uneven 101-13 circuits (`UNEVEN`), the gains
pinned in ``perfbench/reference_gains.json`` and the scenarios of
`SCENARIOS` are first written into ``OUT/inputs`` (`write_inputs`) and
passed by relative path, so that a report's ``config`` and ``fingerprint``
do not depend on where OUT or the checkout is.  Command NAME writes its
report into ``OUT/NAME``, with its standard output in ``stdout.txt`` and its
exit code in ``exit_code.txt``; the ``metadata`` block (the time of writing)
is stripped from every JSON report.  Two checkouts give the same bits when

    diff -r OUT_A OUT_B

prints nothing.

``OUT/report_set.json`` holds every command's record (`record`): its exit
code, its standard output and the files it wrote.  A copy of it is
``tests/data/report_set.json``, and ``tests/test_report_set.py`` runs the
same commands in its own process and compares their records to that copy:
strings, integers, flags and exit codes exactly, floats within a relative
tolerance of 1e-8 (100 times below the 1e-6 move it must catch) plus a
floor of 1e-11, for a CSV cell at least 1e-9 of the largest magnitude in
its column, which the roundoff-level entries need on another BLAS build.
The two designs (`EXIT_CODE_ONLY`) are pinned by their exit codes alone
until the SDP solve returns one point to a stated tolerance, and
bit-identity stays with ``diff -r``.  A change that moves a
reported number regenerates the record,

    python3 tools/report_set.py OUT && cp OUT/report_set.json tests/data/

and states each moved number in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASE = ROOT / "src" / "oscdamp" / "data" / "two_area.json"
GAINS = ROOT / "perfbench" / "reference_gains.json"

# the README's 30 s remedial action: trip a tie circuit, damp the swing later
REMEDIAL = {
    "duration": 30.0, "dt": 0.005, "initial_active": "none",
    "events": [
        {"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1},
        {"time": 10.0, "type": "activate_controllers", "machines": "all"},
    ],
}
# every event kind, two of them off the time grid, and a subset of controllers
EVENTS = {
    "duration": 6.0, "dt": 0.01, "initial_active": "none",
    "events": [
        {"time": 0.5037, "type": "step_load", "bus": 4, "dp_mw": 50.0, "dq_mvar": 10.0},
        {"time": 1.0023, "type": "trip_line", "from": 3, "to": 101, "circuit": 1},
        {"time": 2.0, "type": "activate_controllers", "machines": [2, 3]},
        {"time": 4.0, "type": "deactivate_controllers", "machines": [2]},
    ],
}
# a small load step has settled by 8 s: the activation takes the settled state
SETTLED = {
    "duration": 9.0, "dt": 0.01, "initial_active": "none",
    "events": [
        {"time": 1.0, "type": "step_load", "bus": 4, "dp_mw": 0.01},
        {"time": 8.0, "type": "activate_controllers", "machines": "all"},
    ],
}
SCENARIOS = {"remedial.json": REMEDIAL, "events.json": EVENTS, "settled.json": SETTLED}

# the bundled case with 101-13 circuit 2 at another reactance: the N-1 scan
# must analyse its two 101-13 outages apart, as their networks differ
UNEVEN = ("two_area_uneven.json", (101, 13, 2), 0.12)

_CASE = ["--case", "inputs/two_area.json"]
_PINNED = ["--controllers", "all", "--gains", "inputs/gains.json"]

# (name, arguments): the report of command NAME goes to OUT/NAME
COMMANDS = [
    ("pf", ["pf", *_CASE]),
    ("modal_open", ["modal", *_CASE]),
    ("modal_gains", ["modal", *_CASE, *_PINNED]),
    ("design", ["design", *_CASE]),
    ("design_2_3", ["design", *_CASE, "--controllers", "2,3"]),
    ("export_sdpa", ["export-sdpa", *_CASE]),
    ("sweep", ["sweep", *_CASE, "--fractions", "0.9,0.95,1.0,1.05,1.1", *_PINNED]),
    # the power flow of the 1.15 point diverges: converged and non-convergent rows
    ("sweep_wide", ["sweep", *_CASE, "--fractions", "0.5,1.0,1.15", *_PINNED]),
    ("sweep_open", ["sweep", *_CASE, "--fractions", "0.95,1.05"]),
    # one stacked power flow whose points stop after 5, 6 and 7 iterations and
    # two that hit the iteration cap
    ("sweep_dense", ["sweep", *_CASE, "--fractions", "0.5,0.9,1.0,1.1,1.12,1.15,1.2",
                     *_PINNED]),
    ("scan_n1", ["scan-n1", *_CASE, *_PINNED]),
    ("scan_n1_2_3", ["scan-n1", *_CASE, "--controllers", "2,3",
                     "--gains", "inputs/gains.json"]),
    ("scan_n1_uneven", ["scan-n1", "--case", f"inputs/{UNEVEN[0]}", *_PINNED]),
    ("simulate_remedial", ["simulate", *_CASE, "--scenario", "inputs/remedial.json",
                           *_PINNED, "--channels",
                           "delta_rel:3:1,omega:1,omega:2,omega:3,omega:4"]),
    ("simulate_events", ["simulate", *_CASE, "--scenario", "inputs/events.json",
                         *_PINNED, "--channels",
                         "delta_rel:3:1,pe:1,pm:2,u:2,u:3,vm:4,vm:101,"
                         "flow:3:101:1,flow:3:101:2,xe:3"]),
    ("simulate_settled", ["simulate", *_CASE, "--scenario", "inputs/settled.json",
                          *_PINNED, "--channels", "delta_rel:3:1,u:1,vm:14"]),
]

# the record holds only the exit code of these: summation order and machine
# order move the gains the SDP solve returns by up to 0.2 %
EXIT_CODE_ONLY = ("design", "design_2_3")
# the record keeps every n-th row of a command's trajectory (the remedial one
# has 6001 rows, 0.54 MB)
TRAJECTORY_STRIDE = {"simulate_remedial": 10}


def uneven_case_text() -> str:
    """The bundled case with the branch `UNEVEN` names at its reactance."""
    name, key, x = UNEVEN
    doc = json.loads(CASE.read_text())
    (branch,) = [br for br in doc["branches"] if (br["from"], br["to"], br["circuit"]) == key]
    branch["x"] = x
    return json.dumps(doc, indent=2) + "\n"


def _report(path: Path) -> dict:
    """A JSON report without its `metadata` block."""
    doc = json.loads(path.read_text())
    doc.pop("metadata", None)
    return doc


def _strip_metadata(path: Path) -> None:
    """Rewrite a report without its `metadata` block, in the writer's format."""
    path.write_text(json.dumps(_report(path), indent=2, sort_keys=True) + "\n")


def write_inputs(out: Path) -> None:
    """Write the files the commands read into ``out/inputs``."""
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(CASE, inputs / "two_area.json")
    (inputs / UNEVEN[0]).write_text(uneven_case_text())
    shutil.copyfile(GAINS, inputs / "gains.json")
    for name, scenario in SCENARIOS.items():
        (inputs / name).write_text(json.dumps(scenario, indent=2) + "\n")


def record(run_dir: Path, stdout: str, exit_code: int) -> dict:
    """What the record holds of the command named ``run_dir.name``: its exit
    code, its standard output and every file it wrote into `run_dir`, a JSON
    report parsed and without its `metadata` block, any other file as its
    lines.  A command of `EXIT_CODE_ONLY` keeps its exit code alone, and a
    trajectory is kept at the stride `TRAJECTORY_STRIDE` gives its command."""
    name = run_dir.name
    if name in EXIT_CODE_ONLY:
        return {"exit_code": exit_code}
    files = {}
    for path in sorted(run_dir.iterdir()):
        if path.suffix == ".json":
            files[path.name] = _report(path)
        else:
            lines = path.read_text().splitlines()
            if path.name == "trajectory.csv":
                lines = lines[:1] + lines[1::TRAJECTORY_STRIDE.get(name, 1)]
            files[path.name] = lines
    return {"exit_code": exit_code, "stdout": stdout.splitlines(), "files": files}


def main(argv: list[str]) -> int:
    if argv in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    write_inputs(out)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    records = {}
    for name, args in COMMANDS:
        run = out / name
        if run.exists():
            shutil.rmtree(run)
        run.mkdir()
        proc = subprocess.run([sys.executable, "-m", "oscdamp.cli", *args, "--out", name],
                              cwd=out, env=env, capture_output=True, text=True)
        records[name] = record(run, proc.stdout, proc.returncode)
        (run / "stdout.txt").write_text(proc.stdout)
        (run / "exit_code.txt").write_text(f"{proc.returncode}\n")
        for report in run.glob("*.json"):
            _strip_metadata(report)
        print(f"{name}: exit {proc.returncode}", flush=True)
    (out / "report_set.json").write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
