"""The three workloads: the CLI commands one operation runs, the inputs they
get, and the checks every operation's output must pass.

Each workload writes its inputs into its own work directory.  `commands(i)`
gives the argument lists of operation i (run in order through
``oscdamp.cli.main``); `check(i)` reads what they wrote and returns the number
of operating points analysed, or raises `CheckFailed`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_GAINS = HERE / "reference_gains.json"

# the README's remedial-action scenario on the bundled case
REMEDIAL_SCENARIO = {
    "duration": 30.0,
    "dt": 0.005,
    "initial_active": "none",
    "events": [
        {"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1},
        {"time": 10.0, "type": "activate_controllers", "machines": "all"},
    ],
}
# a short run through the same code path, to load lazily imported modules
WARMUP_SCENARIO = {
    "duration": 2.0,
    "dt": 0.005,
    "initial_active": "none",
    "events": [
        {"time": 1.0, "type": "trip_line", "from": 3, "to": 101, "circuit": 1},
    ],
}
SIM_CHANNELS = "delta_rel:3:1,omega:1,omega:2,omega:3,omega:4"

# expected results and the tolerances they are checked with
DESIGN_ZETA_PCT = 27.67
DESIGN_FREQ_HZ = 1.807
# The gains move with the BLAS thread count (ROADMAP Baseline): the closed-loop
# minimum damping rounds to 27.67 % at 1.807 Hz under 1 and 2 threads alike.
# The tolerances cover that wobble and the rounding of the reference figures.
DESIGN_ZETA_TOL = 0.05
DESIGN_FREQ_TOL = 0.005
MIN_BLOCK_EIG = -1e-9
BASELINE_ZETA_PCT = 8.29
BASELINE_ZETA_TOL = 0.01
ROBUST_ZETA_FLOOR_PCT = 5.0
DECAY_RATIO_MAX = 0.25
N_BRANCHES = 14
SWEEP_DRAWN = 7            # fractions drawn per sweep, besides x1.0


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _results(path: Path) -> dict:
    return json.loads(path.read_text())["results"]


class Workload:
    name = ""

    def __init__(self, work: Path, case: Path, seed: int):
        self.work = work
        self.case = str(case)
        self.gains = str(REFERENCE_GAINS)
        self.seed = seed

    def warmup_commands(self) -> list[list[str]]:
        return self.commands(-1)

    def commands(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, i: int) -> int:
        raise NotImplementedError


class DesignBundled(Workload):
    """`design` on the paper's fixed case; the only workload that runs the SDP."""

    name = "design_bundled"

    def commands(self, i):
        return [["design", "--case", self.case, "--out", str(self.work / "design")]]

    def check(self, i):
        res = _results(self.work / "design" / "design.json")
        syn = res["synthesis"]
        _require(syn["status"] == "optimal", f"status {syn['status']}")
        _require(syn["min_block_eig"] >= MIN_BLOCK_EIG,
                 f"min block eigenvalue {syn['min_block_eig']:.3e}")
        worst = res["closed_loop_min_damping"]
        _require(abs(worst["damping_pct"] - DESIGN_ZETA_PCT) <= DESIGN_ZETA_TOL
                 and abs(worst["freq_hz"] - DESIGN_FREQ_HZ) <= DESIGN_FREQ_TOL,
                 f"closed-loop min zeta {worst['damping_pct']:.4f}% @ "
                 f"{worst['freq_hz']:.4f} Hz")
        return 1


class RemedialSim(Workload):
    """The README's 30 s remedial `simulate`: RK4 steps and simulator bookkeeping."""

    name = "remedial_sim"

    def __init__(self, work, case, seed):
        super().__init__(work, case, seed)
        self.scenario = work / "remedial.json"
        self.scenario.write_text(json.dumps(REMEDIAL_SCENARIO))
        self.warm_scenario = work / "warmup.json"
        self.warm_scenario.write_text(json.dumps(WARMUP_SCENARIO))

    def _simulate(self, scenario: Path, out: str) -> list[str]:
        return ["simulate", "--case", self.case, "--scenario", str(scenario),
                "--controllers", "all", "--gains", self.gains,
                "--channels", SIM_CHANNELS, "--out", str(self.work / out)]

    def warmup_commands(self):
        return [self._simulate(self.warm_scenario, "warmup")]

    def commands(self, i):
        return [self._simulate(self.scenario, "simulate")]

    def check(self, i):
        out = self.work / ("warmup" if i < 0 else "simulate")
        res = _results(out / "simulate.json")
        _require(not res["divergent"], f"diverged at {res['divergence_time']}")
        if i < 0:
            return 0
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        t, d31 = data[:, 0], data[:, 1]
        early = np.ptp(d31[(t >= 5.0) & (t <= 10.0)])
        late = np.ptp(d31[(t >= 20.0) & (t <= 30.0)])
        _require(early > 0.0 and late / early < DECAY_RATIO_MAX,
                 f"delta3-delta1 peak-to-peak ratio {late / early:.3e}")
        return 0


class StressScan(Workload):
    """`sweep` over seed-drawn stress fractions plus `scan-n1`: many small points."""

    name = "stress_scan"

    def __init__(self, work, case, seed):
        super().__init__(work, case, seed)
        self.rng = np.random.default_rng(seed)
        self.fractions: dict[int, list[float]] = {}

    def commands(self, i):
        drawn = np.round(self.rng.uniform(0.9, 1.1, SWEEP_DRAWN), 4)
        self.fractions[i] = sorted({1.0, *map(float, drawn)})
        common = ["--controllers", "all", "--gains", self.gains]
        return [["sweep", "--case", self.case,
                 "--fractions", ",".join(repr(f) for f in self.fractions[i]),
                 *common, "--out", str(self.work / "sweep")],
                ["scan-n1", "--case", self.case, *common,
                 "--out", str(self.work / "scan")]]

    def check(self, i):
        rows = _results(self.work / "sweep" / "sweep.json")["rows"]
        _require([r["fraction"] for r in rows] == self.fractions[i],
                 "sweep rows do not match the requested fractions")
        _require(all(r["converged"] for r in rows), "a sweep point did not converge")
        base = next(r for r in rows if r["fraction"] == 1.0)["zeta_baseline_pct"]
        _require(abs(base - BASELINE_ZETA_PCT) <= BASELINE_ZETA_TOL,
                 f"baseline zeta at x1.0 is {base:.4f}%")
        scan = _results(self.work / "scan" / "scan_n1.json")
        _require(scan["branches_total"] == N_BRANCHES,
                 f"{scan['branches_total']} of {N_BRANCHES} branches scanned")
        converged = [r for r in rows + scan["rows"] if r["converged"]]
        for r in converged:
            _require("zeta_robust_pct" in r, f"no robust damping at {r}")
            _require(r["zeta_robust_pct"] >= ROBUST_ZETA_FLOOR_PCT,
                     f"robust zeta {r['zeta_robust_pct']:.2f}% below the floor at {r}")
        return len(converged)


WORKLOADS = {w.name: w for w in (DesignBundled, RemedialSim, StressScan)}
