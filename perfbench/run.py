"""oscdamp benchmark: end-to-end and per-layer figures for the CLI workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with one client: an untimed
warm-up operation, then operations back to back through ``oscdamp.cli.main``
for about S seconds, each timed from outside and its output checked.  The
workloads are in ``workloads.py``; ``remedial_sim`` and ``stress_scan`` read
the gains pinned in ``reference_gains.json`` (the bundled-case ``design``
report of commit 1ad3c84, one BLAS thread), so their inputs do not move
when the SDP solver changes.

``--trace 0`` reports the end-to-end metrics: ``op_s``, the median time of
one operation, and ``setup_s``, the median over SETUP_SAMPLES fresh processes
of importing the CLI, loading the case and loading the pinned gains, both
rescaled to a reference host speed (see ``hostspeed.py``); and
``peak_rss_mb``.  ``--trace 1`` runs the first half of the time untraced
and the second half with spans around every layer (``spans.py``), and
reports the per-layer metrics per operation, raw wall times, the tracing
overhead, and on ``design_bundled`` the SDP size curve (``sdp_curve.py``).
Spans are written to ``.perfbench_work/<workload>-<seed>/spans.jsonl``.

BLAS runs with one thread: on a two-vCPU Xeon VM ``design`` took 1.98-2.83 s
in cold runs with the default two threads and 0.98-1.14 s with one, and the
gains depend on the thread count.  A gain from multi-threaded BLAS therefore
does not show here.  The process keeps every CPU it is given, so a change
that spreads its work over threads or processes of its own does show in
``op_s``.  The environment goes on a line starting ``env``; the last line of
standard output is the JSON result.
"""

import os

# before numpy loads: keep the BLAS thread count identical in every comparison
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CASE_FILE = SRC / "oscdamp" / "data" / "two_area.json"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

TRACED_FAILURES_MAX = 3     # traced failures in a row past the deadline that end a run


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them in `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def setup_times(case: Path, gains: Path, work: Path) -> list[dict]:
    """Set up SETUP_SAMPLES times, each in a fresh process, with the host's
    speed calibrated around each sample.

    Set-up runs on one thread, so the probes and the calibration loop share
    one CPU: the loop then describes the CPU the probe ran on.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _probe(case, gains, work, env)
    finally:
        os.sched_setaffinity(0, cpus)


def _probe(case: Path, gains: Path, work: Path, env: dict) -> list[dict]:
    samples = []
    cal = hostspeed.calibrate()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               str(case), str(gains)], cwd=work, env=env,
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            die(f"set-up probe failed:\n{proc.stderr}")
        cal_after = hostspeed.calibrate()
        ref_s = hostspeed.SpeedSampler(cal).rescale(wall, cal_after)
        samples.append({"wall_s": wall, "ref_s": ref_s,
                        **json.loads(proc.stdout.splitlines()[-1])})
        cal = cal_after
    return samples


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (numpy and scipy bundle their own)."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "oscdamp").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    from oscdamp import kernels
    return {"kernel_backend": kernels.active_backend(),
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "source_sha256": source_digest()}


def run_commands(cli, argvs: list[list[str]]) -> str | None:
    """Run one operation's commands; returns an error message or None."""
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            rc = cli.main(argv)
            if rc != 0:
                return f"oscdamp {argv[0]} exited with code {rc}"
    return None


@dataclass
class Op:
    wall_s: float      # wall time of the operation
    ref_s: float       # the same on the reference host (see hostspeed.py)
    points: int        # operating points whose modes it analysed
    traced: bool
    cal_s: float       # calibration loop time measured after it


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "oscdamp" / "cli.py").is_file() or not CASE_FILE.is_file():
        die(f"no oscdamp sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    case = work / "two_area.json"
    shutil.copyfile(CASE_FILE, case)

    probes = setup_times(case, workloads.REFERENCE_GAINS, work)

    import oscdamp.cli as cli
    import spans
    print("env " + json.dumps(environment()), flush=True)

    wl = workloads.WORKLOADS[args.workload](work, case, args.seed)
    tracer = spans.Tracer() if args.trace else None
    attempted = failed = 0
    ops: list[Op] = []

    def attempt(i: int, argvs: list[list[str]]) -> Op | None:
        """Run and check one operation; the host's speed is calibrated before
        and after it, and in an untraced run during it as well (in a traced
        run the calibration would land in the spans)."""
        nonlocal attempted, failed
        attempted += 1
        gc.collect()
        cal_before = hostspeed.calibrate()
        sampler = hostspeed.SpeedSampler(cal_before, calibrate_inside=tracer is None)
        with sampler:
            t0 = time.perf_counter()
            try:
                err = run_commands(cli, argvs)
            except Exception:
                err = traceback.format_exc()
            wall = time.perf_counter() - t0
        cal_after = hostspeed.calibrate()
        if err is None:
            try:
                return Op(wall, sampler.rescale(wall, cal_after), wl.check(i),
                          tracing, statistics.median(cal_after.values()))
            except workloads.CheckFailed as exc:
                err = f"output check failed: {exc}"
            except (OSError, ValueError, KeyError, StopIteration):
                err = traceback.format_exc()
        failed += 1
        print(f"perfbench: operation {i} failed: {err}", file=sys.stderr)
        return None

    tracing = False
    attempt(-1, wl.warmup_commands())
    start = time.perf_counter()
    i = 0
    failures_in_row = 0
    while True:
        elapsed = time.perf_counter() - start
        if tracer is not None and not tracer.installed and ops \
                and elapsed >= args.seconds / 2:
            tracer.install()
            failures_in_row = 0
        tracing = tracer is not None and tracer.installed
        # stop when another typical operation would end past the deadline;
        # a traced run also needs a traced operation, unless they keep failing
        typical = statistics.median(op.wall_s for op in ops) if ops else 0.0
        if elapsed + typical / 2 >= args.seconds \
                and (tracer is None or (ops and ops[-1].traced)
                     or (tracing and failures_in_row >= TRACED_FAILURES_MAX)):
            break
        if attempted > 3 and not ops:
            break                       # every operation fails: stop early
        if tracing:
            tracer.begin_operation(i)
        op = attempt(i, wl.commands(i))
        if op is not None:
            ops.append(op)
        failures_in_row = 0 if op is not None else failures_in_row + 1
        i += 1

    plain = [op for op in ops if not op.traced]
    op_s = statistics.median(op.ref_s for op in plain) if plain else 0.0
    setup_s = statistics.median(p["ref_s"] for p in probes)
    if tracer is None:
        metrics = {"op_s": op_s, "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = declared_units("end_to_end")
        wall_s = statistics.median(op.wall_s for op in plain) if plain else 0.0
        rate = (sum(op.points for op in plain) / sum(op.ref_s for op in plain)
                if plain else 0.0)
        label, value, unit = {"design_bundled": ("design_s", op_s, "s"),
                              "remedial_sim": ("simulate_s", op_s, "s"),
                              "stress_scan": ("points_per_s", rate, "1/s")}[args.workload]
        print(f"{args.workload}: {label} {value:.4f} {unit} on the reference host "
              f"(median of {len(plain)}; wall {wall_s:.4f} s), "
              f"setup_s {setup_s:.4f} s, peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, "
              f"ops_attempted {attempted}, ops_failed {failed}", flush=True)
    else:
        tracer.uninstall()
        tracer.write(work / "spans.jsonl")
        import sdp_curve
        from oscdamp.case import parse_case
        traced = [op for op in ops if op.traced]
        n_traced = max(1, len(traced))
        metrics = spans.layer_metrics(tracer.spans, n_traced,
                                      sum(op.points for op in traced) / n_traced)
        overhead = (statistics.median(op.ref_s for op in traced) - op_s
                    if traced and plain else 0.0)
        metrics.update({
            "cli.import_s": statistics.median(p["import_s"] for p in probes),
            "op.wall_s": statistics.median(op.wall_s for op in plain) if plain else 0.0,
            "host.cal_s": statistics.median(op.cal_s for op in ops) if ops else 0.0,
            "trace.overhead_s": overhead,
            "trace.overhead_pct": 100.0 * overhead / op_s if op_s else 0.0,
        })
        curve = sdp_curve.zero_curve()
        if args.workload == "design_bundled":
            attempted += 1
            try:
                curve = sdp_curve.size_curve(parse_case(case.read_text()))
            except RuntimeError:
                failed += 1
                print(f"perfbench: size curve failed: {traceback.format_exc()}",
                      file=sys.stderr)
        metrics.update(curve)
        units = declared_units("per_layer")
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        die(f"metrics missing from BENCHMARK.json: {undeclared}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
