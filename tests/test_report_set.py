"""The report set as a gate: every command of `tools/report_set.py` runs in
this process, and each command's record must match the one in
``tests/data/report_set.json``.

Keys, list lengths, strings, integers, flags, None and exit codes must be
equal.  A float passes when |got - recorded| <= RTOL * |recorded| + floor.
Standard output, CSV and SDPA files are compared line by line and token by
token: a number as a float, any other text exactly, and a line with another
count of tokens fails.  The floor is ATOL, except for a CSV cell, whose
floor is the larger of ATOL and COLUMN_FLOOR times the largest magnitude in
its column of the recorded file.
"""

import contextlib
import copy
import csv
import io
import json
import re
from pathlib import Path

import pytest

from oscdamp import cli, simulator
from conftest import load_report_set

report_set = load_report_set()
RECORD = Path(__file__).resolve().parent / "data" / "report_set.json"
REGENERATE = ("regenerate the record with `python3 tools/report_set.py OUT` and "
              "`cp OUT/report_set.json tests/data/report_set.json`, and state each "
              "moved number in CHANGES.md")

# 100 times below the 1e-6 relative move the gate must catch.  Moving every
# load of the inputs by 1e-15 relative moves each recorded number by at most
# 1 % of its tolerance; the one exception is the mismatch of the 25th iterate
# of `sweep_dense`'s diverging x1.2 power flow, which moves by 1 % of itself
RTOL = 1e-8
# roundoff-level entries: injections at zero-injection buses (about 1e-14),
# the converged mismatch (5.6e-14), speeds at equilibrium (about 1e-15)
ATOL = 1e-11
# a trajectory or table column crosses zero with the roundoff of its scale
COLUMN_FLOOR = 1e-9

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run_report_set(monkeypatch, out: Path, names) -> dict:
    """The records of the commands NAMES, each run in this process through
    `cli.main` with OUT as the working directory, as the tool runs them."""
    report_set.write_inputs(out)
    monkeypatch.chdir(out)
    records = {}
    for name, args in report_set.COMMANDS:
        if name in names:
            (out / name).mkdir()
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([*args, "--out", name])
            records[name] = report_set.record(out / name, stdout.getvalue(), code)
    return records


def _float_differs(where: str, got: float, want: float, floor: float) -> list[str]:
    tol = RTOL * abs(want) + floor
    if got == want or abs(got - want) <= tol:
        return []
    return [f"{where}: {got!r}, recorded {want!r} (tolerance {tol:.3g})"]


def _json_differs(got, want, path: str) -> list[str]:
    if type(got) is not type(want):
        return [f"{path}: {got!r}, recorded {want!r}"]
    if isinstance(want, float):
        return _float_differs(path, got, want, ATOL)
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)}, recorded {sorted(want)}"]
        return [m for key in want
                for m in _json_differs(got[key], want[key], f"{path}.{key}" if path else key)]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} entries, recorded {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _json_differs(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r}, recorded {want!r}"]


def _text_differs(where: str, got: list[str], want: list[str], is_csv: bool) -> list[str]:
    if len(got) != len(want):
        return [f"{where}: {len(got)} lines, recorded {len(want)}"]
    if is_csv:
        got_rows, want_rows = list(csv.reader(got)), list(csv.reader(want))
        columns = want_rows[0]
    else:
        got_rows, want_rows = [[line] for line in got], [[line] for line in want]
        columns = []
    want_tokens = [[_NUMBER.split(cell) for cell in row] for row in want_rows]
    scale = {}
    for row in want_tokens if is_csv else ():
        for j, tokens in enumerate(row):
            scale[j] = max([scale.get(j, 0.0), *(abs(float(t)) for t in tokens[1::2])])
    found = []
    for i, (got_row, want_row) in enumerate(zip(got_rows, want_tokens)):
        if len(got_row) != len(want_row):
            found.append(f"{where}: line {i + 1}: {len(got_row)} cells, recorded "
                         f"{len(want_row)}")
            continue
        for j, (cell, tokens) in enumerate(zip(got_row, want_row)):
            at = f"{where}: line {i + 1}" + (f", column {columns[j]}" if is_csv else "")
            got_tokens = _NUMBER.split(cell)
            if len(got_tokens) != len(tokens) or got_tokens[::2] != tokens[::2]:
                found.append(f"{at}: {cell!r}, recorded {''.join(tokens)!r}")
                continue
            floor = max(ATOL, COLUMN_FLOOR * scale.get(j, 0.0))
            for g, w in zip(got_tokens[1::2], tokens[1::2]):
                found += _float_differs(at, float(g), float(w), floor)
    return found


def record_differs(name: str, got: dict, want: dict) -> list[str]:
    """Every difference of command NAME's record GOT from the recorded WANT,
    each naming the command, the file and the place in it."""
    if got.keys() != want.keys() or got["exit_code"] != want["exit_code"]:
        return [f"{name}: exit code {got['exit_code']}, recorded {want['exit_code']}; "
                f"record keys {sorted(got)}, recorded {sorted(want)}"]
    if "files" not in want:
        return []
    found = _text_differs(f"{name}/stdout", got["stdout"], want["stdout"], False)
    if got["files"].keys() != want["files"].keys():
        return found + [f"{name}: files {sorted(got['files'])}, recorded "
                        f"{sorted(want['files'])}"]
    for fname, doc in want["files"].items():
        where = f"{name}/{fname}"
        if isinstance(doc, dict):
            found += [f"{where}: {m}" for m in _json_differs(got["files"][fname], doc, "")]
        else:
            found += _text_differs(where, got["files"][fname], doc, fname.endswith(".csv"))
    return found


def assert_matches_record(records: dict, recorded: dict):
    found = [m for name, rec in records.items()
             for m in record_differs(name, rec, recorded[name])]
    assert not found, (f"{len(found)} differences from tests/data/report_set.json:\n"
                       + "\n".join(found[:20])
                       + f"\nIf the change is meant to move them, {REGENERATE}.")


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_report_set_matches_the_record(monkeypatch, tmp_path, recorded):
    """All commands of the report set, run in this process, give their
    recorded reports; the two designs give their exit codes."""
    names = [name for name, _ in report_set.COMMANDS]
    assert sorted(names) == sorted(recorded)
    assert_matches_record(run_report_set(monkeypatch, tmp_path, names), recorded)


@pytest.mark.parametrize("rows", [1, 7])
def test_derived_channels_within_tolerance_of_any_blocking(monkeypatch, tmp_path, recorded,
                                                           rows):
    """The derived channels (`pe`, `vm`, the branch flows, `u`) move in their
    last bits (about 6e-16 relative) with the rows per block, and the records
    stay within the gate's tolerance."""
    monkeypatch.setattr(simulator, "_DERIVED_BLOCK_ROWS", rows)
    assert_matches_record(run_report_set(monkeypatch, tmp_path,
                                         ("simulate_events", "simulate_settled")), recorded)


def _move(doc: dict, path: tuple, token: str | None = None, factor: float = 1 + 1e-6):
    """Multiply the float at PATH in DOC, or the number TOKEN in the text
    line there, by FACTOR."""
    *parents, key = path
    for p in parents:
        doc = doc[p]
    if token is None:
        doc[key] *= factor
    else:
        doc[key] = doc[key].replace(token, repr(float(token) * factor), 1)


_REFUSED = {
    "json_float": ("pf", lambda r: _move(r, ("files", "pf.json", "results", "tie_flow_mw")),
                   "pf/pf.json: results.tie_flow_mw"),
    "csv_cell": ("simulate_remedial",
                 lambda r: _move(r, ("files", "trajectory.csv", 2), "-0.45045824025"),
                 "simulate_remedial/trajectory.csv: line 3, column delta_rel:3:1"),
    "stdout_number": ("pf", lambda r: _move(r, ("stdout", 0), "399.8"), "pf/stdout: line 1"),
    "string": ("modal_open", lambda r: r["files"]["modal.json"]["results"]["min_damping"]
               .update({"class": "local"}),
               "modal_open/modal.json: results.min_damping.class"),
    "missing_key": ("sweep", lambda r: r["files"]["sweep.json"]["results"]["rows"][0]
                    .pop("tie_flow_mw"), "sweep/sweep.json: results.rows[0]: keys"),
    "extra_csv_row": ("sweep", lambda r: r["files"]["sweep.csv"]
                      .append(r["files"]["sweep.csv"][-1]), "sweep/sweep.csv: 7 lines"),
    "exit_code": ("scan_n1", lambda r: r.update({"exit_code": 3}), "scan_n1: exit code 3"),
}


@pytest.mark.parametrize("kind", _REFUSED)
def test_comparator_refuses(recorded, kind):
    """A float moved by 1e-6 relative (in a JSON report, a CSV cell or
    standard output), a changed string, a missing key, an extra CSV row and a
    changed exit code each fail, named by their place."""
    name, mutate, message = _REFUSED[kind]
    got = copy.deepcopy(recorded[name])
    mutate(got)
    found = record_differs(name, got, recorded[name])
    assert len(found) == 1 and found[0].startswith(message), found


def _moved(rec: dict, factor: float) -> dict:
    """Record REC with every float of its JSON reports and every number of its
    text times FACTOR."""
    def floats(value):
        if isinstance(value, dict):
            return {k: floats(v) for k, v in value.items()}
        if isinstance(value, list):
            return [floats(v) for v in value]
        return value * factor if isinstance(value, float) else value

    def text(lines):
        return [_NUMBER.sub(lambda m: repr(float(m.group()) * factor), line) for line in lines]

    if "files" not in rec:
        return rec
    return {**rec, "stdout": text(rec["stdout"]),
            "files": {f: floats(doc) if isinstance(doc, dict) else text(doc)
                      for f, doc in rec["files"].items()}}


def test_comparator_accepts_roundoff(recorded):
    """Every recorded float and every number in a text file moved by 1e-12
    relative passes; so does a roundoff-level CSV cell moved within its
    column's floor, though the same move of the JSON entry fails."""
    for name, rec in recorded.items():
        assert record_differs(name, _moved(rec, 1 + 1e-12), rec) == []
    got = copy.deepcopy(recorded["pf"])
    # bus 10 injects nothing: p_pu is roundoff in a column whose largest entry is 17.57
    (bus,) = [i for i, b in enumerate(got["files"]["pf.json"]["results"]["buses"])
              if b["bus"] == 10]
    assert abs(got["files"]["pf.json"]["results"]["buses"][bus]["p_pu"]) < 1e-13
    cells = got["files"]["pf.csv"][bus + 1].split(",")
    assert cells[0] == "10"
    cells[3] = "1e-9"
    got["files"]["pf.csv"][bus + 1] = ",".join(cells)
    assert record_differs("pf", got, recorded["pf"]) == []
    got["files"]["pf.json"]["results"]["buses"][bus]["p_pu"] = 1e-9
    assert record_differs("pf", got, recorded["pf"]) != []
