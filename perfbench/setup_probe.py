"""One set-up as a fresh process pays it: import the CLI, load and validate the
case, load the pinned gains.  Prints the time of each part as JSON.

Usage: python3 setup_probe.py CASE.json GAINS.json   (with src/ on PYTHONPATH)
"""

import json
import sys
import time


def main() -> None:
    case_path, gains_path = sys.argv[1:3]
    t0 = time.perf_counter()
    import oscdamp.cli  # noqa: F401 - the import is what is timed
    from oscdamp.case import parse_case, validate_case
    from oscdamp.synthesis import ControllerSet
    t1 = time.perf_counter()
    with open(case_path) as fh:
        case = parse_case(fh.read())
    if validate_case(case):
        raise SystemExit("bundled case failed validation")
    t2 = time.perf_counter()
    with open(gains_path) as fh:
        ControllerSet.from_dict(json.load(fh)["results"]["controllers"])
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "case_s": t2 - t1, "gains_s": t3 - t2}))


if __name__ == "__main__":
    main()
