"""Report emission: canonical JSON (byte-stable modulo the metadata block)
plus CSV side files.  The CSV of a row table (`pf`, `modal`, `design`,
`sweep`, `scan-n1`) holds the JSON's rows: each cell is the text the JSON
writes for its value.  `simulate`'s ``trajectory.csv`` holds the channel
series at ``%.12g``, which the JSON leaves out: it keeps the final state
alone."""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path


def fingerprint(case_text: str, config: dict) -> str:
    h = hashlib.sha256()
    h.update(case_text.encode())
    h.update(json.dumps(config, sort_keys=True).encode())
    return h.hexdigest()


def write_report(out_dir: str | Path, name: str, config: dict, results: dict,
                 case_text: str, csv_files: dict | None = None) -> Path:
    """Write <name>.json (and CSV side files); returns the JSON path.

    The timestamp lives in an isolated metadata block so reruns with identical
    inputs reproduce byte-identical content outside it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "metadata": {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "fingerprint": fingerprint(case_text, config),
        "config": config,
        "results": results,
    }
    path = out / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for fname, text in (csv_files or {}).items():
        (out / fname).write_text(text)
    return path
