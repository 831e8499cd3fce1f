"""Correctness checks on the artifacts of one CLI run.

A run passes only if all of these hold:

- the exit code is 0;
- the manifest names the expected subcommand and seed, and its digests cover
  exactly the files written, each matching its sha256;
- every ``.rpme1`` file reads back through ``pathfile.read_record`` with the
  expected grid, seed, path id and step size;
- every CSV report row that has a bound passed, and agrees with the verdict
  recorded in the manifest;
- each named report value stays within its relative tolerance of the
  reference (a reference of 0 must be met exactly).

``check_run`` returns the list of failed checks; an empty list is a pass.
"""
from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

from rpmelab.pathfile import FormatError, read_record

_PATH_FILE = re.compile(r"path_(\d{4})\.rpme1")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_reports(out_dir: Path) -> dict[str, dict]:
    """``section/name`` -> CSV row, over every report file of a run."""
    rows = {}
    for path in sorted((out_dir / "reports").glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                rows[f"{path.stem}/{row['name']}"] = row
    return rows


def check_run(
    out_dir: Path,
    exit_code: int,
    command: str,
    config: dict[str, str],
    reference: dict[str, dict] | None,
) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    failures = []
    if manifest.get("subcommand") != command:
        failures.append(f"manifest subcommand {manifest.get('subcommand')!r}")
    seed = int(config["seed"])
    if manifest.get("config", {}).get("seed") != str(seed):
        failures.append("manifest seed differs from the config")

    digests = manifest.get("digests", {})
    written = {
        p.relative_to(out_dir).as_posix()
        for p in out_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    if written != set(digests):
        failures.append(f"digested files {sorted(digests)} != written {sorted(written)}")
    for rel in sorted(written & set(digests)):
        if _sha256(out_dir / rel) != digests[rel]:
            failures.append(f"digest mismatch: {rel}")

    dim = int(config["dim"])
    cells = int(config.get("cells", 0))
    for path in sorted(out_dir.glob("paths/*.rpme1")):
        try:
            rec = read_record(path)
        except (FormatError, OSError) as exc:
            failures.append(f"{path.name} unreadable: {exc}")
            continue
        m = _PATH_FILE.fullmatch(path.name)
        path_id = int(m.group(1)) if m else 0
        if (rec.grid.dim, rec.grid.cells_per_axis) != (dim, cells):
            failures.append(f"{path.name} grid {rec.grid.dim}d/{rec.grid.cells_per_axis}")
        if (rec.seed, rec.path_id) != (seed, path_id):
            failures.append(f"{path.name} seed/path id {rec.seed}/{rec.path_id}")
        if rec.dt != manifest.get("dt"):
            failures.append(f"{path.name} dt {rec.dt} != manifest dt")

    rows = read_reports(out_dir)
    verdicts = manifest.get("reports", {})
    if set(rows) != set(verdicts):
        failures.append("report rows differ from the manifest verdicts")
    for name, row in rows.items():
        passed = row["passed"] == "true"
        if row["bound"] and not passed:
            failures.append(f"report {name} failed its bound")
        if verdicts.get(name) is not passed:
            failures.append(f"report {name} verdict differs from the manifest")

    for name, ref in (reference or {}).items():
        if name not in rows:
            failures.append(f"reference report {name} missing")
            continue
        got = float(rows[name]["measured"])
        if not abs(got - ref["value"]) <= ref["rel_tol"] * abs(ref["value"]):
            failures.append(f"{name} = {got!r}, reference {ref['value']!r} (rel tol {ref['rel_tol']})")
    return failures
