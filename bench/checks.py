"""Output checks for one CLI invocation; each returns a list of problems.

An invocation counts as failed when any problem is found.  The checks read
only what the CLI wrote, so they hold for any implementation that keeps the
CSV and report contracts.
"""

from __future__ import annotations

import json
import math

# Final state and H must match the stored reference within
# STATE_TOL * (1 + |reference|) per value: rounding reordered by a different
# summation order stays far below it (about 1e-15 relative after a few
# hundred RK4 steps), while a wrong term in the dynamics moves the state by
# order h * steps.
STATE_TOL = 1e-9

REPORT_KEYS = {"check", "points", "max_residual", "tolerance", "pass"}


def csv_header(n, m, monitors) -> list[str]:
    return (
        ["t"]
        + [f"q{i + 1}" for i in range(n)]
        + [f"p{a + 1}" for a in range(m)]
        + ["H", "dHdt"]
        + list(monitors)
    )


def check_simulate(rc, csv_text, ref, steps) -> list[str]:
    """Exit code, CSV header and row count, final state and H against ``ref``.

    ``ref`` holds ``n``, ``m``, ``monitors``, ``final_z`` and ``final_H``.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    lines = [ln for ln in (csv_text or "").splitlines() if ln.strip()]
    if not lines:
        return problems + ["empty CSV"]
    header = lines[0].split(",")
    expected = csv_header(ref["n"], ref["m"], ref["monitors"])
    if header != expected:
        problems.append(f"CSV header {header} != {expected}")
        return problems
    rows = lines[1:]
    if len(rows) != steps + 1:
        problems.append(f"CSV has {len(rows)} rows, expected {steps + 1}")
    try:
        last = [float(v) for v in rows[-1].split(",")]
    except (IndexError, ValueError) as exc:
        return problems + [f"unreadable final row: {exc}"]
    if len(last) != len(header):
        return problems + ["final row does not match the header"]
    nz = ref["n"] + ref["m"]
    got = last[1 : 1 + nz] + [last[1 + nz]]
    want = list(ref["final_z"]) + [ref["final_H"]]
    for name, g, w in zip(header[1 : 2 + nz], got, want):
        if not (math.isfinite(g) and abs(g - w) <= STATE_TOL * (1.0 + abs(w))):
            problems.append(f"final {name} = {g!r}, reference {w!r}")
    return problems


def check_verify(rc, report_text, expected) -> list[str]:
    """Exit code and report entries against ``expected`` [(check, points)].

    Every entry must pass with a finite residual and the requested points;
    the pass flag alone can hide a NaN residual.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        entries = json.loads(report_text)
    except (TypeError, ValueError) as exc:
        return problems + [f"unreadable report: {exc}"]
    if not isinstance(entries, list) or len(entries) != len(expected):
        return problems + [f"report has {len(entries) if isinstance(entries, list) else '?'} "
                           f"entries, expected {len(expected)}"]
    for entry, (name, points) in zip(entries, expected):
        if not isinstance(entry, dict) or set(entry) != REPORT_KEYS:
            problems.append(f"malformed entry {entry!r}")
            continue
        if entry["check"] != name:
            problems.append(f"entry {entry['check']!r} where {name!r} was expected")
        if entry["points"] != points:
            problems.append(f"{name}: points {entry['points']!r}, requested {points}")
        res = entry["max_residual"]
        if not (isinstance(res, (int, float)) and math.isfinite(res)):
            problems.append(f"{name}: max_residual {res!r} is not finite")
        if entry["pass"] is not True:
            problems.append(f"{name}: did not pass (residual {res!r})")
    return problems
