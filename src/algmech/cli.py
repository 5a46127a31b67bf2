"""Command-line front end: simulate, verify, report.

Exit codes: 0 success (verify: all checks pass), 1 bad input/config or an
output path that cannot be written, 2 integration diverged (a partial
trajectory CSV is still written; a non-finite initial state writes its header
only).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .config import build_scenario, check_seed, initial_point, load_config
from .errors import InputError, IntegrationDivergedError, NumericError
from .hamiltonian import Trajectory, integrate
from .verify import CHECKS, run_check


def _write(path, text) -> bool:
    """Write ``text`` to ``path``; on failure print one ``error:`` line and return False."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _output_path(path):
    """``path``, refused (:class:`InputError`) unless its parent is a directory; opens nothing."""
    try:
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # the trailing "/": a directory
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def cmd_simulate(config_path, out=None) -> int:
    try:
        cfg = load_config(config_path)
        if cfg.integration is None:
            raise InputError("config missing 'integration'")
        bundle, _ = build_scenario(cfg.scenario)
        x0 = initial_point(cfg.integration, bundle)
        path = _output_path(out or cfg.output.get("trajectory") or "trajectory.csv")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        traj = integrate(
            bundle.algebroid,
            bundle.hamiltonian,
            x0,
            float(cfg.integration["h"]),
            int(cfg.integration["steps"]),
            bundle.monitors,
        )
    except InputError as exc:  # all that is left to refuse: a step count too large to allocate
        print(f"error: integration.{exc}", file=sys.stderr)
        return 1
    except IntegrationDivergedError as exc:
        if not _write(path, exc.trajectory.to_csv()):
            return 1
        print(
            f"error: integration diverged, last good step {exc.last_good_step}; "
            f"partial trajectory in {path}",
            file=sys.stderr,
        )
        return 2
    except NumericError as exc:  # not finite at the initial state: no sample to record
        A = bundle.algebroid
        names = list(bundle.monitors)
        empty = Trajectory(A.n, A.m, np.zeros((0, 3 + A.n + A.m + len(names))), names)
        if not _write(path, empty.to_csv()):
            return 1
        print(f"error: {exc}; header-only trajectory in {path}", file=sys.stderr)
        return 2
    if not _write(path, traj.to_csv()):
        return 1
    print(f"wrote {len(traj.samples)} samples to {path}")
    return 0


def cmd_verify(config_path, report_path=None, seed=None) -> int:
    try:
        if seed is not None:
            check_seed(seed, "--seed")
        cfg = load_config(config_path)
        if cfg.verification is None:
            raise InputError("config missing 'verification'")
        # every name is known before the scenario is built or a check runs
        classes = sorted({cls for _, cls, _ in CHECKS.values() if cls})
        for cls in cfg.verification.get("tolerances") or {}:
            if cls not in classes:
                raise InputError(f"verification.tolerances.{cls} is not one of {classes}")
        for pos, entry in enumerate(cfg.verification.get("checks", [])):
            name = entry if isinstance(entry, str) else entry["name"]
            if name not in CHECKS:
                raise InputError(f"unknown check name {name!r} at verification.checks[{pos}].name")
        bundle, spec = build_scenario(cfg.scenario)
        path = _output_path(report_path or cfg.output.get("report") or "report.json")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    vcfg = cfg.verification
    points = int(vcfg.get("points", 100))
    base_seed = seed if seed is not None else vcfg.get("seed", 0)
    class_tolerances = vcfg.get("tolerances") or {}
    entries = []
    for pos, entry in enumerate(vcfg.get("checks", [])):
        if isinstance(entry, str):
            entry = {"name": entry}
        name = entry["name"]
        ccfg = dict(entry)
        ccfg.pop("name")
        ccfg.setdefault("points", points)
        cls = CHECKS[name][1]
        if cls in class_tolerances:
            ccfg.setdefault("tolerance", class_tolerances[cls])
        if spec is not None:
            ccfg["constraint_spec"] = spec
        try:
            entries.append(run_check(name, bundle, ccfg, base_seed + pos))
        except InputError as exc:
            print(f"error: check {name!r}: {exc}", file=sys.stderr)
            return 1
    # RFC 8259 JSON has no infinity or NaN: a non-finite residual is written as
    # null (its entry fails), and the bare tokens cannot be written at all
    report = [
        {**e, "max_residual": e["max_residual"] if math.isfinite(e["max_residual"]) else None}
        for e in entries
    ]
    if not _write(path, json.dumps(report, indent=2, allow_nan=False) + "\n"):
        return 1
    for e in entries:
        status = "pass" if e["pass"] else "FAIL"
        print(
            f"{status}  {e['check']}: max_residual={e['max_residual']:.3e} "
            f"tolerance={e['tolerance']:.3e} points={e['points']}"
        )
    return 0 if all(e["pass"] for e in entries) else 1


def _parse_csv(path) -> Trajectory:
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise InputError(f"cannot read trajectory: {exc}") from exc
    if not lines:
        raise InputError("trajectory file is empty")
    header = lines[0].split(",")
    if header[0] != "t":
        raise InputError("malformed trajectory header: first column must be 't'")
    # the state columns are those between t and the first H; monitors follow dHdt
    state = header[1 : header.index("H") if "H" in header else 1]
    n = sum(1 for c in state if c.startswith("q"))
    traj = Trajectory(n, len(state) - n, np.zeros((0, len(header))), header[3 + len(state) :])
    if traj.csv_header() != lines[0]:
        raise InputError("malformed trajectory header: column contract violated")
    try:
        traj.samples = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise InputError(f"malformed trajectory row: {exc}") from exc
    if traj.samples.ndim != 2 or traj.samples.shape[1] != len(header) or len(traj.samples) == 0:
        raise InputError("trajectory rows do not match the header")
    return traj


def cmd_report(csv_path) -> int:
    try:
        traj = _parse_csv(csv_path)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t, H = traj.times(), traj.h_values()
    print(f"rows: {len(traj.samples)}")
    print(f"duration: {t[-1] - t[0]:.17g}")
    print(f"H drift: {np.max(np.abs(H - H[0])):.3e}")
    print(f"max |state|: {np.max(np.abs(traj.states())):.17g}")
    for name, col in zip(traj.monitor_names, traj.monitor_table().T):
        print(
            f"monitor {name}: min={np.min(col):.17g} max={np.max(col):.17g} "
            f"drift={np.max(np.abs(col - col[0])):.3e}"
        )
    return 0


@functools.cache  # built on the first call, reused by every later one
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algmech",
        description="Algebroid mechanics: simulate scenarios and verify the "
        "structural theorems numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="integrate a scenario, write a CSV trajectory")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None)
    p_ver = sub.add_parser("verify", help="run named checks, write a JSON report")
    p_ver.add_argument("config")
    p_ver.add_argument("--report", default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_rep = sub.add_parser("report", help="summarize a trajectory CSV")
    p_rep.add_argument("csv")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with np.errstate(all="ignore"):  # an overflow meets a finiteness check and its exit code
        if args.command == "simulate":
            return cmd_simulate(args.config, out=args.out)
        if args.command == "verify":
            return cmd_verify(args.config, report_path=args.report, seed=args.seed)
    return cmd_report(args.csv)


if __name__ == "__main__":
    sys.exit(main())
