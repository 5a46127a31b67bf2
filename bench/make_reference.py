"""Regenerate ``reference.json``: the seeded input pools and reference outputs.

Usage: python3 bench/make_reference.py   (from the repository root)

Each family gets POOL_SIZE entries, drawn once from a fixed generator: a
jittered initial condition (families that simulate or run the Legendre
check) and a verification seed (families that verify).  For every initial
condition the CLI's final state and H are stored as the reference the
benchmark checks against; every verification seed is run once and must pass
every check, otherwise this script stops without writing the file.

Regenerate only when a change is meant to alter trajectories, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from algmech import cli  # noqa: E402
from algmech.config import build_scenario  # noqa: E402

import families  # noqa: E402
from checks import check_verify  # noqa: E402

POOL_SIZE = 32
JITTER = 0.1
POOL_SEED = 20261017


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_out", "reference")
    os.makedirs(workdir, exist_ok=True)
    cfg_path = os.path.join(workdir, "config.json")
    out_path = os.path.join(workdir, "out")
    names = sorted(set(families.SIMULATE) | set(families.VERIFY))
    pools = {}
    for k, family in enumerate(names):
        rng = np.random.default_rng([POOL_SEED, k])
        bundle, _ = build_scenario(families.SCENARIOS[family])
        meta = {
            "n": bundle.algebroid.n,
            "m": bundle.algebroid.m,
            "monitors": list(bundle.monitors),
            "pool": [],
        }
        for _ in range(POOL_SIZE):
            entry = {}
            if family in families.SIMULATE:
                base, _ = families.SIMULATE[family]
                entry["x0"] = {
                    key: [float(v + rng.uniform(-JITTER, JITTER)) for v in base[key]]
                    for key in ("q", "p")
                }
                with open(cfg_path, "w") as fh:
                    json.dump(families.simulate_config(family, entry["x0"]), fh)
                rc = _run(["simulate", cfg_path, "--out", out_path])
                if rc != 0:
                    print(f"{family}: simulate exited {rc}", file=sys.stderr)
                    return 1
                with open(out_path) as fh:
                    last = [float(v) for v in fh.read().splitlines()[-1].split(",")]
                nz = meta["n"] + meta["m"]
                entry["final_z"] = last[1 : 1 + nz]
                entry["final_H"] = last[1 + nz]
            if family in families.VERIFY:
                entry["seed"] = int(rng.integers(2**31))
                with open(cfg_path, "w") as fh:
                    json.dump(families.verify_config(family, entry["seed"], entry.get("x0")), fh)
                rc = _run(["verify", cfg_path, "--report", out_path])
                with open(out_path) as fh:
                    problems = check_verify(rc, fh.read(), families.expected_entries(family))
                if problems:
                    print(f"{family} seed {entry['seed']}: {problems}", file=sys.stderr)
                    return 1
            meta["pool"].append(entry)
        pools[family] = meta
        print(f"{family}: {POOL_SIZE} entries", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(pools, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
