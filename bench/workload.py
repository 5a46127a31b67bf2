"""Closed-loop workload driver: one client, one CLI invocation at a time.

Each invocation writes its config, calls ``algmech.cli.main`` in-process (so
every invocation builds its own bundle and starts with cold per-point caches,
as a CLI user does) and checks what the CLI wrote.  Runs are whole rounds of
the workload's (command, family) list, repeated until the time is up, so the
family mix is the same in every run.

The host's speed drifts by tens of percent over seconds (other tenants share
its cores), and a run's wall times drift with it.  A fixed calibration
kernel is timed between invocations; the ``*_cal`` figures rescale each
invocation by the mean kernel time just before and just after it, to seconds
at a kernel time of KERNEL_REF_S.  One raw wall-time figure,
``invocation_s.p50``, is reported beside them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import families
from checks import check_simulate, check_verify


@dataclass
class Invocation:
    command: str
    family: str
    round: int
    seconds: float
    steps: int = 0
    points: int = 0
    problems: list = field(default_factory=list)
    kernel_s: float = 0.0
    rss_mb: float = 0.0


def load_pools(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Client:
    """Draws inputs from the seeded pools and runs invocations."""

    def __init__(self, pools, seed, workdir):
        self.pools = pools
        self.rng = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)
        self.cfg_path = os.path.join(workdir, "config.json")
        self.out_path = os.path.join(workdir, "out")

    def _pick(self, family):
        """A pool entry of ``family`` with the family's dimensions merged in."""
        meta = self.pools[family]
        entry = meta["pool"][int(self.rng.integers(len(meta["pool"])))]
        return {**meta, **entry}

    def run(self, cli, command, family, rnd, tracer=None) -> Invocation:
        entry = self._pick(family)
        if command == "simulate":
            cfg = families.simulate_config(family, entry["x0"])
        else:
            cfg = families.verify_config(family, entry["seed"], entry.get("x0"))
        with open(self.cfg_path, "w") as fh:
            json.dump(cfg, fh)
        flag = "--out" if command == "simulate" else "--report"
        argv = [command, self.cfg_path, flag, self.out_path]
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed invocation, not a benchmark error
                rc = f"exception {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_request()
        try:
            with open(self.out_path) as fh:
                text = fh.read()
        except OSError:
            text = None
        inv = Invocation(command, family, rnd, t1 - t0)
        if command == "simulate":
            steps = cfg["integration"]["steps"]
            inv.steps = steps
            inv.problems = check_simulate(rc, text, entry, steps)
        else:
            inv.points = families.probe_points(family)
            inv.problems = check_verify(rc, text, families.expected_entries(family))
        return inv


KERNEL_REF_S = 0.0125


def calibration_kernel() -> float:
    """Seconds for a fixed loop of small numpy calls and dict stores.

    Its mix (interpreter overhead around length-3 array operations) is that
    of the library's hot paths, so host slowdowns stretch both alike.
    """
    a = np.arange(9.0).reshape(3, 3)
    v = np.ones(3)
    seen = {}
    t0 = time.perf_counter()
    for i in range(1500):
        w = np.einsum("ij,j->i", a * 1.0001 + 0.5, v)
        seen[i % 64] = w.tobytes()
        float(np.max(np.abs(w)))
    return time.perf_counter() - t0


def run_rounds(cli, client, workload, seconds, tracer=None, start_round=0, min_rounds=1) -> list[Invocation]:
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    plan = families.WORKLOADS[workload]
    out = []
    t_end = time.perf_counter() + seconds
    rnd = start_round
    before = calibration_kernel()
    while True:
        for command, family in plan:
            inv = client.run(cli, command, family, rnd, tracer)
            # a CLI process never pays for collecting its cycles; keep them
            # from landing in the next invocation's time and peak RSS
            gc.collect()
            inv.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            after = calibration_kernel()
            inv.kernel_s = 0.5 * (before + after)
            before = after
            out.append(inv)
        rnd += 1
        if time.perf_counter() >= t_end and rnd - start_round >= min_rounds:
            return out


def _pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else None


def calibrated_seconds(invs) -> list[float]:
    """Each invocation's seconds at the reference kernel speed."""
    return [inv.seconds * KERNEL_REF_S / inv.kernel_s for inv in invs]


def end_to_end(invs) -> dict:
    """End-to-end figures of timed invocations; None where not applicable.

    Every timed figure is calibrated (``*_cal``) except ``invocation_s.p50``,
    kept raw to show what the calibration does.
    """
    cal = calibrated_seconds(invs)
    pairs = list(zip(invs, cal))
    sims = [(i, t) for i, t in pairs if i.command == "simulate"]
    vers = [(i, t) for i, t in pairs if i.command == "verify"]
    out = {
        "n_invocations": len(invs),
        "n_simulate": len(sims),
        "n_verify": len(vers),
        "n_rounds": len({i.round for i in invs}),
        "invocation_s.p50": _pct([i.seconds for i in invs], 50),
    }
    for name, group in (("invocation", pairs), ("simulate", sims), ("verify", vers)):
        out[f"{name}_cal_s.p50"] = _pct([t for _, t in group], 50)
        out[f"{name}_cal_s.p90"] = _pct([t for _, t in group], 90)
    for name, group, unit in (
        ("work", pairs, lambda i: i.steps + i.points),
        ("steps", sims, lambda i: i.steps),
        ("probe_points", vers, lambda i: i.points),
    ):
        total = sum(t for _, t in group)
        out[f"{name}_cal_per_s"] = sum(unit(i) for i, _ in group) / total if group else None
    return out
