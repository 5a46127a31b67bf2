"""algmech benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Usage (from the repository root; nothing needs installing):

    python3 bench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --breakdown

One process, one thread, one client: each ``algmech.cli.main`` invocation
starts only after the previous one returned.  Set-up time is measured in
fresh interpreters.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload untraced and then TRACE_ROUNDS rounds traced (spans
recorded around every layer function, see tracing.py) and prints the
per-layer metrics plus the tracing overhead.  ``--breakdown`` times the shipped configs at their shipped sizes
(see NOTES.md).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS threads must be pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Set-up runs per workload run, rounded up to the same number per family.
# Each set-up child runs right after a bare interpreter that only imports
# numpy; setup_s is the median over pairs of set-up wall time over bare wall
# time, times BARE_REF_S, so that host speed drift cancels as in the
# ``*_cal`` figures.
SETUP_RUNS = 10
BARE_REF_S = 0.18
BARE_CHILD = ["-c", "import numpy"]
# Peak RSS is read after the warm-up and the first two timed rounds: the
# library leaks cycles through object arrays, which the cyclic collector cannot
# traverse, so a later reading would grow with the number of invocations a
# run fits in, i.e. with speed.
RSS_ROUNDS = 3
# The traced pass runs a fixed number of rounds, so that its call counts
# measure the library's work rather than how many rounds fit in the time.
TRACE_ROUNDS = 3

UNITS = {
    "setup_s": "s",
    "invocation_s.p50": "s",
    "invocation_cal_s.p50": "s",
    "invocation_cal_s.p90": "s",
    "work_cal_per_s": "1/s",
    "steps_cal_per_s": "1/s",
    "simulate_cal_s.p50": "s",
    "simulate_cal_s.p90": "s",
    "verify_cal_s.p50": "s",
    "verify_cal_s.p90": "s",
    "probe_points_cal_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        # read-only kernel interface; the model name is not exposed elsewhere
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(workload, workdir) -> tuple[dict, int, int]:
    """Calibrated median set-up; returns (figures, attempted, failures)."""
    import families

    fams = list(dict.fromkeys(f for _, f in families.WORKLOADS[workload]))
    paths = []
    for f in fams:
        paths.append(os.path.join(workdir, f"setup_{f}.json"))
        with open(paths[-1], "w") as fh:
            json.dump({"scenario": families.SCENARIOS[f]}, fh)
    child = os.path.join(HERE, "setup_child.py")
    runs = -(-SETUP_RUNS // len(fams)) * len(fams)

    def timed(argv):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120)
        return time.perf_counter() - t0, proc

    walls, bares, phases, failures = [], [], [], 0
    # the first, untimed pair compiles bytecode for a fresh checkout
    for k in range(-1, runs):
        bare, _ = timed(BARE_CHILD)
        wall, proc = timed([child, paths[max(k, 0) % len(fams)]])
        if k < 0:
            continue
        if proc.returncode != 0:
            failures += 1
            print(f"setup failed for {paths[k % len(fams)]}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            continue
        walls.append(wall)
        bares.append(bare)
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if not walls:
        return {}, runs, failures
    ratio = statistics.median(w / b for w, b in zip(walls, bares))
    med = {key: statistics.median(p[key] for p in phases) for key in phases[0] if key.endswith("_s")}
    return {"setup_s": ratio * BARE_REF_S, "raw_s": statistics.median(walls),
            "bare_s": statistics.median(bares), **med, "samples": len(walls)}, runs, failures


def bytes_per_sample(workload, pools) -> dict:
    """Trajectory memory from tracemalloc, outside every timed region.

    Bytes still allocated after ``integrate`` returns, per sample.
    """
    import tracemalloc

    import families
    from algmech.config import build_scenario
    from algmech.hamiltonian import PhasePoint, integrate

    retained = samples = 0
    for command, family in families.WORKLOADS[workload]:
        if command != "simulate":
            continue
        bundle, _ = build_scenario(families.SCENARIOS[family])
        x0 = pools[family]["pool"][0]["x0"]
        _, steps = families.SIMULATE[family]
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(
            bundle.algebroid, bundle.hamiltonian, PhasePoint(x0["q"], x0["p"]),
            families.H, steps, bundle.monitors,
        )
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        retained += after - before
        samples += len(traj.samples)
    return {"hamiltonian.bytes_per_sample": retained / samples} if samples else {}


def layer_metrics(spans) -> dict:
    """Per-layer figures (value, unit) from the recorded spans."""
    from tracing import summarize, under

    total = summarize(spans)
    rk4 = summarize(spans, under(spans, "hamiltonian.integrate"))
    out = {}
    module_self = {}
    for name, s in total.items():
        calls = s["calls"]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.us"] = (1e6 * s["total_s"] / calls, "us")
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + s["self_s"]
        if name.startswith("verify."):
            out[f"{name}.s"] = (s["total_s"] / calls, "s")
            out[f"{name}.us_per_point"] = (1e6 * s["total_s"] / max(s["items"], 1), "us")
        if name.startswith("config."):
            out[f"{name}.ms"] = (1e3 * s["total_s"] / calls, "ms")
    for name in ("algebroid.structure_eval", "prolongation.prolong_eval"):
        s = total.get(name)
        if s:
            out[f"{name}.repeat_ratio"] = (s["repeats"] / s["calls"], "ratio")
    steps = rk4.get("hamiltonian.rk4_step", {}).get("calls", 0)
    if steps:
        if "fields.gradient" in rk4:
            out["fields.gradient.calls_per_step"] = (rk4["fields.gradient"]["calls"] / steps, "count")
        se = rk4.get("algebroid.structure_eval")
        if se:
            out["algebroid.structure_eval.repeat_ratio_rk4"] = (se["repeats"] / se["calls"], "ratio")
    s = total.get("hamiltonian.to_csv")
    if s and s["items"]:
        out["hamiltonian.to_csv.us_per_row"] = (1e6 * s["total_s"] / s["items"], "us")
    s = total.get("scenarios.lagrangian_reference")
    if s:
        out["scenarios.lagrangian_reference.s"] = (s["total_s"] / s["calls"], "s")
    traced = total.get("cli.main", {}).get("total_s", 0.0)
    for module, secs in module_self.items():
        if traced:
            out[f"layer.{module}.self_pct"] = (100.0 * secs / traced, "%")
    return out


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args, spec) -> int:
    from algmech import cli

    import families
    from tracing import Tracer
    from workload import Client, end_to_end, load_pools, run_rounds

    if args.workload not in families.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work_{args.workload}_{args.seed}_{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        pools = load_pools(os.path.join(HERE, "reference.json"))
        info = machine_info()
        print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
        setup, setup_runs, setup_failed = measure_setup(args.workload, workdir)
        client = Client(pools, args.seed, workdir)
        warm = run_rounds(cli, client, args.workload, 0)
        timed = run_rounds(cli, client, args.workload, args.seconds, start_round=1)
        invs = warm + timed
        e2e = end_to_end(timed)
        traced_invs, layers = [], {}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_invs = run_rounds(
                    cli, Client(pools, args.seed, workdir), args.workload, 0, tracer,
                    min_rounds=TRACE_ROUNDS,
                )
            finally:
                tracer.uninstall()
            spans = tracer.arrays()
            tracer.save(os.path.join(OUT, f"spans_{args.workload}_{args.seed}.npz"))
            layers = layer_metrics(spans)
            for key, value in bytes_per_sample(args.workload, pools).items():
                layers[key] = (value, "B")
            if "import_s" in setup:
                layers["algmech.import.s"] = (setup["import_s"], "s")
            e2e_traced = end_to_end(traced_invs)
            for key, unit in UNITS.items():
                if e2e.get(key) is not None and e2e_traced.get(key) is not None:
                    layers[f"trace.overhead.{key}"] = (e2e_traced[key] - e2e[key], unit)
            invs += traced_invs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [i for i in invs if i.problems]
    attempted = len(invs) + setup_runs
    n_failed = len(failed) + setup_failed
    e2e["setup_s"] = setup.get("setup_s")
    e2e["peak_rss_mb"] = max(i.rss_mb for i in warm + timed if i.round < RSS_ROUNDS)
    e2e["error_rate"] = n_failed / attempted
    for inv in failed[:5]:
        print(f"FAILED {inv.command} {inv.family}: {'; '.join(inv.problems)}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {e2e['n_rounds']} timed rounds, "
          f"{e2e['n_invocations']} timed invocations "
          f"({e2e['n_simulate']} simulate, {e2e['n_verify']} verify), "
          f"setup over {setup.get('samples', 0)} fresh interpreters"
          + (f", traced pass {TRACE_ROUNDS} rounds" if args.trace else ""))
    for key, unit in UNITS.items():
        value = e2e.get(key)
        shown = "n/a (not in this workload or run)" if value is None else f"{fmt(value)} {unit}"
        print(f"  {key:<24} {shown}")
    families_s = {}
    for inv in timed:
        families_s.setdefault(f"{inv.command} {inv.family}", []).append(inv.seconds)
    for key, secs in families_s.items():
        print(f"  {key:<40} median {statistics.median(secs):.4g} s over {len(secs)}")
    for key in ("raw_s", "bare_s", "import_s", "load_config_s", "build_scenario_s", "prolongation_s"):
        if key in setup:
            print(f"  setup.{key:<18} {fmt(setup[key])} s (median, uncalibrated)")
    for key in sorted(layers):
        value, unit = layers[key]
        print(f"  {key:<52} {fmt(value)} {unit}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = layers.get(m["name"], (None,))[0] if args.trace else e2e.get(m["name"])
        if value is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": not n_failed, "attempted": attempted, "failed": n_failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result_{args.workload}_{args.seed}_trace{args.trace}.json"), "w") as fh:
        json.dump({"machine": info, "end_to_end": e2e, "setup": setup,
                   "layers": {k: v[0] for k, v in layers.items()},
                   "invocations": [vars(i) for i in invs], "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--breakdown", action="store_true",
                        help="time the shipped configs at their shipped sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "algmech", "__init__.py")):
        print(f"error: no algmech sources under {SRC}", file=sys.stderr)
        return 2
    # absolute, so that child interpreters resolve it from any working directory
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, SRC)
    if args.breakdown:
        from breakdown import run_breakdown

        return run_breakdown(OUT)
    if not args.workload:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
