"""Per-shipped-config breakdown: reproduces the ROADMAP "Current state" tables.

For every config in ``configs/``: untraced ``simulate`` and ``verify`` wall
time at the shipped sizes (median and range over REPEATS runs), then
traced runs giving microseconds per call per layer (traced simulate capped
at TRACE_STEPS steps; traced verify without the random instances of
``theorem43_equivalence``, whose larger random algebroids would otherwise mix
into the per-call figures of the config's own structure).  Each cell is
printed next to the ROADMAP figure with their ratio and flagged OFF when the
ratio is further from 1 than the range over repeats; repeat ratios, given to
two digits, are flagged when they differ from the target by more than 0.01.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import statistics
import time

from tracing import Tracer, summarize, under

TRACE_STEPS = 1000
REPEATS = 3  # runs per config; a cell's range over them is its spread

# ROADMAP "Current state" tables: simulate s, verify s; then us per call of
# H.grad, struct, ham_field, rk4 step, prolong, lr_field, closed.
ROADMAP_E2E = {
    "canonical_harmonic": (11.3, 1.6),
    "euler_top": (10.0, 8.7),
    "contorsion_skew": (6.4, 1.9),
    "contorsion_dissipative": (5.1, 1.6),
    "nonholonomic_classical": (3.6, 7.5),
    "gradient_extension": (2.1, 1.0),
    "nonjacobi_projected": (1.4, 0.7),
    "closedness_negative": (1.3, 0.5),
    "generalized_servo": (1.1, 1.1),
}
LAYER_COLUMNS = [
    ("H.grad", "fields.gradient", "us"),
    ("struct", "algebroid.structure_eval", "us_fresh"),
    ("ham_field", "hamiltonian.ham_field", "us"),
    ("rk4 step", "hamiltonian.rk4_step", "us"),
    ("prolong", "prolongation.prolong_eval", "us_fresh"),
    ("lr_field", "prolongation.lr_ham_field", "us"),
    ("closed", "prolongation.closedness_residual", "us"),
]
ROADMAP_LAYERS = {
    "canonical_harmonic": (93, 97, 269, 960, 209, 389, 369),
    "euler_top": (122, 2, 135, 644, 428, 647, 622),
    "gradient_extension": (76, 710, 873, 2803, 953, 1102, 1143),
    "contorsion_skew": (231, 223, 497, 2057, 541, 867, 750),
    "nonholonomic_classical": (197, 2606, 2653, 10646, 19058, 19879, 18641),
}
# structure_eval repeat ratio during RK4 expected from the cache key (q bytes)
REPEAT_TARGETS = {
    "canonical_harmonic": 0.2,
    "contorsion_skew": 0.2,
    "gradient_extension": 0.6,
    "euler_top": 1.0,
}


def _cli(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return time.perf_counter() - t0, rc


def _per_call(summary, name, kind):
    s = summary.get(name)
    if not s:
        return None
    if kind == "us_fresh":
        return 1e6 * s["fresh_s"] / s["fresh_calls"] if s["fresh_calls"] else None
    return 1e6 * s["total_s"] / s["calls"]


def _stat(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def _cell(label, stat, ref, abs_tol=0.0):
    if stat is None:
        return f"{label}=n/a"
    med, lo, hi = stat["median"], stat["min"], stat["max"]
    spread = (hi - lo) / med if med else 0.0
    text = f"{label}={med:.4g} [{lo:.4g}..{hi:.4g}]"
    if ref is not None:
        ratio = med / ref
        off = abs(med - ref) > abs_tol if abs_tol else abs(ratio - 1.0) > spread
        text += f" vs {ref:g} (x{ratio:.2f}){'  OFF' if off else ''}"
    return text


def run_breakdown(outdir) -> int:
    from algmech import cli

    root = os.path.dirname(outdir)
    workdir = os.path.join(outdir, "breakdown")
    os.makedirs(workdir, exist_ok=True)
    cfg_path = os.path.join(workdir, "config.json")
    out_path = os.path.join(workdir, "out")
    table = {}
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            shipped = json.load(fh)
        with open(cfg_path, "w") as fh:
            json.dump(shipped, fh)
        sim, ver, rc_bad = [], [], 0
        for _ in range(REPEATS):
            secs, rc = _cli(cli, ["simulate", cfg_path, "--out", out_path])
            sim.append(secs)
            rc_bad += rc != 0
            secs, rc = _cli(cli, ["verify", cfg_path, "--report", out_path])
            ver.append(secs)
            rc_bad += rc != 0
        traced_cfg = json.loads(json.dumps(shipped))
        traced_cfg["integration"]["steps"] = min(shipped["integration"]["steps"], TRACE_STEPS)
        checks = traced_cfg["verification"]["checks"]
        for k, entry in enumerate(checks):
            if entry == "theorem43_equivalence":
                entry = checks[k] = {"name": entry}
            if isinstance(entry, dict) and entry["name"] == "theorem43_equivalence":
                entry["random_instances"] = 0
        with open(cfg_path, "w") as fh:
            json.dump(traced_cfg, fh)
        layers = {label: [] for label, _, _ in LAYER_COLUMNS}
        repeat = []
        for _ in range(REPEATS):
            tracer = Tracer()
            tracer.install()
            try:
                _cli(cli, ["simulate", cfg_path, "--out", out_path])
                tracer.end_request()
                _cli(cli, ["verify", cfg_path, "--report", out_path])
            finally:
                tracer.uninstall()
            spans = tracer.arrays()
            summary = summarize(spans)
            se = summarize(spans, under(spans, "hamiltonian.integrate")).get("algebroid.structure_eval")
            repeat.append(se["repeats"] / se["calls"] if se else None)
            for label, span, kind in LAYER_COLUMNS:
                layers[label].append(_per_call(summary, span, kind))
        row = {"simulate_s": _stat(sim), "verify_s": _stat(ver), "nonzero_exits": rc_bad,
               "layers_us": {k: _stat(v) for k, v in layers.items()},
               "structure_repeat_ratio_rk4": _stat(repeat)}
        table[name] = row
        ref_e2e = ROADMAP_E2E.get(name, (None, None))
        ref_layers = ROADMAP_LAYERS.get(name, (None,) * len(LAYER_COLUMNS))
        cells = [_cell("simulate_s", row["simulate_s"], ref_e2e[0]),
                 _cell("verify_s", row["verify_s"], ref_e2e[1])]
        cells += [_cell(label, row["layers_us"][label], ref)
                  for (label, _, _), ref in zip(LAYER_COLUMNS, ref_layers)]
        cells.append(_cell("struct repeat ratio (rk4)", row["structure_repeat_ratio_rk4"],
                           REPEAT_TARGETS.get(name), abs_tol=0.01))
        print(f"{name} (exit codes non-zero: {rc_bad}):", flush=True)
        for cell in cells:
            print(f"  {cell}")
    with open(os.path.join(outdir, "breakdown.json"), "w") as fh:
        json.dump(table, fh, indent=1)
    bad = sum(row["nonzero_exits"] for row in table.values())
    print(json.dumps({"correct": bad == 0, "attempted": 2 * REPEATS * len(table), "failed": bad,
                      "metrics": {}}))
    return 0
