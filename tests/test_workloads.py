"""One round of each benchmark workload, checked by the benchmark's own output checks.

The client, the workload plans, the checks and the tracer are imported from
``bench/`` and used as they are: every invocation must exit 0 and reproduce
the stored reference outputs (``bench/reference.json``), and a traced round
must yield every per-layer metric that ``BENCHMARK.json`` declares and the
spans give.
"""

import json
import os
import pathlib
import sys
from unittest import mock

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

from tracing import Tracer  # noqa: E402
from workload import Client, load_pools, run_rounds  # noqa: E402

with mock.patch.dict(os.environ):  # run.py pins the BLAS thread variables on import
    import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# the per-layer metrics derived from spans; the import time comes from the
# set-up children and the tracing overhead from the untraced pass
SPAN_METRICS = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["name"] != "algmech.import.s" and not m["name"].startswith("trace.overhead.")
]


@pytest.mark.parametrize("workload", ["trajectory", "probe", "constrained"])
def test_one_round_has_no_problems(tmp_path, workload):
    from algmech import cli

    client = Client(load_pools(BENCH_DIR / "reference.json"), 0, str(tmp_path))
    invocations = run_rounds(cli, client, workload, seconds=0)
    assert invocations
    assert {inv.round for inv in invocations} == {0}
    assert [(inv.family, inv.problems) for inv in invocations if inv.problems] == []


@pytest.mark.parametrize("workload", ["trajectory", "probe", "constrained"])
def test_a_traced_round_gives_every_layer_metric(tmp_path, workload):
    from algmech import cli

    assert SPAN_METRICS
    client = Client(load_pools(BENCH_DIR / "reference.json"), 0, str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        invocations = run_rounds(cli, client, workload, seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert [(inv.family, inv.problems) for inv in invocations if inv.problems] == []
    metrics = run.layer_metrics(tracer.arrays())
    assert [name for name in SPAN_METRICS if name not in metrics] == []
