"""One round of each benchmark workload, checked by the benchmark's own output checks.

The client, the workload plans and the checks are imported from ``bench/``
and used as they are: every invocation must exit 0 and reproduce the stored
reference outputs (``bench/reference.json``).
"""

import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

from workload import Client, load_pools, run_rounds  # noqa: E402


@pytest.mark.parametrize("workload", ["trajectory", "probe", "constrained"])
def test_one_round_has_no_problems(tmp_path, workload):
    from algmech import cli

    client = Client(load_pools(BENCH_DIR / "reference.json"), 0, str(tmp_path))
    invocations = run_rounds(cli, client, workload, seconds=0)
    assert invocations
    assert {inv.round for inv in invocations} == {0}
    assert [(inv.family, inv.problems) for inv in invocations if inv.problems] == []
