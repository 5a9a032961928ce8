"""Full-scale trace kernels against the per-source oracle.

Every traversal workload's epoch trace on the full evaluation graphs
(``ldbc`` and ``road``) must equal, epoch for epoch, the one the
per-source reference loops in ``tests/workloads/oracle.py`` produce. The
unit tests check the same contract on the small datasets; this is the
check at the scale the figures and the service run.

Each case also prints the oracle's and the production kernel's wall
clock.
"""

import time

import pytest

from repro.graph.datasets import get_dataset
from repro.workloads import get_workload
from tests.workloads.oracle import oracle_epochs

TRAVERSALS = ["bfs-ta", "bfs-dwc", "bfs-ttc", "bfs-twc", "sssp-dtc",
              "sssp-dwc", "sssp-twc"]


@pytest.mark.parametrize("dataset", ["ldbc", "road"])
@pytest.mark.parametrize("name", TRAVERSALS)
def test_full_scale_epochs_match_oracle(name, dataset):
    graph = get_dataset(dataset)
    workload = get_workload(name, seed=0)
    t0 = time.perf_counter()
    expected = oracle_epochs(workload, graph)
    t1 = time.perf_counter()
    got = list(workload.epochs(graph))
    t2 = time.perf_counter()
    print(f"\n{dataset:5s} {name:9s} {len(got):6d} epochs  "
          f"oracle {t1 - t0:6.3f} s  kernel {t2 - t1:6.3f} s  "
          f"{(t1 - t0) / (t2 - t1):4.1f}x")
    assert len(got) == len(expected)
    assert got == expected
