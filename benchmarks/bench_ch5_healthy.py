"""Chapter 5 — Fig. 5.1: overhead of explicit constraint consistency
management (single node, no replication).

Paper: explicit runtime constraint management costs 1–13% (the system
retains 87–99% of its throughput).
"""

from conftest import print_table
from repro.evaluation import figure_5_1

OPS = ("create", "setter", "getter", "empty", "delete")


def test_fig_5_1_ccm_overhead(benchmark):
    results = benchmark.pedantic(lambda: figure_5_1(count=60), rounds=1, iterations=1)
    with_ccm = results["with_ccm"]
    without = results["without_ccm"]
    rows = []
    for op in OPS:
        retained = with_ccm[op] / without[op]
        rows.append(
            [op, f"{with_ccm[op]:.1f}", f"{without[op]:.1f}", f"{retained * 100:.1f}%"]
        )
    print_table(
        "Fig 5.1 — explicit constraint consistency management (ops/s)",
        ["operation", "with CCM", "without CCM", "retained"],
        rows,
    )
    for op in OPS:
        retained = with_ccm[op] / without[op]
        # paper: 87–99% retained
        assert 0.85 <= retained <= 1.0, (op, retained)

