"""Figure 1: the confinement overview.

The figure shows which read/write arrows exist between A, B^A and the
Priv/Pub/Vol states. Each of its 11 arrows is a cell of the policy table
(:mod:`repro.core.policy`). :func:`render` probes every arrow on a fresh
Maxoid device and a fresh stock device and prints the table's outcome next
to what was observed, with one verdict per arrow covering both columns.
"""

from __future__ import annotations

import pytest

from repro.core.policy import Cell, expected, probe
from repro.workloads.reports import render_table

#: Figure 1's arrows as cells of the policy table.
FIGURE1 = {
    "B^A reads Priv(A)": Cell("B^A", "Priv(A)", "read"),
    "B^A reads Priv(B^A) (forked from Priv(B))": Cell("B^A", "Priv(B)", "read"),
    "B^A reads Pub(all)": Cell("B^A", "public file", "read"),
    "B^A write reaches Pub(all) directly": Cell("B^A", "public file", "write"),
    "A reads Vol(A)": Cell("A", "Vol(A) file", "read"),
    "B^A reads its own public write": Cell("B^A", "Vol(A) file", "read"),
    "B^A write reaches Priv(A) directly": Cell("B^A", "Priv(A)", "write"),
    "B^A private write reaches Priv(B)": Cell("B", "Priv(B^A)", "read"),
    "A reads Priv(B^A)": Cell("A", "Priv(B^A)", "read"),
    "B^A reaches the network": Cell("B^A", "network", "connect"),
    "X reads Vol(A)": Cell("X", "Vol(A) file", "read"),
}


def render() -> str:
    observed = {maxoid: probe(FIGURE1.values(), maxoid) for maxoid in (True, False)}
    rows = []
    for description, cell in FIGURE1.items():
        pairs = [(expected(cell, m).outcome, observed[m][cell]) for m in (True, False)]
        verdict = "OK" if all(want == got for want, got in pairs) else "MISMATCH"
        rows.append([description, *pairs[0], *pairs[1], verdict])
    return render_table(
        ["Flow", "Maxoid policy", "Maxoid observed", "Stock policy", "Stock observed", "Verdict"],
        rows,
        title="Figure 1 — information-flow matrix (policy table vs live devices)",
    )


@pytest.mark.benchmark(group="fig1-flow-matrix")
@pytest.mark.parametrize("maxoid", [True, False], ids=["maxoid", "stock"])
def bench_flow_matrix(benchmark, maxoid):
    observed = benchmark(probe, FIGURE1.values(), maxoid)
    assert len(observed) == 11
    assert observed == {cell: expected(cell, maxoid).outcome for cell in observed}
