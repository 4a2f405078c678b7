"""Regenerate every table of the paper's evaluation in its own format.

Usage::

    python benchmarks/report_tables.py [--trials N] [--out FILE]

Prints Tables 1-5 and the Figure 1 flow matrix computed from the
simulation, side by side with the paper's reported numbers where they
exist. Each section is the ``render`` of the bench module that defines the
table, so the report times the ops pytest-benchmark times. Absolute
magnitudes differ (a pure-Python simulated kernel vs a Nexus 7), but the
*shape* — who pays overhead, orderings, zero-vs-nonzero — is the
reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=40, help="trials per micro-op")
    parser.add_argument("--out", type=str, default=None, help="also write to this file")
    args = parser.parse_args()
    # The bench modules import ``benchmarks.conftest`` and ``repro``: make
    # both importable from a plain checkout.
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root), str(root / "src")]
    from benchmarks import (
        bench_fig1_flows,
        bench_table1_traces,
        bench_table2_mounts,
        bench_table3_micro,
        bench_table4_providers,
        bench_table5_apps,
    )

    sections = [
        bench_table1_traces.render(),
        bench_table2_mounts.render(),
        bench_table3_micro.render(args.trials),
        bench_table4_providers.render(args.trials),
        bench_table5_apps.render(args.trials),
        bench_fig1_flows.render(),
    ]
    text = ("\n\n" + "=" * 78 + "\n\n").join(sections)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
