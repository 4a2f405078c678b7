"""Static analysis plane: offline passes over the simulation's own code.

Two passes share one AST index (:mod:`repro.analysis.ir`):

- :mod:`repro.analysis.locksets` — Eraser-style static race detection
  over kernel singletons, cross-checked against the dynamic
  ``race_candidates()``;
- :mod:`repro.analysis.determinism` — ambient-nondeterminism lint
  protecting the byte-identical replay contract.

Run via ``python -m repro.analysis`` (see :mod:`repro.analysis.cli`).
This package is offline tooling: nothing under the simulation imports
it, and it never imports (only parses) the modules it analyses. The
kernel boundaries' wiring into the obs, faults, sched and prov planes is
checked at runtime instead, by ``tests/integration/test_boundary_wiring.py``.
"""

from repro.analysis.findings import Finding, rank_findings
from repro.analysis.ir import CodeIndex

__all__ = ["CodeIndex", "Finding", "rank_findings"]
