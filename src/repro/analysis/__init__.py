"""Static analysis plane: offline passes over the simulation's own code.

One pass runs over an AST index (:mod:`repro.analysis.ir`):
:mod:`repro.analysis.determinism`, the ambient-nondeterminism lint
protecting the byte-identical replay contract.

Run via ``python -m repro.analysis`` (see :mod:`repro.analysis.cli`).
This package is offline tooling: nothing under the simulation imports
it, and it never imports (only parses) the modules it analyses. The
kernel boundaries' wiring into the obs, faults, sched and prov planes,
and the lock each one holds at its yield point, are checked at runtime
instead, by ``tests/integration/test_boundary_wiring.py``; unsynchronized
shared access is caught dynamically by the scheduler's
``race_candidates()``.
"""

from repro.analysis.findings import Finding, rank_findings
from repro.analysis.ir import CodeIndex

__all__ = ["CodeIndex", "Finding", "rank_findings"]
