"""The Maxoid core: custom views of state for initiators and delegates.

This package implements the paper's primary contribution:

- :mod:`repro.core.context` — execution-context helpers (who runs on whose
  behalf).
- :mod:`repro.core.manifest` — the Maxoid manifest: private external
  directories and private-intent filters (section 6.1).
- :mod:`repro.core.cow` — the SQLite copy-on-write proxy layer: delta
  tables, COW views, whiteout records, the administrative view, and the
  user-defined-view hierarchy (section 5.2).
- :mod:`repro.core.branches` — the Aufs branch manager that assembles each
  app instance's mount table (section 4.2, Table 2).
- :mod:`repro.core.volatile` — volatile state management: enumerate,
  commit, discard (section 3.3).
- :mod:`repro.core.ppriv` — normal vs persistent private state with the
  divergence re-fork rule (section 3.2, Figure 2).
- :mod:`repro.core.ipc_guard` — invocation transitivity and Binder
  restrictions (section 3.4).
- :mod:`repro.core.netguard` — the delegate network cutoff.
- :mod:`repro.core.device` — the device facade that boots a simulated
  Android system with or without Maxoid.
- :mod:`repro.core.audit` — who-can-see-what analysis used by the Table 1
  experiment.
- :mod:`repro.core.policy` — the confinement policy as one table of
  (subject, resource, op) cells on Maxoid and stock Android, and the prober
  that checks a live device against it (Figure 1 and triage read it).
"""

from repro.core.cow import CowProxy
from repro.core.manifest import MaxoidManifest

__all__ = ["CowProxy", "MaxoidManifest", "Device"]


def __getattr__(name):
    # Device pulls in the whole framework; import lazily to keep low-level
    # users (and import cycles) happy.
    if name == "Device":
        from repro.core.device import Device

        return Device
    raise AttributeError(name)
