"""The naming rules the kernel model and the S1-S4 rule engine share.

Where each package's Priv lives (``DATA_ROOT``) and how a package name
becomes a SQL-object or branch-directory key (:func:`initiator_key`).
Like :mod:`repro.digest` this is a leaf module that imports nothing from
``repro``, so ``repro.core``, ``repro.android`` and ``repro.obs`` all
import it without a cycle.
"""

from __future__ import annotations

import re

__all__ = ["DATA_ROOT", "initiator_key"]

#: Parent of every package's private data directory (Priv).
DATA_ROOT = "/data/data"


def initiator_key(initiator: str) -> str:
    """Sanitize an initiator package name for use in SQL object names."""
    return re.sub(r"\W", "_", initiator)
