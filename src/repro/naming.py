"""The naming rules the kernel model and the S1-S4 rule engine share.

Where each package's Priv and pPriv live (``DATA_ROOT``, ``PPRIV_ROOT``),
where shared external storage is mounted (``EXTDIR``), and how a package
name becomes a SQL-object or branch-directory key (:func:`initiator_key`).
Like :mod:`repro.digest` this is a leaf module that imports nothing from
``repro``, so ``repro.core``, ``repro.android`` and ``repro.obs`` all
import it without a cycle.
"""

from __future__ import annotations

import functools
import re

__all__ = ["DATA_ROOT", "EXTDIR", "PPRIV_ROOT", "PPRIV_SEGMENT", "initiator_key"]

#: Parent of every package's private data directory (Priv).
DATA_ROOT = "/data/data"
#: The directory under ``DATA_ROOT`` that Maxoid adds for persistent
#: private state: ``PPRIV_ROOT/<pkg>`` is the package's pPriv.
PPRIV_SEGMENT = "ppriv"
PPRIV_ROOT = f"{DATA_ROOT}/{PPRIV_SEGMENT}"
#: Mount point of external storage; varies per device in reality, the
#: paper calls it EXTDIR throughout.
EXTDIR = "/storage/sdcard"


@functools.lru_cache(maxsize=1024)
def initiator_key(initiator: str) -> str:
    """Sanitize an initiator package name for use in SQL object names."""
    return re.sub(r"\W", "_", initiator)
