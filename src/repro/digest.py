"""The one canonical-lines wire form behind every replay digest.

Fault schedules, scheduler decisions, flight-recorder events and fuzz run
fingerprints are all compared byte for byte across replays. Each renders
its records as counter-free text lines; this module turns those lines
into bytes (newline-joined UTF-8) and into a sha256 hex digest, so every
plane agrees on one encoding.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

__all__ = ["canonical_bytes", "lines_digest"]


def canonical_bytes(lines: Iterable[str]) -> bytes:
    """``lines`` joined by newlines (no trailing newline), UTF-8 encoded."""
    return "\n".join(lines).encode()


def lines_digest(lines: Iterable[str]) -> str:
    """sha256 hex digest of :func:`canonical_bytes`."""
    return hashlib.sha256(canonical_bytes(lines)).hexdigest()
