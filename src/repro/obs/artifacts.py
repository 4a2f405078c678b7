"""Run metadata and flight-recorder black-box dumps.

:func:`run_metadata` names a run (artifact schema version,
python/platform, seed, git sha when available) so a reader can tell
which run wrote an artifact; the flight recorder stamps it into every
black box, and :func:`write_blackbox`/:func:`load_blackbox` seal a box
to JSONL and read it back.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
import sys
from typing import Any, Dict, Optional

__all__ = [
    "SCHEMA_VERSION",
    "git_sha",
    "run_metadata",
    "load_blackbox",
    "write_blackbox",
]

#: Version of the artifact layout; bump on incompatible shape changes.
#: Stamped into every artifact and flight-recorder black box.
SCHEMA_VERSION = 1

_GIT_SHA_CACHE: Optional[str] = None
_GIT_SHA_RESOLVED = False


def git_sha() -> Optional[str]:
    """The current short git sha, or None outside a repo (cached)."""
    global _GIT_SHA_CACHE, _GIT_SHA_RESOLVED
    if not _GIT_SHA_RESOLVED:
        _GIT_SHA_RESOLVED = True
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )
            if out.returncode == 0:
                _GIT_SHA_CACHE = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA_CACHE = None
    return _GIT_SHA_CACHE


def run_metadata(seed: Optional[int] = None) -> Dict[str, Any]:
    """Identity of this run, stamped into every artifact.

    ``seed`` is whatever seed the writer pinned (e.g. a fault-schedule
    seed); ``$PYTHONHASHSEED`` is recorded when set so hash-order-
    sensitive drifts can be ruled out when two runs disagree.
    """
    hash_seed = os.environ.get("PYTHONHASHSEED")
    return {
        "schema_version": SCHEMA_VERSION,
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "platform": f"{sys.platform}-{_platform.machine()}",
        "seed": seed if seed is not None else (
            int(hash_seed) if hash_seed and hash_seed.isdigit() else None
        ),
        "git_sha": git_sha(),
    }


# ----------------------------------------------------------------------
# Flight-recorder black-box dumps
# ----------------------------------------------------------------------

#: First JSONL line of a black-box dump; bump on incompatible changes.
BLACKBOX_SCHEMA_VERSION = 1


def write_blackbox(path: str, box: Any) -> str:
    """Seal a :class:`~repro.obs.recorder.BlackBox` to disk as JSONL.

    Line 1 is the header (trigger, device, anchor, events digest, run
    metadata); every following line is one event. JSONL keeps huge rings
    streamable — the timeline CLI and CI artifact uploads read these.
    Returns ``path``.
    """
    header = box.to_dict()
    events = header.pop("events")
    header["blackbox_schema"] = BLACKBOX_SCHEMA_VERSION
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as sink:
        sink.write(json.dumps(header, sort_keys=True, default=str) + "\n")
        for event in events:
            sink.write(json.dumps(event, sort_keys=True, default=str) + "\n")
    return path


def load_blackbox(path: str) -> Any:
    """Load a dump written by :func:`write_blackbox`; verifies the
    recorded events digest (a corrupt dump raises ValueError)."""
    from repro.obs.recorder import BlackBox

    with open(path, "r", encoding="utf-8") as source:
        lines = [line for line in source if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty black-box dump")
    header = json.loads(lines[0])
    if header.get("kind") != "blackbox":
        raise ValueError(f"{path}: not a black-box dump (kind={header.get('kind')!r})")
    box = BlackBox.from_dict(
        {**header, "events": [json.loads(line) for line in lines[1:]]}
    )
    recorded = header.get("events_digest")
    if recorded is not None and recorded != box.events_digest():
        raise ValueError(
            f"{path}: events digest mismatch — dump corrupt or hand-edited "
            f"(recorded {recorded[:16]}, computed {box.events_digest()[:16]})"
        )
    return box

