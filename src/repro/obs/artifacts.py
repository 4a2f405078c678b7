"""Machine-readable perf artifacts (``BENCH_obs.json``).

The benchmark suite prints human tables; CI and the bench trajectory want
numbers a script can diff across commits. This module maintains one JSON
file per subsystem (``BENCH_obs.json`` by convention, next to the repo
root) as a merge of named sections::

    {
      "layers": {"vfs": {"self_ms": 1.93, "fraction": 0.41}, ...},
      "gate_overhead": {"obs_disabled_pct": 2.1, "faults_disabled_pct": 1.4}
    }

Writers call :func:`update_bench_json` with just their section; existing
sections from other writers are preserved, so the overhead regressions in
``tests/obs``/``tests/faults`` and ``benchmarks/report_tables.py`` can
each contribute their slice independently. Tests opt in through the
``BENCH_OBS_JSON`` environment variable (CI sets it; a plain local run
writes nothing).

Every write also refreshes a ``run`` section with the run's metadata
(:func:`run_metadata`: artifact schema version, python/platform, seed,
git sha when available), so a reader can tell which run wrote a section.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
import sys
from typing import Any, Dict, Iterable, Optional

from repro.obs.report import layer_self_times
from repro.obs.trace import Span

__all__ = [
    "BENCH_OBS_ENV",
    "DEFAULT_BENCH_JSON",
    "SCHEMA_VERSION",
    "bench_json_target",
    "git_sha",
    "run_metadata",
    "layer_section",
    "load_blackbox",
    "update_bench_json",
    "write_blackbox",
]

#: Environment variable that opts tests into artifact emission.
BENCH_OBS_ENV = "BENCH_OBS_JSON"

#: Conventional artifact name, relative to the current directory.
DEFAULT_BENCH_JSON = "BENCH_obs.json"

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


def bench_json_target() -> Optional[str]:
    """The artifact path from ``$BENCH_OBS_JSON``, or None when unset.

    An empty value or "0" means off; the literal "1" selects the
    conventional :data:`DEFAULT_BENCH_JSON` name; anything else is used
    as the path itself.
    """
    value = os.environ.get(BENCH_OBS_ENV, "").strip()
    if not value or value == "0":
        return None
    if value == "1":
        return DEFAULT_BENCH_JSON
    return value


def update_bench_json(path: str, section: str, values: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``values`` under ``section`` into the JSON file at ``path``.

    Reads the existing document (tolerating a missing or corrupt file),
    replaces just the named section, refreshes the ``run`` metadata
    section, and writes the result back with stable key ordering.
    Returns the merged document.
    """
    document: Dict[str, Any] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if isinstance(loaded, dict):
            document = loaded
    except (OSError, ValueError):
        pass
    document[section] = values
    if section != "run":
        document["run"] = run_metadata()
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return document


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


def layer_section(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per-layer self-times as an artifact section: milliseconds plus the
    fraction of total traced time, per taxonomy layer."""
    times = layer_self_times(spans)
    total = sum(times.values())
    return {
        layer: {
            "self_ms": round(ms, 6),
            "fraction": round(ms / total, 6) if total > 0 else 0.0,
        }
        for layer, ms in sorted(times.items())
    }
