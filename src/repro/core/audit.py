"""Who-can-see-what auditing (paper sections 2.2 and 3.1).

Drives the Table 1 experiment ("state left after apps process their
target data"). Figure 1's flows are cells of the policy table in
:mod:`repro.core.policy`.

The auditor plants a *marker* byte string inside sensitive data, runs a
scenario, then searches every observer's view — files it can read, its
provider query results, the clipboard, the network egress log — for the
marker. A marker sighting in an observer that should be isolated is a
confinement failure.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import KernelError, ReproError
from repro.android.app_api import AppApi
from repro.android.storage import EXTDIR
from repro.android.uri import Uri
from repro.kernel import path as vpath
from repro.tap import Tap


@dataclass
class TraceReport:
    """Where a marker was found, from one observer's point of view."""

    observer: str
    file_hits: List[str] = field(default_factory=list)
    provider_hits: List[str] = field(default_factory=list)
    clipboard_hit: bool = False

    @property
    def clean(self) -> bool:
        return not self.file_hits and not self.provider_hits and not self.clipboard_hit


def readable_files(api: AppApi, roots: Optional[Sequence[str]] = None) -> List[str]:
    """Every file path the process can list *and* read, under ``roots``
    (defaults to external storage plus the app's internal dir)."""
    if roots is None:
        roots = [EXTDIR, api.internal_dir]
    found: List[str] = []
    for root in roots:
        try:
            stack = [root]
            while stack:
                current = stack.pop()
                for name in api.sys.listdir(current):
                    child = vpath.join(current, name)
                    try:
                        if api.sys.stat(child).is_dir:
                            stack.append(child)
                        else:
                            found.append(child)
                    except KernelError:
                        continue
        except KernelError:
            continue
    return sorted(found)


def find_marker_in_files(api: AppApi, marker: bytes, roots: Optional[Sequence[str]] = None) -> List[str]:
    """Paths in the observer's view whose contents contain ``marker``."""
    hits = []
    for path in readable_files(api, roots):
        try:
            if marker in api.sys.read_file(path):
                hits.append(path)
        except KernelError:
            continue
    return hits


def find_marker_in_providers(api: AppApi, marker: str) -> List[str]:
    """Provider rows visible to the observer that mention ``marker``.

    Scans the three system providers' main query surfaces."""
    hits: List[str] = []
    surfaces = [
        Uri.content("user_dictionary", "words"),
        Uri.content("downloads", "all_downloads"),
        Uri.content("media", "files"),
    ]
    for uri in surfaces:
        try:
            result = api.query(uri)
        except ReproError:
            continue
        for row in result.rows:
            if any(marker in str(value) for value in row if value is not None):
                hits.append(f"{uri}: {row}")
    return hits


def audit_observer(api: AppApi, marker: bytes) -> TraceReport:
    """Full marker audit from one observer's point of view."""
    text_marker = marker.decode("utf-8", "ignore")
    clip = api.clipboard_get()
    return TraceReport(
        observer=str(api.process.context),
        file_hits=find_marker_in_files(api, marker),
        provider_hits=find_marker_in_providers(api, text_marker) if text_marker else [],
        clipboard_hit=bool(clip and text_marker and text_marker in clip),
    )


def leaked_off_device(device: Any, marker: bytes) -> bool:
    """Did the marker reach the network, Bluetooth or SMS?"""
    if device.network.leaked_to_network(marker):
        return True
    if device.bluetooth.leaked(marker):
        return True
    text = marker.decode("utf-8", "ignore")
    return bool(text) and device.telephony.leaked(text)


# ---------------------------------------------------------------------------
# Post-mortem audit log (fault injection & recovery)
# ---------------------------------------------------------------------------


@dataclass
class AuditEvent:
    """One audited event: an injected fault, a recovery action, or a
    security violation flagged by the online monitor."""

    seq: int
    category: str  # "fault", "recovery", or "violation"
    message: str
    details: Dict[str, Any] = field(default_factory=dict)
    # Which device's log this event came from. ``seq`` is monotonic *per
    # device*, so ``(seq, device_id)`` totally orders a multi-device feed.
    device_id: str = "device0"

    def render(self) -> str:
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
        return f"[{self.device_id}:{self.seq:04d}] {self.category}: {self.message}" + (
            f" ({detail})" if detail else ""
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (details copied, not shared — lineage lists
        included, so mutating the dict cannot corrupt the log)."""
        return {
            "seq": self.seq,
            "category": self.category,
            "message": self.message,
            "details": copy.deepcopy(self.details),
            "device_id": self.device_id,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AuditEvent":
        return cls(
            seq=int(data["seq"]),
            category=str(data["category"]),
            message=str(data["message"]),
            details=copy.deepcopy(data.get("details", {})),
            device_id=str(data.get("device_id", "device0")),
        )


class AuditLog:
    """Device-wide record of injected faults and recovery actions.

    A crash-sweep post-mortem reads this to see *why* a run failed: which
    fault point fired (with its call-site context), and what every
    recovery step subsequently did — journals replayed or rolled back,
    orphans reaped, namespaces rebuilt, sweep verdicts.
    """

    def __init__(self, device_id: str = "device0") -> None:
        self.device_id = device_id
        self._events: List[AuditEvent] = []
        self._seq = 0
        # Fault-plane sequence numbers already ingested, so repeated
        # recover() calls don't duplicate injection records.
        self._ingested: set = set()
        #: ``fn(event)`` per recorded event — the flight recorder's tap.
        #: Subscribers run synchronously inside :meth:`record`, so a sealer
        #: sees a violation before whoever recorded it can unwind.
        #: :meth:`clear` leaves it alone. Empty (one truthiness check per
        #: record) until something subscribes.
        self.entry_tap = Tap()

    def record(self, category: str, message: str, **details: Any) -> AuditEvent:
        self._seq += 1
        event = AuditEvent(
            seq=self._seq,
            category=category,
            message=message,
            details=details,
            device_id=self.device_id,
        )
        self._events.append(event)
        if self.entry_tap:
            for fn in self.entry_tap:
                fn(event)
        return event

    def ingest_faults(self, plane: Any) -> int:
        """Copy new entries from a fault plane's injection log; returns how
        many were added (already-seen entries are skipped)."""
        added = 0
        for entry in plane.injection_log:
            key = entry.get("seq")
            if key in self._ingested:
                continue
            self._ingested.add(key)
            self.record(
                "fault",
                f"{entry['outcome']} at {entry['point']} (hit #{entry['hit']})",
                point=entry["point"],
                policy=entry.get("policy", ""),
                **entry.get("ctx", {}),
            )
            added += 1
        return added

    def record_violation(
        self,
        rule: str,
        message: str,
        lineage: Optional[List[str]] = None,
        **details: Any,
    ) -> AuditEvent:
        """Record one S1-S4 violation from the security monitor, keeping
        the provenance derivation chain alongside the verdict."""
        return self.record(
            "violation", message, rule=rule, lineage=list(lineage or []), **details
        )

    def events(self, category: Optional[str] = None) -> List[AuditEvent]:
        if category is None:
            return list(self._events)
        return [e for e in self._events if e.category == category]

    def violations(self) -> List[AuditEvent]:
        """Just the security-violation entries, in order."""
        return self.events("violation")

    def render(self) -> str:
        """The post-mortem trace, one line per event."""
        return "\n".join(event.render() for event in self._events)

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0
        self._ingested.clear()

    def __len__(self) -> int:
        return len(self._events)
