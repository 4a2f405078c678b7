"""Telephony (SMS) with the Maxoid delegate guard.

Paper section 6.2: "Telephony Provider [is] modified to prevent delegates
from sending data via ... SMS services."
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.boundary import boundary
from repro.core.netguard import assert_not_delegate
from repro.kernel.proc import Process
from repro.obs import OBS as _OBS


class TelephonyService:
    """SMS out-channel; records messages for egress auditing."""

    def __init__(self, maxoid_enabled: bool = True, obs: Optional[Any] = None) -> None:
        self._maxoid = maxoid_enabled
        self.messages: List[Tuple[str, str, str]] = []  # (context, number, body)
        # The owning device's observability context.
        self.obs = obs if obs is not None else _OBS

    @boundary(
        "sms.send",
        attrs=lambda self, process, number, body: {
            "pid": process.pid, "context": str(process.context)
        },
        count="sms.sends",
        fault=lambda self, process, number, body: {
            "context": str(process.context), "number": number
        },
        sched=lambda self, process, number, body: {
            "number": number, "resource": "sms-egress-log", "rw": "w"
        },
    )
    def send_sms(self, process: Process, number: str, body: str) -> None:
        if self._maxoid:
            assert_not_delegate(process.context, "sms")
        self.messages.append((str(process.context), number, body))

    def leaked(self, secret: str) -> bool:
        return any(secret in body for _, _, body in self.messages)
