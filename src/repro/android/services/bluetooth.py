"""Bluetooth Manager Service with the Maxoid delegate guard.

Paper section 6.2: "Bluetooth Manager Service ... modified to prevent
delegates from sending data via Bluetooth". Bluetooth is an off-device
channel Maxoid cannot label, so it is treated like the network.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.boundary import boundary
from repro.core.netguard import assert_not_delegate
from repro.kernel.proc import Process
from repro.obs import OBS as _OBS


class BluetoothService:
    """Records sends so experiments can audit the egress surface."""

    def __init__(self, maxoid_enabled: bool = True, obs: Optional[Any] = None) -> None:
        self._maxoid = maxoid_enabled
        self.sent: List[Tuple[str, bytes]] = []  # (sender context, payload)
        # The owning device's observability context.
        self.obs = obs if obs is not None else _OBS

    @boundary(
        "bt.send",
        attrs=lambda self, process, device, payload: {
            "pid": process.pid, "context": str(process.context), "device": device
        },
        count="bt.sends",
        fault=lambda self, process, device, payload: {
            "context": str(process.context), "device": device
        },
        sched=lambda self, process, device, payload: {
            "device": device, "resource": "bt-egress-log", "rw": "w"
        },
    )
    def send(self, process: Process, device: str, payload: bytes) -> None:
        if self._maxoid:
            assert_not_delegate(process.context, "bluetooth")
        self.sent.append((str(process.context), payload))

    def leaked(self, secret: bytes) -> bool:
        return any(secret in payload for _, payload in self.sent)
