"""The modified system Launcher (paper section 6.3).

Three user gestures, modelled as methods:

1. dragging app A onto the "Initiator" target and tapping app B starts
   ``B^A`` without A invoking anything;
2. dragging A onto "Clear-Vol" discards ``Vol(A)``;
3. dragging A onto "Clear-Priv" discards ``Priv(x^A)`` for every x.

The Launcher is trusted UI running outside any app sandbox, so it calls
the Activity Manager and branch manager directly on the user's behalf.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.android.am import ActivityManagerService, Invocation
from repro.android.intents import Intent


class Launcher:
    """The home screen's Maxoid surface."""

    def __init__(self, am: ActivityManagerService, device: "Any") -> None:
        self._am = am
        self._device = device

    def start(self, package: str, intent: Optional[Intent] = None) -> Invocation:
        """Tap an icon: start the app normally."""
        intent = intent or Intent(Intent.ACTION_MAIN, component=package)
        intent.component = package
        return self._am.start_activity(self._device.system_process, intent)

    def start_as_delegate(
        self, package: str, initiator: str, intent: Optional[Intent] = None
    ) -> Invocation:
        """Drag ``initiator`` to the Initiator target, tap ``package``:
        start ``package^initiator`` without the initiator invoking it."""
        intent = intent or Intent(Intent.ACTION_MAIN, component=package)
        intent.component = package
        return self._am.start_activity(
            self._device.system_process, intent, forced_initiator=initiator
        )

    def clear_vol(self, package: str) -> int:
        """Drag ``package`` to Clear-Vol: discard Vol(package)."""
        return self._device.clear_volatile(package)

    def clear_priv(self, package: str) -> int:
        """Drag ``package`` to Clear-Priv: discard Priv(x^package) for all x."""
        return self._device.clear_delegate_priv(package)
