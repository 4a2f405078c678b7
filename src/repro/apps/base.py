"""The simulated-app framework.

A :class:`SimApp` is an app's *code*: a ``main(api, intent)`` entry point
plus a declared :class:`AppBuild` (package name, permissions, intent
filters, optional Maxoid manifest). Apps dispatch intents to handler
methods named ``on_<action-suffix>`` and fall back to :meth:`on_default`.

Apps are written exactly as careless as their real counterparts — they
do not know about Maxoid and freely spray state around (that is the point
of the Table 1 study); Maxoid's job is to confine them transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Optional

from repro.android.app_api import AppApi
from repro.android.intents import Intent, IntentFilter
from repro.android.packages import AndroidManifest
from repro.android.permissions import Permission, COMMON_APP_PERMISSIONS
from repro.core.manifest import MaxoidManifest


@dataclass
class AppBuild:
    """What it takes to install an app: manifest pieces."""

    package: str
    label: str = ""
    permissions: FrozenSet[Permission] = COMMON_APP_PERMISSIONS
    handles: List[IntentFilter] = field(default_factory=list)
    maxoid: Optional[MaxoidManifest] = None

    def manifest(self) -> AndroidManifest:
        return AndroidManifest(
            package=self.package,
            label=self.label,
            permissions=self.permissions,
            handles=list(self.handles),
            maxoid=self.maxoid,
        )


_ACTION_SUFFIXES = {
    Intent.ACTION_VIEW: "view",
    Intent.ACTION_EDIT: "edit",
    Intent.ACTION_SEND: "send",
    Intent.ACTION_MAIN: "main_action",
    Intent.ACTION_PICK: "pick",
    Intent.ACTION_SCAN: "scan",
    Intent.ACTION_IMAGE_CAPTURE: "image_capture",
    Intent.ACTION_DOWNLOAD_COMPLETE: "download_complete",
}


class SimApp:
    """Base class for simulated apps."""

    BUILD: AppBuild  # subclasses set this

    def __init__(self) -> None:
        self.invocations: List[str] = []

    @classmethod
    def build(cls) -> AppBuild:
        return cls.BUILD

    @classmethod
    def install(cls, device: Any) -> "SimApp":
        """Install this app (with a fresh instance of its code) on a device."""
        app = cls()
        device.install(cls.BUILD.manifest(), app)
        return app

    # ------------------------------------------------------------------

    def main(self, api: AppApi, intent: Intent) -> Any:
        """Entry point: dispatch the intent to ``on_<action>``."""
        self.invocations.append(intent.action)
        suffix = _ACTION_SUFFIXES.get(intent.action)
        handler = getattr(self, f"on_{suffix}", None) if suffix else None
        if handler is None:
            return self.on_default(api, intent)
        return handler(api, intent)

    def on_default(self, api: AppApi, intent: Intent) -> Any:
        return None
