"""A clipboard mule: launders secrets through the global clipboard.

The clipboard is world-readable on stock Android: anything a victim (or
a victim's delegate) copies is visible to every installed app. This mule
polls the clipboard and republishes each paste to public external
storage — the laundering hop that defeats path-based access rules,
because the mule itself never touches the victim's files.

Maxoid's per-confinement-domain clipboards (paper section 6.2) break the
channel: a delegate's copy lands in the initiator's delegate clipboard,
so the mule's poll of the main clipboard comes back empty. Disabling
exactly that isolation is the fuzz plane's canonical planted
vulnerability — the taint-flow S1 rule then flags the mule's publish
with a lineage running file -> clipboard -> file back to the Priv source.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.android.app_api import AppApi
from repro.android.content.provider import ContentProvider, ContentValues
from repro.android.intents import Intent, IntentFilter
from repro.android.uri import Uri
from repro.apps.base import AppBuild, SimApp
from repro.kernel.proc import TaskContext
from repro.minisql.engine import ResultSet

PACKAGE = "com.attacker.clipmule"

#: The mule's exported dead-drop: any caller the binder admits may insert
#: bytes, which the mule's plain serving process republishes publicly.
DROP_AUTHORITY = "com.attacker.clipmule.drop"

#: External-storage directory pastes are republished into.
LOOT_DIR = "clipmule/loot"


class ClipDropProvider(ContentProvider):
    """``content://com.attacker.clipmule.drop/<name>`` — an exported,
    unprotected insert surface that publishes whatever it is handed.

    Under Maxoid this surface is dead to delegates: the binder guard
    refuses a ``B^A`` sender a channel to the plain mule's provider
    (different confinement domains), so the secret can never reach the
    serving process. Only a broken guard — e.g. the planted
    ``binder-guard-race`` check-then-act window — lets an insert through,
    and then the caller-taint transfer below makes the mule's public
    republish light up the taint-flow S1 rule."""

    authority = DROP_AUTHORITY
    owner = PACKAGE
    exported = True  # android:exported="true", no permission attribute

    def __init__(self, app: "ClipboardLaundererApp") -> None:
        self._app = app

    def insert(self, uri: Uri, values: ContentValues, context: TaskContext) -> Uri:
        api = self._app.require_api()
        name = uri.last_segment or "drop"
        data = values.get("data", b"")
        if isinstance(data, str):
            data = data.encode("latin-1")
        obs = api.process.obs
        if obs.prov:
            # The payload hand-off moves the *caller's* taint into the
            # serving process (the binder layer pushed the caller as
            # actor), so the republish below stamps what actually flowed.
            _, caller_pid = obs.provenance.current_actor()
            if caller_pid is not None:
                obs.provenance.transfer(
                    caller_pid, api.process.pid, "provider.insert", str(uri)
                )
        path = api.write_external(f"{LOOT_DIR}/{name}.bin", data)
        self._app.loot.append(path)
        return uri

    def query(
        self,
        uri: Uri,
        projection: Optional[Sequence[str]],
        where: Optional[str],
        params: Sequence[object],
        order_by: Optional[str],
        context: TaskContext,
    ) -> ResultSet:
        return ResultSet(
            columns=["path"], rows=[(p,) for p in sorted(self._app.loot)]
        )


class ClipboardLaundererApp(SimApp):
    """Polls the clipboard; republishes every paste publicly."""

    BUILD = AppBuild(
        package=PACKAGE,
        label="Clip Mule",
        handles=[IntentFilter(actions=[Intent.ACTION_MAIN], priority=0)],
    )

    def __init__(self) -> None:
        super().__init__()
        #: Paths of published loot files, in poll order.
        self.loot: List[str] = []
        self.provider = ClipDropProvider(self)
        self._device: Optional[Any] = None
        self._serving_api: Optional[AppApi] = None

    def on_install(self, device: Any, installed: Any) -> None:
        self._device = device
        device.register_app_provider(self.provider)

    def require_api(self) -> AppApi:
        """The drop provider's serving process: always a *plain* instance
        of the mule (providers run in the owner's own process)."""
        if self._serving_api is None or not self._serving_api.process.alive:
            if self._device is None:
                raise RuntimeError(f"{PACKAGE} is not installed on a device")
            self._serving_api = self._device.spawn(PACKAGE)
        return self._serving_api

    def on_main_action(self, api: AppApi, intent: Intent) -> Dict[str, Any]:
        return {"published": self.poll(api)}

    def poll(self, api: AppApi) -> Optional[str]:
        """One poll: paste, and publish the paste if there was one."""
        text = api.clipboard_get()
        if not text:
            return None
        path = api.write_external(
            f"{LOOT_DIR}/loot-{len(self.loot)}.bin", text.encode("latin-1")
        )
        self.loot.append(path)
        return path
