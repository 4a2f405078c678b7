"""The wrapper app (paper section 7.1).

"We write an app which does nothing but holding sensitive documents. It
can be used as an initiator to force 'real apps' into a *system-wide
incognito mode* by clearing the volatile state after use."
"""

from __future__ import annotations

from repro.android.app_api import AppApi
from repro.android.intents import Intent
from repro.apps.base import AppBuild, SimApp
from repro.core.manifest import MaxoidManifest
from repro.kernel import path as vpath

PACKAGE = "org.maxoid.wrapper"
VAULT_DIR = "wrapper-vault"


class WrapperApp(SimApp):
    """Document vault + incognito session driver."""

    BUILD = AppBuild(
        package=PACKAGE,
        label="Wrapper",
        maxoid=MaxoidManifest(
            private_ext_dirs=[VAULT_DIR],
            # Every outgoing intent is private (blacklist of nothing).
            private_filters=[],
            filter_mode="blacklist",
        ),
    )

    def add_document(self, api: AppApi, name: str, data: bytes) -> str:
        """Put a sensitive document into the private vault."""
        return api.write_external(f"{VAULT_DIR}/{name}", data)

    def open_with_real_app(
        self,
        api: AppApi,
        name: str,
        action: str = Intent.ACTION_VIEW,
        component: str = None,
    ):
        """Open a vault document; every invocation from the wrapper is
        private, so the real app runs confined. ``component`` pins a
        specific app (the user picking from the chooser)."""
        path = vpath.join(api.extdir, VAULT_DIR, name)
        return api.start_activity(Intent(action, component=component, extras={"path": path}))

    def end_session(self, api: AppApi) -> int:
        """The system-wide incognito clean-up: discard all volatile state
        and all delegate-private state left by the session."""
        cleared = api.clear_my_volatile()
        cleared += api.clear_my_delegate_priv()
        return cleared
