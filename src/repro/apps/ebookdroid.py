"""EBookDroid: the Maxoid-aware delegate (paper sections 3.2 and 7.1).

The open-source document viewer stores recent documents and bookmarks in a
private database. The paper's 45-line modification, reproduced here: when
running *normally* it writes to the normal private database (nPriv); when
running as a *delegate* it writes new entries to a database in the
persistent private state (pPriv), and presents a recents list **merged
from both** — so a PDF viewed for Email stays in the recents list across
re-forks of nPriv, but only when the viewer runs on behalf of Email
(Figure 2's lifecycle).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.android.app_api import AppApi
from repro.android.intents import Intent, IntentFilter
from repro.android.storage import PrivateDatabase
from repro.apps.base import AppBuild, SimApp
from repro.kernel import path as vpath

PACKAGE = "org.ebookdroid"

_SCHEMA = "CREATE TABLE recent (id INTEGER PRIMARY KEY, name TEXT, bookmark INTEGER DEFAULT 0)"


class EBookDroidApp(SimApp):
    """The pPriv-aware viewer."""

    BUILD = AppBuild(
        package=PACKAGE,
        label="EBookDroid",
        handles=[IntentFilter(actions=[Intent.ACTION_VIEW])],
    )

    # -- database selection: the heart of the 45-line diff -------------------

    def _recent_db(self, api: AppApi) -> PrivateDatabase:
        """nPriv database when running normally, pPriv when a delegate."""
        if api.maxoid.is_delegate() and api.ppriv.available:
            db = api.ppriv.database("recent")
        else:
            db = api.db("recent")
        if "recent" not in db.table_names():
            db.execute(_SCHEMA)
        return db

    def on_view(self, api: AppApi, intent: Intent) -> Dict[str, Any]:
        if "path" in intent.extras:
            path = str(intent.extras["path"])
            data = api.sys.read_file(path)
            name = vpath.basename(path)
        else:
            data = api.open_input(intent.data)
            name = intent.data.last_segment or "book"
        db = self._recent_db(api)
        db.execute("INSERT INTO recent (name) VALUES (?)", [name])
        return {"name": name, "bytes": len(data), "recent": self.recent_list(api)}

    def recent_list(self, api: AppApi) -> List[str]:
        """Recents merged from the normal and persistent databases."""
        names: List[str] = []
        for db in self._all_databases(api):
            if "recent" in db.table_names():
                names.extend(
                    str(row[0]) for row in db.query("SELECT name FROM recent ORDER BY id").rows
                )
        seen = set()
        merged = []
        for name in names:
            if name not in seen:
                seen.add(name)
                merged.append(name)
        return merged

    def _all_databases(self, api: AppApi) -> List[PrivateDatabase]:
        databases = [api.db("recent")]
        if api.maxoid.is_delegate() and api.ppriv.available:
            databases.append(api.ppriv.database("recent"))
        return databases
