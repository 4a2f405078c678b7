"""Android storage abstractions over the simulated VFS.

- :class:`StorageLayout` — the canonical paths: each app's internal private
  directory ``/data/data/<pkg>``, the persistent-private-state root
  ``/data/data/ppriv/<pkg>`` added by Maxoid, and external storage
  ``EXTDIR`` (``/storage/sdcard``).
- :class:`SharedPreferences` — Android's "shared preferences" key-value
  store. As the paper notes, it is actually a *private* XML file in the
  app's internal storage; storing it as a real file means Maxoid's file
  views version it for free.
- :class:`PrivateDatabase` — an app-private SQLite database *stored as a
  file* in internal storage. The mini SQL engine state is serialized to the
  VFS after every write, so a delegate's database writes are copied-up by
  Aufs exactly as the paper describes (private DBs are just private files).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.errors import FileNotFound
from repro.kernel import path as vpath
from repro.kernel.syscall import Syscalls
from repro.minisql import Database
from repro.minisql.engine import ResultSet
from repro.naming import DATA_ROOT, EXTDIR, PPRIV_ROOT


class StorageLayout:
    """Path helpers for one package."""

    def __init__(self, package: str) -> None:
        self.package = package

    @property
    def internal_dir(self) -> str:
        """The app's private directory in internal storage."""
        return vpath.join(DATA_ROOT, self.package)

    @property
    def ppriv_dir(self) -> str:
        """The app's persistent private state directory (Maxoid API)."""
        return vpath.join(PPRIV_ROOT, self.package)

    @property
    def shared_prefs_path(self) -> str:
        return vpath.join(self.internal_dir, "shared_prefs", "prefs.xml")

    def database_path(self, name: str) -> str:
        return vpath.join(self.internal_dir, "databases", f"{name}.db")

    def ppriv_database_path(self, name: str) -> str:
        return vpath.join(self.ppriv_dir, "databases", f"{name}.db")

    def external_app_dir(self) -> str:
        """The app's dedicated directory on external storage (Android
        4.4-style ``Android/data/<pkg>``)."""
        return vpath.join(EXTDIR, "Android", "data", self.package)


class SharedPreferences:
    """A private key-value store backed by one file.

    Serialized as JSON rather than Android's XML — the content is opaque
    bytes as far as the state model is concerned; what matters is that it
    lives in the app's private file tree.
    """

    def __init__(self, sys: Syscalls, path: str) -> None:
        self._sys = sys
        self._path = path

    def _load(self) -> Dict[str, object]:
        try:
            raw = self._sys.read_file(self._path)
        except FileNotFound:
            return {}
        if not raw:
            return {}
        return json.loads(raw.decode("utf-8"))

    def _store(self, data: Dict[str, object]) -> None:
        self._sys.makedirs(vpath.parent(self._path))
        self._sys.write_file(self._path, json.dumps(data, sort_keys=True).encode("utf-8"))

    def get(self, key: str, default: object = None) -> object:
        return self._load().get(key, default)

    def put(self, key: str, value: object) -> None:
        data = self._load()
        data[key] = value
        self._store(data)

    def remove(self, key: str) -> None:
        data = self._load()
        data.pop(key, None)
        self._store(data)

    def all(self) -> Dict[str, object]:
        return self._load()

    def append_to_list(self, key: str, value: object, max_length: Optional[int] = None) -> None:
        """Convenience for "recent files"-style lists."""
        data = self._load()
        items = list(data.get(key, []))
        items.append(value)
        if max_length is not None:
            items = items[-max_length:]
        data[key] = items
        self._store(data)


class PrivateDatabase:
    """An app-private database persisted as a single file in the VFS.

    Reads load the file through the calling process's mount namespace;
    writes store it back, so Aufs copy-up automatically forks a delegate's
    version. Schema statements (CREATE TABLE/VIEW/TRIGGER) are recorded and
    replayed on load; rows are serialized as JSON.
    """

    def __init__(self, sys: Syscalls, path: str) -> None:
        self._sys = sys
        self._path = path
        # The engine reports sql.* spans into the owning device's context
        # (resolved through the process behind the syscall layer).
        self._db = Database(obs=sys.obs)
        self._ddl: List[str] = []
        self._load()

    # -- persistence -----------------------------------------------------

    def _load(self) -> None:
        try:
            raw = self._sys.read_file(self._path)
        except FileNotFound:
            return
        if not raw:
            return
        snapshot = json.loads(raw.decode("utf-8"))
        self._ddl = list(snapshot.get("ddl", []))
        self._db = Database(obs=self._sys.obs)
        for statement in self._ddl:
            self._db.execute(statement)
        for table_name, payload in snapshot.get("tables", {}).items():
            table = self._db.table(table_name)
            for row in payload.get("rows", []):
                table.insert_row({k: _decode_value(v) for k, v in row.items()})
            base = payload.get("autoincrement_base")
            if base:
                table.set_autoincrement_base(base)

    def _flush(self) -> None:
        tables = {}
        for name in self._db.table_names():
            table = self._db.table(name)
            tables[name] = {
                "rows": [
                    {k: _encode_value(v) for k, v in row.items()}
                    for row in table.all_rows()
                ],
                "autoincrement_base": table._autoincrement_base,
            }
        snapshot = {"ddl": self._ddl, "tables": tables}
        self._sys.makedirs(vpath.parent(self._path))
        self._sys.write_file(
            self._path, json.dumps(snapshot, sort_keys=True).encode("utf-8")
        )

    # -- SQL surface -------------------------------------------------------

    def execute(self, sql: str, params: Sequence[object] = ()) -> ResultSet:
        """Execute SQL; write statements persist the database file."""
        stripped = sql.lstrip().upper()
        is_write = not stripped.startswith("SELECT")
        result = self._db.execute(sql, params)
        if is_write:
            if stripped.startswith(("CREATE", "DROP")):
                self._ddl.append(sql)
            self._flush()
        return result

    def query(self, sql: str, params: Sequence[object] = ()) -> ResultSet:
        return self._db.execute(sql, params)

    def table_names(self) -> List[str]:
        return self._db.table_names()


def _encode_value(value: object) -> object:
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    return value


def _decode_value(value: object) -> object:
    if isinstance(value, dict) and "__bytes__" in value:
        return bytes.fromhex(value["__bytes__"])
    return value
