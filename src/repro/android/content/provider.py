"""The content-provider framework: values, resolver, per-URI grants, and
:class:`CowProvider`, the base of every system provider whose records
live in a COW proxy.

Provider calls are Binder transactions, so the Maxoid Binder policy (a
delegate may talk to system providers, its initiator, and sibling
delegates) applies automatically. System content providers are trusted
system endpoints; app-defined providers belong to their owning package.

Per-URI permissions model Android's ``FLAG_GRANT_READ_URI_PERMISSION``
(the Email-attachment mechanism, paper section 2.2): a one-time, read-only
capability for one URI, checked when the target opens the URI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import FileNotFound, ProviderNotFound, SecurityException
from repro.android.uri import Uri
from repro.android.content.system_io import SystemStorageIO
from repro.core.cow import CowProxy
from repro.kernel.binder import BinderDriver, Transaction
from repro.kernel.proc import Process, TaskContext
from repro.minisql.engine import ResultSet
from repro.naming import initiator_key


class ContentValues:
    """Column values for an insert/update, plus Maxoid's ``isVolatile``
    flag (paper section 6.1, initiator API 4)."""

    def __init__(self, values: Optional[Dict[str, object]] = None, is_volatile: bool = False):
        self._values: Dict[str, object] = dict(values or {})
        self.is_volatile = is_volatile

    def put(self, key: str, value: object) -> "ContentValues":
        self._values[key] = value
        return self

    def get(self, key: str, default: object = None) -> object:
        return self._values.get(key, default)

    def as_dict(self) -> Dict[str, object]:
        return dict(self._values)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)


class ContentProvider:
    """Base class for providers.

    Subclasses implement the four content operations. ``context`` is the
    *calling process's* task context: providers use it (via the Maxoid API
    the paper describes) to select the correct view in the COW proxy.
    """

    authority: str = ""
    #: Package owning an app-defined provider; None marks a trusted system
    #: provider reachable by delegates.
    owner: Optional[str] = None
    #: Android's ``android:exported="true"`` with no permission attribute:
    #: any app may open the provider's URIs without a per-URI grant. The
    #: indirect-file-leak attack surface (see repro.apps.adversarial) —
    #: Binder policy for delegates still applies on top.
    exported: bool = False

    def insert(self, uri: Uri, values: ContentValues, context: TaskContext) -> Uri:
        raise NotImplementedError

    def update(
        self,
        uri: Uri,
        values: ContentValues,
        where: Optional[str],
        params: Sequence[object],
        context: TaskContext,
    ) -> int:
        raise NotImplementedError

    def delete(
        self, uri: Uri, where: Optional[str], params: Sequence[object], context: TaskContext
    ) -> int:
        raise NotImplementedError

    def query(
        self,
        uri: Uri,
        projection: Optional[Sequence[str]],
        where: Optional[str],
        params: Sequence[object],
        order_by: Optional[str],
        context: TaskContext,
    ) -> ResultSet:
        raise NotImplementedError

    def open_file(self, uri: Uri, context: TaskContext) -> bytes:
        """Return the file content a URI maps to (the simulated
        ParcelFileDescriptor hand-off)."""
        raise NotImplementedError

    # -- helper --------------------------------------------------------------

    @staticmethod
    def initiator_of(context: TaskContext) -> Optional[str]:
        """The COW-proxy initiator for a caller: its initiator when it is a
        delegate, else None (operate on public state)."""
        return context.initiator if context.is_delegate else None


class CowProvider(ContentProvider):
    """A trusted system provider whose records live in one COW proxy.

    A subclass builds ``self.proxy`` with its schema and names, in
    ``routes``, the proxy table or view each URI path segment addresses;
    this class routes the content operations through the proxy (paper
    5.2). A row URI ``.../<segment>/<n>`` selects on the primary key of
    the table it names, or on ``_id`` for a view. Views are read-only.

    Volatile URIs (``content://<authority>/tmp/...``, paper 5.1) are an
    initiator's window onto its own volatile records. A delegate gets
    ``SecurityException`` for one on every operation: delegates always
    use normal URIs, and their confinement is the proxy's job. An
    initiator's operation through one touches only its delta tables.
    """

    owner = None
    #: URI path segment -> the proxy table or view it addresses.
    routes: Dict[str, str] = {}
    proxy: CowProxy
    #: File access for providers whose rows name a file in ``_data``.
    _io: Optional[SystemStorageIO] = None

    def _route(
        self, uri: Uri, context: TaskContext, write: bool = False
    ) -> Tuple[str, str, Optional[str]]:
        """The URI's path segment, the table or view it addresses, and
        that source's primary key (None for a view)."""
        if uri.is_volatile and context.is_delegate:
            raise SecurityException("volatile URIs are reserved for initiators")
        segments = uri.to_normal().segments
        segment = segments[0] if segments else ""
        source = self.routes.get(segment)
        if source is None:
            raise FileNotFound(str(uri))
        key = self.proxy.primary_key(source)
        if key is None and (write or uri.is_volatile):
            raise SecurityException(f"{source} is a read-only view; use its tables")
        return segment, source, key

    @staticmethod
    def _row_clause(
        key: Optional[str], uri: Uri, where: Optional[str], params: Sequence[object]
    ) -> Tuple[Optional[str], List[object]]:
        """``where`` narrowed to the row a row URI names."""
        row_id = uri.row_id
        if row_id is None:
            return where, list(params)
        clause = f"{key or '_id'} = ?"
        if where:
            clause = f"({where}) AND {clause}"
        return clause, list(params) + [row_id]

    def _on_delta(
        self,
        context: TaskContext,
        source: str,
        sql: str,
        clause: Optional[str],
        params: List[object],
        order_by: Optional[str] = None,
    ) -> ResultSet:
        """Run ``sql`` on the caller's own delta table for ``source``, which
        ``{delta}`` names in it; an empty result when it has none."""
        if context.app is None or not self.proxy.has_delta(source, context.app):
            return ResultSet()
        sql = sql.replace("{delta}", self.proxy.delta_name(source, context.app))
        if clause:
            sql += f" WHERE {clause}"
        if order_by:
            sql += f" ORDER BY {order_by}"
        return self.proxy.db.execute(sql, params)

    def _insert_row(
        self, source: str, record: Dict[str, object], context: TaskContext, volatile: bool
    ) -> int:
        """Write one row in the caller's state and return its key: the
        caller's delta table for a volatile record, else public state or,
        for a delegate, its initiator's COW view. The hook for providers
        whose inserts do more than store a row."""
        if volatile:
            return self.proxy.insert_volatile(source, context.app, record)
        return self.proxy.insert(source, self.initiator_of(context), record)

    def insert(self, uri: Uri, values: ContentValues, context: TaskContext) -> Uri:
        segment, source, _ = self._route(uri, context, write=True)
        volatile = values.is_volatile or uri.is_volatile
        if volatile and context.is_delegate:
            raise SecurityException("only initiators may create volatile records explicitly")
        if volatile and context.app is None:
            raise SecurityException("isVolatile requires an app caller")
        row_id = self._insert_row(source, values.as_dict(), context, volatile)
        row_uri = Uri(Uri.SCHEME_CONTENT, self.authority, (segment, str(row_id)))
        return row_uri.to_volatile() if volatile else row_uri

    def update(
        self,
        uri: Uri,
        values: ContentValues,
        where: Optional[str],
        params: Sequence[object],
        context: TaskContext,
    ) -> int:
        _, source, key = self._route(uri, context, write=True)
        clause, bound = self._row_clause(key, uri, where, params)
        record = values.as_dict()
        if uri.is_volatile:
            sql = "UPDATE {delta} SET " + ", ".join(f"{c} = ?" for c in record)
            bound = list(record.values()) + bound
            return self._on_delta(context, source, sql, clause, bound).rowcount
        return self.proxy.update(source, self.initiator_of(context), record, clause, bound)

    def delete(
        self, uri: Uri, where: Optional[str], params: Sequence[object], context: TaskContext
    ) -> int:
        _, source, key = self._route(uri, context, write=True)
        clause, bound = self._row_clause(key, uri, where, params)
        if uri.is_volatile:
            return self._on_delta(context, source, "DELETE FROM {delta}", clause, bound).rowcount
        return self.proxy.delete(source, self.initiator_of(context), clause, bound)

    def query(
        self,
        uri: Uri,
        projection: Optional[Sequence[str]],
        where: Optional[str],
        params: Sequence[object],
        order_by: Optional[str],
        context: TaskContext,
    ) -> ResultSet:
        _, source, key = self._route(uri, context)
        clause, bound = self._row_clause(key, uri, where, params)
        if uri.is_volatile:
            # The delta rows themselves; whiteouts are not records.
            sql = f"SELECT {', '.join(projection or ['*'])} FROM " + "{delta}"
            clause = f"_whiteout = 0 AND ({clause})" if clause else "_whiteout = 0"
            return self._on_delta(context, source, sql, clause, bound, order_by)
        return self.proxy.query(
            source,
            self.initiator_of(context),
            projection=projection,
            where=clause,
            params=bound,
            order_by=order_by,
        )

    def open_file(self, uri: Uri, context: TaskContext) -> bytes:
        """Read the file a row's ``_data`` names, from the state the row
        belongs to. Only rows in the caller's view count: public rows, plus
        its initiator's delta for a delegate and its own delta through a
        volatile URI (found through the proxy's administrative view)."""
        _, source, key = self._route(uri, context)
        row_id = uri.row_id
        if self._io is None or key is None or row_id is None:
            raise FileNotFound(str(uri))
        owner = self.initiator_of(context) or (context.app if uri.is_volatile else None)
        visible = (None, initiator_key(owner) if owner else None)
        found = None
        for row in self.proxy.admin_rows(source):
            # A delta row comes after the public row it shadows.
            if row[key] == row_id and CowProxy.state_initiator(str(row["_state"])) in visible:
                found = row
        if found is None or found["_whiteout"]:
            raise FileNotFound(str(uri))
        state = CowProxy.state_initiator(str(found["_state"]))
        return self._io.read(state, str(found["_data"]))


@dataclass
class _Grant:
    grantee: str
    uri: str
    one_time: bool


class UriPermissionGrants:
    """Android's per-URI permission table (read grants only, as in the
    Email case study)."""

    def __init__(self) -> None:
        self._grants: List[_Grant] = []

    def grant(self, grantee: str, uri: Uri, one_time: bool = True) -> None:
        self._grants.append(_Grant(grantee=grantee, uri=str(uri), one_time=one_time))

    def consume(self, grantee: str, uri: Uri) -> bool:
        """Check (and for one-time grants, consume) a read grant."""
        key = str(uri)
        for index, grant in enumerate(self._grants):
            if grant.grantee == grantee and grant.uri == key:
                if grant.one_time:
                    del self._grants[index]
                return True
        return False

    def has_grant(self, grantee: str, uri: Uri) -> bool:
        key = str(uri)
        return any(g.grantee == grantee and g.uri == key for g in self._grants)


class ContentResolver:
    """Routes content operations to providers over Binder."""

    def __init__(self, binder: BinderDriver) -> None:
        self._binder = binder
        self._providers: Dict[str, ContentProvider] = {}
        self.grants = UriPermissionGrants()

    def register(self, provider: ContentProvider) -> None:
        if not provider.authority:
            raise ValueError("provider needs an authority")
        self._providers[provider.authority] = provider
        self._binder.register(
            f"provider:{provider.authority}",
            self._make_handler(provider),
            owner=provider.owner,
            is_system=provider.owner is None,
        )

    def provider(self, authority: str) -> ContentProvider:
        provider = self._providers.get(authority)
        if provider is None:
            raise ProviderNotFound(authority)
        return provider

    def _make_handler(self, provider: ContentProvider):
        def handler(transaction: Transaction) -> Any:
            op = transaction.code
            args = transaction.payload
            context = transaction.sender_context
            if op == "insert":
                return provider.insert(args["uri"], args["values"], context)
            if op == "update":
                return provider.update(
                    args["uri"], args["values"], args["where"], args["params"], context
                )
            if op == "delete":
                return provider.delete(args["uri"], args["where"], args["params"], context)
            if op == "query":
                return provider.query(
                    args["uri"],
                    args["projection"],
                    args["where"],
                    args["params"],
                    args["order_by"],
                    context,
                )
            if op == "open_file":
                return provider.open_file(args["uri"], context)
            raise ValueError(f"unknown provider operation {op}")

        return handler

    # -- the client API ---------------------------------------------------

    def _transact(self, process: Process, uri: Uri, code: str, payload: Dict[str, Any]) -> Any:
        self.provider(uri.authority)  # fail fast with ProviderNotFound
        return self._binder.transact(process, f"provider:{uri.authority}", code, payload)

    def insert(self, process: Process, uri: Uri, values: ContentValues) -> Uri:
        return self._transact(process, uri, "insert", {"uri": uri, "values": values})

    def update(
        self,
        process: Process,
        uri: Uri,
        values: ContentValues,
        where: Optional[str] = None,
        params: Sequence[object] = (),
    ) -> int:
        return self._transact(
            process, uri, "update", {"uri": uri, "values": values, "where": where, "params": params}
        )

    def delete(
        self,
        process: Process,
        uri: Uri,
        where: Optional[str] = None,
        params: Sequence[object] = (),
    ) -> int:
        return self._transact(process, uri, "delete", {"uri": uri, "where": where, "params": params})

    def query(
        self,
        process: Process,
        uri: Uri,
        projection: Optional[Sequence[str]] = None,
        where: Optional[str] = None,
        params: Sequence[object] = (),
        order_by: Optional[str] = None,
    ) -> ResultSet:
        return self._transact(
            process,
            uri,
            "query",
            {
                "uri": uri,
                "projection": projection,
                "where": where,
                "params": params,
                "order_by": order_by,
            },
        )

    def open_input(self, process: Process, uri: Uri) -> bytes:
        """Open a provider URI for reading. For app-defined providers this
        checks per-URI grants (unless the caller is the owner, its
        delegate running for the owner's initiator chain, or was granted)."""
        provider = self.provider(uri.authority)
        if (
            provider.owner is not None
            and not provider.exported
            and process.context.app != provider.owner
        ):
            caller = process.context.app or ""
            if not self.grants.consume(caller, uri):
                raise SecurityException(
                    f"{process.context} has no grant for {uri}"
                )
        return self._transact(process, uri, "open_file", {"uri": uri})
