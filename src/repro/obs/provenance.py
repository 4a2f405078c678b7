"""Cross-layer provenance: taint labels, lineage, and ``explain()``.

The paper's security goals (S1-S4) are statements about where data
derived from ``Priv(A)`` may flow. This module gives the reproduction
first-class runtime labels so those statements can be checked *online*:

- a taint-label lattice ordered ``Public < Vol(A) < Priv(A) < Priv(B^A)``
  (:class:`Label`), joined across initiator chains by set union;
- a :class:`ProvenanceLedger` that attaches label sets to VFS inodes,
  aufs copy-up targets, minisql/COW delta rows, volatile commits, binder
  transaction actors, and clipboard domains. Every instrumented read
  propagates the object's labels into the reading process's taint set;
  every write stamps the destination with the writer's taint set;
- an :meth:`ProvenanceLedger.explain` API that renders the derivation
  chain of any file path, ``(table, pk)`` row, or clipboard domain, e.g.
  ``public /storage/sdcard/out.pdf <- vol.commit by A <- vfs.write by
  B^A <- vfs.read of /data/data/A/doc.txt <- source Priv(A)``.

All hooks gate on ``OBS.prov`` (one attribute load and a branch), the
same zero-cost-when-disabled idiom as ``OBS.enabled`` — with the switch
off the ledger is never entered and the seed-speed fast path is intact.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.naming import EXTDIR
from repro.obs.sweep import parse_delegate_ctx, priv_owner

__all__ = [
    "Label",
    "Lineage",
    "ProvenanceLedger",
    "TaintNode",
    "join_labels",
]

#: Lattice rank per label kind: ``public < vol < priv < dpriv``.
_RANKS = {"public": 0, "vol": 1, "priv": 2, "dpriv": 3}

#: Virtual prefix of volatile file state as the initiator sees it.
_EXT_TMP_PREFIX = f"{EXTDIR}/tmp/"


@dataclass(frozen=True)
class Label:
    """One taint label: a point in the confinement lattice.

    ``kind`` is one of ``public``/``vol``/``priv``/``dpriv``; ``owner``
    names the package the state belongs to (the initiator for ``vol``,
    the delegate for ``dpriv``); ``via`` is the initiator of a
    delegate-private label (``Priv(B^A)`` has ``owner=B, via=A``).
    """

    kind: str
    owner: Optional[str] = None
    via: Optional[str] = None

    @classmethod
    def public(cls) -> "Label":
        """``Pub(all)`` — world-visible state."""
        return cls("public")

    @classmethod
    def vol(cls, initiator: str) -> "Label":
        """``Vol(A)`` — volatile state of initiator ``A``."""
        return cls("vol", owner=initiator)

    @classmethod
    def priv(cls, owner: str) -> "Label":
        """``Priv(A)`` — package-private state of ``A``."""
        return cls("priv", owner=owner)

    @classmethod
    def dpriv(cls, delegate: str, initiator: str) -> "Label":
        """``Priv(B^A)`` — delegate-private state of ``B`` run for ``A``."""
        return cls("dpriv", owner=delegate, via=initiator)

    @property
    def rank(self) -> int:
        """Position in the lattice (``public=0 .. dpriv=3``)."""
        return _RANKS.get(self.kind, 0)

    def __str__(self) -> str:
        if self.kind == "public":
            return "Public"
        if self.kind == "vol":
            return f"Vol({self.owner})"
        if self.kind == "dpriv":
            return f"Priv({self.owner}^{self.via})"
        return f"Priv({self.owner})"


def join_labels(*label_sets: Iterable[Label]) -> FrozenSet[Label]:
    """The lattice join of several label sets (set union)."""
    merged: set = set()
    for labels in label_sets:
        merged.update(labels)
    return frozenset(merged)


def _top_rank(labels: Iterable[Label]) -> int:
    return max((label.rank for label in labels), default=-1)


class TaintNode:
    """One event in the lineage DAG: an op, its labels, and its parents."""

    __slots__ = ("seq", "op", "detail", "ctx", "labels", "location", "parents")

    def __init__(
        self,
        seq: int,
        op: str,
        detail: str,
        ctx: Optional[str],
        labels: FrozenSet[Label],
        parents: Tuple["TaintNode", ...],
        location: Optional[Label] = None,
    ) -> None:
        self.seq = seq
        self.op = op
        self.detail = detail
        self.ctx = ctx
        self.labels = labels
        self.location = location
        self.parents = parents

    def all_labels(self) -> FrozenSet[Label]:
        """Data labels joined with the location label, if any."""
        if self.location is None:
            return self.labels
        return self.labels | {self.location}

    def describe(self) -> str:
        """One human-readable lineage step."""
        if self.op == "source":
            tags = ", ".join(sorted(str(label) for label in self.all_labels()))
            return f"source {self.detail} [{tags}]"
        text = self.op
        if self.op.endswith((".read", ".get", ".query", ".open_file")):
            text += f" of {self.detail}"
        if self.ctx:
            text += f" by {self.ctx}"
        return text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tags = ",".join(sorted(str(label) for label in self.labels))
        return f"<TaintNode #{self.seq} {self.op} {self.detail} [{tags}]>"


@dataclass(frozen=True)
class Lineage:
    """The rendered derivation chain of one object, newest step first."""

    target: str
    steps: Tuple[str, ...]
    taints: FrozenSet[Label]
    sources: FrozenSet[Label]

    def render(self) -> str:
        """The chain as one arrow-joined line."""
        return " <- ".join(self.steps)

    def derives_from(self, kind: str, owner: Optional[str] = None) -> bool:
        """True when the object's taint contains a matching label."""
        for label in self.taints:
            if label.kind == kind and (owner is None or label.owner == owner):
                return True
        return False

    def __bool__(self) -> bool:
        return bool(self.steps)


class _ThreadActors(threading.local):
    """The actor stack, one per thread: flows the scheduler interleaves
    run on their own threads and keep their own attribution."""

    def __init__(self) -> None:
        self.actors: List[Tuple[Optional[str], Optional[int]]] = []


class ProvenanceLedger:
    """Label storage plus the event API the instrumented layers call.

    Objects are keyed by stable identity — inode number for files (the
    process-global ino counter is unique across every simulated
    filesystem, so copy-up targets and volatile files never collide),
    ``(table, pk)`` for rows, domain name for clipboards. The last-known
    virtual path of each file is remembered so :meth:`explain` accepts
    the paths tests and humans actually use.
    """

    def __init__(self, tracer: Optional[Any] = None) -> None:
        self._tracer = tracer
        self._seq = 0
        self._objects: Dict[str, TaintNode] = {}
        self._paths: Dict[str, str] = {}
        self._process: Dict[int, TaintNode] = {}
        self._proc_ctx: Dict[int, str] = {}
        self._thread = _ThreadActors()

    # -- keys ------------------------------------------------------------

    @staticmethod
    def inode_key(ino: int) -> str:
        """Ledger key of a file object, by inode number."""
        return f"inode:{ino}"

    @staticmethod
    def row_key(table: str, pk: object) -> str:
        """Ledger key of a database row."""
        return f"row:{table.lower()}:{pk}"

    @staticmethod
    def clip_key(domain: str) -> str:
        """Ledger key of a clipboard domain."""
        return f"clip:{domain}"

    # -- internals -------------------------------------------------------

    def _node(
        self,
        op: str,
        detail: str,
        ctx: Optional[str],
        labels: FrozenSet[Label],
        parents: Tuple[TaintNode, ...],
        location: Optional[Label] = None,
    ) -> TaintNode:
        self._seq += 1
        return TaintNode(self._seq, op, detail, ctx, labels, parents, location)

    def _emit(self, event: str, **attrs: Any) -> None:
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event(f"prov.{event}", **attrs)

    def _file_key(self, path: str, ino: Optional[int]) -> str:
        if ino is not None:
            return self.inode_key(ino)
        # Path-only events (layers with no inode handle) bind to whatever
        # object this virtual path last resolved to.
        return self._paths.get(path, f"path:{path}")

    def classify_path(self, path: str, ctx: Optional[str] = None) -> Label:
        """The label of an unstamped file, from its virtual path alone."""
        owner = priv_owner(path)
        if owner is not None:
            pair = parse_delegate_ctx(ctx)
            if pair is not None and owner == pair[0]:
                return Label.dpriv(pair[0], pair[1])
            return Label.priv(owner)
        if path.startswith(_EXT_TMP_PREFIX) and ctx and parse_delegate_ctx(ctx) is None:
            return Label.vol(ctx)
        return Label.public()

    def _dest_location(self, path: str, ctx: Optional[str]) -> Label:
        """Where a write to ``path`` by ``ctx`` actually lands."""
        pair = parse_delegate_ctx(ctx)
        owner = priv_owner(path)
        if pair is not None:
            delegate, initiator = pair
            if owner == delegate:
                return Label.dpriv(delegate, initiator)
            # Every other delegate write — public view, foreign priv after
            # copy-up redirect — lands in the initiator's volatile state.
            return Label.vol(initiator)
        if owner is not None:
            return Label.priv(owner)
        if ctx and path.startswith(_EXT_TMP_PREFIX):
            return Label.vol(ctx)
        return Label.public()

    def _declassify(
        self, labels: FrozenSet[Label], ctx: Optional[str], location: Label
    ) -> FrozenSet[Label]:
        """A *plain* process publishing to a Public location declassifies
        the labels it owns — an app (or the user driving it) may choose
        to publish its own data, and flagging every later reader of that
        data would drown real leaks in false positives. Foreign labels
        always persist: nobody declassifies someone else's state. A
        delegate never declassifies anything — under Maxoid its public
        writes land in Vol anyway, and on a broken device (planted
        vulnerability, stock baseline) the surviving taint is exactly
        what the S1 taint rule needs to see."""
        if location.kind != "public" or not labels or ctx is None:
            return labels
        if parse_delegate_ctx(ctx) is not None:
            return labels
        return frozenset(
            label
            for label in labels
            if not (label.owner == ctx and label.via is None)
        )

    def _resolve_object(self, path: str, ino: Optional[int], ctx: Optional[str]) -> TaintNode:
        key = self._file_key(path, ino)
        node = self._objects.get(key)
        if node is None and ino is not None:
            node = self._objects.get(f"path:{path}")
        if node is None:
            source = self.classify_path(path, ctx)
            node = self._node("source", path, None, frozenset([source]), (), source)
            self._objects[key] = node
        self._paths[path] = key
        return node

    def _taint_process(
        self, pid: int, ctx: Optional[str], op: str, detail: str, obj: TaintNode
    ) -> TaintNode:
        prev = self._process.get(pid)
        merged = join_labels(
            prev.labels if prev is not None else (), obj.all_labels()
        )
        parents = tuple(p for p in (obj, prev) if p is not None)
        node = self._node(op, detail, ctx, merged, parents)
        self._process[pid] = node
        if ctx is not None:
            self._proc_ctx[pid] = ctx
        return node

    # -- process and actor lifecycle ------------------------------------

    def fork(self, pid: int, ctx: str) -> None:
        """Register a freshly forked process with an empty taint set."""
        self._proc_ctx[pid] = ctx
        self._process.pop(pid, None)
        self._emit("fork", pid=pid, ctx=ctx)

    def intent_flow(self, from_pid: int, to_pid: int, from_ctx: str, to_ctx: str) -> None:
        """Propagate the caller's taint into an invoked process (the
        intent payload crosses the AM on the caller's behalf)."""
        src = self._process.get(from_pid)
        if src is None:
            self._proc_ctx[to_pid] = to_ctx
            return
        node = self._node("am.start_activity", to_ctx, from_ctx, src.labels, (src,))
        self._process[to_pid] = node
        self._proc_ctx[to_pid] = to_ctx
        self._emit("intent", src=from_ctx, dst=to_ctx)

    def push_actor(self, ctx: Optional[str], pid: Optional[int] = None) -> None:
        """Enter a layer that has no process handle (binder, aufs, SQL):
        subsequent stamps attribute to this actor until the pop."""
        self._thread.actors.append((ctx, pid))

    def pop_actor(self) -> None:
        """Leave the innermost actor scope (balanced with push_actor)."""
        actors = self._thread.actors
        if actors:
            actors.pop()

    def clear_actors(self) -> None:
        """Drop every thread's residual actor scopes (teardown after an
        aborted op that raised between a push and its balancing pop)."""
        self._thread = _ThreadActors()

    def current_actor(self) -> Tuple[Optional[str], Optional[int]]:
        """The innermost ``(ctx, pid)`` actor, or ``(None, None)``."""
        actors = self._thread.actors
        return actors[-1] if actors else (None, None)

    def _actor_taint(self) -> Tuple[Optional[str], Optional[TaintNode]]:
        ctx, pid = self.current_actor()
        node = self._process.get(pid) if pid is not None else None
        return ctx, node

    # -- file events -----------------------------------------------------

    def read(self, pid: int, ctx: str, path: str, ino: Optional[int] = None) -> None:
        """A process read a file: its labels join the process taint set."""
        obj = self._resolve_object(path, ino, ctx)
        self._taint_process(pid, ctx, "vfs.read", path, obj)
        self._emit("read", ctx=ctx, path=path)

    def write(self, pid: int, ctx: str, path: str, ino: Optional[int] = None) -> None:
        """A process wrote a file: the destination inherits its taint."""
        prev = self._process.get(pid)
        labels = prev.labels if prev is not None else frozenset()
        location = self._dest_location(path, ctx)
        labels = self._declassify(labels, ctx, location)
        node = self._node(
            "vfs.write", path, ctx, labels,
            (prev,) if prev is not None else (), location,
        )
        key = self._file_key(path, ino)
        self._objects[key] = node
        self._paths[path] = key
        self._emit("write", ctx=ctx, path=path)

    def copy_up(
        self, src_ino: int, dst_ino: int, union_path: str, mount: str = ""
    ) -> None:
        """Aufs copied a lower-branch file into the writable branch: the
        copy-up target inherits the source's labels verbatim."""
        src = self._objects.get(self.inode_key(src_ino))
        ctx, _ = self.current_actor()
        if src is None:
            src_label = self.classify_path(union_path, ctx)
            src = self._node(
                "source", union_path, None, frozenset([src_label]), (), src_label
            )
            self._objects[self.inode_key(src_ino)] = src
        detail = f"{union_path} ({mount})" if mount else union_path
        node = self._node(
            "aufs.copy_up", detail, ctx, src.all_labels(), (src,), src.location
        )
        self._objects[self.inode_key(dst_ino)] = node
        self._emit("copy_up", path=union_path, mount=mount)

    def commit_file(self, src_path: str, dst_path: str, initiator: str) -> None:
        """An initiator committed a volatile file to its public name."""
        src = None
        key = self._paths.get(src_path)
        if key is not None:
            src = self._objects.get(key)
        labels = src.all_labels() if src is not None else frozenset([Label.vol(initiator)])
        location = self._dest_location(dst_path, initiator)
        node = self._node(
            "vol.commit", dst_path, initiator, labels,
            (src,) if src is not None else (), location,
        )
        dst_key = self._paths.get(dst_path, f"path:{dst_path}")
        self._objects[dst_key] = node
        self._paths[dst_path] = dst_key
        self._emit("commit", src=src_path, dst=dst_path, initiator=initiator)

    def transfer(self, from_pid: int, to_pid: int, op: str, detail: str) -> None:
        """A cross-process data hand-off (a provider ``openFile``
        descriptor): the serving process's taint joins the receiver's."""
        src = self._process.get(from_pid)
        if src is None:
            return
        ctx = self._proc_ctx.get(to_pid) or self.current_actor()[0]
        self._taint_process(to_pid, ctx, op, detail, src)
        self._emit("transfer", op=op, detail=detail)

    # -- row events ------------------------------------------------------

    def row_write(
        self,
        table: str,
        pk: object,
        op: str = "cow.insert",
        initiator: Optional[str] = None,
    ) -> None:
        """A row landed in ``table``: delta rows carry ``Vol(initiator)``
        plus the acting process's taint; public rows carry the actor's."""
        ctx, actor = self._actor_taint()
        labels = actor.labels if actor is not None else frozenset()
        if initiator is not None:
            labels = labels | {Label.vol(initiator)}
            location: Label = Label.vol(initiator)
        else:
            location = Label.public()
            labels = self._declassify(labels, ctx, location)
        node = self._node(
            op, f"{table}[{pk}]", ctx, labels,
            (actor,) if actor is not None else (), location,
        )
        self._objects[self.row_key(table, pk)] = node
        self._emit("row", table=table, pk=pk, op=op)

    def row_commit(
        self,
        table: str,
        pk: object,
        delta_table: str,
        delta_pk: object,
        initiator: str,
    ) -> None:
        """A delta row was committed into the primary table: the public
        row's lineage points back at the volatile delta row."""
        src = self._objects.get(self.row_key(delta_table, delta_pk))
        labels = src.all_labels() if src is not None else frozenset([Label.vol(initiator)])
        ctx, _ = self.current_actor()
        node = self._node(
            "cow.commit", f"{table}[{pk}]", ctx or initiator, labels,
            (src,) if src is not None else (), Label.public(),
        )
        self._objects[self.row_key(table, pk)] = node
        self._emit("commit", table=table, pk=pk, initiator=initiator)

    def table_read(self, tables: Iterable[str]) -> None:
        """A query scanned ``tables``: every stamped row's labels join the
        current actor's taint. Callers pass exactly the tables their view
        resolves to (primary only for plain callers, primary + delta for
        delegates), so rows invisible to the view never over-taint."""
        ctx, pid = self.current_actor()
        if pid is None:
            return
        for table in tables:
            prefix = f"row:{table.lower()}:"
            for key, node in list(self._objects.items()):
                if key.startswith(prefix):
                    self._taint_process(pid, ctx, "cow.query", node.detail, node)
        self._emit("query", tables=",".join(tables))

    # -- clipboard events ------------------------------------------------

    def clip_set(self, pid: int, ctx: str, domain: str) -> None:
        """A copy: the clipboard domain inherits the setter's taint."""
        prev = self._process.get(pid)
        labels = prev.labels if prev is not None else frozenset()
        if domain.startswith("vol:"):
            location: Label = Label.vol(domain[len("vol:"):])
        else:
            location = Label.public()
        labels = self._declassify(labels, ctx, location)
        node = self._node(
            "clip.set", domain, ctx, labels,
            (prev,) if prev is not None else (), location,
        )
        self._objects[self.clip_key(domain)] = node
        self._emit("clip", ctx=ctx, domain=domain)

    def clip_get(self, pid: int, ctx: str, domain: str) -> None:
        """A paste: the domain's labels join the reader's taint set."""
        node = self._objects.get(self.clip_key(domain))
        if node is None:
            return
        self._taint_process(pid, ctx, "clip.get", domain, node)
        self._emit("clip", ctx=ctx, domain=domain)

    # -- queries ---------------------------------------------------------

    def process_taint(self, pid: int) -> FrozenSet[Label]:
        """The current taint set of a process (empty if untracked)."""
        node = self._process.get(pid)
        return node.labels if node is not None else frozenset()

    def object_node(self, target: Union[str, int, Tuple[str, object]]) -> Optional[TaintNode]:
        """Resolve a path / inode number / ``(table, pk)`` pair / raw key
        to its ledger node, or None when untracked."""
        if isinstance(target, int):
            return self._objects.get(self.inode_key(target))
        if isinstance(target, tuple):
            return self._objects.get(self.row_key(target[0], target[1]))
        node = self._objects.get(target)
        if node is not None:
            return node
        key = self._paths.get(target)
        if key is not None:
            return self._objects.get(key)
        return self._objects.get(f"path:{target}")

    def taint_of(self, target: Union[str, int, Tuple[str, object]]) -> FrozenSet[Label]:
        """The data-taint labels of an object (no location label)."""
        node = self.object_node(target)
        return node.labels if node is not None else frozenset()

    def explain(self, target: Union[str, int, Tuple[str, object]]) -> Lineage:
        """Render the derivation chain of a file path, row, or domain.

        Walks the lineage DAG from the object backwards, at each hop
        following the parent that carries the highest-ranked label, so
        the chain surfaces *how the most sensitive taint got there*.
        Returns a falsy empty Lineage for untracked objects.
        """
        name = str(target) if not isinstance(target, tuple) else f"{target[0]}[{target[1]}]"
        node = self.object_node(target)
        if node is None:
            return Lineage(name, (), frozenset(), frozenset())
        location = node.location if node.location is not None else Label.public()
        steps: List[str] = [f"{str(location).lower()} {node.detail or name}"]
        taints = node.labels
        current: Optional[TaintNode] = node
        seen = set()
        last = node
        while current is not None and id(current) not in seen:
            seen.add(id(current))
            steps.append(current.describe())
            last = current
            if not current.parents:
                break
            current = max(
                current.parents, key=lambda parent: (_top_rank(parent.all_labels()), parent.seq)
            )
        return Lineage(name, tuple(steps), taints, last.all_labels())

    def reset(self) -> None:
        """Drop every label, lineage node, and actor."""
        self._seq = 0
        self._objects.clear()
        self._paths.clear()
        self._process.clear()
        self._proc_ctx.clear()
        self._thread = _ThreadActors()
