"""The Activity Manager Service (paper sections 3.4, 6.2).

Routes intents between apps, decides each invocation's execution context
(normal start vs delegate), enforces invocation transitivity, kills
conflicting instances, and scopes broadcasts.

Maxoid behaviour is pluggable: with ``ipc_guard=None`` the AM behaves like
stock Android (every invocation is a normal start and broadcasts go
everywhere), which is the benchmark baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.boundary import boundary, tag
from repro.errors import ActivityNotFound, NoSuchProcess
from repro.android.intents import Intent, IntentFilter
from repro.android.packages import PackageManager
from repro.android.zygote import Zygote
from repro.kernel.binder import BinderDriver, Transaction
from repro.kernel.proc import Process, ProcessTable, TaskContext
from repro.obs import OBS as _OBS

# An app's entry point: receives (process, intent), returns a result that
# is handed back to the invoker (startActivityForResult semantics).
AppHandler = Callable[[Process, Intent], Any]


@dataclass
class Invocation:
    """Record of one completed invocation (result + the delegate process)."""

    target: str
    process: Process
    result: Any


def _start_activity_done(self, span, invocation: Invocation) -> None:
    # target/ctx are already on the span: the body tags them mid-call.
    self.obs.metrics.count("am.invocations")
    if invocation.process.context.is_delegate:
        self.obs.metrics.count("am.delegate_invocations")


def _broadcast_done(self, span, delivered: int) -> None:
    span.set(delivered=delivered)
    self.obs.metrics.count("am.broadcasts")


class ActivityManagerService:
    """Intent routing with optional Maxoid confinement."""

    def __init__(
        self,
        package_manager: PackageManager,
        zygote: Zygote,
        process_table: ProcessTable,
        binder: BinderDriver,
        ipc_guard: Optional[object] = None,  # repro.core.ipc_guard.IpcGuard
        maxoid_manifests: Optional[Dict[str, object]] = None,
        obs: Optional[Any] = None,
    ) -> None:
        # The owning device's observability context.
        self.obs = obs if obs is not None else _OBS
        self._packages = package_manager
        self._zygote = zygote
        self._processes = process_table
        self._binder = binder
        self._guard = ipc_guard
        # Keep the caller's dict: the Device registers Maxoid manifests into
        # it as apps install (after the AM is constructed).
        self._manifests = maxoid_manifests if maxoid_manifests is not None else {}
        self._handlers: Dict[str, AppHandler] = {}
        self._broadcast_receivers: List[Tuple[IntentFilter, Process, AppHandler]] = []
        self.invocation_log: List[str] = []
        # Pids forked but not yet fully registered (endpoint + guard). A
        # crash inside that window strands the process; recover() reaps it.
        self._in_flight: set = set()
        binder.register("activity_manager", self._handle_binder, is_system=True)

    def _handle_binder(self, transaction: Transaction) -> Any:
        # Intents ride over Binder to the AM; this endpoint exists so the
        # architecture matches Figure 3, but local calls take the direct
        # path below.
        raise NotImplementedError("use start_activity()")

    # ------------------------------------------------------------------

    def register_handler(self, package: str, handler: AppHandler) -> None:
        """Register the app's code entry point (its activities)."""
        self._packages.get(package)
        self._handlers[package] = handler

    def handler_for(self, package: str) -> AppHandler:
        handler = self._handlers.get(package)
        if handler is None:
            raise ActivityNotFound(f"{package} has no registered activities")
        return handler

    # ------------------------------------------------------------------

    def resolve(self, intent: Intent, caller: Optional[str] = None) -> str:
        """Pick the target package for an intent.

        An explicit component wins; otherwise the first filter match (the
        simulated ResolverActivity — an intent channel, not an app
        instance, so it never becomes a delegate itself)."""
        candidates = self._packages.resolve_intent(intent, exclude=caller)
        if not candidates:
            raise ActivityNotFound(f"no activity for {intent!r}")
        return candidates[0]

    def _decide_initiator(self, caller: Process, intent: Intent) -> Optional[str]:
        if self._guard is None:
            return None  # stock Android: no delegation exists
        manifest = self._manifests.get(caller.context.app)
        return self._guard.decide_initiator(caller.context, intent, manifest)

    def _kill_conflicting(self, package: str, initiator: Optional[str]) -> int:
        """Kill running instances of ``package`` in a different context,
        and — when starting a delegate — the target's normal instance
        (avoids inconsistent Priv(B^A) views, section 4.2)."""
        killed = 0
        for process in self._processes.instances_of(package):
            if process.context.initiator != initiator:
                process.kill()
                if self._guard is not None:
                    self._guard.unregister_instance(f"app:{process.pid}")
                killed += 1
        return killed

    @boundary(
        "am.start_activity",
        attrs=lambda self, caller, intent, **_: {
            "caller": str(caller.context), "action": intent.action
        },
        sched=lambda self, caller, intent, **_: {"action": intent.action},
        done=_start_activity_done,
    )
    def start_activity(
        self,
        caller: Process,
        intent: Intent,
        *,
        forced_initiator: Optional[str] = None,
    ) -> Invocation:
        """Start the activity an intent resolves to and run it to
        completion, returning its result.

        ``forced_initiator`` is the Launcher's drag-to-Initiator path
        (section 6.3): the user starts a delegate without the initiator's
        explicit invocation.
        """
        target = self.resolve(intent, caller=caller.context.app)
        if forced_initiator is not None:
            initiator: Optional[str] = forced_initiator
        else:
            initiator = self._decide_initiator(caller, intent)
        if initiator == target:
            initiator = None  # an app invoked by itself runs normally
        self._kill_conflicting(target, initiator)
        process = self._zygote.fork_app(target, initiator)
        if self.obs.enabled:
            # Tag the open am.start_activity span with the invoked context
            # *before* the handler runs, so streaming consumers (the
            # security monitor reads ctx off open ancestors at span close)
            # see the same attribution the finished-tree walk does.
            tag(self.obs, "am.start_activity", target=target, ctx=str(process.context))
        if self.obs.prov:
            # Intent extras flow the caller's taint into the new process.
            self.obs.provenance.intent_flow(
                caller.pid, process.pid, str(caller.context), str(process.context)
            )
        self._in_flight.add(process.pid)
        self._delegate_bookkeeping(target, initiator, process)
        self.invocation_log.append(f"{caller.context} -> {process.context}: {intent.action}")
        handler = self.handler_for(target)
        try:
            result = handler(process, intent)
        finally:
            pass  # the process stays alive until killed or replaced
        return Invocation(target=target, process=process, result=result)

    # Forked but not yet registered: the in-flight window the orphan reaper
    # and the interleaving sweep care about. Fault and yield differ in name.
    @boundary(
        "am.delegate_bookkeeping",
        span=False,
        fault=lambda self, target, initiator, process: {
            "target": target, "initiator": initiator, "pid": process.pid
        },
    )
    def _delegate_bookkeeping(
        self, target: str, initiator: Optional[str], process: Process
    ) -> None:
        self._bookkeeping(target, process)

    @boundary(
        "am.bookkeeping", span=False, sched=lambda self, target, process: {"target": target}
    )
    def _bookkeeping(self, target: str, process: Process) -> None:
        """Register the forked process's Binder endpoint and guard instance."""
        endpoint_name = f"app:{process.pid}"
        self._binder.register(
            endpoint_name, lambda txn: None, owner=target, is_system=False,
            pid=process.pid,
        )
        if self._guard is not None:
            self._guard.register_instance(endpoint_name, process.context)
        self._in_flight.discard(process.pid)

    def reap_orphans(self) -> List[int]:
        """Kill processes stranded mid-bookkeeping by a crash.

        A crash between ``fork_app`` and endpoint/guard registration leaves
        a live process no component can reach (no Binder endpoint, no guard
        instance). Recovery kills it and tears down whatever half of its
        bookkeeping did land. Returns the reaped pids.
        """
        reaped: List[int] = []
        for pid in sorted(self._in_flight):
            endpoint_name = f"app:{pid}"
            try:
                process = self._processes.get(pid)
            except NoSuchProcess:
                process = None
            if process is not None:
                process.kill()
                reaped.append(pid)
            self._binder.unregister(endpoint_name)
            if self._guard is not None:
                self._guard.unregister_instance(endpoint_name)
        self._in_flight.clear()
        return reaped

    # ------------------------------------------------------------------
    # Broadcasts
    # ------------------------------------------------------------------

    def register_receiver(
        self, process: Process, intent_filter: IntentFilter, handler: AppHandler
    ) -> None:
        self._broadcast_receivers.append((intent_filter, process, handler))

    @boundary(
        "am.broadcast",
        attrs=lambda self, sender, intent: {
            "ctx": str(sender.context), "action": intent.action
        },
        done=_broadcast_done,
    )
    def send_broadcast(self, sender: Process, intent: Intent) -> int:
        """Deliver a broadcast; a delegate's broadcasts stay inside its
        confinement domain (section 3.4). Returns receivers reached."""
        delivered = 0
        for intent_filter, process, handler in list(self._broadcast_receivers):
            if not process.alive or not intent_filter.matches(intent):
                continue
            if self._guard is not None and not self._guard.broadcast_visible(
                sender.context, process.context
            ):
                continue
            handler(process, intent)
            delivered += 1
        return delivered
