"""Binder IPC with the Maxoid restriction hook.

Android's low-level IPC is Binder; intents, content-provider calls, and
service calls all ride on it. Maxoid restricts a delegate's *direct* Binder
peers to trusted system services, its initiator, and delegates of the same
initiator (paper sections 3.4 and 6.2).

The driver routes :class:`Transaction` objects between named endpoints. A
policy callable installed by :mod:`repro.core.ipc_guard` decides whether a
(sender-context, endpoint) pair may communicate; with no policy installed
the driver behaves like stock Android (everything goes through).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional

from repro.boundary import boundary
from repro.errors import DelegateTimeout, IpcDenied, NoSuchProcess, ProviderNotFound
from repro.kernel.proc import Process, ProcessTable, TaskContext
from repro.obs import OBS as _OBS
from repro.sched import SCHED as _SCHED


@dataclass
class Transaction:
    """One Binder transaction: sender identity plus an arbitrary payload."""

    sender_pid: int
    sender_context: TaskContext
    code: str
    payload: Any = None


@dataclass
class BinderEndpoint:
    """A registered Binder service or app component endpoint.

    ``owner`` is the owning package, or ``None`` for trusted system
    services (Activity Manager, system content providers, ...), which are
    always reachable. ``handler`` receives a :class:`Transaction` and
    returns a reply.
    """

    name: str
    owner: Optional[str]
    handler: Callable[[Transaction], Any]
    is_system: bool = False
    #: The process behind a per-instance app endpoint (``app:<pid>``).
    #: System services have no backing pid and are always reachable.
    pid: Optional[int] = None


# Policy signature: (sender_context, endpoint) -> allowed?
BinderPolicy = Callable[[TaskContext, BinderEndpoint], bool]

# How many recent transactions (and denials) a driver remembers. Older ones
# are dropped, so a long-lived device's memory does not grow with every
# provider call; the flight recorder is the postmortem record.
_LOG_SIZE = 1024


def _transact_ctx(self, sender: Process, target: str, code: str, payload: Any) -> dict:
    return {"ctx": str(sender.context), "target": target, "code": code}


class BinderDriver:
    """Routes transactions between endpoints, subject to a policy."""

    #: Virtual-clock budget for one delegate transaction attempt, and the
    #: bounded-retry policy around it (deterministic exponential backoff:
    #: ``retry_backoff_ms * 2**attempt`` on the scheduler's clock). Only
    #: delegate senders under the deterministic scheduler pay deadlines —
    #: plain apps and the single-threaded simulation are untouched.
    delegate_deadline_ms: float = 400.0
    delegate_retries: int = 2
    retry_backoff_ms: float = 16.0

    def __init__(self, obs: Optional[Any] = None) -> None:
        # The owning device's observability context (named devices pass
        # their own; bare drivers fall back to the default OBS).
        self.obs = obs if obs is not None else _OBS
        self._endpoints: Dict[str, BinderEndpoint] = {}
        self._policy: Optional[BinderPolicy] = None
        self._processes: Optional[ProcessTable] = None
        self._audit_log = None
        self.transaction_log: Deque[Transaction] = deque(maxlen=_LOG_SIZE)
        self.denied_log: Deque[Transaction] = deque(maxlen=_LOG_SIZE)

    def attach_process_table(self, processes: ProcessTable) -> None:
        """Let the driver check recipient liveness (done by the Device).

        The real Binder driver learns about process death through the
        kernel; here the attached table plays that role, so transactions to
        dead recipients fail closed with :class:`NoSuchProcess`.
        """
        self._processes = processes

    def attach_audit_log(self, audit_log) -> None:
        """Wire the device's AuditLog so DelegateTimeout retries and
        abandonments surface as ``timeout`` events instead of vanishing."""
        self._audit_log = audit_log

    def register(
        self,
        name: str,
        handler: Callable[[Transaction], Any],
        *,
        owner: Optional[str] = None,
        is_system: bool = False,
        pid: Optional[int] = None,
    ) -> BinderEndpoint:
        endpoint = BinderEndpoint(
            name=name, owner=owner, handler=handler, is_system=is_system, pid=pid
        )
        self._endpoints[name] = endpoint
        return endpoint

    def unregister(self, name: str) -> None:
        self._endpoints.pop(name, None)

    def endpoint(self, name: str) -> BinderEndpoint:
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise ProviderNotFound(f"no binder endpoint named {name!r}")
        return endpoint

    def install_policy(self, policy: BinderPolicy) -> None:
        """Install the Maxoid restriction hook (kernel modification #3)."""
        self._policy = policy

    def transact(self, sender: Process, target: str, code: str, payload: Any = None) -> Any:
        """Send a transaction from ``sender`` to endpoint ``target``.

        Raises :class:`IpcDenied` when the installed policy refuses the
        pair; otherwise invokes the endpoint handler and returns its reply.

        With tracing enabled the transaction runs inside a ``binder.transact``
        span, so work the endpoint handler does (syscalls, provider queries)
        nests under the caller's trace — the propagation that stitches one
        delegate invocation into a single tree.

        Under the deterministic scheduler, delegate senders additionally
        run each attempt under a virtual-clock deadline with bounded
        retries and deterministic backoff (see ``delegate_deadline_ms``):
        a wedged delegate call surfaces :class:`DelegateTimeout` in the
        AuditLog instead of hanging the schedule.
        """
        if (
            _SCHED.enabled
            and sender.context.is_delegate
            and _SCHED.current_task() is not None
        ):
            return self._transact_with_deadline(sender, target, code, payload)
        return self._transact_attempt(sender, target, code, payload)

    def _transact_with_deadline(
        self, sender: Process, target: str, code: str, payload: Any
    ) -> Any:
        last: Optional[DelegateTimeout] = None
        for attempt in range(self.delegate_retries + 1):
            try:
                with _SCHED.deadline(self.delegate_deadline_ms):
                    return self._transact_attempt(sender, target, code, payload)
            except DelegateTimeout as error:
                last = error
                if self._audit_log is not None:
                    self._audit_log.record(
                        "timeout",
                        str(error),
                        ctx=str(sender.context),
                        target=target,
                        code=code,
                        attempt=attempt,
                        vclock=_SCHED.clock,
                    )
                if attempt < self.delegate_retries:
                    _SCHED.sleep(self.retry_backoff_ms * (2 ** attempt))
        if self._audit_log is not None:
            self._audit_log.record(
                "timeout",
                f"binder: abandoned {target!r} after "
                f"{self.delegate_retries + 1} attempts",
                ctx=str(sender.context),
                target=target,
                code=code,
                vclock=_SCHED.clock,
            )
        assert last is not None
        raise last

    @boundary(
        "binder.transact",
        attrs=_transact_ctx,
        fault=_transact_ctx,
        sched=lambda self, sender, target, code, payload: {
            "target": target, "code": code, "resource": f"endpoint:{target}", "rw": "r"
        },
    )
    def _transact_attempt(
        self, sender: Process, target: str, code: str, payload: Any
    ) -> Any:
        """One transaction attempt: the ``binder.transact`` boundary, entered
        once per retry when a deadline wraps delegate calls."""
        if not sender.alive:
            raise NoSuchProcess(f"binder: sender pid {sender.pid} has exited")
        endpoint = self._live_endpoint(target)
        transaction = Transaction(
            sender_pid=sender.pid,
            sender_context=sender.context,
            code=code,
            payload=payload,
        )
        if self._policy is not None and not self._policy(sender.context, endpoint):
            self.denied_log.append(transaction)
            raise IpcDenied(
                f"binder: {sender.context} may not transact with {endpoint.name}"
            )
        self.transaction_log.append(transaction)
        return self._deliver(sender, endpoint, transaction)

    @boundary(
        "binder.deliver",
        span=False,
        count="binder.transactions",
        sched=lambda self, sender, endpoint, txn: {"target": endpoint.name, "code": txn.code},
    )
    def _deliver(self, sender: Process, endpoint: BinderEndpoint, txn: Transaction) -> Any:
        """Run an admitted transaction's handler. Delivery yields apart from
        the policy check: the kernel may preempt between the two."""
        if self.obs.prov:
            # Work the endpoint does on the sender's behalf (clipboard,
            # providers) must taint/stamp as the *sender*, not the service.
            self.obs.provenance.push_actor(str(sender.context), sender.pid)
            try:
                return endpoint.handler(txn)
            finally:
                self.obs.provenance.pop_actor()
        return endpoint.handler(txn)

    def _live_endpoint(self, target: str) -> BinderEndpoint:
        """Resolve ``target``, failing closed on dead recipients.

        A transaction to a dead app process raises :class:`NoSuchProcess`
        consistently — whether the stale endpoint is still registered
        (killed process, endpoint not yet torn down) or already gone
        (``app:<pid>`` names only ever back processes). Non-app endpoints
        that were never registered remain :class:`ProviderNotFound`.
        """
        endpoint = self._endpoints.get(target)
        if endpoint is None:
            if target.startswith("app:"):
                raise NoSuchProcess(f"binder: no live process behind {target!r}")
            raise ProviderNotFound(f"no binder endpoint named {target!r}")
        if endpoint.pid is not None and self._processes is not None:
            try:
                self._processes.get(endpoint.pid)
            except NoSuchProcess:
                self.unregister(target)
                raise NoSuchProcess(
                    f"binder: recipient pid {endpoint.pid} behind {target!r} has exited"
                )
        return endpoint
