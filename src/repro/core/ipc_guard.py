"""IPC confinement: invocation transitivity and Binder restriction
(paper section 3.4).

Two enforcement points:

1. **Invocation decisions** in the Activity Manager. When ``B^A`` invokes
   another app, the invoked instance is forced to be ``C^A``
   (invocation-transitivity); ``B^A`` asking for its *own* delegate is
   nested delegation, which Maxoid rejects. When an initiator invokes an
   app, the delegate flag on the intent or the initiator's Maxoid-manifest
   filters decide whether the target starts as a delegate.

2. **The Binder policy** installed into the kernel driver. A delegate's
   direct Binder peers are restricted to trusted system services, its
   initiator, and delegates of the same initiator.

Broadcasts from a delegate are delivered only within its confinement
domain (its initiator and that initiator's delegates).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import NestedDelegationError
from repro.android.intents import Intent
from repro.core.context import same_confinement_domain
from repro.core.manifest import MaxoidManifest
from repro.kernel.binder import BinderDriver, BinderEndpoint
from repro.kernel.proc import TaskContext
from repro.sched import SCHED as _SCHED


class IpcGuard:
    """Maxoid's IPC policy, shared by the Binder driver and the AM."""

    #: PLANTED single-enforcement-point race, off by default (armed only
    #: by the fuzz plane's ``binder-guard-race`` bug mode). When set, the
    #: instance registry is rebuilt non-atomically on every registration
    #: (clear -> preemption window -> repopulate) and the policy check
    #: fails *open* for endpoints missing from the registry — a classic
    #: check-then-act TOCTOU that only an adversarial interleaving can
    #: exploit. The detector (provenance + S1-S4 rules) is untouched.
    racy_guard: bool = False

    def __init__(self, binder: BinderDriver) -> None:
        # Live app-instance endpoints: endpoint name -> its task context.
        self._instance_contexts: Dict[str, TaskContext] = {}
        binder.install_policy(self.binder_policy)

    # ------------------------------------------------------------------
    # Instance registry (maintained by the Activity Manager)
    # ------------------------------------------------------------------

    def register_instance(self, endpoint_name: str, context: TaskContext) -> None:
        # Inline, not @boundary: the planted race yields mid-rebuild.
        if self.racy_guard and _SCHED.enabled:
            # Racy variant: rebuild the whole registry instead of a
            # point update, with a yield inside the empty window.
            entries = dict(self._instance_contexts)
            entries[endpoint_name] = context
            self._instance_contexts.clear()
            _SCHED.yield_point(
                "guard.rebuild", endpoint=endpoint_name, resource="guard-registry",
                rw="w",
            )
            self._instance_contexts.update(entries)
            return
        self._instance_contexts[endpoint_name] = context

    def unregister_instance(self, endpoint_name: str) -> None:
        self._instance_contexts.pop(endpoint_name, None)

    # ------------------------------------------------------------------
    # Binder policy (kernel modification #3, section 6.2)
    # ------------------------------------------------------------------

    def binder_policy(self, sender: TaskContext, endpoint: BinderEndpoint) -> bool:
        if endpoint.is_system:
            return True
        if not sender.is_delegate:
            return True
        # Inline, not @boundary: the planted race's check-then-act window.
        if self.racy_guard and _SCHED.enabled:
            _SCHED.yield_point(
                "guard.decide", endpoint=endpoint.name, resource="guard-registry",
                rw="r",
            )
            target_context = self._instance_contexts.get(endpoint.name)
            if target_context is None:
                # Fail-open "compatibility" branch: treat an unknown
                # endpoint as mid-registration and let it through. Only
                # reachable while a racy rebuild window is open.
                return True
            return same_confinement_domain(sender, target_context)
        target_context = self._instance_contexts.get(endpoint.name)
        if target_context is None:
            # Unknown app endpoint: refuse — a delegate may not open new
            # channels outside its confinement domain.
            return False
        return same_confinement_domain(sender, target_context)

    # ------------------------------------------------------------------
    # Invocation decisions (section 3.4 / 6.1 / 6.2)
    # ------------------------------------------------------------------

    @staticmethod
    def decide_initiator(
        caller: TaskContext,
        intent: Intent,
        caller_manifest: Optional[MaxoidManifest],
    ) -> Optional[str]:
        """Which initiator the invoked instance runs on behalf of.

        Returns ``None`` for a normal (on-behalf-of-self) start, or the
        initiator package for a delegate start. Raises
        :class:`NestedDelegationError` when a delegate asks for its own
        delegate.
        """
        if caller.is_delegate:
            if intent.wants_delegate:
                raise NestedDelegationError(
                    f"{caller} may only invoke delegates of {caller.initiator}"
                )
            # Invocation transitivity: whatever B^A starts becomes C^A.
            return caller.initiator
        if intent.wants_delegate:
            return caller.app
        if caller_manifest is not None and caller.app is not None:
            if caller_manifest.intent_is_private(intent):
                return caller.app
        return None

    @staticmethod
    def broadcast_visible(sender: TaskContext, receiver: TaskContext) -> bool:
        """May ``receiver`` observe a broadcast from ``sender``?

        Broadcasts from delegates stay within the confinement domain;
        initiators' broadcasts are unrestricted (stock Android).
        """
        if not sender.is_delegate:
            return True
        return same_confinement_domain(sender, receiver)
