"""Zygote: the app-process spawner (paper sections 3.5, 4.2, 6.2).

Zygote runs as root. For each new app process it: creates a private mount
namespace (``unshare()``), asks the **Aufs branch manager** to select and
mount the branches for the app's execution context, writes the app and
initiator identity into the kernel via sysfs, and finally drops privileges
to the app's UID.

The branch-manager step is a hook: the stock hook mounts nothing special
(plain Android), the Maxoid hook (installed by
:class:`repro.core.device.Device`) materializes the Table 2 mount plan.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.boundary import boundary
from repro.kernel.mounts import MountNamespace
from repro.kernel.proc import Process, ProcessTable, TaskContext
from repro.kernel.sysfs import Sysfs
from repro.kernel.vfs import Credentials, ROOT_CRED
from repro.android.packages import PackageManager
from repro.obs import OBS as _OBS

# Hook signature: (package, initiator-or-None) -> the process's namespace.
NamespaceBuilder = Callable[[str, Optional[str]], MountNamespace]


def _fork_attrs(self, package: str, initiator: Optional[str] = None) -> dict:
    # Self-tag the resulting context (same rules fork_app applies) so the
    # fork is attributed identically whether the sweep reads it from the
    # finished tree or the monitor from the live stack.
    effective = (
        initiator
        if self._maxoid_enabled and initiator not in (None, package)
        else None
    )
    ctx = f"{package}^{effective}" if effective else package
    return {"app": package, "initiator": initiator, "ctx": ctx}


class Zygote:
    """Forks app processes with the right namespace, context and UID."""

    def __init__(
        self,
        process_table: ProcessTable,
        sysfs: Sysfs,
        package_manager: PackageManager,
        namespace_builder: NamespaceBuilder,
        maxoid_enabled: bool = True,
        obs: Optional[Any] = None,
    ) -> None:
        self._processes = process_table
        self._sysfs = sysfs
        self._packages = package_manager
        self._build_namespace = namespace_builder
        # The owning device's observability context; forked processes
        # inherit it, which is how per-device attribution propagates.
        self.obs = obs if obs is not None else _OBS
        # On stock Android delegation does not exist: any requested
        # initiator is ignored and the app simply runs as itself.
        self._maxoid_enabled = maxoid_enabled
        self.forks = 0

    @boundary(
        "zygote.fork",
        attrs=_fork_attrs,
        count="zygote.forks",
        # Before any mutation: a failed fork leaves no process behind.
        fault=lambda self, package, initiator=None: {
            "app": package, "initiator": initiator
        },
    )
    def fork_app(self, package: str, initiator: Optional[str] = None) -> Process:
        """Spawn ``package``; as ``initiator``'s delegate when given.

        Mirrors the real sequence: fork (still root), unshare + mount via
        the branch manager, stamp sysfs, drop privilege to the app UID.
        """
        installed = self._packages.get(package)
        if not self._maxoid_enabled:
            initiator = None
        if initiator is not None and initiator != package:
            self._packages.get(initiator)  # must exist
        namespace = self._build_namespace(package, initiator)
        effective_initiator = initiator if initiator != package else None
        context = TaskContext(app=package, initiator=effective_initiator)
        # The process is created as root, then immediately demoted — app
        # code never runs with the root credential (so it can never mount).
        process = Process(
            cred=Credentials(uid=installed.uid),
            namespace=namespace,
            context=context,
            name=str(context),
            obs=self.obs,
        )
        self._processes.register(process)
        self._sysfs.write_context(process.pid, package, effective_initiator, ROOT_CRED)
        if self.obs.prov:
            self.obs.provenance.fork(process.pid, str(context))
        self.forks += 1
        return process
