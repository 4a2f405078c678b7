"""The process table and per-task Maxoid execution context.

The paper adds to the kernel's ``task_struct`` the identity of the app a
process belongs to and, when it is a delegate, the initiator it runs on
behalf of (section 6.2). :class:`TaskContext` carries exactly that pair; it
is stamped onto a process via the :mod:`repro.kernel.sysfs` channel when
Zygote forks the process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import NoSuchProcess
from repro.kernel.mounts import MountNamespace
from repro.kernel.vfs import Credentials
from repro.obs import OBS, ObsContext


@dataclass(frozen=True)
class TaskContext:
    """Who a process is, and on whose behalf it runs.

    ``app`` is the owning package; ``initiator`` is ``None`` when the app
    runs for itself and the initiator's package when it is a delegate.
    ``B^A`` from the paper is ``TaskContext(app="B", initiator="A")``.
    """

    app: Optional[str]
    initiator: Optional[str] = None

    @property
    def is_delegate(self) -> bool:
        return self.initiator is not None and self.initiator != self.app

    @property
    def effective_initiator(self) -> Optional[str]:
        """The initiator whose state taints this task (self if not a delegate)."""
        return self.initiator if self.is_delegate else self.app

    def __str__(self) -> str:
        if self.is_delegate:
            return f"{self.app}^{self.initiator}"
        return str(self.app)


SYSTEM_CONTEXT = TaskContext(app=None, initiator=None)


class Process:
    """A simulated process: credentials, mount namespace, task context."""

    _pid_counter = itertools.count(100)

    def __init__(
        self,
        cred: Credentials,
        namespace: MountNamespace,
        context: TaskContext = SYSTEM_CONTEXT,
        name: str = "",
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.pid: int = next(Process._pid_counter)
        self.cred = cred
        self.namespace = namespace
        self.context = context
        self.name = name or str(context)
        # The observability context of the device this process runs on;
        # every layer acting for the process gates on it.
        self.obs = obs if obs is not None else OBS
        self.alive = True
        # Exit hooks let the framework tear down per-process state
        # (e.g. clipboard instances) when a process is killed.
        self.exit_hooks: List = []

    def kill(self) -> None:
        if not self.alive:
            return
        self.alive = False
        for hook in self.exit_hooks:
            hook(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"<Process pid={self.pid} {self.name} ({state})>"


class ProcessTable:
    """The kernel's view of all processes."""

    def __init__(self) -> None:
        # Live processes only: each one leaves the table when it dies.
        self._processes: Dict[int, Process] = {}

    def register(self, process: Process) -> Process:
        self._processes[process.pid] = process
        process.exit_hooks.append(self._forget)
        return process

    def _forget(self, process: Process) -> None:
        self._processes.pop(process.pid, None)

    def get(self, pid: int) -> Process:
        process = self._processes.get(pid)
        if process is None or not process.alive:
            raise NoSuchProcess(f"pid {pid}")
        return process

    def kill(self, pid: int) -> None:
        self.get(pid).kill()

    def alive(self) -> List[Process]:
        return [p for p in self._processes.values() if p.alive]

    def instances_of(self, app: str, initiator: Optional[str] = "*") -> List[Process]:
        """All live processes of ``app``.

        With the default ``initiator="*"`` any context matches; pass
        ``None`` for "running on behalf of itself" or a package name for a
        specific delegate context.
        """
        found = []
        for process in self.alive():
            if process.context.app != app:
                continue
            if initiator == "*" or process.context.initiator == initiator:
                found.append(process)
        return found

    def instances_of_initiator(self, initiator: str) -> List[Process]:
        """All live delegate processes running on behalf of ``initiator``."""
        return [
            p
            for p in self.alive()
            if p.context.is_delegate and p.context.initiator == initiator
        ]

    def __iter__(self) -> Iterator[Process]:
        return iter(self.alive())

    def __len__(self) -> int:
        return len(self.alive())
