"""A toy network stack with the Maxoid delegate guard.

Paper section 6.2: "Maxoid emulates loss of network connection for
delegates by returning error code ENETUNREACH in the connect system call".
The stack models a tiny internet — named hosts serving byte resources —
sufficient for the Dropbox/Email/Browser scenarios: fetching a file,
syncing a change, downloading in incognito mode.

Every ``connect()`` consults the calling process's task context; delegates
get :class:`NetworkUnreachable`. Data fetched *before* confinement remains
readable (it is ordinary file state), matching the paper's semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import FileNotFound, NetworkUnreachable
from repro.kernel.proc import Process


@dataclass
class ConnectionRecord:
    """An audit record of one connection attempt (for the experiments)."""

    pid: int
    context: str
    host: str
    port: int
    allowed: bool


class Socket:
    """A connected socket: request/response over the simulated internet."""

    def __init__(self, stack: "NetworkStack", host: str, port: int) -> None:
        self._stack = stack
        self.host = host
        self.port = port
        self.sent: List[bytes] = []

    def send(self, data: bytes) -> int:
        """Send bytes to the remote host (recorded for leak auditing)."""
        self.sent.append(data)
        self._stack._record_egress(self.host, data)
        return len(data)

    def fetch(self, resource: str) -> bytes:
        """Request a named resource from the connected host."""
        return self._stack._serve(self.host, resource)

    def close(self) -> None:  # symmetry with real socket APIs
        pass


class TrustedCloudSocket:
    """A socket to a trusted-cloud backend, bound to a confinement domain.

    Implements the πBox-style extension the paper sketches in section 2.4:
    if an app's backend is hosted on a trusted cloud that continues the
    confinement server-side, a delegate may talk to *that backend only*,
    and whatever it sends stays inside its initiator's domain — readable
    later only by the same domain, never part of the public egress.
    """

    def __init__(self, cloud: "TrustedCloud", host: str, domain: str) -> None:
        self._cloud = cloud
        self.host = host
        self.domain = domain

    def send(self, data: bytes) -> int:
        self._cloud.store(self.host, self.domain, data)
        return len(data)

    def fetch(self, resource: str) -> bytes:
        return self._cloud.fetch(self.host, self.domain, resource)

    def put(self, resource: str, data: bytes) -> None:
        self._cloud.put(self.host, self.domain, resource, data)

    def close(self) -> None:
        pass


class TrustedCloud:
    """Server side of the trusted-cloud extension.

    Backends registered here are assumed to run on a platform that
    enforces Maxoid-style confinement in the cloud (πBox [18]): per-domain
    storage, no cross-domain flows. The simulation models exactly that: a
    (host, domain)-keyed store.
    """

    def __init__(self) -> None:
        # app package -> set of hosts that are its trusted backends.
        self._backends: Dict[str, set] = {}
        # (host, domain) -> resource -> bytes
        self._stores: Dict[tuple, Dict[str, bytes]] = {}
        # (host, domain) -> raw sends (for tests/auditing)
        self.received: Dict[tuple, List[bytes]] = {}

    def register_backend(self, app: str, host: str) -> None:
        self._backends.setdefault(app, set()).add(host)

    def is_backend_for(self, app: Optional[str], host: str) -> bool:
        return app is not None and host in self._backends.get(app, set())

    def store(self, host: str, domain: str, data: bytes) -> None:
        self.received.setdefault((host, domain), []).append(data)

    def put(self, host: str, domain: str, resource: str, data: bytes) -> None:
        self._stores.setdefault((host, domain), {})[resource] = data

    def fetch(self, host: str, domain: str, resource: str) -> bytes:
        try:
            return self._stores[(host, domain)][resource]
        except KeyError:
            raise FileNotFound(f"{host}/{resource} (domain {domain})")

    def domain_received(self, host: str, domain: str, secret: bytes) -> bool:
        return any(secret in p for p in self.received.get((host, domain), []))


class NetworkStack:
    """The device's network stack plus a miniature internet."""

    def __init__(self) -> None:
        # host -> resource name -> bytes
        self._hosts: Dict[str, Dict[str, bytes]] = {}
        self.connection_log: List[ConnectionRecord] = []
        # host -> list of payloads that reached it (the leak-audit surface)
        self.egress: Dict[str, List[bytes]] = {}
        #: The optional trusted-cloud extension (None = paper's default
        #: behaviour: delegates have no network at all).
        self.trusted_cloud: Optional[TrustedCloud] = None

    def enable_trusted_cloud(self) -> TrustedCloud:
        if self.trusted_cloud is None:
            self.trusted_cloud = TrustedCloud()
        return self.trusted_cloud

    # -- building the fake internet --------------------------------------

    def add_host(self, host: str) -> None:
        self._hosts.setdefault(host, {})

    def publish(self, host: str, resource: str, data: bytes) -> None:
        """Make ``data`` available at ``host`` under ``resource``."""
        self.add_host(host)
        self._hosts[host][resource] = data

    def hosted(self, host: str, resource: str) -> bytes:
        try:
            return self._hosts[host][resource]
        except KeyError:
            raise FileNotFound(f"{host}/{resource}")

    # -- the syscall surface ----------------------------------------------

    def connect(self, process: Process, host: str, port: int = 443):
        """Connect to ``host``; ENETUNREACH for delegates (paper 6.2).

        With the trusted-cloud extension enabled, a delegate may instead
        reach *its own app's* registered backend, receiving a
        domain-confined socket (section 2.4's πBox sketch).
        """
        context = process.context
        if context.is_delegate:
            cloud = self.trusted_cloud
            if cloud is not None and cloud.is_backend_for(context.app, host):
                self.connection_log.append(
                    ConnectionRecord(
                        pid=process.pid,
                        context=str(context),
                        host=host,
                        port=port,
                        allowed=True,
                    )
                )
                domain = context.initiator or ""
                return TrustedCloudSocket(cloud, host, domain)
            self.connection_log.append(
                ConnectionRecord(
                    pid=process.pid,
                    context=str(context),
                    host=host,
                    port=port,
                    allowed=False,
                )
            )
            raise NetworkUnreachable(
                f"{context} is a delegate; network is unreachable"
            )
        self.connection_log.append(
            ConnectionRecord(
                pid=process.pid,
                context=str(context),
                host=host,
                port=port,
                allowed=True,
            )
        )
        if host not in self._hosts:
            raise FileNotFound(f"no such host: {host}")
        return Socket(self, host, port)

    # -- internals ----------------------------------------------------------

    def _serve(self, host: str, resource: str) -> bytes:
        return self.hosted(host, resource)

    def _record_egress(self, host: str, data: bytes) -> None:
        self.egress.setdefault(host, []).append(data)

    # -- audit helpers ------------------------------------------------------

    def leaked_to_network(self, secret: bytes) -> bool:
        """True if ``secret`` ever left the device (substring match)."""
        return any(
            secret in payload for payloads in self.egress.values() for payload in payloads
        )

    def denied_attempts(self) -> List[ConnectionRecord]:
        return [r for r in self.connection_log if not r.allowed]
