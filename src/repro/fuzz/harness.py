"""The fuzz world: op sequences on a fresh device, monitored live.

One :class:`FuzzWorld` is one hypothesis example (or one seeded
scenario): a fresh Maxoid device with the full corpus installed, a
planted victim secret, the provenance ledger armed, and the online
:class:`~repro.obs.monitor.SecurityMonitor` attached — every op's spans
are evaluated against S1-S4 by the shared ``obs/sweep.py`` rule engine
the moment they close.

``PLANTED_VULNS`` holds the deliberate-bug modes: each entry disables
exactly one Maxoid *enforcement* point, leaving the detector untouched,
so a fuzz run over a planted world proves the fuzzer can find real
violations (and a run over an unplanted world proves the absence of
false positives).

Everything that feeds :meth:`RunResult.fingerprint` is
counter-free — rendered ops, outcome strings, violation messages,
lineage chains, and the fault plane's consult schedule — because pids
and inode numbers come from process-global counters and would break the
byte-identical replay contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.android.app_api import AppApi
from repro.apps import install_full_corpus
from repro.apps.adversarial import exfil_browser
from repro.apps.base import SimApp
from repro.apps.email_app import PACKAGE as VICTIM_PACKAGE
from repro.core.device import Device
from repro.digest import lines_digest
from repro.errors import ReproError
from repro.faults import SimulatedCrash
from repro.obs.monitor import SecurityMonitor
from repro.obs.sweep import Violation

__all__ = [
    "FuzzWorld",
    "PLANTED_VULNS",
    "RunResult",
    "SECRET",
    "SECRET_PATH",
    "VICTIM_PACKAGE",
]

#: The victim's planted secret: what every attack chain tries to move.
SECRET = b"TOPSECRET-correct-horse-battery"
SECRET_PATH = f"/data/data/{VICTIM_PACKAGE}/secrets/secret.txt"


def _disable_clipboard_isolation(device: Device) -> None:
    """The canonical planted vulnerability: per-confinement-domain
    clipboards (paper section 6.2) collapse back to one global
    clipboard, reopening the delegate-copy -> mule-paste channel. The
    rule engine is untouched; the taint-flow S1 check must now fire."""
    device.clipboard._maxoid = False


def _arm_binder_guard_race(device: Device) -> None:
    """A single-enforcement-point *race*: the binder delegate guard gets
    a non-atomic registry rebuild (clear -> preemption window ->
    repopulate) plus a fail-open branch for endpoints missing from the
    registry. Sequentially invisible — only an adversarial interleaving
    under the deterministic scheduler can drive a delegate's transaction
    through the empty window. The rule engine is untouched."""
    if device.ipc_guard is not None:
        device.ipc_guard.racy_guard = True


#: name -> device mutator. One Maxoid enforcement point disabled each.
PLANTED_VULNS: Dict[str, Callable[[Device], None]] = {
    "clipboard-isolation": _disable_clipboard_isolation,
    "binder-guard-race": _arm_binder_guard_race,
}


@dataclass
class RunResult:
    """Everything one op-sequence run produced."""

    outcomes: List[Tuple[str, str]] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    schedule: bytes = b""

    def violation_renders(self) -> List[str]:
        return [violation.render() for violation in self.violations]

    def fingerprint(self) -> str:
        """A counter-free digest of the run; equal across replays."""
        return lines_digest(
            [
                *(f"{rendered}=>{outcome}" for rendered, outcome in self.outcomes),
                *self.violation_renders(),
                self.schedule.decode(),
            ]
        )


class FuzzWorld:
    """A monitored device plus the mutable state the op language needs."""

    def __init__(
        self,
        planted: Optional[str] = None,
        maxoid: bool = True,
        record: bool = False,
        record_capacity: int = 4096,
        halt_at: Optional[int] = None,
    ) -> None:
        if planted is not None and planted not in PLANTED_VULNS:
            raise KeyError(
                f"unknown planted vulnerability {planted!r}; "
                f"known: {', '.join(sorted(PLANTED_VULNS))}"
            )
        self.planted = planted
        self.maxoid = maxoid
        #: Arm the flight recorder for this world's lifetime. ``halt_at``
        #: is the replay-to-anchor hook: recording event ``seq ==
        #: halt_at`` raises AnchorReached through the op that produced it
        #: (callers leave the world open for inspection).
        self.record = record
        self.record_capacity = record_capacity
        self.halt_at = halt_at
        self.device: Device = None  # type: ignore[assignment]
        self.apps: Dict[str, SimApp] = {}
        #: subject key -> live AppApi (the delegation topology so far).
        self.apis: Dict[str, AppApi] = {}
        #: subject key -> its byte register.
        self.regs: Dict[str, bytes] = {}
        self.outcomes: List[Tuple[str, str]] = []
        self.monitor: SecurityMonitor = None  # type: ignore[assignment]
        self._capture = None
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "FuzzWorld":
        """Stand the world up: device, corpus, secret, capture, monitor."""
        assert not self._started
        self.device = Device(maxoid_enabled=self.maxoid)
        self.device.obs.faults.reset()
        self.apps = install_full_corpus(self.device)
        # The attacker's collection host exists; only Maxoid's delegate
        # network policy stands between a rendered secret and egress.
        self.device.network.add_host(exfil_browser.HOME_HOST)
        # Plant the secret before the capture: the ledger then classifies
        # it lazily on first contact as a bare ``source ... [Priv(A)]``
        # lineage root instead of recording the setup write. On the
        # stock baseline there are no delegate contexts at all, so the
        # corpus channels all start from a world-readable victim file —
        # the pre-Marshmallow sharing idiom the IFL catalogue attacks.
        victim = self.device.spawn(VICTIM_PACKAGE)
        victim.write_internal(
            "secrets/secret.txt", SECRET, mode=0o600 if self.maxoid else 0o644
        )
        if self.planted is not None:
            PLANTED_VULNS[self.planted](self.device)
        obs = self.device.obs
        self._capture = obs.capture(prov=True)
        self._capture.__enter__()
        self.monitor = SecurityMonitor(
            obs.tracer,
            set(self.apps),
            ledger=obs.provenance,
            audit_log=self.device.audit_log,
        ).attach()
        if self.record:
            # The audit log is tapped too, so a violation the monitor
            # records seals a black box the moment it happens.
            obs.recorder.arm(
                capacity=self.record_capacity,
                audit_log=self.device.audit_log,
                halt_at=self.halt_at,
            )
        self.apis[VICTIM_PACKAGE] = victim
        self._started = True
        return self

    def seal_recording(self, trigger: str = "counterexample", **extra):
        """Seal the armed recorder's ring into a BlackBox (None when not
        recording). Must run before :meth:`close` — sealing captures the
        fault plane's armed policies and schedule, which close resets."""
        recorder = self.device.obs.recorder
        return recorder.seal(trigger, **extra) if recorder.armed else None

    def close(self) -> None:
        """Tear the world down; the device's planes are left clean."""
        if not self._started:
            return
        self._started = False
        try:
            self.monitor.detach()
        finally:
            obs = self.device.obs
            if self.record and obs.recorder.armed:
                obs.recorder.disarm()
            self._capture.__exit__(None, None, None)
            self._capture = None
            obs.faults.reset()

    def __enter__(self) -> "FuzzWorld":
        return self.start() if not self._started else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- topology --------------------------------------------------------

    def spawn(self, package: str, initiator: Optional[str] = None) -> str:
        """Start (or reuse) a subject process; returns its key."""
        key = f"{package}^{initiator}" if initiator else package
        if key not in self.apis:
            self.apis[key] = self.device.spawn(package, initiator=initiator)
        return key

    @property
    def secret_path(self) -> str:
        return SECRET_PATH

    # -- execution -------------------------------------------------------

    def step(self, op) -> str:
        """Apply one op; normal simulation errors become outcomes, a
        simulated crash runs device recovery. Returns the outcome."""
        try:
            outcome = op.apply(self)
        except SimulatedCrash:
            # Power-loss semantics: every process dies, recovery replays
            # the journals; reboot clears injected faults. Subjects must
            # be re-spawned by later ops.
            self.device.recover(validate=False, disarm_faults=True)
            self.apis.clear()
            outcome = "crash+recovered"
        except ReproError as error:
            outcome = f"err:{type(error).__name__}"
        self.outcomes.append((op.render(), outcome))
        return outcome

    @property
    def violations(self) -> List[Violation]:
        return self.monitor.violations

    def result(self) -> RunResult:
        return RunResult(
            outcomes=list(self.outcomes),
            violations=list(self.monitor.violations),
            schedule=self.device.obs.faults.schedule_bytes(),
        )
