"""The fuzz op language: small, deterministic, renderable actions.

Each op is a frozen dataclass with ``apply(world) -> str`` (a
human-readable outcome, **never** containing pids or inode numbers — the
outcome stream feeds the byte-identical replay fingerprint and those
counters are process-global) and ``render() -> str`` (the line shown in
a shrunk counterexample). Ops raise the simulation's normal exceptions;
the harness maps them to ``err:<Type>`` outcomes and handles
:class:`~repro.faults.SimulatedCrash` with a device recovery.

Every actor carries one byte-register in ``world.regs`` — reads load it,
writes store it — so a shrunk sequence reads like a tiny assembly
program for the leak: ``spawn``, ``load secret``, ``copy``, ``paste``,
``publish``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.android.content.provider import ContentValues
from repro.android.content.user_dictionary import WORDS_URI
from repro.android.uri import Uri
from repro.apps.adversarial import exfil_browser, interpreter, launderer, leaky_provider
from repro.faults import SimulatedCrash, fail_nth, crash_at

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fuzz.harness import FuzzWorld

__all__ = [
    "Op",
    "Spawn",
    "Invoke",
    "DropLoot",
    "ReadSecret",
    "ReadExternal",
    "WriteExternal",
    "ClipCopy",
    "ClipPaste",
    "RunScript",
    "BrowseFile",
    "IngestDocument",
    "ProviderFetch",
    "ProviderInsert",
    "ProviderQuery",
    "VolatileCommit",
    "ClearVolatile",
    "ArmFault",
    "DisarmFaults",
    "CrashNow",
]


@dataclass(frozen=True)
class Op:
    """Base op. Subclasses set ``actor`` (a subject key) when they act."""

    def apply(self, world: "FuzzWorld") -> str:
        raise NotImplementedError

    def render(self) -> str:
        return repr(self)


def _require(world: "FuzzWorld", actor: str) -> Optional[Any]:
    """The actor's AppApi, or None when the subject was never spawned
    (ops on missing actors are skips, keeping shrinking closed under
    subsequence deletion)."""
    return world.apis.get(actor)


@dataclass(frozen=True)
class Spawn(Op):
    """Start a subject: a plain app, or a delegate of ``initiator``."""

    package: str
    initiator: Optional[str] = None

    @property
    def key(self) -> str:
        return f"{self.package}^{self.initiator}" if self.initiator else self.package

    def apply(self, world: "FuzzWorld") -> str:
        world.spawn(self.package, self.initiator)
        return f"spawned {self.key}"

    def render(self) -> str:
        return f"spawn {self.key}"


@dataclass(frozen=True)
class Invoke(Op):
    """Launch an app through the Activity Manager (AM-routed, unlike
    :class:`Spawn`'s direct fork): runs the full resolve/fork/endpoint/
    guard-registry bookkeeping path, which is where the interleaving
    sweep's preemption windows live."""

    package: str

    def apply(self, world: "FuzzWorld") -> str:
        from repro.android.app_api import AppApi

        invocation = world.device.launch(self.package)
        world.apis[self.package] = AppApi(world.device, invocation.process)
        return f"invoked {self.package}"

    def render(self) -> str:
        return f"am: invoke {self.package}"


@dataclass(frozen=True)
class DropLoot(Op):
    """Insert the actor's register at the clip mule's exported drop
    provider (``content://com.attacker.clipmule.drop/<name>``). Under an
    intact Maxoid guard a delegate actor is always refused the channel;
    getting bytes through is itself evidence of a broken guard."""

    actor: str
    name: str = "drop"

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        payload = world.regs.get(self.actor, b"")
        api.insert(
            Uri.content(launderer.DROP_AUTHORITY, self.name),
            ContentValues({"data": payload}),
        )
        return "dropped"

    def render(self) -> str:
        return f"{self.actor}: drop register at {launderer.DROP_AUTHORITY}/{self.name}"


@dataclass(frozen=True)
class ReadSecret(Op):
    """Load the victim's planted secret into the actor's register."""

    actor: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        world.regs[self.actor] = api.sys.read_file(world.secret_path)
        return f"read {len(world.regs[self.actor])}B"

    def render(self) -> str:
        return f"{self.actor}: read secret"


@dataclass(frozen=True)
class WriteExternal(Op):
    """Publish the actor's register to shared external storage."""

    actor: str
    name: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        path = api.write_external(f"fuzz/{self.name}", world.regs.get(self.actor, b""))
        return f"wrote {path}"

    def render(self) -> str:
        return f"{self.actor}: publish register -> external fuzz/{self.name}"


@dataclass(frozen=True)
class ReadExternal(Op):
    """Load a shared external file into the actor's register."""

    actor: str
    name: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        world.regs[self.actor] = api.read_external(f"fuzz/{self.name}")
        return f"read {len(world.regs[self.actor])}B"

    def render(self) -> str:
        return f"{self.actor}: read external fuzz/{self.name}"


@dataclass(frozen=True)
class ClipCopy(Op):
    """Copy the actor's register to its clipboard domain."""

    actor: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        api.clipboard_set(world.regs.get(self.actor, b"").decode("latin-1"))
        return "copied"

    def render(self) -> str:
        return f"{self.actor}: clipboard copy"


@dataclass(frozen=True)
class ClipPaste(Op):
    """Paste the actor's clipboard domain into its register."""

    actor: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        text = api.clipboard_get()
        world.regs[self.actor] = (text or "").encode("latin-1")
        return f"pasted {len(world.regs[self.actor])}B"

    def render(self) -> str:
        return f"{self.actor}: clipboard paste"


@dataclass(frozen=True)
class RunScript(Op):
    """Hand the interpreter app a command script (actor must be an
    interpreter subject — plain or delegate)."""

    actor: str
    script: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        app = world.apps[interpreter.PACKAGE]
        result = app.run_script(api, self.script)
        return f"executed {result['executed']}"

    def render(self) -> str:
        return f"{self.actor}: run script {self.script!r}"


@dataclass(frozen=True)
class BrowseFile(Op):
    """Have the exfil browser render (and mirror, and beacon) a path."""

    actor: str
    path: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        app = world.apps[exfil_browser.PACKAGE]
        result = app.render_file(api, self.path)
        return f"rendered {result['bytes']}B beaconed={result['beaconed']}"

    def render(self) -> str:
        return f"{self.actor}: browse file {self.path}"


@dataclass(frozen=True)
class IngestDocument(Op):
    """Have the leaky-provider app hoard a path into its served inbox."""

    actor: str
    path: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        app = world.apps[leaky_provider.PACKAGE]
        name = app.ingest(api, self.path)
        return f"ingested {name}"

    def render(self) -> str:
        return f"{self.actor}: ingest {self.path}"


@dataclass(frozen=True)
class ProviderFetch(Op):
    """Open a name on the exported leaky provider into the register."""

    actor: str
    name: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        app = world.apps[leaky_provider.PACKAGE]
        world.regs[self.actor] = api.open_input(app.content_uri(self.name))
        return f"fetched {len(world.regs[self.actor])}B"

    def render(self) -> str:
        return f"{self.actor}: open leaky provider {self.name}"


@dataclass(frozen=True)
class ProviderInsert(Op):
    """Insert the actor's register as a user-dictionary word."""

    actor: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        word = world.regs.get(self.actor, b"").decode("latin-1") or "-"
        api.insert(WORDS_URI, ContentValues({"word": word, "frequency": 1}))
        return "inserted"

    def render(self) -> str:
        return f"{self.actor}: insert register into user_dictionary"


@dataclass(frozen=True)
class ProviderQuery(Op):
    """Query the user dictionary; concatenate words into the register."""

    actor: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None:
            return "skip"
        rows = api.query(WORDS_URI, projection=["word"])
        words = [str(row[0]) for row in rows.rows]
        world.regs[self.actor] = "\n".join(words).encode("latin-1")
        return f"queried {len(words)} rows"

    def render(self) -> str:
        return f"{self.actor}: query user_dictionary"


@dataclass(frozen=True)
class VolatileCommit(Op):
    """An initiator commits every volatile file to its public name."""

    actor: str

    def apply(self, world: "FuzzWorld") -> str:
        api = _require(world, self.actor)
        if api is None or api.is_delegate:
            return "skip"
        committed = 0
        for tmp_path in api.volatile.list_files():
            api.volatile.commit(tmp_path)
            committed += 1
        return f"committed {committed}"

    def render(self) -> str:
        return f"{self.actor}: commit volatile files"


@dataclass(frozen=True)
class ClearVolatile(Op):
    """Discard an initiator's volatile state (Clear-Vol)."""

    package: str

    def apply(self, world: "FuzzWorld") -> str:
        dropped = world.device.clear_volatile(self.package)
        return f"cleared {dropped}"

    def render(self) -> str:
        return f"clear volatile of {self.package}"


@dataclass(frozen=True)
class ArmFault(Op):
    """Arm a seeded fault policy on a registered fault point."""

    point: str
    nth: int = 1
    crash: bool = False

    def apply(self, world: "FuzzWorld") -> str:
        policy = crash_at(self.nth) if self.crash else fail_nth(self.nth)
        world.device.obs.faults.arm(self.point, policy)
        return f"armed {self.point}"

    def render(self) -> str:
        kind = "crash_at" if self.crash else "fail_nth"
        return f"arm {kind}({self.nth}) on {self.point}"


@dataclass(frozen=True)
class DisarmFaults(Op):
    """Disarm every fault point."""

    def apply(self, world: "FuzzWorld") -> str:
        world.device.obs.faults.disarm()
        return "disarmed"

    def render(self) -> str:
        return "disarm faults"


@dataclass(frozen=True)
class CrashNow(Op):
    """Pull the power mid-sequence; the harness runs device recovery."""

    def apply(self, world: "FuzzWorld") -> str:
        raise SimulatedCrash("fuzz.crash_now", 0)

    def render(self) -> str:
        return "crash device"
