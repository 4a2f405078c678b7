"""A command-interpreter app: the IFL "leak via command interpreter" class.

Terminal emulators and script runners on real devices execute whatever
another app hands them — the *Cross-Platform Analysis of Indirect File
Leaks* catalogue's first attacker class. This one accepts a newline-
separated ``script`` extra in any SEND/VIEW intent and executes it with
its own identity: reads of arbitrary paths, writes of the process's
accumulator to arbitrary destinations, public exfiltration to external
storage, posts to an attacker-controlled host, and clipboard copies.

The interpreter is deliberately *careless*: every failing command is
recorded in the transcript and execution continues, exactly like a shell
script without ``set -e``. On stock Android, a victim app invoking it
with a path to its own private file completes the leak; under Maxoid the
same invocation runs as the victim's delegate, so the reads succeed but
every publishing channel dead-ends in ``Vol(victim)`` (or ENETUNREACH).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.android.app_api import AppApi
from repro.android.intents import Intent, IntentFilter
from repro.apps.base import AppBuild, SimApp
from repro.errors import ReproError

PACKAGE = "com.attacker.interpreter"

#: External-storage directory the interpreter exfiltrates into.
DROP_DIR = "interpreter/drop"


class InterpreterApp(SimApp):
    """Executes victim-supplied command scripts, one line at a time.

    Each process has its own accumulator, as each real process has its
    own memory: bytes a delegate instance read never reach a plain one.

    Commands (whitespace-separated, ``#`` starts a comment line):

    - ``read <path>`` — load a file into the accumulator
    - ``write <path>`` — store the accumulator at an arbitrary path
    - ``exfil <name>`` — publish the accumulator to external storage
    - ``clip-copy`` / ``clip-paste`` — move the accumulator via clipboard
    - ``post <host> <resource>`` — fetch from an attacker host (the
      simulated stand-in for an upload beacon)
    """

    BUILD = AppBuild(
        package=PACKAGE,
        label="Script Interpreter",
        handles=[
            IntentFilter(actions=[Intent.ACTION_SEND], priority=1),
            IntentFilter(actions=[Intent.ACTION_VIEW], priority=0),
        ],
    )

    def __init__(self) -> None:
        super().__init__()
        #: pid -> last bytes that process loaded by ``read``/``clip-paste``.
        self.accumulators: Dict[int, bytes] = {}
        #: ``(command, outcome)`` per executed line, across invocations.
        self.transcript: List[Tuple[str, str]] = []

    # -- intent entry points --------------------------------------------

    def on_send(self, api: AppApi, intent: Intent) -> Dict[str, Any]:
        return self.run_script(api, str(intent.extras.get("script", "")))

    def on_view(self, api: AppApi, intent: Intent) -> Dict[str, Any]:
        return self.on_send(api, intent)

    # -- the interpreter -------------------------------------------------

    def run_script(self, api: AppApi, script: str) -> Dict[str, Any]:
        """Execute every line; never raises (errors go to the transcript)."""
        executed = 0
        for line in script.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            executed += 1
            self.transcript.append((line, self._execute(api, line)))
        return {"executed": executed, "accumulator_bytes": len(self.accumulator(api))}

    def accumulator(self, api: AppApi) -> bytes:
        """The accumulator of ``api``'s process."""
        return self.accumulators.get(api.process.pid, b"")

    def _execute(self, api: AppApi, line: str) -> str:
        parts = line.split()
        command, args = parts[0], parts[1:]
        pid = api.process.pid
        try:
            if command == "read" and args:
                self.accumulators[pid] = api.sys.read_file(args[0])
                return f"ok:{len(self.accumulators[pid])}B"
            if command == "write" and args:
                api.sys.makedirs(args[0].rsplit("/", 1)[0])
                api.sys.write_file(args[0], self.accumulator(api))
                return "ok"
            if command == "exfil" and args:
                api.write_external(f"{DROP_DIR}/{args[0]}", self.accumulator(api))
                return "ok"
            if command == "clip-copy":
                api.clipboard_set(self.accumulator(api).decode("latin-1"))
                return "ok"
            if command == "clip-paste":
                text = api.clipboard_get()
                self.accumulators[pid] = (text or "").encode("latin-1")
                return f"ok:{len(self.accumulators[pid])}B"
            if command == "post" and len(args) >= 2:
                api.fetch(args[0], args[1])
                return "ok"
            return "err:UnknownCommand"
        except ReproError as error:
            return f"err:{type(error).__name__}"
