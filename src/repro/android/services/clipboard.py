"""The Clipboard service.

Paper section 6.2: "Clipboard Service is modified to create separate
clipboard instances for delegates." A delegate pasting would otherwise
read whatever the user last copied anywhere (an input channel); a delegate
*copying* would leak initiator secrets to every other app (an output
channel). Maxoid gives each confinement domain its own clipboard: the
main clipboard for initiators, one per initiator package for that
initiator's delegates.

With ``maxoid_enabled=False`` (the baseline) there is a single global
clipboard — the stock Android behaviour the Table 1 audit exploits.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.boundary import boundary
from repro.kernel.proc import Process
from repro.obs import OBS as _OBS


class ClipboardService:
    """Per-confinement-domain clipboards."""

    _MAIN = "<main>"

    def __init__(self, maxoid_enabled: bool = True, obs: Optional[Any] = None) -> None:
        self._maxoid = maxoid_enabled
        self._clips: Dict[str, Optional[str]] = {self._MAIN: None}
        # The owning device's observability context.
        self.obs = obs if obs is not None else _OBS

    def _domain(self, process: Process) -> str:
        if not self._maxoid:
            return self._MAIN
        context = process.context
        if context.is_delegate and context.initiator is not None:
            return f"vol:{context.initiator}"
        return self._MAIN

    # No sched yield point on either boundary on purpose: clipboard
    # mutations carry no preemption point, which keeps them atomic under
    # the cooperative scheduler without a lock. A yield here would also
    # shift the schedule digests the interleave sweep pins.
    @boundary(
        "clip.set", attrs=lambda self, process, text: {"pid": process.pid}, count="clip.sets"
    )
    def set_text(self, process: Process, text: str) -> None:
        domain = self._domain(process)
        self._clips[domain] = text
        if self.obs.prov:
            self.obs.provenance.clip_set(process.pid, str(process.context), domain)

    @boundary("clip.get", attrs=lambda self, process: {"pid": process.pid}, count="clip.gets")
    def get_text(self, process: Process) -> Optional[str]:
        domain = self._domain(process)
        if domain not in self._clips:
            # A delegate's first paste sees the pre-confinement clipboard
            # content (initial state availability, U1): fork from main.
            self._clips[domain] = self._clips[self._MAIN]
        if self.obs.prov:
            self.obs.provenance.clip_get(process.pid, str(process.context), domain)
        return self._clips[domain]

    def clear_domain(self, initiator: str) -> None:
        """Discard the delegate clipboard of ``initiator`` (Clear-Vol)."""
        self._clips.pop(f"vol:{initiator}", None)
