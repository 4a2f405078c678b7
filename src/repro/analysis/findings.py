"""The finding model every static-analysis pass reports through.

A :class:`Finding` is one defect claim: which pass produced it, which
rule fired, where (module / symbol / file:line), and a human-readable
message. Findings carry a **fingerprint** — a stable hash over the
*identity* of the defect (pass, rule, module, symbol, discriminator key)
that deliberately excludes line numbers and message text, so a baseline
suppression keeps matching while unrelated edits move code around.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

__all__ = ["Finding", "SEVERITY_ORDER", "rank_findings"]

#: Lower rank renders first.
SEVERITY_ORDER: Dict[str, int] = {"error": 0, "warning": 1, "info": 2}


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding."""

    pass_name: str  #: "determinism"
    rule: str  #: e.g. "wall-clock", "unseeded-random"
    severity: str  #: "error" | "warning" | "info"
    module: str  #: dotted module, e.g. "repro.kernel.syscall"
    symbol: str  #: qualified symbol, e.g. "Syscalls.write_file"
    file: str  #: path for rendering (not part of the fingerprint)
    line: int
    message: str
    #: Extra structured context (sorted key/value pairs so the dataclass
    #: stays hashable); ``key`` enters the fingerprint.
    data: Tuple[Tuple[str, str], ...] = field(default=())

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching (no lines, no message)."""
        key = dict(self.data).get("key", "")
        ident = "|".join((self.pass_name, self.rule, self.module, self.symbol, key))
        return hashlib.sha256(ident.encode()).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "pass": self.pass_name,
            "rule": self.rule,
            "severity": self.severity,
            "module": self.module,
            "symbol": self.symbol,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Finding":
        return cls(
            pass_name=raw["pass"],
            rule=raw["rule"],
            severity=raw["severity"],
            module=raw["module"],
            symbol=raw["symbol"],
            file=raw["file"],
            line=int(raw["line"]),
            message=raw["message"],
            data=tuple(sorted((str(k), str(v)) for k, v in raw.get("data", {}).items())),
        )

    def render(self) -> str:
        return (
            f"{self.file}:{self.line}: [{self.severity}] "
            f"{self.pass_name}/{self.rule} {self.symbol}: {self.message} "
            f"(fingerprint {self.fingerprint})"
        )


def rank_findings(findings) -> list:
    """Most severe first, then by pass, file, line — the CLI's order."""
    return sorted(
        findings,
        key=lambda f: (
            SEVERITY_ORDER.get(f.severity, 99),
            f.pass_name,
            f.file,
            f.line,
            f.rule,
            f.symbol,
        ),
    )
