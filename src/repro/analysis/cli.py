"""The ``python -m repro.analysis`` entry point.

Runs the selected passes over ``src/repro``, filters through the
committed baseline, renders text or JSON, and exits:

- ``0`` — clean modulo baseline,
- ``1`` — new (unbaselined or expired-suppression) findings,
- ``2`` — usage / environment error (unreadable baseline, bad root).

``--write-baseline`` snapshots the current findings as a fresh baseline
(every entry still needs a hand-written justification before commit —
the placeholder text is deliberately unreviewable).
"""

from __future__ import annotations

import argparse
import datetime as _datetime
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.baseline import Baseline, apply_baseline
from repro.analysis.determinism import check_determinism
from repro.analysis.findings import Finding, rank_findings
from repro.analysis.ir import CodeIndex
from repro.analysis.locksets import check_locksets

__all__ = ["main", "run_passes"]

PASSES = ("locksets", "determinism")


def _default_root() -> Path:
    # src/repro/analysis/cli.py -> src/repro
    return Path(__file__).resolve().parent.parent


def run_passes(index: CodeIndex, passes: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    if "locksets" in passes:
        findings.extend(check_locksets(index))
    if "determinism" in passes:
        findings.extend(check_determinism(index))
    return rank_findings(findings)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis plane: locksets, determinism.",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="package root to scan (default: the installed repro package)",
    )
    parser.add_argument(
        "--package", default="repro",
        help="dotted package name of --root (default: repro)",
    )
    parser.add_argument(
        "--passes", default=",".join(PASSES),
        help=f"comma-separated subset of {','.join(PASSES)}",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline JSON with justified suppressions (analysis/BASELINE.json)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the full JSON report to this path",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report findings but exit 0 (CI warn lanes)",
    )
    parser.add_argument(
        "--show-baselined", action="store_true",
        help="also render suppressed findings with their justifications",
    )
    parser.add_argument(
        "--write-baseline", type=Path, default=None,
        help="snapshot current findings as a baseline file and exit",
    )
    parser.add_argument(
        "--today", default=None,
        help="override today's date (YYYY-MM-DD) for expiry evaluation",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    passes = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    unknown = set(passes) - set(PASSES)
    if unknown:
        print(f"error: unknown pass(es): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    root = args.root if args.root is not None else _default_root()
    if not root.is_dir():
        print(f"error: --root {root} is not a directory", file=sys.stderr)
        return 2

    try:
        today = (
            _datetime.date.fromisoformat(args.today)
            if args.today
            else _datetime.date.today()
        )
    except ValueError as error:
        print(f"error: bad --today: {error}", file=sys.stderr)
        return 2

    index = CodeIndex.build(root, package=args.package)
    findings = run_passes(index, passes)

    if args.write_baseline is not None:
        baseline = Baseline.from_findings(
            findings,
            justification="TODO: justify or fix before committing this entry",
            added=today.isoformat(),
        )
        baseline.save(args.write_baseline)
        print(f"wrote {len(baseline.entries)} suppression(s) to {args.write_baseline}")
        return 0

    baseline = None
    if args.baseline is not None:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load baseline {args.baseline}: {error}", file=sys.stderr)
            return 2

    result = apply_baseline(findings, baseline, today)
    # An entry for a pass this run did not execute is not stale — the
    # CI lanes run the passes split (enforcing vs warn-only).
    result.stale = [e for e in result.stale if not e.pass_name or e.pass_name in passes]

    report = {
        "root": str(root),
        "passes": list(passes),
        "today": today.isoformat(),
        "parse_errors": [{"file": f, "error": e} for f, e in index.errors],
        "new": [f.to_dict() for f in result.new],
        "suppressed": [
            {**f.to_dict(), "justification": e.justification, "expires": e.expires}
            for f, e in result.suppressed
        ],
        "resurfaced": [f.fingerprint for f, _ in result.resurfaced],
        "stale_suppressions": [e.to_dict() for e in result.stale],
        "exit": 0,
    }
    failing = bool(result.new) or bool(index.errors)
    report["exit"] = 0 if (args.warn_only or not failing) else 1

    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for path, error in index.errors:
            print(f"{path}:1: [error] parse failed: {error}")
        for finding in result.new:
            marker = ""
            entry = baseline.entry_for(finding.fingerprint) if baseline else None
            if entry is not None:
                marker = f" [suppression expired {entry.expires}]"
            print(finding.render() + marker)
        if args.show_baselined:
            for finding, entry in result.suppressed:
                print(f"  (baselined) {finding.render()}")
                print(f"              justification: {entry.justification}")
        for entry in result.stale:
            print(
                f"note: stale suppression {entry.fingerprint} "
                f"({entry.pass_name}/{entry.rule} {entry.symbol}) matches nothing"
            )
        print(
            f"{len(result.new)} new finding(s), {len(result.suppressed)} baselined, "
            f"{len(result.stale)} stale suppression(s)"
        )

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")

    return int(report["exit"])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
