"""The CLI contract: exit codes, JSON round-trip, baseline semantics."""

from __future__ import annotations

import datetime
import json

import pytest

from repro.analysis.baseline import Baseline, BaselineEntry, apply_baseline
from repro.analysis.cli import main
from repro.analysis.findings import Finding, rank_findings

from .conftest import BASELINE_PATH, TREE_ROOT

pytestmark = [pytest.mark.analysis]

TODAY = "2026-08-07"


def _run(capsys, *argv: str) -> tuple:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCleanTree:
    def test_clean_modulo_committed_baseline(self, capsys):
        code, out = _run(
            capsys,
            "--baseline", str(BASELINE_PATH),
            "--today", TODAY,
        )
        assert code == 0, out
        assert "0 new finding(s)" in out

    def test_without_baseline_only_known_findings_remain(self, capsys):
        """No baseline: only the 4 documented wall-clock findings,
        nothing else — the tree itself carries no unknown defects."""
        code, out = _run(capsys, "--format", "json", "--today", TODAY)
        assert code == 1
        report = json.loads(out)
        rules = {f["rule"] for f in report["new"]}
        assert rules == {"wall-clock"}
        assert report["parse_errors"] == []

    def test_no_stale_suppressions(self, capsys):
        code, out = _run(
            capsys,
            "--format", "json",
            "--baseline", str(BASELINE_PATH),
            "--today", TODAY,
        )
        assert code == 0
        report = json.loads(out)
        assert report["stale_suppressions"] == []


class TestJsonRoundTrip:
    def test_findings_round_trip_through_the_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = _run(
            capsys,
            "--format", "json",
            "--today", TODAY,
            "--out", str(out_path),
        )
        printed = json.loads(out)
        written = json.loads(out_path.read_text())
        assert printed == written
        for raw in printed["new"]:
            finding = Finding.from_dict(raw)
            assert finding.to_dict() == raw
            assert finding.fingerprint == raw["fingerprint"]

    def test_ranking_is_severity_major(self, capsys):
        _, out = _run(capsys, "--format", "json", "--today", TODAY)
        report = json.loads(out)
        severities = [f["severity"] for f in report["new"]]
        assert severities == sorted(
            severities, key=lambda s: {"error": 0, "warning": 1, "info": 2}[s]
        )


class TestBaselineSemantics:
    def _finding(self) -> Finding:
        return Finding(
            pass_name="determinism",
            rule="wall-clock",
            severity="error",
            module="m",
            symbol="C.f",
            file="m.py",
            line=3,
            message="planted",
        )

    def test_expired_suppression_resurfaces(self):
        finding = self._finding()
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    fingerprint=finding.fingerprint,
                    pass_name="determinism",
                    rule="wall-clock",
                    symbol="C.f",
                    justification="temporary",
                    expires="2026-01-01",
                )
            ]
        )
        live = apply_baseline([finding], baseline, datetime.date(2025, 12, 31))
        assert live.new == [] and len(live.suppressed) == 1
        expired = apply_baseline([finding], baseline, datetime.date(2026, 1, 2))
        assert expired.new == [finding]
        assert [e.fingerprint for _, e in expired.resurfaced] == [finding.fingerprint]

    def test_stale_entries_are_reported(self):
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    fingerprint="feedfacefeedface",
                    pass_name="determinism",
                    rule="wall-clock",
                    symbol="Gone.method",
                    justification="matched something once",
                )
            ]
        )
        result = apply_baseline([], baseline, datetime.date(2026, 8, 7))
        assert [e.fingerprint for e in result.stale] == ["feedfacefeedface"]

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        original = Baseline(
            entries=[
                BaselineEntry(
                    fingerprint="0123456789abcdef",
                    pass_name="determinism",
                    rule="wall-clock",
                    symbol="measure",
                    justification="host profiling only",
                    added="2026-08-07",
                    expires="2027-08-07",
                )
            ]
        )
        original.save(path)
        assert Baseline.load(path).entries == original.entries


class TestExitCodes:
    def test_new_findings_exit_1_and_warn_only_exits_0(self, capsys):
        # The live tree without its baseline has findings.
        code, _ = _run(capsys, "--today", TODAY)
        assert code == 1
        code, _ = _run(capsys, "--warn-only", "--today", TODAY)
        assert code == 0

    def test_unknown_pass_is_a_usage_error(self, capsys):
        assert main(["--passes", "vibes"]) == 2
        # The static lockset pass is gone; its lock rows live in
        # tests/integration/test_boundary_wiring.py.
        assert main(["--passes", "locksets"]) == 2

    def test_bad_root_is_a_usage_error(self, capsys):
        assert main(["--root", "/nonexistent/path"]) == 2

    def test_unreadable_baseline_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        assert main(["--baseline", str(bad), "--today", TODAY]) == 2


class TestWriteBaseline:
    def test_snapshot_suppresses_the_current_tree(self, capsys, tmp_path):
        path = tmp_path / "snap.json"
        code, _ = _run(capsys, "--write-baseline", str(path), "--today", TODAY)
        assert code == 0
        code, out = _run(capsys, "--baseline", str(path), "--today", TODAY)
        assert code == 0
        assert "0 new finding(s)" in out
        # Placeholder justifications are deliberately unreviewable.
        snapshot = json.loads(path.read_text())
        assert all(
            e["justification"].startswith("TODO")
            for e in snapshot["suppressions"]
        )
