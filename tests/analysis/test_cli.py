"""``python -m repro.analysis`` on the live tree: clean modulo the
in-module allowlist, with no stale allowlist entry."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis import check, main

pytestmark = [pytest.mark.analysis]

#: The installed package root ``main()`` scans.
TREE_ROOT = Path(repro.__file__).resolve().parent


class TestCleanTree:
    def test_clean_modulo_committed_baseline(self, capsys):
        code = main()
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.splitlines()[-1].startswith("0 new finding(s), 4 allowed")

    def test_without_baseline_only_known_findings_remain(self, capsys):
        """No allowlist: only the 4 documented wall-clock findings,
        nothing else — the tree itself carries no unknown defects."""
        code = check(TREE_ROOT, "repro", {})
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[-1] == "4 new finding(s), 0 allowed, 0 stale allowlist entr(ies)"
        assert all(" wall-clock repro." in line for line in lines[:-1]), lines
        assert not any("parse-error" in line for line in lines)

    def test_no_stale_suppressions(self, capsys):
        assert main() == 0
        out = capsys.readouterr().out
        assert "stale allowlist entry" not in out
        assert out.splitlines()[-1].endswith(", 0 stale allowlist entr(ies)")
