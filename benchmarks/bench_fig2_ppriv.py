"""Figure 2: normal and persistent private state over time.

Replays the figure's timeline (fork at v1, delegate edits, normal run
bumps to v2, re-fork discards nPriv but keeps pPriv, B^C isolated) and
times a full delegate-invocation cycle including the divergence check.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_device

A = "com.fig2.initA"
B = "com.fig2.viewer"
C = "com.fig2.initC"


def ppriv_names(api):
    db = api.ppriv.database("recent")
    if "recent" not in db.table_names():
        db.execute("CREATE TABLE recent (id INTEGER PRIMARY KEY, name TEXT)")
        return []
    return [r[0] for r in db.query("SELECT name FROM recent ORDER BY id").rows]


def ppriv_add(api, name):
    db = api.ppriv.database("recent")
    if "recent" not in db.table_names():
        db.execute("CREATE TABLE recent (id INTEGER PRIMARY KEY, name TEXT)")
    db.execute("INSERT INTO recent (name) VALUES (?)", [name])


@pytest.mark.benchmark(group="fig2-lifecycle")
def bench_figure2_timeline(benchmark):
    def run():
        device = make_device(True, A, B, C)
        # v1 of Priv(B).
        device.spawn(B).prefs.put("version", "v1")
        # B^A: fork, delegate edits, pPriv entry.
        ba = device.spawn(B, initiator=A)
        assert ba.prefs.get("version") == "v1"
        ba.prefs.put("version", "delegate-edit")
        ppriv_add(ba, "attachment.pdf")
        # Normal run: sees v1, writes v2.
        b = device.spawn(B)
        assert b.prefs.get("version") == "v1"
        b.prefs.put("version", "v2")
        # Re-fork: nPriv discarded (sees v2), pPriv kept.
        ba2 = device.spawn(B, initiator=A)
        assert ba2.prefs.get("version") == "v2"
        assert ppriv_names(ba2) == ["attachment.pdf"]
        # B^C: isolated pPriv.
        bc = device.spawn(B, initiator=C)
        assert ppriv_names(bc) == []
        return True

    assert benchmark(run)


@pytest.mark.benchmark(group="fig2-lifecycle")
def bench_delegate_fork_with_divergence_check(benchmark):
    """The per-invocation cost of the section 3.2 machinery alone: version
    stamp + conditional discard + namespace build."""
    device = make_device(True, A, B, C)
    device.spawn(B).prefs.put("seed", "x")

    def spawn_delegate():
        return device.spawn(B, initiator=A)

    api = benchmark(spawn_delegate)
    assert api.process.context.is_delegate
