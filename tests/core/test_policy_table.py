"""The policy table against live devices: every cell, built on a fresh
Maxoid device and on a fresh stock device, does what the table says."""

from __future__ import annotations

import pytest

from repro.android.content.provider import CowProvider
from repro.core.cow import CowProxy
from repro.core.policy import CELLS, DENY, Cell, expected, probe
from repro.errors import FileNotFound
from repro.fuzz.harness import PLANTED_VULNS


@pytest.mark.parametrize("maxoid", [True, False], ids=["maxoid", "stock"])
def test_every_cell_does_what_the_table_says(maxoid):
    assert probe(CELLS, maxoid) == {cell: expected(cell, maxoid).outcome for cell in CELLS}


def _admin_view_open_file(self, uri, context):
    """The unscoped lookup: the first admin row with the id, whichever
    initiator's delta it is in."""
    _, source, key = self._route(uri, context)
    if self._io is None or key is None or uri.row_id is None:
        raise FileNotFound(str(uri))
    for row in self.proxy.admin_rows(source):
        if row[key] == uri.row_id and not row["_whiteout"]:
            state = CowProxy.state_initiator(str(row["_state"]))
            return self._io.read(state, str(row["_data"]))
    raise FileNotFound(str(uri))


class TestBrokenEnforcementFailsACell:
    """Breaking an enforcement point makes the prober disagree with the
    table. ``PLANTED_VULNS["binder-guard-race"]`` is exempt: its window
    opens only under an adversarial interleaving of the deterministic
    scheduler, and the prober runs each cell sequentially."""

    def test_unscoped_provider_open(self, monkeypatch):
        cell = Cell("X", "Vol(A) row", "open")
        assert expected(cell).outcome == DENY
        monkeypatch.setattr(CowProvider, "open_file", _admin_view_open_file)
        assert probe([cell])[cell] != DENY

    def test_planted_clipboard_isolation(self):
        cells = [cell for cell in CELLS if cell.resource == "clipboard"]
        observed = probe(cells, mutate=PLANTED_VULNS["clipboard-isolation"])
        assert any(observed[cell] != expected(cell).outcome for cell in cells)
