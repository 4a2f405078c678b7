"""The PolyScope-style triage: a view of the policy table that prunes the
cells the reference monitor denies outright, so fuzzing spends nothing
on them."""

from __future__ import annotations

import pytest

from repro.core.policy import CELLS, DENY, REDIRECT, Cell, expected, triage

pytestmark = pytest.mark.fuzz

_DELEGATES = ("B^A", "X^A")
reachable, pruned = triage()


def test_triage_prunes_a_meaningful_fraction():
    assert sorted(reachable + pruned) == sorted(CELLS)
    # A sizeable slice of the raw product space never needs a fuzz example.
    assert 0.15 <= len(pruned) / len(CELLS) <= 0.75


def test_plain_foreign_priv_is_pruned():
    assert Cell("X", "Priv(A)", "read") in pruned and Cell("A", "Priv(A)", "read") in reachable
    assert all((cell in pruned) == (expected(cell).outcome == DENY) for cell in CELLS)


def test_delegate_reaches_initiator_priv_but_not_third_parties():
    assert all(Cell(delegate, "Priv(A)", "read") in reachable for delegate in _DELEGATES)
    assert Cell("X^A", "Priv(B)", "read") in pruned


def test_delegate_write_notes_volatile_redirect():
    for delegate in _DELEGATES:
        for resource in ("public file", "public row", "Priv(A)"):
            rule = expected(Cell(delegate, resource, "write"))
            assert rule.outcome == REDIRECT and "Vol(A)" in rule.why


def test_delegate_network_and_foreign_providers_pruned():
    # Exported or not, a foreign app-defined endpoint is behind the Binder
    # policy for delegates.
    for delegate in _DELEGATES:
        assert Cell(delegate, "network", "connect") in pruned
        assert Cell(delegate, "app provider", "open") in pruned


def test_exported_provider_reachable_for_plain_subjects():
    assert all(Cell(subject, "app provider", "open") in reachable for subject in ("A", "B", "X"))


def test_stock_topology_keeps_channels_open():
    _, stock_pruned = triage(maxoid=False)
    # Stock Android prunes only by the UID sandbox around private state.
    assert {cell.resource for cell in stock_pruned} == {"Priv(A)", "Priv(B)", "Priv(B^A)", "pPriv(B)"}
