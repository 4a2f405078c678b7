"""Gate-coverage linter: planted fixtures and the live tree."""

from __future__ import annotations

import pytest

from repro.analysis.gates import (
    GATE_REGISTRY,
    GateRule,
    QUARTET,
    TAP_REGISTRY,
    TapRule,
    check_gates,
    check_recorder_taps,
    detect_members,
)

from .fixtures import (
    GATED_BARE,
    GATED_OK,
    TAPPED_OK,
    TAPPED_SILENT,
    build_fixture,
    gated_missing,
)

pytestmark = [pytest.mark.analysis]


def _registry(cls: str) -> tuple:
    return (
        GateRule(
            module="fixturepkg.mod",
            cls=cls,
            method="write",
            requires=QUARTET,
        ),
    )


class TestPlantedFixtures:
    def test_full_quartet_detected_through_helper_chain(self, tmp_path):
        """obs, faults and sched are declared by a ``@boundary`` one helper
        down, prov two helpers down — the inliner must see all four."""
        index = build_fixture(tmp_path, "mod", GATED_OK)
        fn = index.function("fixturepkg.mod", "GoodGate.write")
        assert detect_members(index, fn) == set(QUARTET)
        assert check_gates(index, _registry("GoodGate")) == []

    def test_bare_boundary_reports_all_four(self, tmp_path):
        index = build_fixture(tmp_path, "mod", GATED_BARE)
        findings = check_gates(index, _registry("BareGate"))
        assert {f.rule for f in findings} == {f"missing-{m}" for m in QUARTET}
        assert all(f.severity == "error" for f in findings)
        assert all(f.symbol == "BareGate.write" for f in findings)
        # file:line points at the offending method.
        assert all(f.file.endswith("mod.py") and f.line > 1 for f in findings)

    @pytest.mark.parametrize("member", QUARTET)
    def test_each_member_detected_in_isolation(self, tmp_path, member):
        """Removing exactly one member yields exactly that finding."""
        index = build_fixture(tmp_path, "mod", gated_missing(member))
        findings = check_gates(index, _registry("OneGate"))
        assert [f.rule for f in findings] == [f"missing-{member}"]

    def test_registry_drift_is_a_finding(self, tmp_path):
        index = build_fixture(tmp_path, "mod", GATED_OK)
        ghost = (
            GateRule(
                module="fixturepkg.mod",
                cls="GoodGate",
                method="renamed_away",
                requires=("obs",),
            ),
        )
        findings = check_gates(index, ghost)
        assert [f.rule for f in findings] == ["unresolved-boundary"]


def _tap_registry(cls: str) -> tuple:
    return (TapRule(module="fixturepkg.mod", cls=cls, method="record"),)


class TestTapFixtures:
    def test_fanout_detected_through_helper(self, tmp_path):
        index = build_fixture(tmp_path, "mod", TAPPED_OK)
        assert check_recorder_taps(index, _tap_registry("TappedPlane")) == []

    def test_silent_plane_is_a_finding(self, tmp_path):
        index = build_fixture(tmp_path, "mod", TAPPED_SILENT)
        findings = check_recorder_taps(index, _tap_registry("SilentPlane"))
        assert [f.rule for f in findings] == ["missing-tap-fanout"]
        assert findings[0].severity == "error"
        assert findings[0].symbol == "SilentPlane.record"
        assert findings[0].file.endswith("mod.py") and findings[0].line > 1

    def test_tap_registry_drift_is_a_finding(self, tmp_path):
        index = build_fixture(tmp_path, "mod", TAPPED_OK)
        ghost = (
            TapRule(
                module="fixturepkg.mod", cls="TappedPlane", method="renamed_away"
            ),
        )
        findings = check_recorder_taps(index, ghost)
        assert [f.rule for f in findings] == ["unresolved-tap-site"]

    def test_default_gate_run_folds_in_the_tap_contract(self, tmp_path):
        """``check_gates`` with the default registry also proves the
        recorder taps; custom registries (these fixtures) do not."""
        index = build_fixture(tmp_path, "mod", TAPPED_OK)
        rules = {f.rule for f in check_gates(index)}
        assert "unresolved-tap-site" in rules
        assert check_gates(index, registry=()) == []


class TestLiveTree:
    @pytest.fixture(scope="class")
    def index(self, tree_index):
        return tree_index

    def test_every_registered_boundary_resolves(self, index):
        unresolved = [
            f for f in check_gates(index) if f.rule == "unresolved-boundary"
        ]
        assert unresolved == [], [f.symbol for f in unresolved]

    def test_tree_is_gate_clean(self, index):
        findings = check_gates(index)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_recorder_tap_site_fans_out(self, index):
        findings = check_recorder_taps(index)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_tap_registry_covers_every_recorder_plane(self):
        # One tap site per plane FlightRecorder.arm() attaches to.
        assert {rule.qualname for rule in TAP_REGISTRY} == {
            "Tracer._finish",
            "FaultPlane.hit",
            "AuditLog.record",
            "DeterministicScheduler._loop",
            "RWLock._acquire",
        }

    def test_registry_spans_the_kernel_layers(self):
        layers = {rule.module.rsplit(".", 2)[-2] for rule in GATE_REGISTRY}
        # syscall/mounts/aufs/binder (kernel), am/zygote/services (android),
        # cow/volatile (core), minisql.
        assert len(GATE_REGISTRY) >= 20
        assert {"kernel", "android", "core", "minisql", "services"} <= layers
