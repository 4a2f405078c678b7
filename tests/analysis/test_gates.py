"""Gate-coverage linter: planted fixtures and the live tree."""

from __future__ import annotations

import pytest

from repro.analysis.gates import (
    GATE_REGISTRY,
    GateRule,
    QUARTET,
    check_gates,
    detect_members,
)

from .fixtures import (
    GATED_BARE,
    GATED_INLINE_FAULT,
    GATED_OK,
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

    def test_inline_consult_on_the_device_plane_is_faults_evidence(self, tmp_path):
        index = build_fixture(tmp_path, "mod", GATED_INLINE_FAULT)
        fn = index.function("fixturepkg.mod", "InlineGate.write")
        assert detect_members(index, fn) == {"faults"}

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

    def test_registry_spans_the_kernel_layers(self):
        layers = {rule.module.rsplit(".", 2)[-2] for rule in GATE_REGISTRY}
        # syscall/mounts/aufs/binder (kernel), am/zygote/services (android),
        # cow/volatile (core), minisql.
        assert len(GATE_REGISTRY) >= 20
        assert {"kernel", "android", "core", "minisql", "services"} <= layers
