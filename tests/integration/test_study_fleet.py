"""The 77-app compatibility census (paper section 7.1: "Out of the 77
data processing apps we analyzed, only three ... cannot work when they
run as delegates, due to loss of network connection")."""

from repro import AndroidManifest
from repro.apps.fleet import (
    CATEGORY_SIZES,
    NETWORK_DEPENDENT,
    build_study_fleet,
    run_fleet_as_delegates,
)
from repro.core.audit import find_marker_in_files

INITIATOR = "com.study.initiator"
MARKER = b"MARKER-fleet-secret"


class Nop:
    def main(self, api, intent):
        return None


class TestFleetConstruction:
    def test_77_apps_with_table1_category_sizes(self):
        fleet = build_study_fleet()
        assert len(fleet) == 77
        by_category = {}
        for member in fleet:
            by_category[member.category] = by_category.get(member.category, 0) + 1
        assert by_category == CATEGORY_SIZES

    def test_exactly_three_network_dependent(self):
        fleet = build_study_fleet()
        networked = {m.package for m in fleet if m.needs_network}
        assert networked == NETWORK_DEPENDENT


class TestCompatibilityCensus:
    def test_74_of_77_work_as_delegates(self, device):
        device.install(AndroidManifest(package=INITIATOR), Nop())
        owner = device.spawn(INITIATOR)
        path = owner.write_internal("docs/target.pdf", MARKER)
        worked, failed = run_fleet_as_delegates(device, INITIATOR, path)
        assert len(worked) == 74
        assert set(failed) == NETWORK_DEPENDENT

    def test_fleet_leaves_no_public_traces_under_maxoid(self, device):
        device.install(AndroidManifest(package=INITIATOR), Nop())
        owner = device.spawn(INITIATOR)
        path = owner.write_internal("docs/target.pdf", MARKER)
        run_fleet_as_delegates(device, INITIATOR, path)
        # After 74 apps processed the secret, a bystander still finds no
        # trace of it anywhere it can read.
        device.install(AndroidManifest(package="com.study.bystander"), Nop())
        bystander = device.spawn("com.study.bystander")
        assert find_marker_in_files(bystander, MARKER) == []
        assert not device.network.leaked_to_network(MARKER)

    def test_fleet_leaks_everywhere_on_stock(self, stock_device):
        stock_device.install(AndroidManifest(package=INITIATOR), Nop())
        owner = stock_device.spawn(INITIATOR)
        path = owner.write_external("docs/target.pdf", MARKER)  # must be public on stock
        worked, failed = run_fleet_as_delegates(stock_device, INITIATOR, path)
        # Everything "works" on stock (delegation doesn't exist, so even
        # the networked three run unconfined)...
        assert len(worked) == 77 and failed == []
        # ...and the secret is sprayed across public storage and the net.
        stock_device.install(AndroidManifest(package="com.study.bystander"), Nop())
        bystander = stock_device.spawn("com.study.bystander")
        assert find_marker_in_files(bystander, MARKER, roots=["/storage/sdcard"])
        assert stock_device.network.leaked_to_network(MARKER)

    def test_networked_apps_work_under_trusted_cloud_extension(self, device):
        """The extension lifts the paper's 3-app limitation: with their
        backends on the trusted cloud, all 77 work as delegates."""
        device.install(AndroidManifest(package=INITIATOR), Nop())
        owner = device.spawn(INITIATOR)
        path = owner.write_internal("docs/target.pdf", MARKER)
        cloud = device.network.enable_trusted_cloud()
        for package in NETWORK_DEPENDENT:
            cloud.register_backend(package, f"{package}.example")
        worked, failed = run_fleet_as_delegates(device, INITIATOR, path)
        assert len(worked) == 77 and failed == []
        # The documents went to domain-confined backends, not the open net.
        assert not device.network.leaked_to_network(MARKER)
        assert any(
            cloud.domain_received(f"{package}.example", INITIATOR, MARKER)
            for package in NETWORK_DEPENDENT
        )
