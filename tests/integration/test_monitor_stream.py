"""The security monitor as a streaming checker: violations are flagged the
moment the offending span closes — not after the workload ends — and each
carries an ``explain()`` lineage back to the tainted Priv source.

The planted scenarios deliberately bypass Maxoid's confinement (spans are
hand-built, or the flow is driven on a stock device) so that the monitor
has something to catch; the assertion then covers the acceptance
criteria: mid-workload flagging, non-empty lineage ending at the ``Priv(A)`` source, and
violations recorded into the audit log with their chains.
"""

import pytest

from repro import AndroidManifest, Device
from repro.core.audit import AuditLog
from repro.obs import OBS
from repro.obs.monitor import SecurityMonitor
from repro.obs.provenance import Label

pytestmark = [pytest.mark.trace, pytest.mark.prov]

A = "com.stream.initiator"
B = "com.stream.delegate"
X = "com.stream.victim"


class _Nop:
    def main(self, api, intent):
        return None


@pytest.fixture
def device():
    device = Device(maxoid_enabled=True)
    for pkg in (A, B, X):
        device.install(AndroidManifest(package=pkg), _Nop())
    return device


def _packages(device):
    return [p.manifest.package for p in device.packages.all_packages()]


def test_monitor_flags_planted_violation_before_workload_finishes(device):
    """Streaming, not post-hoc: the violation count is observable inside
    the workload, right after the offending span closes."""
    flagged_mid_workload = []
    with OBS.capture(prov=True) as obs:
        with SecurityMonitor(obs.tracer, _packages(device)) as monitor:
            with OBS.tracer.span(
                "vfs.read", ctx=f"{B}^{A}", path=f"/data/data/{X}/db/secrets.db"
            ):
                pass
            # Still inside the capture: later workload work would go here.
            flagged_mid_workload.append(len(monitor.violations))
            with OBS.tracer.span(
                "vfs.write", ctx=f"{B}^{A}", path="/storage/sdcard/later.bin"
            ):
                pass
    assert flagged_mid_workload == [1], "violation not flagged at span close"
    assert monitor.violations[0].rule == "S1"
    assert X in monitor.violations[0].message


def test_monitor_flags_planted_violations_amid_clean_work(device):
    """Over a mixed clean/dirty stream, only the planted spans are flagged."""
    with OBS.capture(prov=True) as obs:
        monitor = SecurityMonitor(
            obs.tracer, _packages(device), ledger=obs.provenance
        )
        with monitor:
            # Clean delegate work.
            delegate = device.spawn(B, initiator=A)
            delegate.write_external("ok.bin", b"fine")
            # Planted S1: a delegate span touching a third party's Priv.
            with OBS.tracer.span(
                "vfs.read", ctx=f"{B}^{A}", path=f"/data/data/{X}/secrets.db"
            ):
                pass
            # Planted S3: a plain app reading a foreign Priv.
            with OBS.tracer.span(
                "vfs.read", ctx=B, path=f"/data/data/{X}/private.txt"
            ):
                pass
    assert [v.rule for v in monitor.violations] == ["S1", "S3"]


def test_taint_flow_s1_catches_launder_through_public_file(device):
    """The flow the path-based rules cannot see: a delegate reads its own
    initiator's Priv (legal), writes it to the shared view, and a *plain*
    process of another package publishes it. Only the taint form of S1
    catches the laundering, and its lineage ends at the Priv(A) source."""
    owner = device.spawn(A)
    owner.write_internal("docs/secret.txt", b"initiator private data")
    audit = AuditLog()
    with OBS.capture(prov=True) as obs:
        monitor = SecurityMonitor(
            obs.tracer, _packages(device), ledger=obs.provenance, audit_log=audit
        )
        with monitor:
            delegate = device.spawn(B, initiator=A)
            data = delegate.sys.read_file(f"/data/data/{A}/docs/secret.txt")
            delegate.write_external("leak.bin", data)
            # The initiator's own view: the delegate's file is volatile.
            initiator = device.spawn(A)
            staged = initiator.sys.read_file("/storage/sdcard/tmp/leak.bin")
            assert staged == data
            # A different package's plain process publishes the data.
            mule = device.spawn(X)
            with OBS.tracer.span(
                "vfs.write", ctx=X, path="/storage/sdcard/public-drop.bin"
            ):
                obs.provenance.read(
                    mule.process.pid, X, "/storage/sdcard/tmp/leak.bin"
                )
                obs.provenance.write(
                    mule.process.pid, X, "/storage/sdcard/public-drop.bin"
                )
        lineage = obs.provenance.explain("/storage/sdcard/public-drop.bin")
    s1 = [v for v in monitor.violations if v.rule == "S1"]
    assert s1, "taint-flow S1 did not fire"
    assert f"Priv({A})" in s1[0].message
    assert s1[0].lineage, "violation carries no lineage"
    assert s1[0].lineage[-1].startswith("source ")
    assert f"Priv({A})" in s1[0].lineage[-1]
    assert Label.priv(A) in lineage.taints
    # The audit log holds the same verdict with the same chain.
    recorded = audit.violations()
    assert len(recorded) == len(monitor.violations)
    assert recorded[0].details["rule"] == s1[0].rule
    assert recorded[0].details["lineage"] == s1[0].lineage


def test_recover_validation_runs_through_the_monitor(device):
    """Device.recover()'s probe workload streams through the monitor: the
    probe passes clean and the audit log records the sweep verdict."""
    device.spawn(B, initiator=A)
    device.spawn(X)
    report = device.recover()
    assert report.validation_violations == []
    assert report.validation_spans_checked > 0
    entries = [
        e for e in device.audit_log.events("recovery")
        if e.message == "validation sweep"
    ]
    assert entries and entries[-1].details["violations"] == 0
    assert device.audit_log.violations() == []
