"""The device facade: boot a simulated Android system, with or without
Maxoid (paper Figure 3).

``Device(maxoid_enabled=True)`` boots the full Maxoid stack: branch
manager in Zygote, IPC guard in the Binder driver, COW-proxied system
providers, the modified services, and the Launcher drop targets.
``Device(maxoid_enabled=False)`` boots the stock-Android baseline the
paper's benchmarks compare against: same framework, none of the Maxoid
hooks, a single shared view of everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.android.am import ActivityManagerService, Invocation
from repro.android.app_api import AppApi
from repro.android.content.contacts import ContactsProvider
from repro.android.content.downloads import DownloadsProvider
from repro.android.content.media import MediaProvider
from repro.android.content.provider import ContentResolver
from repro.android.content.system_io import SystemStorageIO, VOLATILE_MOUNT
from repro.android.content.user_dictionary import UserDictionaryProvider
from repro.android.intents import Intent
from repro.android.launcher import Launcher
from repro.android.packages import AndroidManifest, InstalledPackage, PackageManager
from repro.android.services import (
    BluetoothService,
    ClipboardService,
    DownloadManager,
    MediaScanner,
    TelephonyService,
)
from repro.android.storage import EXTDIR
from repro.android.zygote import Zygote
from repro.core.audit import AuditLog
from repro.core.branches import BranchManager
from repro.core.ipc_guard import IpcGuard
from repro.core.journal import CommitJournal
from repro.core.manifest import MaxoidManifest
from repro.core.views import plan_delegate_mounts, plan_initiator_mounts
from repro.core.volatile import MaxoidSystemService
from repro.errors import ReproError
from repro.kernel import path as vpath
from repro.kernel.binder import BinderDriver
from repro.kernel.mounts import MountNamespace
from repro.kernel.network import NetworkStack
from repro.kernel.proc import Process, ProcessTable, TaskContext
from repro.kernel.syscall import Syscalls
from repro.kernel.sysfs import Sysfs
from repro.kernel.vfs import Credentials, Filesystem, ROOT_CRED
from repro.obs import OBS, ObsContext
from repro.obs.monitor import SecurityMonitor


@dataclass
class RecoveryReport:
    """What ``Device.recover()`` found and repaired after a crash."""

    file_commits_replayed: int = 0
    file_commits_rolled_back: int = 0
    cow_rows_replayed: int = 0
    cow_rows_rolled_back: int = 0
    copyup_temps_removed: List[str] = field(default_factory=list)
    orphans_reaped: List[int] = field(default_factory=list)
    namespaces_rebuilt: int = 0
    validation_violations: List[str] = field(default_factory=list)
    validation_spans_checked: int = 0

    @property
    def clean(self) -> bool:
        """True when validation found no security-goal violation."""
        return not self.validation_violations


class Device:
    """A booted simulated Android device."""

    def __init__(
        self,
        maxoid_enabled: bool = True,
        *,
        device_id: Optional[str] = None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.maxoid_enabled = maxoid_enabled
        # -- observability ----------------------------------------------------
        # Every instrumented layer below resolves its gating flags, and its
        # fault plane, through this handle. The default is the global OBS
        # context and its fault plane, so a bare Device() behaves
        # exactly as before; naming the device (or passing a context)
        # gives it an isolated ObsContext, so several devices can run in
        # one process without sharing observability state.
        if obs is not None:
            self.obs = obs
        elif device_id is not None:
            self.obs = ObsContext(device_id=device_id)
        else:
            self.obs = OBS
        self.device_id = device_id if device_id is not None else self.obs.device_id
        # -- kernel ---------------------------------------------------------
        self.system_fs = Filesystem(label="system")
        self.processes = ProcessTable()
        self.sysfs = Sysfs(self.processes)
        self.binder = BinderDriver(obs=self.obs)
        self.binder.attach_process_table(self.processes)
        self.network = NetworkStack()
        self.branches = BranchManager(self.system_fs, obs=self.obs)
        self.audit_log = AuditLog(device_id=self.device_id)
        self.binder.attach_audit_log(self.audit_log)
        self.commit_journal = CommitJournal(self.system_fs, obs=self.obs)
        # -- namespaces -------------------------------------------------------
        # Every app sees the system fs at / and public external storage at
        # EXTDIR; the system process additionally sees the volatile forest.
        self.base_namespace = MountNamespace(self.system_fs, obs=self.obs)
        self.base_namespace.mount(EXTDIR, self.branches.pub_fs)
        self.system_namespace = self.base_namespace.unshare()
        self.system_namespace.mount(VOLATILE_MOUNT, self.branches.vol_fs)
        self.system_process = Process(
            cred=Credentials(uid=0),
            namespace=self.system_namespace,
            context=TaskContext(app=None, initiator=None),
            name="system_server",
            obs=self.obs,
        )
        self.processes.register(self.system_process)
        # -- framework ---------------------------------------------------------
        self.packages = PackageManager(self.system_fs)
        self.resolver = ContentResolver(self.binder)
        system_io = SystemStorageIO(Syscalls(self.system_process))
        self.user_dictionary = UserDictionaryProvider()
        self.downloads = DownloadsProvider(self.network, system_io, self.system_process)
        self.media = MediaProvider(system_io)
        self.contacts = ContactsProvider()
        #: The COW-backed system providers, in the order volatile state is
        #: discarded and commit journals are recovered.
        self.cow_providers = (self.user_dictionary, self.media, self.downloads, self.contacts)
        for provider in self.cow_providers:
            self.resolver.register(provider)
            # The proxy was built before the device existed; attach it
            # (and its database) to this context.
            provider.proxy.bind_obs(self.obs)
        self.clipboard = ClipboardService(maxoid_enabled, obs=self.obs)
        self.bluetooth = BluetoothService(maxoid_enabled, obs=self.obs)
        self.telephony = TelephonyService(maxoid_enabled, obs=self.obs)
        self.download_manager = DownloadManager(self.resolver, obs=self.obs)
        self.media_scanner = MediaScanner(self.resolver)
        # -- Maxoid hooks ---------------------------------------------------------
        self.maxoid_manifests: Dict[str, MaxoidManifest] = {}
        self.ipc_guard: Optional[IpcGuard] = None
        if maxoid_enabled:
            self.ipc_guard = IpcGuard(self.binder)
            self.maxoid_service = MaxoidSystemService(
                self.binder,
                self.branches,
                clear_volatile=self.clear_volatile,
                clear_delegate_priv=self.clear_delegate_priv,
            )
        self.zygote = Zygote(
            self.processes,
            self.sysfs,
            self.packages,
            self._build_namespace,
            maxoid_enabled=maxoid_enabled,
            obs=self.obs,
        )
        self.am = ActivityManagerService(
            self.packages,
            self.zygote,
            self.processes,
            self.binder,
            ipc_guard=self.ipc_guard,
            maxoid_manifests=self.maxoid_manifests,
            obs=self.obs,
        )
        self.launcher = Launcher(self.am, self)
        self._apps: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Zygote's namespace builder
    # ------------------------------------------------------------------

    def _build_namespace(self, package: str, initiator: Optional[str]) -> MountNamespace:
        if not self.maxoid_enabled:
            return self.base_namespace.unshare()
        manifest = self.maxoid_manifests.get(package)
        if initiator is None or initiator == package:
            plans = plan_initiator_mounts(package, manifest)
        else:
            self.branches.prepare_delegate_priv(package, initiator)
            plans = plan_delegate_mounts(
                package, initiator, manifest, self.maxoid_manifests.get(initiator)
            )
        return self.branches.materialize(self.base_namespace, plans)

    # ------------------------------------------------------------------
    # App installation and launch
    # ------------------------------------------------------------------

    def install(self, manifest: AndroidManifest, app: Optional[Any] = None) -> InstalledPackage:
        """Install a package; ``app`` is the app's code (an object with a
        ``main(api, intent)`` method) if it has any."""
        installed = self.packages.install(manifest)
        if manifest.maxoid is not None:
            self.maxoid_manifests[manifest.package] = manifest.maxoid
        if app is not None:
            self._apps[manifest.package] = app
            self.am.register_handler(manifest.package, self._make_handler(manifest.package))
            if hasattr(app, "on_install"):
                app.on_install(self, installed)
        return installed

    def _make_handler(self, package: str):
        def handler(process: Process, intent: Intent):
            api = AppApi(self, process)
            return self._apps[package].main(api, intent)

        return handler

    def register_app_provider(self, provider: Any) -> None:
        """Register an app-defined content provider.

        Its Binder endpoint runs in the owning app's (initiator) context,
        so the IPC guard lets the owner's delegates reach it — the Email
        attachment flow (paper section 2.2.III)."""
        self.resolver.register(provider)
        proxy = getattr(provider, "proxy", None)
        if proxy is not None and hasattr(proxy, "bind_obs"):
            proxy.bind_obs(self.obs)
        if self.ipc_guard is not None and provider.owner is not None:
            self.ipc_guard.register_instance(
                f"provider:{provider.authority}",
                TaskContext(app=provider.owner, initiator=None),
            )

    def app(self, package: str) -> Any:
        return self._apps[package]

    def launch(self, package: str, intent: Optional[Intent] = None) -> Invocation:
        """The user taps an app icon."""
        return self.launcher.start(package, intent)

    def launch_as_delegate(
        self, package: str, initiator: str, intent: Optional[Intent] = None
    ) -> Invocation:
        return self.launcher.start_as_delegate(package, initiator, intent)

    def api_for(self, process: Process) -> AppApi:
        """An API handle for an existing process (used by tests/benches)."""
        return AppApi(self, process)

    def spawn(self, package: str, initiator: Optional[str] = None) -> AppApi:
        """Spawn a process directly (no intent), returning its API —
        convenient for tests and microbenchmarks."""
        process = self.zygote.fork_app(package, initiator)
        return AppApi(self, process)

    # ------------------------------------------------------------------
    # Maxoid state management (Launcher / initiator entry points)
    # ------------------------------------------------------------------

    def clear_volatile(self, package: str) -> int:
        """Discard Vol(package): volatile files, provider volatile records,
        and the delegate clipboard."""
        removed = self.branches.clear_volatile(package)
        for provider in self.cow_providers:
            removed += provider.proxy.discard_all_volatile(package)
        self.clipboard.clear_domain(package)
        return removed

    def clear_delegate_priv(self, package: str) -> int:
        """Discard Priv(x^package) for every app x."""
        count = self.branches.clear_delegate_priv(package)
        for process in self.processes.instances_of_initiator(package):
            process.kill()
        return count

    # ------------------------------------------------------------------
    # Flight recorder
    # ------------------------------------------------------------------

    def arm_flight_recorder(
        self,
        capacity: int = 4096,
        halt_at: Optional[int] = None,
    ):
        """Arm this device's flight recorder with its audit log tapped.

        Convenience over ``device.obs.recorder.arm(...)`` that wires in
        ``self.audit_log``, so S1-S4 violations and delegate timeouts
        recorded there trigger black-box dumps automatically."""
        return self.obs.recorder.arm(
            capacity=capacity,
            audit_log=self.audit_log,
            halt_at=halt_at,
        )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def recover(
        self, *, validate: bool = True, disarm_faults: bool = True
    ) -> RecoveryReport:
        """Bring the device back to a consistent state after a crash.

        The simulated analogue of Android's boot-time fsck + journal
        replay: roll forward or back every interrupted multi-step
        mutation, reap processes stranded mid-bookkeeping, rebuild app
        mount namespaces from their installed state, and (with
        ``validate=True``) re-check the S1/S2 confinement goals over a
        freshly traced probe workload. Every action, and every fault
        injected through this device's plane (``self.obs.faults``), lands
        in ``self.audit_log`` for the post-mortem.
        """
        report = RecoveryReport()
        if disarm_faults:
            self.obs.faults.disarm()
        self.audit_log.ingest_faults(self.obs.faults)
        # 1. Volatile file commits: replay complete intents, roll back torn.
        for entry_path, intent in self.commit_journal.pending():
            if intent is None:
                self.commit_journal.truncate(entry_path)
                report.file_commits_rolled_back += 1
                self.audit_log.record(
                    "recovery", "rolled back torn commit intent", entry=entry_path
                )
                continue
            self._replay_file_commit(intent)
            self.commit_journal.truncate(entry_path)
            report.file_commits_replayed += 1
            self.audit_log.record(
                "recovery",
                "replayed file commit",
                package=intent.package,
                destination=intent.destination,
            )
        # 2. COW proxy commit journals.
        for provider in self.cow_providers:
            replayed, rolled_back = provider.proxy.recover()
            report.cow_rows_replayed += replayed
            report.cow_rows_rolled_back += rolled_back
            if replayed or rolled_back:
                self.audit_log.record(
                    "recovery",
                    "recovered COW commit journal",
                    provider=provider.authority,
                    replayed=replayed,
                    rolled_back=rolled_back,
                )
        # 3. Orphaned copy-up staging files (invisible but occupying space).
        report.copyup_temps_removed = self.branches.purge_copyup_temps()
        for path in report.copyup_temps_removed:
            self.audit_log.record("recovery", "purged copy-up temp", path=path)
        # 4. Processes stranded between fork and AM bookkeeping.
        report.orphans_reaped = self.am.reap_orphans()
        for pid in report.orphans_reaped:
            self.audit_log.record("recovery", "reaped orphaned delegate", pid=pid)
        # 5. Rebuild every live app process's mount namespace from its
        # installed state (a crashed mount-table mutation leaves no trace).
        for process in self.processes.alive():
            if process.context.app is None:
                continue
            process.namespace = self._build_namespace(
                process.context.app, process.context.initiator
            )
            report.namespaces_rebuilt += 1
        if report.namespaces_rebuilt:
            self.audit_log.record(
                "recovery", "rebuilt mount namespaces", count=report.namespaces_rebuilt
            )
        # 6. Re-validate the security goals over a traced probe workload.
        if validate:
            report.validation_violations, report.validation_spans_checked = (
                self._validation_sweep()
            )
            self.audit_log.record(
                "recovery",
                "validation sweep",
                violations=len(report.validation_violations),
                spans=report.validation_spans_checked,
            )
        # 7. Seal the black box: everything the recorder saw up to and
        # through the crash plus what recovery did about it.
        if self.obs.recorder.armed:
            self.obs.recorder.seal(
                "crash-recovery",
                recovery={
                    "file_commits_replayed": report.file_commits_replayed,
                    "file_commits_rolled_back": report.file_commits_rolled_back,
                    "cow_rows_replayed": report.cow_rows_replayed,
                    "cow_rows_rolled_back": report.cow_rows_rolled_back,
                    "orphans_reaped": len(report.orphans_reaped),
                    "namespaces_rebuilt": report.namespaces_rebuilt,
                    "validation_violations": len(report.validation_violations),
                },
            )
        return report

    def _replay_file_commit(self, intent) -> None:
        """Finish an interrupted volatile file commit (idempotent: same
        destination, same bytes, resolved through the initiator's view)."""
        namespace = self._build_namespace(intent.package, None)
        cred = Credentials(uid=intent.uid, gid=intent.gid)
        fs, inner = namespace.resolve(intent.destination)
        parent = vpath.parent(inner)
        if not fs.exists(parent, cred):
            fs.mkdir(parent, cred, parents=True)
        with fs.open(
            inner, cred, read=False, write=True, create=True, truncate=True
        ) as handle:
            handle.write(intent.data)

    def _validation_sweep(self) -> Tuple[List[str], int]:
        """Probe every live app process's view with the online security
        monitor attached: S1-S4 are checked as each span closes, with the
        provenance ledger armed so any violation lands in the audit log
        carrying its full lineage chain.

        Note: runs inside ``self.obs.capture``, which resets this device's
        tracer — callers should not invoke ``recover(validate=True)`` while
        holding an open capture of their own on the same context.
        """
        packages = [p.manifest.package for p in self.packages.all_packages()]
        with self.obs.capture(prov=True) as obs:
            monitor = SecurityMonitor(
                obs.tracer,
                packages,
                ledger=obs.provenance,
                audit_log=self.audit_log,
            )
            with monitor:
                for process in list(self.processes.alive()):
                    if process.context.app is None:
                        continue
                    sys = Syscalls(process)
                    probe = vpath.join(EXTDIR, f".maxoid-probe-{process.pid}")
                    try:
                        sys.write_file(probe, b"probe", mode=0o666)
                        sys.read_file(probe)
                        sys.unlink(probe)
                    except ReproError:
                        # A view that denies the probe is a confinement
                        # success, not a recovery failure.
                        continue
        return monitor.messages, monitor.delegate_spans

    # ------------------------------------------------------------------
    # Background work pumps
    # ------------------------------------------------------------------

    def run_downloads(self) -> int:
        """Run the Downloads provider's background worker to completion."""
        return self.downloads.run_pending()

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------

    def mount_table_for(self, process: Process) -> List[str]:
        table = []
        for point, fs in sorted(process.namespace.mount_table().items()):
            description = getattr(fs, "describe", None)
            if description is not None:
                table.append(f"{point}: {', '.join(description())}")
            else:
                table.append(f"{point}: {getattr(fs, 'label', fs.__class__.__name__)}")
        return table
