"""Parse-count guard: a path is parsed once per process, not once per layer.

A delegate's ``write_external`` crosses the app API, the syscall layer,
the mount namespace and a two-branch Aufs mount, and each asks
``split``, ``join``, ``parent`` or ``basename`` of the same paths. Every
parse those helpers do starts with a ``normalize`` call from inside
:mod:`repro.kernel.path`; a profile hook counts those calls. The first
write parses what it meets; a second, identical write finds every answer
in the table and parses nothing.
"""

from __future__ import annotations

import sys

from repro import AndroidManifest
from repro.kernel import path as vpath

INITIATOR = "com.parse.initiator"
WORKER = "com.parse.worker"
#: The module's helpers that are not memoised and normalize every call.
UNMEMOISED = {"is_within", "relative_to"}


def _parses(action) -> int:
    """``normalize`` calls the memoised path helpers make during ``action``."""
    normalize = vpath.normalize.__code__
    module = normalize.co_filename
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is normalize:
            caller = frame.f_back.f_code
            if caller.co_filename == module and caller.co_name not in UNMEMOISED:
                count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return count


def test_second_identical_delegate_write_parses_no_path(device):
    device.install(AndroidManifest(package=INITIATOR))
    device.install(AndroidManifest(package=WORKER))
    api = device.spawn(WORKER, INITIATOR)
    vpath._parsed.clear()
    first = _parses(lambda: api.write_external("a/b/c/f.txt", b"x"))
    second = _parses(lambda: api.write_external("a/b/c/f.txt", b"x"))
    assert first > 0  # the hook sees the parses it counts
    assert second == 0
    assert api.read_external("a/b/c/f.txt") == b"x"
