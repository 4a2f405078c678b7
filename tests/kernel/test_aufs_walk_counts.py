"""Walk-count guard: a delegate's write into a fresh nested external
directory walks each union path once.

The delegate's external storage is a two-branch Aufs mount (its
initiator's Vol over public storage). ``write_external`` makes the parent
directories (``mkdir -p``) and then creates the file. The counts are pinned
at what one parent-chain walk per mutation costs; a per-prefix ``exists``
or a second walk of the same chain raises them.
"""

from __future__ import annotations

from collections import Counter

from repro import AndroidManifest
from repro.kernel.aufs import AufsMount
from repro.kernel.vfs import Filesystem

INITIATOR = "com.walk.initiator"
WORKER = "com.walk.worker"
#: ``_find`` calls: ``mkdir -p``'s visibility check of the whole path and of
#: its first missing component, then ``open``'s lookup of the new file.
MAX_FINDS = 3
#: ``Filesystem.probe`` calls: two branches per ``_find`` plus the root of
#: the writable branch once per walk.
MAX_PROBES = 8


def test_delegate_nested_external_write_walks_each_path_once(device, monkeypatch):
    device.install(AndroidManifest(package=INITIATOR))
    device.install(AndroidManifest(package=WORKER))
    api = device.spawn(WORKER, INITIATOR)
    calls = Counter()
    for cls, name in ((AufsMount, "_find"), (Filesystem, "probe")):
        original = getattr(cls, name)

        def counted(self, *args, original=original, name=name):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    api.write_external("a/b/c/f.txt", b"x")
    walks = dict(calls)
    assert api.read_external("a/b/c/f.txt") == b"x"
    assert walks["_find"] <= MAX_FINDS
    assert walks["probe"] <= MAX_PROBES
