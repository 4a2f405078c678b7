"""Planted-defect fixture sources for the static-analysis tests.

Each fixture is written to a temp package and indexed with
:meth:`CodeIndex.build` — the analysis never imports them, so the code
only has to parse, not run.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.ir import CodeIndex

#: A TOCTOU mirror of the planted IpcGuard race: one entry point rebuilds
#: a registry without locks, another reads it — plus a properly locked
#: sibling attribute as the negative control, and a scheduler-off
#: fallback write that must NOT be reported.
RACY = '''
from fake import SCHED as _SCHED


class RacyGuard:
    def __init__(self):
        self._registry = {}
        self._audit = []
        self._locked_table = {}
        self.lock = RWLock("racy")

    def rebuild(self, entries):
        staged = dict(self._registry)
        staged.update(entries)
        self._registry.clear()
        if _SCHED.enabled:
            _SCHED.yield_point("racy.rebuild", resource="registry", rw="w")
        self._registry.update(staged)

    def decide(self, key):
        self._audit.append(key)
        return self._registry.get(key, True)

    def locked_put(self, key, value):
        with self.lock.write():
            self._locked_table[key] = value

    def locked_get(self, key):
        with self.lock.read():
            return self._locked_table.get(key)

    def fallback_put(self, key, value):
        if _SCHED.enabled:
            with self.lock.write():
                self._locked_table[key] = value
            return
        self._locked_table[key] = value
'''

#: Every determinism rule violated once, plus compliant twins.
NONDET = '''
import os
import random
import time
import uuid
from datetime import datetime


def bad_clock():
    return time.time()


def bad_unseeded():
    return random.Random()


def good_seeded(seed):
    return random.Random(seed)


def bad_global_random():
    return random.randint(0, 10)


def bad_entropy():
    return os.urandom(8) + uuid.uuid4().bytes


def bad_now():
    return datetime.now()


def bad_digest(items):
    acc = []
    for item in set(items):
        acc.append(item)
    return sha256(repr(acc)).hexdigest()


def good_digest(items):
    acc = []
    for item in sorted(set(items)):
        acc.append(item)
    return sha256(repr(acc)).hexdigest()
'''


def build_fixture(tmp_path: Path, name: str, source: str) -> CodeIndex:
    """Write one fixture module into a package and index it."""
    root = tmp_path / "fixturepkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    (root / f"{name}.py").write_text(source)
    return CodeIndex.build(root, package="fixturepkg")
