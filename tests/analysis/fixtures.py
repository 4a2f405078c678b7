"""Planted-defect fixture sources for the static-analysis tests.

Each fixture is written to a temp package and indexed with
:meth:`CodeIndex.build` — the analysis never imports them, so the code
only has to parse, not run.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.ir import CodeIndex

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
