"""Determinism lint: planted nondeterminism fixture, the live tree, and
the exit code of ``check`` on planted faults."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis import ALLOWLIST, check, lint

pytestmark = [pytest.mark.analysis]

#: The installed package root ``main()`` scans.
TREE_ROOT = Path(repro.__file__).resolve().parent

#: Every determinism rule violated, including through from-imports and
#: aliases, plus compliant twins. Parsed only, never imported.
NONDET = '''
import os
import random
import secrets
import time
import time as t
import uuid
from datetime import datetime
from os import urandom
from random import Random as Rng, choice
from time import perf_counter


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


def bad_secrets():
    return secrets.token_bytes(8)


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


def bad_from_clock():
    return perf_counter()


def bad_alias_clock():
    return t.monotonic()


def bad_from_choice(xs):
    return choice(xs)


def bad_from_urandom():
    return urandom(8)


def bad_system_random():
    return random.SystemRandom()


def good_seeded_alias(seed, xs):
    return Rng(seed).choice(xs)
'''

EXPECTED = {
    ("wall-clock", "bad_clock"),
    ("wall-clock", "bad_now"),
    ("unseeded-random", "bad_unseeded"),
    ("global-random", "bad_global_random"),
    ("entropy", "bad_entropy"),
    ("entropy", "bad_secrets"),
    ("set-iteration-digest", "bad_digest"),
    ("wall-clock", "bad_from_clock"),
    ("wall-clock", "bad_alias_clock"),
    ("global-random", "bad_from_choice"),
    ("entropy", "bad_from_urandom"),
    ("entropy", "bad_system_random"),
}


def _package(tmp_path: Path, **modules: str) -> Path:
    root = tmp_path / "fixturepkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for name, source in modules.items():
        (root / f"{name}.py").write_text(source)
    return root


@pytest.fixture()
def findings(tmp_path):
    return lint(_package(tmp_path, mod=NONDET), "fixturepkg")


class TestPlantedFixture:
    def test_every_rule_fires_once(self, findings):
        assert {(f.rule, f.symbol) for f in findings} == EXPECTED
        assert {f.module for f in findings} == {"fixturepkg.mod"}

    def test_compliant_twins_stay_clean(self, findings):
        flagged = {f.symbol for f in findings}
        assert not flagged & {"good_seeded", "good_digest", "good_seeded_alias"}


class TestLiveTree:
    def test_only_baselined_wall_clock_remains(self):
        """The tree's sole ambient-nondeterminism uses are the allowlisted
        host-timing perf_counter reads."""
        findings = lint(TREE_ROOT, "repro")
        assert {(f.rule, f.module, f.symbol) for f in findings} == set(ALLOWLIST), "\n".join(
            f.render() for f in findings
        )
        assert len(findings) == 4

    def test_simulation_core_is_fully_deterministic(self):
        core = ("repro.kernel", "repro.core", "repro.sched", "repro.fuzz")
        hits = [f for f in lint(TREE_ROOT, "repro") if f.module.startswith(core)]
        assert hits == [], "\n".join(f.render() for f in hits)


class TestExitCode:
    def test_planted_core_wall_clock_fails_the_run(self, tmp_path, capsys):
        root = tmp_path / "repro"
        shutil.copytree(TREE_ROOT, root, ignore=shutil.ignore_patterns("__pycache__"))
        (root / "core" / "planted.py").write_text(
            "from time import monotonic\n\n\ndef stamp():\n    return monotonic()\n"
        )
        assert check(root, "repro") == 1
        out = capsys.readouterr().out
        assert "wall-clock repro.core.planted stamp" in out
        assert "1 new finding(s), 4 allowed" in out

    def test_stale_allowlist_entry_fails_the_run(self, tmp_path, capsys):
        root = _package(tmp_path, mod="def f():\n    return 1\n")
        gone = ("wall-clock", "fixturepkg.mod", "Gone.method")
        assert check(root, "fixturepkg", {gone: "matched something once"}) == 1
        assert "stale allowlist entry: wall-clock fixturepkg.mod Gone.method" in (
            capsys.readouterr().out
        )

    def test_unparsable_module_fails_the_run(self, tmp_path, capsys):
        root = _package(tmp_path, broken="def f(:\n")
        assert check(root, "fixturepkg", {}) == 1
        assert "parse-error fixturepkg.broken <module>" in capsys.readouterr().out
