"""The determinism contract, pinned as literals.

Every other determinism test compares two runs of the *same* tree, so a
change that shifts every run alike (a reordered RNG draw, an extra
fault-plane consult, a renamed yield point) passes them all. These
literals catch that: the two planted counterexamples' fingerprints and
one fixed scheduled run's schedule digest must stay byte-identical
unless a change says why they move.
"""

from __future__ import annotations

import pytest

from repro.fuzz import fuzz_sweep, interleave_sweep
from repro.sched import SCHED, RWLock

pytestmark = [pytest.mark.fuzz, pytest.mark.interleave, pytest.mark.sched]

CLIPBOARD_FINGERPRINT = "d873eca552a25fae0bc0b4b6bb07431ebef22b368288d70051eaa35483d977a2"
GUARD_RACE_FINGERPRINT = "cd87d13d1dcb9d3f70011e8b24dcdabdd732cabda732871721a121038e2a1b77"
FIXED_RUN_DIGEST = "9b76f77497f84f188429478f8bdbd14d9f4dd71309323f8d08170cdaa4efb238"


def fixed_run():
    """Three tasks that sleep, yield and contend for one RWLock."""
    lock = RWLock("fixed")

    def writer() -> None:
        for i in range(3):
            with lock.write():
                SCHED.yield_point(f"w.hold.{i}")
            SCHED.sleep(5.0)

    def reader(name: str):
        def fn() -> None:
            for i in range(4):
                with lock.read():
                    SCHED.yield_point(f"{name}.read.{i}")
                SCHED.yield_point(f"{name}.idle.{i}")
            SCHED.sleep(2.0)

        return fn

    return SCHED.run({"w": writer, "r1": reader("r1"), "r2": reader("r2")}, seed=11)


def test_planted_fuzz_counterexample_fingerprint():
    report = fuzz_sweep(40, planted="clipboard-isolation")
    assert report.found
    assert report.counterexample.fingerprint == CLIPBOARD_FINGERPRINT


def test_planted_race_counterexample_fingerprint():
    report = interleave_sweep(20, 6, planted="binder-guard-race")
    assert report.found
    assert report.counterexample.fingerprint == GUARD_RACE_FINGERPRINT


def test_fixed_scheduled_run_digest():
    run = fixed_run()
    assert run.errors == {}
    assert run.digest() == FIXED_RUN_DIGEST
