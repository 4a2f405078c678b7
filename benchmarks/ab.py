"""A/B the end-to-end benchmark between a base revision and this checkout.

Usage, from the repository root::

    python3 benchmarks/ab.py --base REV --seed S [--pairs P] [--seconds T]

The base revision is checked out into a temporary ``git worktree``; the
change side is this checkout's working tree. For every workload in
``BENCHMARK.json`` the script runs ``P`` pairs of untraced runs, each
``e2ebench/run.py`` in a fresh interpreter, alternating which side goes
first, then one ``--trace 1`` run per side for the per-layer metrics.

Per workload and end-to-end metric it prints the medians of both sides,
the parent's interquartile range (IQR), the change's wins, and one of:

- ``gain``: the change won at least 9 pairs in 10 and the medians differ
  by more than the parent's IQR;
- ``REGRESSED``: the change's median is worse than the parent's by more
  than the metric's ``BENCHMARK.json`` bound. A ``FAILED`` line at the
  end repeats it with the layer whose traced ``self_ms_per_op`` moved
  most;
- ``flat`` otherwise.

Every measured run appends one entry to ``BENCH_trajectory.json``.

Exit codes: 1 on a regression, a rise in the failed-op share, a run that
is not ``correct``, or ``output_digest``s that differ between the sides;
2 when a run crashes (no entry is appended) or the base cannot be checked
out; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"
SIDES = ("parent", "change")
#: ``gain`` needs the change to win at least this share of the pairs.
GAIN_WINS = 0.9
SELF_MS = ".self_ms_per_op"


class RunFailed(Exception):
    """A benchmark run crashed or left no result."""


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as source:
        return json.load(source)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    """One ``e2ebench/run.py`` run in a fresh interpreter; its result file."""
    out.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(checkout / "e2ebench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    child = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    path = out / f"result_{workload}_seed{seed}_trace{trace}.json"
    if child.returncode != 0 or not path.exists():
        sys.stdout.write(child.stdout[-4000:] + child.stderr[-4000:])
        raise RunFailed(f"{' '.join(command[1:])} exited with {child.returncode}")
    result = json.loads(path.read_text())
    path.unlink()
    return result


def measure(checkouts: Dict[str, Path], workloads: List[str], seed: int, pairs: int,
            seconds: float, out: Path) -> Tuple[dict, dict]:
    """``runs[workload][side]`` lists the untraced results in pair order;
    ``traces[workload][side]`` is the traced result."""
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                print(f"pair {pair + 1}/{pairs} {workload} {side}", flush=True)
                runs[workload][side].append(
                    run(checkouts[side], workload, seed, seconds, 0, out / side))
    traces = {
        w: {side: run(checkouts[side], w, seed, seconds, 1, out / side) for side in SIDES}
        for w in workloads
    }
    return runs, traces


def iqr(values: List[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def moved_layer(trace: Dict[str, dict]) -> str:
    """The layer whose traced self time per op moved most, with the move."""
    parent, change = (trace[side]["all_metrics"] for side in SIDES)
    moves = {
        key[: -len(SELF_MS)]: change.get(key, 0.0) - parent.get(key, 0.0)
        for key in set(parent) | set(change) if key.endswith(SELF_MS)
    }
    layer = max(sorted(moves), key=lambda name: abs(moves[name]))
    return f"layer {layer} {moves[layer]:+.4f} ms/op"


def verdict(bench: dict, runs: dict, traces: dict) -> Tuple[int, List[str], dict]:
    """Judge measured runs against ``bench`` (the ``BENCHMARK.json``
    contract). Returns the exit code, the report lines, and the
    trajectory entry's measured part."""
    lines = [f"{'workload/metric':<28} {'unit':>5} {'parent':>11} {'change':>11} "
             f"{'parent IQR':>11} {'wins':>6}  verdict"]
    failures: List[str] = []
    medians, wins, verdicts, digests_equal = {}, {}, {}, {}
    for workload, sides in runs.items():
        pairs = len(sides["parent"])
        for metric in bench["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            key = f"{workload}/{name}"
            parent = [r["metrics"][name]["value"] for r in sides["parent"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            mid_p, mid_c, spread = statistics.median(parent), statistics.median(change), iqr(parent)
            won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            worse = (mid_p - mid_c if higher else mid_c - mid_p) / mid_p
            if worse > metric["bound"]:
                label = "REGRESSED"
                failures.append(f"{workload} {name} {worse:+.1%} beyond its "
                                f"{metric['bound']:.0%} bound; {moved_layer(traces[workload])}")
            elif won >= GAIN_WINS * pairs and worse < 0 and abs(mid_c - mid_p) > spread:
                label = "gain"
            else:
                label = "flat"
            lines.append(f"{key:<28} {metric['unit']:>5} {mid_p:>11.4g} {mid_c:>11.4g} "
                         f"{spread:>11.4g} {won:>3}/{pairs:<2}  {label}")
            medians[key] = {"parent": mid_p, "change": mid_c, "parent_iqr": spread,
                            "unit": metric["unit"]}
            wins[key] = won
            verdicts[key] = label
        share = {
            side: sum(r["failed"] for r in sides[side]) / sum(r["attempted"] for r in sides[side])
            for side in SIDES
        }
        if share["change"] > share["parent"]:
            failures.append(f"{workload} failed-op share rose from {share['parent']:.4%} "
                            f"to {share['change']:.4%}")
        for side in SIDES:
            if not all(r["correct"] for r in sides[side] + [traces[workload][side]]):
                failures.append(f"{workload}: a {side} run is not correct")
        digests = {side: {r["output_digest"] for r in sides[side]} for side in SIDES}
        digests_equal[workload] = len(digests["parent"] | digests["change"]) == 1
        if not digests_equal[workload]:
            failures.append(f"{workload} output_digest differs: parent "
                            f"{sorted(digests['parent'])} change {sorted(digests['change'])}")
    lines += [f"FAILED {failure}" for failure in failures]
    entry = {
        "medians": medians,
        "wins": wins,
        "verdicts": verdicts,
        "digests_equal": digests_equal,
        "layers": {w: {side: t[side]["all_metrics"] for side in SIDES} for w, t in traces.items()},
        "failures": failures,
        "verdict": "fail" if failures else "pass",
    }
    return (1 if failures else 0), lines, entry


def record(entry: dict, path: Path = TRAJECTORY) -> None:
    """Append ``entry`` to the trajectory file."""
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(entry)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    bench = contract()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for the parent's IQR")
    try:
        base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError as error:
        print(f"ab: cannot resolve base {args.base!r}: {error.stderr.strip()}", file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(prefix="e2e-ab-"))
    worktree = scratch / "base"
    try:
        git("worktree", "add", "--detach", str(worktree), base)
        runs, traces = measure({"parent": worktree, "change": ROOT},
                               [w["name"] for w in bench["workloads"]],
                               args.seed, args.pairs, args.seconds, scratch / "out")
    except subprocess.CalledProcessError as error:
        print(f"ab: cannot check out {base}: {error.stderr.strip()}", file=sys.stderr)
        return 2
    except RunFailed as error:
        print(f"ab: {error}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                       cwd=ROOT, capture_output=True, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True, check=False)
    code, lines, measured = verdict(bench, runs, traces)
    print("\n".join(lines))
    record({"kind": "e2ebench-ab", "base": base, "change": git("rev-parse", "HEAD"),
            "seed": args.seed, "pairs": args.pairs, "seconds": args.seconds, **measured})
    return code


if __name__ == "__main__":
    sys.exit(main())
