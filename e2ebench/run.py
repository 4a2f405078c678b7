"""Run the end-to-end benchmark.

Usage, from the repository root::

    python3 e2ebench/run.py --seed S [--workload W] [--seconds N] [--trace 0|1] [--out DIR]

``--workload`` runs one workload in this interpreter. Without it every
workload runs in turn, each in a fresh interpreter, so the process-global
fault plane, scheduler and observability state cannot leak from one
workload into the next and each gets its own peak RSS.

``--trace 0`` (the default) measures the end-to-end metrics with no
tracing. ``--trace 1`` is the separate traced run: an untraced prefix, the
same prefix again with every layer wrapped (per-layer metrics, tracing
overhead, and ``trace_<workload>.jsonl`` in ``--out``), then the
per-plane overhead matrix.

Every metric is printed with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics ``BENCHMARK.json`` names for the chosen mode.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "e2ebench" / "out"

#: p99 needs ten samples beyond it, so every timed phase runs at least
#: this many ops even when ``--seconds`` has run out.
MIN_OPS = 1000
#: ...but never longer than this, so a run always ends within its limit.
HARD_LIMIT_S = 140.0
#: Set-up is repeated and its median reported.
SETUPS = 3
#: The output digest covers this prefix, which every run completes.
DIGEST_OPS = MIN_OPS
#: Shares of ``--seconds`` in a traced run: the untraced prefix, then the
#: plane matrix (the traced replay of the prefix takes what it takes).
TRACE_PREFIX_SHARE = 0.2
PLANE_SHARE = 0.3


@dataclass
class Pass:
    """One op loop: op times scaled to the reference speed, digests of the
    op results, and failures."""

    latencies: List[float] = field(default_factory=list)
    failed: List[int] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: (ops done, seconds) timings of the reference computation.
    samples: List[Tuple[int, float]] = field(default_factory=list)
    # Running digests, so memory does not grow with the number of ops.
    _all: Any = field(default_factory=hashlib.sha256)
    _prefix: Any = field(default_factory=hashlib.sha256)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def op_time(self) -> float:
        return sum(self.latencies)

    @property
    def error_rate(self) -> float:
        return len(self.failed) / self.ops

    def add(self, i: int, render: str) -> None:
        """Fold op ``i``'s counter-free result into the digests."""
        line = render.encode() + b"\n"
        self._all.update(line)
        if i < DIGEST_OPS:
            self._prefix.update(line)

    def digest(self) -> str:
        """Digest of every op's result."""
        return self._all.hexdigest()

    def output_digest(self) -> str:
        """Digest of the first ``DIGEST_OPS`` ops' results, which every
        run completes."""
        return self._prefix.hexdigest()


def drive(
    workload, ops: Optional[int] = None, seconds: float = 0.0, min_ops: int = 0, tracer=None
) -> Pass:
    """Run ``workload``'s op stream: exactly ``ops`` ops, or until
    ``seconds`` have passed and at least ``min_ops`` ops ran. Only
    ``execute`` is timed; a failed check or an exception fails the op and
    the loop continues. Op times come back scaled to the reference speed
    (:mod:`e2ebench.clock`)."""
    from e2ebench.clock import CALIBRATE_EVERY_S, calibrate, now, scale

    result = Pass()
    clock = time.perf_counter
    start = clock()
    result.samples.append((0, calibrate()))
    next_sample = clock() + CALIBRATE_EVERY_S
    i = 0
    while True:
        if ops is not None:
            if i >= ops:
                break
        else:
            elapsed = clock() - start
            if (elapsed >= seconds and i >= min_ops) or elapsed >= HARD_LIMIT_S:
                break
        spec = workload.plan(i)
        if tracer is not None:
            tracer.op = i
            tracer.paused = False
        t0 = now()
        try:
            raw = workload.execute(spec)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            error = exc
        result.latencies.append(now() - t0)
        if tracer is not None:
            tracer.paused = True
        if error is None:
            try:
                render, problems = workload.check(i, spec, raw)
            except Exception as exc:  # noqa: BLE001 - a failed check, counted
                render, problems = "check-error", [f"check of {spec!r} raised {exc!r}"]
        else:
            render, problems = f"error:{type(error).__name__}", [f"{spec!r} raised {error!r}"]
        result.add(i, render)
        if problems:
            result.failed.append(i)
            result.problems.extend(f"op {i}: {p}" for p in problems)
        i += 1
        if clock() >= next_sample:
            result.samples.append((i, calibrate()))
            next_sample = clock() + CALIBRATE_EVERY_S
    result.samples.append((i, calibrate()))
    result.latencies = scale(result.latencies, result.samples)
    final = workload.finish()
    if final:
        result.problems.extend(f"end of run: {p}" for p in final)
        if result.ops and result.ops - 1 not in result.failed:
            result.failed.append(result.ops - 1)
    return result


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as source:
        return json.load(source)


def _report(metrics: Dict[str, float], wanted: List[dict]) -> Dict[str, dict]:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def _print_problems(p: Pass) -> None:
    for line in p.problems[:20]:
        print(f"FAILED {line}")
    if len(p.problems) > 20:
        print(f"FAILED ... and {len(p.problems) - 20} more")


def measure(name: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    from e2ebench.clock import REFERENCE_S, calibrate, now
    from e2ebench.stats import percentile, rank
    from e2ebench.workloads import WORKLOADS

    setups = []
    samples = []
    for _ in range(SETUPS):
        gc.collect()
        samples += [calibrate() for _ in range(5)]
        t0 = now()
        workload = WORKLOADS[name](seed)
        workload.setup()
        setups.append(now() - t0)
    samples += [calibrate() for _ in range(5)]
    setup_scale = REFERENCE_S / statistics.median(samples)
    gc.collect()
    p = drive(workload, seconds=seconds, min_ops=MIN_OPS)
    metrics = {
        "ops_per_s": p.ops / p.op_time,
        "op_p50_ms": percentile(p.latencies, 50) * 1e3,
        "op_p99_ms": percentile(p.latencies, 99) * 1e3,
        "setup_s": statistics.median(setups) * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": p.error_rate,
    }
    units = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    for key, value in metrics.items():
        print(f"  {key:<20} {value:14.6f} {units.get(key, '')}")
    print(f"  p99 over {p.ops} samples, {p.ops - rank(99, p.ops)} beyond it")
    print(f"  output_digest        {p.output_digest()} (first {DIGEST_OPS} ops)")
    _print_problems(p)
    return {
        "correct": not p.failed,
        "attempted": p.ops,
        "failed": len(p.failed),
        "metrics": _report(metrics, _contract()["end_to_end"]),
        "all_metrics": metrics,
        "output_digest": p.output_digest(),
    }


def traced(name: str, seed: int, seconds: float, out: Path) -> dict:
    """The per-layer metrics of one workload from a separate traced run."""
    from e2ebench.layers import LayerTracer
    from e2ebench.planes import plane_matrix
    from e2ebench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    gc.collect()
    plain = drive(workload, seconds=seconds * TRACE_PREFIX_SHARE)

    workload = WORKLOADS[name](seed)
    workload.setup()
    tracer = LayerTracer().install()
    try:
        gc.collect()
        replay = drive(workload, ops=plain.ops, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(replay.ops)
    metrics["trace.overhead_pct"] = (replay.op_time / plain.op_time - 1.0) * 100.0
    metrics.update(plane_matrix(seed, seconds * PLANE_SHARE, drive))

    out.mkdir(parents=True, exist_ok=True)
    spans = tracer.write_jsonl(str(out / f"trace_{name}.jsonl"))
    for key in sorted(metrics):
        print(f"  {key:<40} {metrics[key]:14.6f}")
    print(f"  {spans} spans -> {out / f'trace_{name}.jsonl'}")
    # The tracer must not change what the ops do: the replay fails as a
    # whole if its results differ from the untraced prefix's.
    if replay.digest() != plain.digest():
        replay.failed = list(range(replay.ops))
        replay.problems.append("traced replay diverged from the untraced prefix")
    _print_problems(plain)
    _print_problems(replay)
    return {
        "correct": not (plain.failed or replay.failed),
        "attempted": plain.ops + replay.ops,
        "failed": len(plain.failed) + len(replay.failed),
        "metrics": _report(metrics, _contract()["per_layer"]),
        "all_metrics": metrics,
        "output_digest": plain.digest(),
    }


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"e2ebench: cannot import the system under test: {error}", file=sys.stderr)
        return 2
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds, args.out)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args, names: List[str]) -> int:
    """Every workload in turn, each in its own interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        for flag in ("seed", "seconds", "trace", "out"):
            command += [f"--{flag}", str(getattr(args, flag))]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            print(f"e2ebench: {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all, one interpreter each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="results and span dumps")
    args = parser.parse_args(argv)
    try:
        names = [w["name"] for w in _contract()["workloads"]]
    except OSError as error:
        print(f"e2ebench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
