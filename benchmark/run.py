"""caresim benchmark: one workload of real CLI calls, checked and timed.

Usage (from the repository root)::

    python3 benchmark/run.py --workload css-full --seed 7 --seconds 30 --trace 0

The benchmark imports caresim from ``src/`` of the checkout it lives in
and calls ``caresim.cli.main(argv)`` in-process.  The load is a closed
loop with one client: each CLI call starts after the previous one
returns, as in a researcher's sequential batch.  One *iteration* is the
workload's full list of CLI calls; iterations repeat with the same
inputs until the next one would end after ``--seconds``.

Every call's output files are hashed before its temporary directory is
deleted.  At a workload's default seed the digests must equal
``reference.json``; at any other seed the files must have the expected
structure, and every iteration must write the same bytes as the first.
A call counts as failed if it raised, returned non-zero or wrote any
byte that fails these checks.

``--trace 0`` times only ``run_round`` and ``init_run_state`` and prints
the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer metrics of the traced ones plus
``trace.overhead_frac``.  The last line of standard output is one JSON
object; a fuller record (every sample, quartiles, machine and commit)
goes to ``.bench_results/``, with the first traced iteration's spans next
to it.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_results"

# Counts that depend only on the inputs: two traced runs of the same
# inputs must agree on them exactly.
EXACT_COUNTS = (
    "rng.draws",
    "ratings.valuation_calls",
    "classical.judge_calls",
    "evolution.fitness_evals",
    "infection.applied",
    "engine.last_active_round",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Put the checkout's ``src/`` first on the path and import caresim from it.

    Exits non-zero when the sources are missing, so the benchmark never
    measures some other installed copy.
    """
    package = ROOT / "src" / "caresim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"benchmark: caresim sources not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import caresim

    if Path(caresim.__file__).resolve().parent != package.resolve():
        sys.exit(f"benchmark: imported caresim from {caresim.__file__}, not {package}")


@dataclass
class Iteration:
    traced: bool
    calls: int = 0
    wall_s: float = 0.0
    failures: list[str] = field(default_factory=list)
    failed_calls: int = 0
    digests: list[dict[str, str] | None] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    setup_s: float = 0.0
    layers: dict[str, float] | None = None
    wrapper_calls: dict[str, int] | None = None
    spans: list | None = None


def run_iteration(workload, seed: int, expected, tracer=None) -> Iteration:
    """Run every CLI call of ``workload`` once and check its outputs.

    ``expected`` holds per-call digests to compare with (the reference at
    the default seed, or the first iteration's otherwise).  Without it the
    files are checked for their expected structure instead.
    """
    from caresim import cli
    from probes import Clock
    from workloads import digests

    clock = None if tracer is not None else Clock()
    main = tracer.main if tracer is not None else cli.main
    result = Iteration(traced=tracer is not None)
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    gc.collect()
    try:
        with (tracer or clock).installed():
            for index, argv in enumerate(workload.calls(seed)):
                out = tmp / f"call{index}"
                errors = []
                start = time.perf_counter()
                try:
                    with redirect_stdout(io.StringIO()):
                        code = main([*argv, "--out", str(out)])
                except Exception as exc:  # a crash is a failed call, not a crashed benchmark
                    code, errors = None, [f"raised {exc!r}"]
                result.wall_s += time.perf_counter() - start
                result.calls += 1
                found = None
                if code is not None:
                    if code != 0:
                        errors.append(f"exit code {code}")
                    found = digests(out) if out.is_dir() else None
                    if found is None:
                        errors.append("no output directory")
                    elif expected is None:
                        errors += workload.structure_errors(out)
                    elif found != expected[index]:
                        errors.append("output digests differ from the expected ones")
                result.digests.append(found)
                if errors:
                    result.failed_calls += 1
                    result.failures.append(f"call {index} ({' '.join(argv)}): {'; '.join(errors)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if tracer is None:
        result.round_s = clock.round_s
        result.setup_s = sum(clock.init_s)
    else:
        result.layers = tracer.layer_metrics()
        result.wrapper_calls = tracer.wrapper_calls()
        result.spans = tracer.spans
    return result


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * fraction)) - 1]


def summary(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def end_to_end(iterations: list[Iteration]) -> tuple[dict[str, float], dict]:
    untraced = [it for it in iterations if not it.traced]
    rounds = sorted(s for it in untraced for s in it.round_s)
    if not rounds:
        sys.exit("benchmark: no round completed, nothing to measure")
    p95 = percentile(rounds, 0.95)
    metrics = {
        "wall_s": statistics.median(it.wall_s for it in untraced),
        "rounds_per_s": statistics.median(
            len(it.round_s) / sum(it.round_s) for it in untraced if it.round_s
        ),
        "round_ms_p50": 1000 * statistics.median(rounds),
        "round_ms_p95": 1000 * p95,
        "setup_s": statistics.median(it.setup_s for it in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "wall_s": summary([it.wall_s for it in untraced]),
        "setup_s": summary([it.setup_s for it in untraced]),
        "round_ms": {
            "count": len(rounds),
            "beyond_p95": sum(1 for s in rounds if s > p95),
            "samples_per_iteration": [[1000 * s for s in it.round_s] for it in untraced],
        },
    }
    return metrics, detail


def per_layer(iterations: list[Iteration]) -> tuple[dict[str, float], dict]:
    traced = [it for it in iterations if it.traced]
    untraced = [it for it in iterations if not it.traced]
    names = traced[0].layers.keys()
    metrics = {name: statistics.median(it.layers[name] for it in traced) for name in names}
    metrics["trace.overhead_frac"] = (
        statistics.median(it.wall_s for it in traced)
        / statistics.median(it.wall_s for it in untraced) - 1
    )
    detail = {name: summary([it.layers[name] for it in traced]) for name in names}
    detail["traced_wall_s"] = summary([it.wall_s for it in traced])
    detail["untraced_wall_s"] = summary([it.wall_s for it in untraced])
    detail["wrapper_calls"] = traced[0].wrapper_calls
    return metrics, detail


def check_exact_counts(iterations: list[Iteration]) -> None:
    """Fail every traced iteration whose exact counts differ from the first's."""
    traced = [it for it in iterations if it.traced]
    first = {name: traced[0].layers[name] for name in EXACT_COUNTS}
    for it in traced[1:]:
        counts = {name: it.layers[name] for name in EXACT_COUNTS}
        if counts != first:
            it.failures.append(f"exact counts {counts} differ from the first traced run {first}")
            it.failed_calls = it.calls


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


UNITS = {
    **END_TO_END_UNITS,
    "reporting.bytes": "B",
    "reporting.mb_per_s": "MB/s",
    "engine.last_active_round": "round",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from probes import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]
    expected = load_reference()[workload.name] if args.seed == DEFAULT_SEED else None
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        iteration = run_iteration(workload, args.seed, expected, Tracer() if traced else None)
        if traced and len(iterations) > 1:
            iteration.spans = None  # only the first traced iteration's spans are written
        iterations.append(iteration)
        if expected is None and iteration.failed_calls == 0:
            expected = iteration.digests
        elapsed = time.perf_counter() - start
        warming_up = args.trace and len(iterations) < 2
        if not warming_up and elapsed * (len(iterations) + 1) / len(iterations) > args.seconds:
            break

    if args.trace:
        check_exact_counts(iterations)
        metrics, detail = per_layer(iterations)
    else:
        metrics, detail = end_to_end(iterations)
    attempted = sum(it.calls for it in iterations)
    failed = sum(it.failed_calls for it in iterations)
    for it in iterations:
        for failure in it.failures:
            print(f"FAILED: {failure}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    record = {
        "workload": workload.name,
        "why": workload.why,
        "argv": workload.calls(args.seed),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "iterations": [
            {"traced": it.traced, "calls": it.calls, "wall_s": it.wall_s,
             "setup_s": it.setup_s, "failures": it.failures}
            for it in iterations
        ],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "detail": detail,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as spans:
            for number, it in enumerate(iterations):
                for span in it.spans or ():
                    spans.write(json.dumps([number, *span]) + "\n")

    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
