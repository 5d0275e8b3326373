#!/usr/bin/env python3
"""Run the full-scale experiment for both model variants and export CSVs.

Produces one aggregated metrics file per variant plus a side-by-side
summary of the final-round means, which is the comparison the simulation
is built around (does the socially-embedded variant reach higher fitness
than the classical one?).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from caresim import (
    METRIC_FIELDS,
    ConfigError,
    ModelKind,
    export_metrics_csv,
    preset_full_scale,
    run_batch,
)

# The ten trait/fitness means; the event counts after them are left out.
SUMMARY_FIELDS = METRIC_FIELDS[:10]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=10,
                        help="independent runs per variant (the full protocol uses 50)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="experiments")
    args = parser.parse_args()

    try:
        configs = {
            model: preset_full_scale(model, num_repeats=args.repeats, base_seed=args.seed)
            for model in (ModelKind.CLASSICAL, ModelKind.CSS)
        }
    except ConfigError as exc:
        print(f"{parser.prog}: invalid configuration: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    finals = {}
    for model, config in configs.items():
        started = time.perf_counter()
        batch = run_batch(config)
        elapsed = time.perf_counter() - started
        path = out_dir / f"metrics_{model.value}.csv"
        export_metrics_csv(batch.aggregates, path)
        finals[model] = batch.aggregates[-1]
        print(f"{model.value}: {args.repeats} runs in {elapsed:.1f}s -> {path}")

    print(f"\nfinal-round means over {args.repeats} repeats (seed {args.seed}):")
    print(f"{'metric':<22}{'classical':>12}{'css':>12}")
    for name in SUMMARY_FIELDS:
        classical = finals[ModelKind.CLASSICAL].mean[name]
        css = finals[ModelKind.CSS].mean[name]
        print(f"{name:<22}{classical:>12.3f}{css:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
