#!/usr/bin/env python3
"""Capture how the css social network transforms over a short run.

Runs the single-run preset with periodic snapshots and writes one JSON
edge list per capture as soon as it is taken; prints per-snapshot tie
statistics so the strengthening of ties is visible without any plotting
dependency.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from caresim import (
    ConfigError,
    derive_run_seed,
    export_network_snapshot,
    preset_single_run,
    run_simulation,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--every", type=int, default=5)
    parser.add_argument("--out", default="network-evolution")
    args = parser.parse_args()

    try:
        config = preset_single_run("css", base_seed=args.seed, snapshot_every=args.every)
    except ConfigError as exc:
        print(f"{parser.prog}: invalid configuration: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = config.num_rounds // config.snapshot_every if config.snapshot_every else 0
    print(f"{count} snapshots from {config.num_rounds} rounds "
          f"({config.num_doctors} doctors, {config.num_patients} patients)")

    def write(snapshot):
        path = out_dir / f"network_round{snapshot.round_index:04d}.json"
        export_network_snapshot(snapshot, path)
        strengths = [strength for _, _, strength in snapshot.edges]
        strong = sum(s > 0.8 for s in strengths)
        print(f"round {snapshot.round_index:3d}: {len(strengths)} edges, "
              f"mean strength {sum(strengths) / len(strengths):.3f}, "
              f"{strong} ties above 0.8 -> {path}")

    run_simulation(config, derive_run_seed(args.seed, 0), write)
    return 0


if __name__ == "__main__":
    sys.exit(main())
