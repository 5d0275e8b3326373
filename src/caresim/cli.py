"""Command-line entry point.

Runs a repeat batch for one model variant, writes each (css) network
snapshot JSON file into the output directory as it is captured and the
aggregated metrics CSV after the batch, and prints a one-line summary.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import PRESETS, ConfigError, ModelKind, SimulationConfig
from .engine import run_batch
from .reporting import export_metrics_csv, export_network_snapshot

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caresim",
        description="Co-evolutionary doctor-patient care simulation.",
    )
    parser.add_argument("--model", choices=[m.value for m in ModelKind], default="classical")
    parser.add_argument("--preset", choices=sorted(PRESETS))
    # Each config flag's dest is the SimulationConfig field it overrides.
    parser.add_argument("--doctors", dest="num_doctors", type=int)
    parser.add_argument("--patients", dest="num_patients", type=int)
    parser.add_argument("--rounds", dest="num_rounds", type=int)
    parser.add_argument("--repeats", dest="num_repeats", type=int)
    parser.add_argument("--infected", dest="num_infected_per_round", type=int)
    parser.add_argument("--seed", dest="base_seed", type=int)
    parser.add_argument("--out", default="out")
    parser.add_argument("--snapshot-every", type=int)
    parser.add_argument("--tournaments-per-round", type=int)
    parser.add_argument("--elites", dest="num_elites", type=int)
    parser.add_argument("--mutation-chance", type=float)
    parser.add_argument("--crossover-chance", type=float)
    return parser


REQUIRED_WITHOUT_PRESET = {"--doctors": "num_doctors", "--patients": "num_patients",
                           "--rounds": "num_rounds", "--infected": "num_infected_per_round"}


def config_from_args(args: argparse.Namespace) -> SimulationConfig:
    given = dict(PRESETS.get(args.preset, {}))
    given.update((f.name, getattr(args, f.name)) for f in fields(SimulationConfig)
                 if getattr(args, f.name, None) is not None)
    missing = [flag for flag, name in REQUIRED_WITHOUT_PRESET.items() if name not in given]
    if missing:
        raise ConfigError("without --preset you must pass " + ", ".join(missing))
    return SimulationConfig(**given)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code

    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"caresim: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        def write_snapshot(repeat, snapshot):
            name = f"network_run{repeat:03d}_round{snapshot.round_index:04d}.json"
            export_network_snapshot(snapshot, out_dir / name)

        batch = run_batch(config, write_snapshot)
        export_metrics_csv(batch.aggregates, out_dir / "metrics.csv")
        final = batch.aggregates[-1] if batch.aggregates else None
        if final is not None:
            last_active = max(run.last_active_round for run in batch.runs)
            latent = sum(run.latent_infected for run in batch.runs)
            print(
                f"{config.model.value}: {config.num_repeats} run(s) x "
                f"{config.num_rounds} rounds -> doctor fitness "
                f"{final.mean['doctor_fitness']:.3f}, patient fitness "
                f"{final.mean['patient_fitness']:.3f}, last active round {last_active}, "
                f"latent infected {latent}/{config.num_repeats * config.num_patients} "
                f"(metrics: {out_dir / 'metrics.csv'})"
            )
        else:
            print(f"{config.model.value}: 0 rounds, header-only metrics written")
        return EXIT_OK
    except OSError as exc:
        print(f"caresim: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
