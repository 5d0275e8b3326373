"""The benchmark's workloads and the checks on the files they write.

A workload is a list of ``caresim`` CLI argument lists made from a base
seed.  Its outputs are checked against the SHA-256 digests recorded in
``reference.json`` when the base seed is ``DEFAULT_SEED``, and
against the expected file structure for any other seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Base seed at which outputs are compared with ``reference.json``.
DEFAULT_SEED = 7

CSV_HEADER = (
    "model,stat,round,doctor_fitness,patient_fitness,research_ability,empathy,"
    "weight_wmrat,weight_mwres,cred_weight,mean_rating_weight,past_rating_weight,"
    "resilience,infections_applied,treatments_performed,untreated_seekers"
)

SIX_DECIMALS = re.compile(r"-?\d+\.\d{6}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    preset: str
    doctors: int
    patients: int
    rounds: int
    repeats: int
    calls_per_seed: int = 1
    snapshot_every: int = 0

    def calls(self, seed: int) -> list[list[str]]:
        """CLI argument lists (without ``--out``) for one run of the workload."""
        argv = ["--preset", self.preset, "--model", self.model]
        if self.preset == "paper-full":
            argv += ["--repeats", str(self.repeats)]
        if self.snapshot_every:
            argv += ["--snapshot-every", str(self.snapshot_every)]
        return [argv + ["--seed", str(seed + i)] for i in range(self.calls_per_seed)]

    def expected_files(self) -> list[str]:
        names = ["metrics.csv"]
        if self.snapshot_every:
            names += [
                f"network_run{run:03d}_round{round_index:04d}.json"
                for run in range(self.repeats)
                for round_index in range(self.snapshot_every, self.rounds + 1, self.snapshot_every)
            ]
        return sorted(names)

    def structure_errors(self, out_dir: Path) -> list[str]:
        """Differences between the files in ``out_dir`` and the expected layout."""
        found = sorted(p.name for p in out_dir.iterdir())
        if found != self.expected_files():
            return [f"files {found} != {self.expected_files()}"]
        errors = []
        lines = (out_dir / "metrics.csv").read_text(encoding="utf-8").split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            errors.append("metrics.csv header or final newline differs")
        rows = list(csv.reader(lines[1:-1]))
        expected_keys = [
            (self.model, stat, str(r)) for r in range(1, self.rounds + 1) for stat in ("mean", "std")
        ]
        if [tuple(row[:3]) for row in rows] != expected_keys:
            errors.append(f"metrics.csv has {len(rows)} rows, expected {len(expected_keys)}")
        if not all(len(row) == 16 and all(SIX_DECIMALS.fullmatch(c) for c in row[3:]) for row in rows):
            errors.append("metrics.csv has a value that is not a six-decimal real")
        nodes = self.doctors + self.patients
        edges = nodes * (nodes - 1)
        for name in self.expected_files():
            if not name.startswith("network_"):
                continue
            document = json.loads((out_dir / name).read_text(encoding="utf-8"))
            if len(document["nodes"]) != nodes or len(document["edges"]) != edges:
                errors.append(
                    f"{name}: {len(document['nodes'])} nodes / {len(document['edges'])} edges, "
                    f"expected {nodes} / {edges}"
                )
        return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="css-full",
            why="css paper-full, 2 repeats: the perception sweep (cognitive, ratings), elite deepcopy "
                "and 1.2M-tie agent init dominate; care drains by round ~9",
            model="css", preset="paper-full", doctors=100, patients=1000, rounds=100, repeats=2,
        ),
        Workload(
            name="classical-full",
            why="classical paper-full, 6 repeats: no perception sweep; doctor choice, ratings means, "
                "GA ranking/tournaments and engine triage stay busy until round ~44",
            model="classical", preset="paper-full", doctors=100, patients=1000, rounds=100, repeats=6,
        ),
        Workload(
            name="css-single-snap",
            why="10 css paper-single calls with snapshots every 5 rounds: the write path "
                "(snapshot capture and JSON export, 40 files) dominates; compute is small",
            model="css", preset="paper-single", doctors=15, patients=100, rounds=20, repeats=1,
            calls_per_seed=10, snapshot_every=5,
        ),
    )
}


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in ``out_dir``, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def load_reference() -> dict[str, list[dict[str, str]]]:
    """Per workload, the per-call digests at its default seed."""
    return json.loads(REFERENCE.read_text(encoding="utf-8"))
