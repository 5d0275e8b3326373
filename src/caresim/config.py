"""Run configuration: model variant, population sizes, and GA knobs.

A :class:`SimulationConfig` is checked once, when it is built, and is
frozen afterwards, so every config that exists is valid and nothing
downstream checks it again.

Two presets mirror the reference experiment setups: ``paper-full``
(100 doctors, 1000 patients, 100 rounds, 200 infections per round,
50 repeats) and ``paper-single`` (15 doctors, 100 patients, 20 rounds,
one infection attempt per patient per round, single run).  ``PRESETS``
maps each name to its table of field values; a preset config is built
from that table, the model and any overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ModelKind(str, Enum):
    CLASSICAL = "classical"
    CSS = "css"


class ConfigError(ValueError):
    """Raised when a configuration fails validation."""


# GA chances differ between the variants: the classical model relies on
# frequent mutation, the cognitive-social-system model on crossover.
DEFAULT_MUTATION_CHANCE = {ModelKind.CLASSICAL: 0.5, ModelKind.CSS: 0.01}
DEFAULT_CROSSOVER_CHANCE = {ModelKind.CLASSICAL: 0.3, ModelKind.CSS: 0.5}


@dataclass(frozen=True)
class SimulationConfig:
    """One run setup, checked once, when it is built: the constructor
    normalises ``model``, fills in its default GA chances and raises
    :class:`ConfigError` on the first broken rule.  It is frozen, so a config
    that exists stays valid; ``dataclasses.replace`` builds a checked copy."""

    model: ModelKind
    num_doctors: int
    num_patients: int
    num_rounds: int
    num_infected_per_round: int
    num_repeats: int = 1
    mutation_chance: float | None = None
    crossover_chance: float | None = None
    tournament_size: int = 5
    num_elites: int = 1
    tournaments_per_round: int | None = None
    base_seed: int = 0
    snapshot_every: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "model", ModelKind(self.model))
        except ValueError:
            names = [kind.value for kind in ModelKind]
            raise ConfigError(f"model must be one of {names}, got {self.model!r}") from None
        if self.mutation_chance is None:
            object.__setattr__(self, "mutation_chance", DEFAULT_MUTATION_CHANCE[self.model])
        if self.crossover_chance is None:
            object.__setattr__(self, "crossover_chance", DEFAULT_CROSSOVER_CHANCE[self.model])
        counts = {
            "num_doctors": self.num_doctors,
            "num_patients": self.num_patients,
            "num_rounds": self.num_rounds,
            "num_infected_per_round": self.num_infected_per_round,
            "num_repeats": self.num_repeats,
            "tournament_size": self.tournament_size,
            "num_elites": self.num_elites,
            "base_seed": self.base_seed,
            "snapshot_every": self.snapshot_every,
        }
        if self.tournaments_per_round is not None:
            counts["tournaments_per_round"] = self.tournaments_per_round
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("mutation_chance", "crossover_chance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.num_doctors <= 0 or self.num_patients <= 0:
            raise ConfigError("population sizes must be positive")
        if self.num_rounds < 0:
            raise ConfigError("num_rounds must be non-negative")
        if self.num_repeats < 1:
            raise ConfigError("num_repeats must be at least 1")
        if self.num_infected_per_round < 0:
            raise ConfigError("num_infected_per_round must be non-negative")
        if self.num_infected_per_round > self.num_patients:
            raise ConfigError("num_infected_per_round cannot exceed num_patients")
        if not 0.0 <= self.mutation_chance <= 1.0:
            raise ConfigError("mutation_chance must lie in [0, 1]")
        if not 0.0 <= self.crossover_chance <= 1.0:
            raise ConfigError("crossover_chance must lie in [0, 1]")
        smallest = min(self.num_doctors, self.num_patients)
        if self.tournament_size < 1 or self.tournament_size > smallest:
            raise ConfigError("tournament_size must fit inside both populations")
        if self.num_elites < 0 or self.num_elites >= smallest:
            raise ConfigError("num_elites must be smaller than both populations")
        if self.tournaments_per_round is not None and self.tournaments_per_round < 1:
            raise ConfigError("tournaments_per_round must be positive when given")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be non-negative")
        if self.snapshot_every > 0 and self.model is not ModelKind.CSS:
            raise ConfigError("network snapshots are only defined for the css model")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError("base_seed must be a non-negative 64-bit integer")

    def tournaments_for(self, population_size: int) -> int:
        """Tournament events per round for one population (default: size/10 rounded up)."""
        if self.tournaments_per_round is not None:
            return self.tournaments_per_round
        return math.ceil(population_size / 10)


PRESETS = {
    "paper-full": dict(num_doctors=100, num_patients=1000, num_rounds=100,
                       num_infected_per_round=200, num_repeats=50),
    "paper-single": dict(num_doctors=15, num_patients=100, num_rounds=20,
                         num_infected_per_round=100, num_repeats=1),
}
"""Field values of each named setup; ``model`` and any override complete it."""


def preset_full_scale(model: ModelKind | str, **overrides) -> SimulationConfig:
    """The ``paper-full`` setup: 100 doctors, 1000 patients, 100 rounds."""
    return SimulationConfig(model=model, **{**PRESETS["paper-full"], **overrides})


def preset_single_run(model: ModelKind | str, **overrides) -> SimulationConfig:
    """The ``paper-single`` setup: 15 doctors, 100 patients, 20 rounds."""
    return SimulationConfig(model=model, **{**PRESETS["paper-single"], **overrides})
