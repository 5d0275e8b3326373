"""Round loop, run driver, repeat batches, and metrics aggregation.

One round (mini-generation) executes, in order:

1. Spread the configured number of infections among eligible patients;
   their infection orders continue the run's count of infections.
2. Sort the patients below the care threshold (the seekers) by triage
   priority, ties by ascending patient id.  From the first all-latent
   round on (see 3), no patient can need care, so the round skips this scan.
3. css only, and only when there is a seeker: build the respect matrix,
   and the sweep returns every doctor's confidence from it.  Confidence
   is read only by a treatment, and infection changes none of the
   sweep's inputs, so skipping the sweep in rounds without a seeker
   changes no output.  Classical doctors treat with confidence 0.0.
   A round with no infection and no seeker is all-latent, and so is every
   later one (only those two change health or infection status), so no
   sweep, judgment or rating reads a tie again: there the round's
   crossovers skip tie averaging once no snapshot is left to take, and
   ``capture_snapshot`` refuses the state from then on.
4. Let each seeker in triage order pick a doctor from the round's map of
   free doctors and be treated; a doctor who treats leaves the map.
5. Score every agent once, then evolve the patient population, then the
   doctor population, from those scores.  No score input changes in an
   all-latent round, so the first one keeps its score tables and every
   later round reuses them.
6. Compute the round's population metrics; the fitness means reuse the
   scores, since a generation step changes no fitness input.

Each treatment adds the patient's new health level to a running total
and count, so patient fitness reads as the mean quality of received
care, with the patient's current health standing in until first treated.

A run is strictly sequential and owns a single RNG stream seeded from
``derive_run_seed(base_seed, repeat_index)``; repeats are independent,
and batch aggregation reduces them in repeat-index order so it is
insensitive to any execution ordering.

A run keeps only its per-round metrics and final latent-infection count.
After every ``snapshot_every``-th round its snapshot goes to the caller's sink.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, fields
from functools import partial
from itertools import repeat
from typing import Callable

from . import classical, cognitive
from .agents import DoctorState, PatientState, init_doctor, init_patient
from .config import ModelKind, SimulationConfig
from .evolution import (
    crossover_doctor,
    crossover_patient,
    evolve_population,
    fitness_doctor,
    fitness_patient,
    mutate_doctor_classical,
    mutate_doctor_css,
    mutate_patient,
)
from .infection import needs_doctor, priority, spread_infection
from .ratings import RatingLedger
from .rng import RngStream, derive_run_seed


@dataclass
class RoundMetrics:
    round_index: int
    doctor_fitness: float
    patient_fitness: float
    research_ability: float
    empathy: float
    weight_wmrat: float
    weight_mwres: float
    cred_weight: float
    mean_rating_weight: float
    past_rating_weight: float
    resilience: float
    infections_applied: int
    treatments_performed: int
    untreated_seekers: int


# Ordered numeric fields exported per round: every RoundMetrics field after
# round_index, i.e. ten trait/fitness means and three event counts.
METRIC_FIELDS = tuple(f.name for f in fields(RoundMetrics))[1:]


@dataclass
class NetworkSnapshot:
    """Directed tie-strength graph over all agents at the end of a round.

    Node ids are namespaced strings (``d<i>`` for doctors, ``p<i>`` for
    patients); strengths are stored already rounded to six decimals, the
    precision the snapshot file holds.
    """

    round_index: int
    nodes: list[tuple[str, str]]
    edges: list[tuple[str, str, float]]


@dataclass
class RunState:
    config: SimulationConfig
    rng: RngStream
    doctors: list[DoctorState]
    patients: list[PatientState]
    ledger: RatingLedger
    infections: int = 0
    ties_unaveraged_from: int | None = None
    """First round whose crossovers skipped tie averaging (css only); None until then."""
    latent_scores: tuple[list[float], list[float]] | None = None
    """Patient and doctor score tables of the first all-latent round; None until then."""


@dataclass
class RunResult:
    metrics: list[RoundMetrics]
    latent_infected: int
    """Patients ending infected but healthy enough never to seek care: only a treatment
    clears an infection and only uninfected patients can be infected, so it is absorbing."""

    @property
    def last_active_round(self) -> int:
        """Last round in which any treatment happened; 0 if none did."""
        return max((m.round_index for m in self.metrics if m.treatments_performed > 0), default=0)


@dataclass
class RoundAggregate:
    """Across-repeat mean and population standard deviation, per round."""

    round_index: int
    model: ModelKind
    mean: dict[str, float]
    std: dict[str, float]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def init_run_state(config: SimulationConfig, run_seed: int) -> RunState:
    rng = RngStream(run_seed)
    sizes = (config.num_doctors, config.num_patients)
    doctors = [init_doctor(i, rng, config.model, *sizes) for i in range(config.num_doctors)]
    patients = [init_patient(i, rng, config.model, *sizes) for i in range(config.num_patients)]
    return RunState(
        config=config,
        rng=rng,
        doctors=doctors,
        patients=patients,
        ledger=RatingLedger(),
    )


def refresh_social_perception(doctors: list[DoctorState], ledger: RatingLedger) -> list[float]:
    """css sweep before a round's first treatment: every doctor's confidence
    from the respect matrix, one row per doctor, indexed by doctor id."""
    respect = [cognitive.update_respect_for_colleagues(d, doctors, ledger) for d in doctors]
    return [cognitive.update_confidence(d, ledger, respect) for d in doctors]


def run_round(state: RunState, round_index: int) -> RoundMetrics:
    """Run one round.  From the first all-latent round on, a round reuses that
    round's score tables and skips triage, and after the last scheduled snapshot
    it skips tie averaging, so every way of driving a run reaches the same state."""
    cfg = state.config
    css = cfg.model is ModelKind.CSS
    infections = spread_infection(
        state.patients, cfg.num_infected_per_round, state.infections, state.rng
    )
    state.infections += infections

    # A treatment changes only its own patient, so who seeks care this
    # round is settled before the first treatment; once the score tables
    # are frozen (see below), no one can.
    scores = state.latent_scores
    seekers = [] if scores is not None else sorted(
        filter(needs_doctor, state.patients), key=lambda p: (*priority(p), p.patient_id)
    )
    if css and seekers:
        confidence = refresh_social_perception(state.doctors, state.ledger)
    else:
        confidence = [0.0] * len(state.doctors)

    free = dict(enumerate(state.doctors))  # doctors[i] has id i
    judge = cognitive.judge_doctor_css if css else classical.judge_doctor
    treat = cognitive.receive_treatment_css if css else classical.receive_treatment
    for patient in seekers:
        chosen = classical.choose_doctor(patient, free, state.ledger, judge)
        if chosen is not None:
            treat(patient, free.pop(chosen), state.ledger, confidence[chosen])
    treatments = len(state.doctors) - len(free)

    rng, ledger = state.rng, state.ledger
    every = cfg.snapshot_every
    last_snapshot = cfg.num_rounds - cfg.num_rounds % every if every else 0
    # No infection and no seeker: health, infection status and the ledger
    # stay as they are in this round and every later one.
    all_latent = not (infections or seekers)
    average_ties = round_index <= last_snapshot or not all_latent
    if css and not average_ties and state.ties_unaveraged_from is None:
        state.ties_unaveraged_from = round_index
    if scores is None:
        scores = ([fitness_patient(p) for p in state.patients],
                  [fitness_doctor(d, ledger) for d in state.doctors])
        if all_latent:
            state.latent_scores = scores
    patient_scores, doctor_scores = scores
    mutate_doctor = mutate_doctor_css if css else mutate_doctor_classical
    evolve_population(state.patients, cfg, patient_scores, lambda p: mutate_patient(p, rng),
                      lambda loser, winner: crossover_patient(loser, winner, rng, average_ties), rng)
    evolve_population(state.doctors, cfg, doctor_scores, lambda d: mutate_doctor(d, ledger, rng),
                      lambda loser, winner: crossover_doctor(loser, winner, rng, average_ties), rng)

    return RoundMetrics(
        round_index=round_index,
        doctor_fitness=_mean(doctor_scores),
        patient_fitness=_mean(patient_scores),
        research_ability=_mean([d.research_ability for d in state.doctors]),
        empathy=_mean([d.empathy for d in state.doctors]),
        weight_wmrat=_mean([d.weight_wmrat for d in state.doctors]),
        weight_mwres=_mean([d.weight_mwres for d in state.doctors]),
        cred_weight=_mean([p.cred_weight for p in state.patients]),
        mean_rating_weight=_mean([p.mean_rating_weight for p in state.patients]),
        past_rating_weight=_mean([p.past_rating_weight for p in state.patients]),
        resilience=_mean([p.resilience for p in state.patients]),
        infections_applied=infections,
        treatments_performed=treatments,
        untreated_seekers=len(seekers) - treatments,
    )


def capture_snapshot(state: RunState, round_index: int) -> NetworkSnapshot:
    """The state's tie graph; raises ``ValueError`` once its ties went unaveraged."""
    if state.ties_unaveraged_from is not None:
        raise ValueError(
            f"tie averaging was skipped from round {state.ties_unaveraged_from} on, so the ties "
            "are not the model's; schedule the capture with snapshot_every"
        )
    names = {"d": [f"d{d.doctor_id}" for d in state.doctors],
             "p": [f"p{p.patient_id}" for p in state.patients]}
    nodes = [(name, "doctor") for name in names["d"]] + [(name, "patient") for name in names["p"]]
    edges: list[tuple[str, str, float]] = []
    for kind, agents in (("d", state.doctors), ("p", state.patients)):
        for own, agent in enumerate(agents):  # agents[i] has id i
            src = names[kind][own]
            for peer_kind, ties in (("d", agent.social_ties_doctors), ("p", agent.social_ties_patients)):
                part = list(zip(repeat(src), names[peer_kind], map(round, ties, repeat(6))))
                if peer_kind == kind and part:
                    del part[own]  # the agent's own slot is no edge
                edges += part
    return NetworkSnapshot(round_index=round_index, nodes=nodes, edges=edges)


def run_simulation(config: SimulationConfig, run_seed: int,
                   on_snapshot: Callable | None = None) -> RunResult:
    """Initialize populations from the seed and execute all rounds, passing
    each due snapshot to ``on_snapshot(snapshot)`` as it is captured.  A
    snapshot schedule without a sink raises ``ValueError`` before initialization."""
    if config.snapshot_every > 0 and on_snapshot is None:
        raise ValueError("snapshot_every is set but no on_snapshot sink was given")
    state = init_run_state(config, run_seed)
    metrics: list[RoundMetrics] = []
    for round_index in range(1, config.num_rounds + 1):
        metrics.append(run_round(state, round_index))
        if config.snapshot_every > 0 and round_index % config.snapshot_every == 0:
            on_snapshot(capture_snapshot(state, round_index))
    latent = sum(1 for p in state.patients if p.is_infected and not needs_doctor(p))
    return RunResult(metrics=metrics, latent_infected=latent)


@dataclass
class BatchResult:
    runs: list[RunResult]
    aggregates: list[RoundAggregate]


def aggregate_rounds(per_run_metrics: list[list[RoundMetrics]], model: ModelKind) -> list[RoundAggregate]:
    """Reduce per-run series (ordered by repeat index) into mean/std rows."""
    if not per_run_metrics:
        return []
    num_rounds = len(per_run_metrics[0])
    aggregates = []
    for r in range(num_rounds):
        rows = [series[r] for series in per_run_metrics]
        mean = {}
        std = {}
        for name in METRIC_FIELDS:
            values = [float(getattr(row, name)) for row in rows]
            mean[name] = _mean(values)
            std[name] = statistics.pstdev(values) if len(values) > 1 else 0.0
        aggregates.append(
            RoundAggregate(round_index=rows[0].round_index, model=model, mean=mean, std=std)
        )
    return aggregates


def run_batch(config: SimulationConfig, on_snapshot: Callable | None = None) -> BatchResult:
    """Run ``num_repeats`` simulations in repeat order and aggregate per round,
    passing each snapshot to ``on_snapshot(repeat, snapshot)`` as it is captured."""
    runs = [
        run_simulation(config, derive_run_seed(config.base_seed, repeat),
                       None if on_snapshot is None else partial(on_snapshot, repeat))
        for repeat in range(config.num_repeats)
    ]
    aggregates = aggregate_rounds([run.metrics for run in runs], config.model)
    return BatchResult(runs=runs, aggregates=aggregates)
