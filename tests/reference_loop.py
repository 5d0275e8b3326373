"""A plain round loop, the reference the engine is compared with.

It reuses only the leaf formulas that criterion 1 pins (infection hit,
judgment, treatment, rating, mutation, crossover and fitness) and does
the orchestration the obvious way:

* init draws one tie at a time;
* infection samples from a full copy of the eligible pool;
* seekers are sorted by a tuple key;
* css runs the perception sweep in every round that has a seeker;
* each seeker picks by brute force over the doctors not in a busy set;
* every elite is copied by pickling, before the tournaments;
* every round recomputes every fitness score from the agents and ledger;
* a round with no infection and no seeker after the last scheduled
  snapshot skips tie averaging, the engine's rule, decided here from the
  round's own infections and seekers;
* a tournament samples a full copy of the ids and sorts the entrants by
  (score descending, id);
* the fitness means are recomputed after the GA step.

It calls none of the engine's orchestration: ``run_round``,
``evolve_population``, ``tournament_select``, ``choose_doctor``,
``spread_infection`` or ``RngStream.sample``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from caresim import (
    Credential,
    DoctorState,
    ModelKind,
    PatientState,
    RatingLedger,
    RngStream,
    RoundMetrics,
    SimulationConfig,
)
from caresim import classical, cognitive, evolution
from caresim.infection import INFECTION_ELIGIBLE_ABOVE, NEEDS_DOCTOR_THRESHOLD, infect
from support import comprehension_peer_ties, copying_sample, exhaustive_choose


@dataclass
class ReferenceRun:
    metrics: list[RoundMetrics]
    doctors: list[DoctorState]
    patients: list[PatientState]
    ledger: RatingLedger
    rng: RngStream


def _doctor(doctor_id: int, cfg: SimulationConfig, rng: RngStream) -> DoctorState:
    doctor = DoctorState(
        doctor_id=doctor_id,
        research_ability=rng.uniform(0.2, 0.6),
        empathy=rng.uniform(0.2, 0.7),
        technological_resource_constraint=rng.uniform(0.2, 0.5),
        credential=list(Credential)[rng.index(3)],
    )
    if cfg.model is ModelKind.CSS:
        doctor.social_ties_doctors = comprehension_peer_ties(doctor_id, cfg.num_doctors, rng)
        doctor.social_ties_patients = [rng.random() for _ in range(cfg.num_patients)]
    return doctor


def _patient(patient_id: int, cfg: SimulationConfig, rng: RngStream) -> PatientState:
    health = rng.uniform(0.5, 1.0)
    resilience = rng.uniform(0.1, 0.4)
    raw = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0)]
    total = raw[0] + raw[1] + raw[2]
    patient = PatientState(
        patient_id=patient_id,
        health_level=health,
        resilience=resilience,
        cred_weight=raw[0] / total,
        mean_rating_weight=raw[1] / total,
        past_rating_weight=raw[2] / total,
    )
    if cfg.model is ModelKind.CSS:
        patient.social_ties_doctors = [rng.random() for _ in range(cfg.num_doctors)]
        patient.social_ties_patients = comprehension_peer_ties(patient_id, cfg.num_patients, rng)
    return patient


def _rank_key(scores: list[float]):
    return lambda i: (-scores[i], i)


def _generation(population: list, cfg: SimulationConfig, scores: list[float],
                mutate, crossover, rng: RngStream, average_ties: bool) -> None:
    size = len(population)
    ranked = sorted(range(size), key=_rank_key(scores))
    elites = {i: pickle.loads(pickle.dumps(population[i])) for i in ranked[:cfg.num_elites]}
    for _ in range(cfg.tournaments_for(size)):
        entrants = sorted(copying_sample(rng, range(size), cfg.tournament_size), key=_rank_key(scores))
        winner, loser = population[entrants[0]], population[entrants[-1]]
        if rng.chance(cfg.crossover_chance):
            crossover(loser, winner, rng, average_ties)
        if rng.chance(cfg.mutation_chance):
            mutate(loser)
    for i, elite in elites.items():
        population[i] = elite


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _seeker_key(patient: PatientState):
    if patient.is_infected:
        return (0, patient.infected_order, patient.health_level, patient.patient_id)
    return (1, 0, patient.health_level, patient.patient_id)


def reference_run(cfg: SimulationConfig, run_seed: int) -> ReferenceRun:
    """Every round of one run, from the same seed as ``init_run_state``."""
    css = cfg.model is ModelKind.CSS
    rng = RngStream(run_seed)
    doctors = [_doctor(i, cfg, rng) for i in range(cfg.num_doctors)]
    patients = [_patient(i, cfg, rng) for i in range(cfg.num_patients)]
    ledger = RatingLedger()
    judge = cognitive.judge_doctor_css if css else classical.judge_doctor
    treat = cognitive.receive_treatment_css if css else classical.receive_treatment
    mutate_doctor = evolution.mutate_doctor_css if css else evolution.mutate_doctor_classical
    infections = 0
    last_snapshot = max((r for r in range(1, cfg.num_rounds + 1)
                         if cfg.snapshot_every and r % cfg.snapshot_every == 0), default=0)
    metrics = []
    for round_index in range(1, cfg.num_rounds + 1):
        eligible = [p for p in patients if not p.is_infected and p.health_level > INFECTION_ELIGIBLE_ABOVE]
        chosen = copying_sample(rng, eligible, min(cfg.num_infected_per_round, len(eligible)))
        for patient in chosen:
            infect(patient, infections)
            infections += 1

        seekers = sorted((p for p in patients if p.health_level < NEEDS_DOCTOR_THRESHOLD), key=_seeker_key)
        confidence = [0.0] * len(doctors)
        if css and seekers:
            respect = [cognitive.update_respect_for_colleagues(d, doctors, ledger) for d in doctors]
            confidence = [cognitive.update_confidence(d, ledger, respect) for d in doctors]
        busy: set[int] = set()
        for patient in seekers:
            pick = exhaustive_choose(patient, doctors, ledger, judge, busy)
            if pick is not None:
                treat(patient, doctors[pick], ledger, confidence[pick])
                busy.add(pick)

        average_ties = round_index <= last_snapshot or len(chosen) > 0 or len(seekers) > 0
        patient_scores = [evolution.fitness_patient(p) for p in patients]
        doctor_scores = [evolution.fitness_doctor(d, ledger) for d in doctors]
        _generation(patients, cfg, patient_scores, lambda p: evolution.mutate_patient(p, rng),
                    evolution.crossover_patient, rng, average_ties)
        _generation(doctors, cfg, doctor_scores, lambda d: mutate_doctor(d, ledger, rng),
                    evolution.crossover_doctor, rng, average_ties)

        metrics.append(RoundMetrics(
            round_index=round_index,
            doctor_fitness=_mean(evolution.fitness_doctor(d, ledger) for d in doctors),
            patient_fitness=_mean(evolution.fitness_patient(p) for p in patients),
            research_ability=_mean(d.research_ability for d in doctors),
            empathy=_mean(d.empathy for d in doctors),
            weight_wmrat=_mean(d.weight_wmrat for d in doctors),
            weight_mwres=_mean(d.weight_mwres for d in doctors),
            cred_weight=_mean(p.cred_weight for p in patients),
            mean_rating_weight=_mean(p.mean_rating_weight for p in patients),
            past_rating_weight=_mean(p.past_rating_weight for p in patients),
            resilience=_mean(p.resilience for p in patients),
            infections_applied=len(chosen),
            treatments_performed=len(busy),
            untreated_seekers=len(seekers) - len(busy),
        ))
    return ReferenceRun(metrics=metrics, doctors=doctors, patients=patients, ledger=ledger, rng=rng)
