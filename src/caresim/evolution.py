"""Microbial genetic algorithm with tournaments, elitism, mutation and
crossover, run the same way for both models.

Steady-state style: each event samples a tournament, the fittest member
wins, the least fit loses, and only the loser is (maybe) crossed toward
the winner and (maybe) mutated.  The top individuals are snapshotted
before the events and restored verbatim afterwards, so elites survive a
generation step bit-for-bit even if a tournament picked them as losers.
Ranking uses C-keyed sorts over ids (score ties to the lower id), so a
step's Python work is O(events x tournament size) and copies no population.
Fitness comes from a score table indexed by agent id that the engine
fills once per round; a step cannot move a score, since variation
touches neither health nor the ledger and a restored elite is an equal copy.

Draw order per event: tournament sample (k draws), crossover-chance
uniform, then mutation-chance uniform.  The chance uniforms are drawn
unconditionally so a run's draw sequence does not depend on the chance
values themselves.

Only doctor mutation differs between the models (``mutate_doctor_classical``
and ``mutate_doctor_css``).  Patient mutation and both crossovers are
shared, and their css-only parts change nothing for classical agents: a
classical agent holds no ties, so the patient tie step (skipped with its
draw) and the tie averaging have nothing to touch, and a classical
doctor's confidence weights stay at their initial 0.5, because only
``mutate_doctor_css`` moves them, so averaging two of them gives 0.5.
"""

from __future__ import annotations

import copy
import heapq
from typing import Callable

from .agents import DoctorState, PatientState
from .config import SimulationConfig
from .ratings import RatingLedger
from .rng import RngStream

MUTATION_AMOUNT_MAX = 0.05
TIE_MUTATION_RANGE = 0.1
LOW_FEEDBACK_CUTOFF = 3.0
CROSSOVER_INNER_CHANCE = 0.5


def fitness_doctor(doctor: DoctorState, ledger: RatingLedger) -> float:
    """Mean of the doctor's current ratings; zero while unrated."""
    return ledger.mean_rating(doctor.doctor_id)


def fitness_patient(patient: PatientState) -> float:
    """Mean post-treatment health; current health until first treated."""
    if not patient.times_treated:
        return patient.health_level
    return patient.treated_health_total / patient.times_treated


def tournament_select(population: list, k: int, scores: list[float], rng: RngStream):
    """Sample ``k`` distinct individuals; return (winner, loser).

    ``scores[i]`` is the fitness of the agent with id ``i``.  The winner
    has the highest score and the loser the lowest; equal scores rank by
    ascending id (stable sorts: by id, then by descending score).
    """
    entrants = rng.sample(range(len(population)), k)
    entrants.sort()
    entrants.sort(key=scores.__getitem__, reverse=True)
    return population[entrants[0]], population[entrants[-1]]


def mutate_doctor_classical(doctor: DoctorState, ledger: RatingLedger, rng: RngStream) -> None:
    """Feedback-driven nudge of research ability or empathy.

    Poor recent feedback (< 3) triples the mutation strength; the applied
    amount can never exceed the remaining personal resource, which pays
    for the change even when the trait clamp absorbs part of it.
    """
    factor = 3.0 if ledger.recent_feedback(doctor.doctor_id) < LOW_FEEDBACK_CUTOFF else 0.5
    amount = min(doctor.personal_resource, rng.uniform(0.0, MUTATION_AMOUNT_MAX)) * factor
    amount = min(amount, doctor.personal_resource)
    trait_pick = rng.random()
    change = amount * rng.sign()
    if trait_pick < 0.7:
        doctor.research_ability = max(0.0, min(1.0, doctor.research_ability + change))
    else:
        doctor.empathy = max(0.0, min(1.0, doctor.empathy + change))
    doctor.personal_resource = max(0.0, doctor.personal_resource - amount)


def mutate_doctor_css(doctor: DoctorState, ledger: RatingLedger, rng: RngStream) -> None:
    """Five-way trait mutation over research, empathy, confidence weights,
    and a single random social tie.

    The resource-funded buckets (research, empathy) are skipped entirely
    when personal resource is exhausted, in which case the trait draw
    falls through to the first confidence-weight bucket; a change that
    would leave [0, 1] is rejected, and the applied magnitude is capped
    by the remaining resource.
    """
    factor = 1.5 if ledger.recent_feedback(doctor.doctor_id) < LOW_FEEDBACK_CUTOFF else 0.5
    amount = rng.uniform(0.0, MUTATION_AMOUNT_MAX) * factor
    trait_pick = rng.random()
    if trait_pick < 0.4 and doctor.personal_resource > 0.0:
        trait = "research_ability" if trait_pick < 0.2 else "empathy"
        change = amount * rng.sign()
        value = getattr(doctor, trait)
        if 0.0 <= value + change <= 1.0:
            actual = min(abs(change), doctor.personal_resource)
            setattr(doctor, trait, value + (actual if change > 0 else -actual))
            doctor.personal_resource -= actual
    elif trait_pick < 0.8:
        trait = "weight_wmrat" if trait_pick < 0.6 else "weight_mwres"
        change = amount * rng.sign()
        setattr(doctor, trait, max(0.0, min(1.0, getattr(doctor, trait) + change)))
    else:
        # A lone doctor has only its own slot, so it falls back to patient ties.
        if rng.random() < 0.5 and len(doctor.social_ties_doctors) > 1:
            ties = doctor.social_ties_doctors
            key = rng.index(len(ties) - 1)
            key += key >= doctor.doctor_id
        else:
            ties = doctor.social_ties_patients
            key = rng.index(len(ties))
        ties[key] = max(0.0, min(1.0, ties[key] + amount * rng.sign()))


def _renormalize_weights(patient: PatientState) -> None:
    # Clamp before normalizing so the renormalized weights both sum to 1
    # and stay inside [0, 1] even when a delta pushed one weight negative.
    cred = max(0.0, min(1.0, patient.cred_weight))
    mean = max(0.0, min(1.0, patient.mean_rating_weight))
    past = max(0.0, min(1.0, patient.past_rating_weight))
    total = cred + mean + past
    if total > 0.0:
        patient.cred_weight = cred / total
        patient.mean_rating_weight = mean / total
        patient.past_rating_weight = past / total
    else:
        patient.cred_weight = 1 / 3
        patient.mean_rating_weight = 1 / 3
        patient.past_rating_weight = 1 / 3


def mutate_patient(patient: PatientState, rng: RngStream) -> None:
    """Shift the judgment weights along a sum-preserving direction, jitter
    resilience, and perturb social ties.

    The tie mutation picks one class (doctors or patients, 50/50) and
    perturbs every tie in it independently, in ascending id, skipping the
    patient's own slot.  A patient without ties (every classical patient)
    skips it and its draw.
    """
    delta = rng.uniform(-MUTATION_AMOUNT_MAX, MUTATION_AMOUNT_MAX)
    patient.cred_weight += delta
    patient.mean_rating_weight += delta
    patient.past_rating_weight -= 2.0 * delta
    resilience_change = rng.uniform(-MUTATION_AMOUNT_MAX, MUTATION_AMOUNT_MAX)
    patient.resilience = max(0.1, min(0.4, patient.resilience + resilience_change))
    _renormalize_weights(patient)
    if not (patient.social_ties_doctors or patient.social_ties_patients):
        return
    if rng.random() < 0.5:
        ties, self_id = patient.social_ties_doctors, -1
    else:
        ties, self_id = patient.social_ties_patients, patient.patient_id
    for key, strength in enumerate(ties):
        if key != self_id:
            ties[key] = max(0.0, min(1.0, strength + rng.uniform(-TIE_MUTATION_RANGE, TIE_MUTATION_RANGE)))


def _average_ties(loser_ties: list[float], winner_ties: list[float], *keep: int) -> list[float]:
    """Slot-wise means of two tie lists; the ``keep`` slots hold the loser's value."""
    averaged = [(x + y) * 0.5 for x, y in zip(loser_ties, winner_ties)]
    if averaged:  # classical agents hold no ties
        for key in keep:
            averaged[key] = loser_ties[key]
    return averaged


def crossover_doctor(loser: DoctorState, winner: DoctorState, rng: RngStream,
                     average_ties: bool = True) -> None:
    """With inner 50% chance, pull the loser's traits to the parents' means.

    Only the loser changes; its own and the winner's doctor-tie slots stay.
    ``average_ties=False`` leaves both tie lists as they are.
    """
    if not rng.chance(CROSSOVER_INNER_CHANCE):
        return
    loser.research_ability = (loser.research_ability + winner.research_ability) / 2.0
    loser.empathy = (loser.empathy + winner.empathy) / 2.0
    loser.weight_wmrat = (loser.weight_wmrat + winner.weight_wmrat) / 2.0
    loser.weight_mwres = (loser.weight_mwres + winner.weight_mwres) / 2.0
    if average_ties:
        loser.social_ties_doctors = _average_ties(
            loser.social_ties_doctors, winner.social_ties_doctors, loser.doctor_id, winner.doctor_id
        )
        loser.social_ties_patients = _average_ties(loser.social_ties_patients, winner.social_ties_patients)


def crossover_patient(loser: PatientState, winner: PatientState, rng: RngStream,
                      average_ties: bool = True) -> None:
    """With inner 50% chance, average resilience, judgment weights and ties
    into the loser, except its own and the winner's patient-tie slots;
    ``average_ties=False`` leaves both tie lists as they are."""
    if not rng.chance(CROSSOVER_INNER_CHANCE):
        return
    loser.resilience = (loser.resilience + winner.resilience) / 2.0
    loser.cred_weight = (loser.cred_weight + winner.cred_weight) / 2.0
    loser.mean_rating_weight = (loser.mean_rating_weight + winner.mean_rating_weight) / 2.0
    loser.past_rating_weight = (loser.past_rating_weight + winner.past_rating_weight) / 2.0
    _renormalize_weights(loser)
    if average_ties:
        loser.social_ties_doctors = _average_ties(loser.social_ties_doctors, winner.social_ties_doctors)
        loser.social_ties_patients = _average_ties(
            loser.social_ties_patients, winner.social_ties_patients, loser.patient_id, winner.patient_id
        )


def evolve_population(
    population: list,
    cfg: SimulationConfig,
    scores: list[float],
    mutate: Callable,
    crossover: Callable,
    rng: RngStream,
) -> None:
    """Run one generation step of tournament events over the population.

    ``population[i]`` has agent id ``i`` and fitness ``scores[i]``.
    ``cfg`` supplies the tournament size, elite count, chances and
    ``cfg.tournaments_for(len(population))`` events.  ``crossover(loser,
    winner)`` and ``mutate(loser)`` are invoked behind their chances; the
    top ``num_elites`` scores (``heapq.nlargest``, which equals a stable
    descending sort, so ties go to the lower id) are restored verbatim.
    """
    elites = heapq.nlargest(cfg.num_elites, range(len(population)), key=scores.__getitem__)
    snapshots = [(i, copy.deepcopy(population[i])) for i in elites]
    size, chance = cfg.tournament_size, rng.chance
    crossover_chance, mutation_chance = cfg.crossover_chance, cfg.mutation_chance
    for _ in range(cfg.tournaments_for(len(population))):
        winner, loser = tournament_select(population, size, scores, rng)
        if chance(crossover_chance):
            crossover(loser, winner)
        if chance(mutation_chance):
            mutate(loser)
    for slot, snapshot in snapshots:
        population[slot] = snapshot
